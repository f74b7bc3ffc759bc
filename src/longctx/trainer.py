"""Symmetric contrastive training loop.

One optimizer step = encode both modalities, symmetric cross-entropy over the
scaled similarity matrix, backward, global-norm clipping, decoupled-weight-
decay Adam update with linear-warmup/cosine-decay learning rate, and a clamp
on the learnable temperature exponent.  Everything is seeded and
deterministic; the loss curve records wall time but the curve's deterministic
identity is (step, loss, lr).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import PairedCorpus, write_csv
from .encoders import (
    BIAS_SUFFIXES,
    ImageEncoderConfig,
    TextEncoderConfig,
    TrainedModel,
    batch_arrays,
    build_image_tower,
    build_text_tower,
    init_params,
    text_inputs,
)
from .errors import NumericError, UsageError
from .numerics import Graph, backward, forward
from .tokenizer import Vocab, encode

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
# the learnable temperature: logits start scaled by 1/0.07, never by more than 100
LOG_SCALE_INIT = math.log(1.0 / 0.07)
LOG_SCALE_MAX = math.log(100.0)
DESK_SCALE_WARMUP_FRACTION = 0.05   # stands in for warmup 1000 of ~20k+ steps


@dataclass(frozen=True)
class TrainConfig:
    context_length: int = 512
    batch_size: int = 64
    learning_rate: float = 5e-4
    warmup_steps: int = 1000
    max_epochs: int = 20
    grad_clip_norm: float = 1.0
    seed: int = 0
    weight_decay: float = 0.2
    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise UsageError(f"dtype must be float32 or float64, not {self.dtype!r}")
        for name in ("learning_rate", "grad_clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"{name} must be a positive finite number, not {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise UsageError(f"weight_decay must be a finite number of at least 0, "
                             f"not {self.weight_decay}")
        if self.batch_size < 2:
            raise UsageError("contrastive training needs batch_size >= 2")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be at least 1, not {self.max_epochs}")
        if self.warmup_steps < 0:
            raise UsageError(f"warmup_steps must be at least 0, not {self.warmup_steps}")

    def check_corpus_size(self, size: int) -> None:
        """Every epoch trains at least one full batch."""
        if size < self.batch_size:
            raise UsageError(f"corpus size {size} < batch_size {self.batch_size}")


class TrainState:
    """The training state after ``step`` steps.  The parameters, both AdamW
    moments and the gradient are one contiguous buffer each (``p``, ``m``,
    ``v``, ``g``), plus a scratch buffer, so that an update is a few
    whole-buffer ufuncs that allocate nothing; ``params`` and ``grads`` are
    views into ``p`` and ``g``.  Decayable parameters come first: weight
    decay covers the leading ``n_decay`` elements."""

    def __init__(self, params: dict, log_scale: float):
        """Step 0: the parameters copied into new buffers, zero moments."""
        self.shapes = {k: p.shape for k, p in params.items()}
        self.order = sorted(params, key=lambda k: not decayable(k))
        self.n_decay = sum(params[k].size for k in self.order if decayable(k))
        size = sum(p.size for p in params.values())
        dtype = np.result_type(*params.values())
        self.p, self.m, self.v, self.g, self.scratch = (
            np.zeros(size, dtype=dtype) for _ in range(5))
        self.gather(params, self.p)
        self.params, self.grads = self.views(self.p), self.views(self.g)
        self.step = 0
        self.log_scale = log_scale

    def gather(self, arrays: dict, buf: np.ndarray) -> None:
        np.concatenate([arrays[k].ravel() for k in self.order], out=buf)

    def views(self, buf: np.ndarray) -> dict:
        """``buf`` cut into the parameters' shapes, in the parameters' order."""
        out, start = {}, 0
        for k in self.order:
            n = math.prod(self.shapes[k])
            out[k] = buf[start:start + n].reshape(self.shapes[k])
            start += n
        return {k: out[k] for k in self.shapes}


@dataclass(frozen=True)
class LossPoint:
    step: int
    loss: float
    lr: float
    seconds: float


@dataclass
class TrainResult:
    model: TrainedModel
    state: TrainState
    curve: list[LossPoint]


def effective_warmup(cfg: TrainConfig, total_steps: int) -> int:
    """Configured warmup at paper scale; proportionally shrunk desk-scale.

    Below 1000 total steps the configured warmup would swallow the whole
    schedule, so it is capped at 5% of total steps (50 per 1000).
    """
    if total_steps >= 1000:
        return cfg.warmup_steps
    return min(cfg.warmup_steps, max(1, int(total_steps * DESK_SCALE_WARMUP_FRACTION)))


def lr_schedule(step: int, cfg: TrainConfig, total_steps: int) -> float:
    """Linear warmup to ``learning_rate``, then cosine decay to zero."""
    warmup = effective_warmup(cfg, total_steps)
    if total_steps <= warmup:
        raise UsageError("total_steps must exceed warmup")
    if step < warmup:
        return cfg.learning_rate * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def clip_gradients(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Rescale all gradients, in place, so the global L2 norm is at most
    ``max_norm``; returns ``grads`` and the norm before clipping."""
    if max_norm <= 0:
        raise UsageError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    # NaN or +/-Inf makes the float64 sum non-finite; so does a finite float64
    # gradient whose square overflows, which is clipped to zeros below
    if not math.isfinite(total) and not all(np.isfinite(g).all() for g in grads.values()):
        raise NumericError("non-finite gradient")
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grads, norm
    factor = max_norm / norm
    for g in grads.values():
        g *= factor
    return grads, norm


def decayable(name: str) -> bool:
    """Decoupled weight decay applies to weight matrices only."""
    return (not name.endswith((".g", *BIAS_SUFFIXES))
            and name not in ("txt.pos_emb", "log_scale"))


@functools.cache
def _build_train_graph(text_cfg, img_cfg, batch, seq_len, dtype) -> Graph:
    g = Graph(dtype=dtype)
    z_txt = build_text_tower(g, text_cfg, batch, seq_len)
    z_img = build_image_tower(g, img_cfg)
    s = g.exp(g.input("log_scale"))
    sim = g.mul(g.matmul(z_img, g.transpose(z_txt, (1, 0))), s, name="sim")
    d = g.diag(sim)
    row_ce = g.mean(g.sub(g.logsumexp(sim), d))
    col_ce = g.mean(g.sub(g.logsumexp(g.transpose(sim, (1, 0))), d))
    g.output(g.scale(g.add(row_ce, col_ce), 0.5, name="loss"))
    g.output(sim, "sim")
    return g


def train(cfg: TrainConfig, corpus: PairedCorpus, text_cfg: TextEncoderConfig,
          img_cfg: ImageEncoderConfig, vocab: Vocab) -> TrainResult:
    """Full training run over seeded shuffled epochs; drops partial batches.

    Aborts with a step-naming diagnostic if the loss leaves the finite
    domain.
    """
    cfg.check_corpus_size(len(corpus))
    if text_cfg.context_length != cfg.context_length:
        raise UsageError("text_cfg.context_length must match cfg.context_length")

    params = {k: v.astype(cfg.dtype) for k, v in init_params(text_cfg, img_cfg,
                                                             cfg.seed).items()}
    params["log_scale"] = np.asarray(LOG_SCALE_INIT, dtype=cfg.dtype)
    state = TrainState(params, LOG_SCALE_INIT)

    seqs = [encode(vocab, r.caption, cfg.context_length) for r in corpus.records]
    ids_all, visible_all = batch_arrays(seqs, pad_id=vocab.pad_id,
                                        trim_to=cfg.context_length)
    images_all = corpus.images().astype(cfg.dtype)

    steps_per_epoch = len(corpus) // cfg.batch_size
    total_steps = cfg.max_epochs * steps_per_epoch
    rng = np.random.default_rng(cfg.seed)
    curve: list[LossPoint] = []
    t0 = time.perf_counter()

    for _epoch in range(cfg.max_epochs):
        order = rng.permutation(len(corpus))
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            visible = visible_all[idx]
            seq_len = _round_up(int(visible.max()), 8, cfg.context_length)
            graph = _build_train_graph(text_cfg, img_cfg, cfg.batch_size, seq_len, cfg.dtype)
            bindings = {**state.params, **text_inputs(ids_all[idx][:, :seq_len], visible),
                        "img": images_all[idx]}
            try:
                tape = forward(graph, bindings)
            except NumericError as exc:
                raise NumericError(f"training diverged at step {state.step}: {exc}") from exc
            loss = float(tape.outputs["loss"])
            state.gather(backward(tape, output="loss"), state.g)
            clip_gradients(state.grads, cfg.grad_clip_norm)
            lr = lr_schedule(state.step, cfg, total_steps)
            _adamw_update(state, lr, cfg)
            state.log_scale = min(float(state.params["log_scale"]), LOG_SCALE_MAX)
            state.params["log_scale"][...] = state.log_scale
            curve.append(LossPoint(step=state.step, loss=loss, lr=lr,
                                   seconds=time.perf_counter() - t0))
            state.step += 1

    model = TrainedModel(text_cfg=text_cfg, img_cfg=img_cfg,
                         params=state.params, vocab=vocab, log_scale=state.log_scale)
    return TrainResult(model=model, state=state, curve=curve)


def _round_up(n: int, multiple: int, cap: int) -> int:
    return min(cap, ((n + multiple - 1) // multiple) * multiple)


def _adamw_update(state: TrainState, lr: float, cfg: TrainConfig) -> None:
    """Decoupled-weight-decay Adam over the state's buffers, in place, with
    the gradient in ``state.g``; the update then uses that buffer as scratch."""
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    state.m *= ADAM_BETA1
    state.m += np.multiply(state.g, 1.0 - ADAM_BETA1, out=state.scratch)
    state.v *= ADAM_BETA2
    state.v += np.multiply(np.square(state.g, out=state.scratch), 1.0 - ADAM_BETA2,
                           out=state.scratch)
    # update = (m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p, built in
    # the gradient buffer, which the moments no longer need
    denom = np.sqrt(np.divide(state.v, bc2, out=state.scratch), out=state.scratch)
    denom += ADAM_EPS
    update = np.divide(state.m, bc1, out=state.g)
    update /= denom
    d = state.n_decay
    update[:d] += np.multiply(state.p[:d], cfg.weight_decay, out=state.scratch[:d])
    update *= lr
    state.p -= update


# -- loss-curve files ---------------------------------------------------------------


def write_loss_curve(curve: list[LossPoint], path) -> None:
    write_csv(path, ["step", "loss", "lr", "seconds"],
              ([p.step, p.loss, p.lr, f"{p.seconds:.3f}"] for p in curve))


def steps_to_loss(curve: list[LossPoint], threshold: float) -> int | None:
    """First step whose loss is at or below the threshold; None if never."""
    for p in curve:
        if p.loss <= threshold:
            return p.step
    return None
