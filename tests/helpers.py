"""Shared test fixtures and oracles."""

import io
import json
import math
import os
import re
import signal
import tarfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from longctx import cli
from longctx.data import PairedCorpus, json_line
from longctx.errors import UsageError
from longctx.longcap import CaptionRecord
from longctx.numerics import LAYERNORM_EPS, Graph, _fwd, _sum_to_shape, _vjp, forward
from longctx.tokenizer import _CHUNK_RE, Vocab, train_bpe
from longctx.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, decayable, train


def save_shards(corpus: PairedCorpus, path, shard_size: int = 1000) -> None:
    """``corpus`` as tar shards under the directory ``path``: per record an
    ``<id>.npy`` image member, an ``<id>.txt`` caption member and, when it
    has a context, an ``<id>.json`` member; ``shard_size`` records a shard."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for si, start in enumerate(range(0, len(corpus.records), shard_size)):
        with tarfile.open(path / f"shard-{si:05d}.tar", "w") as tar:
            for rec in corpus.records[start:start + shard_size]:
                buf = io.BytesIO()
                np.save(buf, rec.image)
                _add_member(tar, f"{rec.id}.npy", buf.getvalue())
                _add_member(tar, f"{rec.id}.txt", rec.caption.encode("utf-8"))
                if rec.context:
                    _add_member(tar, f"{rec.id}.json",
                                json.dumps(rec.context, sort_keys=True).encode("utf-8"))


def _add_member(tar, name: str, payload: bytes) -> None:
    info = tarfile.TarInfo(name)
    info.size = len(payload)
    info.mtime = 0
    tar.addfile(info, io.BytesIO(payload))


def train_with_bpe(cfg, corpus, vocab_size: int = 300):
    """``trainer.train`` on a BPE vocabulary of the corpus captions, with the
    encoders of ``longctx train``'s defaults."""
    vocab = train_bpe(corpus.captions(), vocab_size)
    defaults = {key: default for key, (_, default, _) in cli.SCHEMAS["train"].items()}
    text_cfg, img_cfg = cli._encoder_configs(defaults, cfg.context_length, vocab.size,
                                             corpus.image_dim)
    return train(cfg, corpus, text_cfg, img_cfg, vocab)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def contrastive_loss(z_img: np.ndarray, z_txt: np.ndarray,
                     log_scale: float) -> tuple[float, np.ndarray]:
    """Symmetric InfoNCE-style loss over unit-norm embeddings.

    sim[i][j] = exp(log_scale) * <z_img_i, z_txt_j>; the loss averages the
    row-wise (image->text) and column-wise (text->image) cross-entropies with
    the diagonal as the target.
    """
    z_img = np.asarray(z_img, dtype=np.float64)
    z_txt = np.asarray(z_txt, dtype=np.float64)
    if z_img.shape != z_txt.shape or z_img.ndim != 2:
        raise UsageError(f"paired embeddings required, got {z_img.shape} / {z_txt.shape}")
    n = z_img.shape[0]
    if n < 2:
        raise UsageError("contrastive loss needs at least 2 pairs")
    for name, z in (("image", z_img), ("text", z_txt)):
        norms = np.linalg.norm(z, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-5:
            raise UsageError(f"{name} embeddings are not unit-norm")
    sim = math.exp(log_scale) * (z_img @ z_txt.T)
    loss = 0.5 * (_cross_entropy_rows(sim) + _cross_entropy_rows(sim.T))
    return float(loss), sim


def _cross_entropy_rows(sim: np.ndarray) -> float:
    m = sim.max(axis=1, keepdims=True)
    lse = np.squeeze(m, 1) + np.log(np.exp(sim - m).sum(axis=1))
    return float(np.mean(lse - np.diagonal(sim)))


def fixture_caption_records():
    """The 10-record pipeline fixture: mixed visual/non-visual content."""
    rows = [
        ("histology slide of liver tissue", ("the section shows hepatocytes with clear cytoplasm",),
         "We examined liver biopsies stained with standard protocols.", {"HE": "hematoxylin and eosin"}),
        ("HE stain of tumor margin", ("arrows mark the invasive front of the tumor",),
         "Tumor margins were assessed in resected specimens.", {"HE": "hematoxylin and eosin"}),
        ("chest radiograph with right basal opacity", ("the opacity obscures the right hemidiaphragm",),
         "Patient survival improved after treatment in this cohort.", {"CXR": "chest X-ray"}),
        ("fluorescence image of labeled cells", ("green fluorescence marks transfected cells",),
         "Imaging was performed at fixed exposure.", {"GFP": "green fluorescent protein"}),
        ("electron micrograph of mitochondria", ("cristae appear densely packed",),
         "Ultrastructure was preserved by rapid fixation.", {}),
        ("CT section at the level of the kidneys", ("both kidneys show normal enhancement",),
         "Follow-up imaging showed improved outcome at one year.", {"CT": "computed tomography"}),
        ("gel electrophoresis of PCR products", ("lane three contains the positive control band",),
         "Amplification used thirty cycles.", {"PCR": "polymerase chain reaction"}),
        ("fundus photograph of the left eye", ("the optic disc margins are sharp",),
         "Retinal images were graded by two readers.", {}),
        ("scatter plot of measured intensities", ("each point is one imaged cell",),
         "Intensity correlated with marker expression.", {}),
        ("MRI brain axial slice", ("a hyperintense lesion sits in the left frontal lobe",),
         "Lesion burden predicted prognosis in the full cohort.", {"MRI": "magnetic resonance imaging"}),
    ]
    return [
        CaptionRecord(id=f"fix-{i:02d}", image_ref=f"img://{i:02d}",
                      caption=cap, inline_mentions=mentions, abstract=abstract,
                      acronym_map=acronyms)
        for i, (cap, mentions, abstract, acronyms) in enumerate(rows)
    ]


def reference_train_bpe(corpus: list[str], vocab_size: int) -> Vocab:
    """Oracle BPE trainer: recount every pair of every chunk for each merge.

    Ties in count go to the pair with the lexicographically smallest
    (left, right) byte strings, where a string sorts after the strings it is
    a prefix of (the effect of comparing byte-negated strings); of pairs with
    equal byte strings, the first counted wins (``max`` keeps the first
    maximum in the count table's insertion order).
    """
    chunk_freq: dict[bytes, int] = {}
    for text in corpus:
        for chunk in _CHUNK_RE.findall(text):
            b = chunk.encode("utf-8")
            chunk_freq[b] = chunk_freq.get(b, 0) + 1
    items = [[list(b), f] for b, f in sorted(chunk_freq.items())]

    token_bytes: list[bytes] = [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int]] = []

    def sort_key(pair):
        left = bytes(255 - b for b in token_bytes[pair[0]])
        right = bytes(255 - b for b in token_bytes[pair[1]])
        return (left, right)

    for _ in range(vocab_size - 259):
        counts: dict[tuple[int, int], int] = {}
        for ids, f in items:
            for pair in zip(ids, ids[1:]):
                counts[pair] = counts.get(pair, 0) + f
        if not counts:
            break
        best = max(counts.items(), key=lambda kv: (kv[1], sort_key(kv[0])))[0]
        new_id = len(token_bytes)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])
        merges.append(best)
        for item in items:
            ids, out, i = item[0], [], 0
            while i < len(ids):
                if i + 1 < len(ids) and (ids[i], ids[i + 1]) == best:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(ids[i])
                    i += 1
            item[0] = out

    pad_id = len(token_bytes)
    token_bytes.extend([b"", b"", b""])
    return Vocab(merges=tuple(merges), token_bytes=tuple(token_bytes),
                 pad_id=pad_id, bos_id=pad_id + 1, eos_id=pad_id + 2)


# -- oracles for the training-step kernels ------------------------------------------
#
# The straightforward rules the fast kernels in numerics.py and trainer.py
# replace.  The fast kernels must match them byte for byte.


def bits(a) -> np.ndarray:
    """The array's bytes as unsigned integers, so that -0 differs from +0."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


def _layer_norm_parts(x):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (x - mu) * inv
    return xhat, inv


def reference_fwd(node, xs):
    """``numerics._fwd`` with the layer norm computed out of place."""
    if node.op == "layer_norm":
        x, gain, bias = xs
        xhat, inv = _layer_norm_parts(x)
        return xhat * gain + bias, (xhat, inv)
    return _fwd(node, xs)


def reference_vjp(node, xs, y, gy, aux):
    """``numerics._vjp`` with the matmul, layer norm and embedding rules
    written out plainly: a full matmul, out-of-place arithmetic and a 2-D
    ``np.add.at``."""
    op = node.op
    if op == "matmul":
        a, b = xs
        ga = np.matmul(gy, np.swapaxes(b, -1, -2))
        gb = np.matmul(np.swapaxes(a, -1, -2), gy)
        return [_sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)]
    if op == "layer_norm":
        x, gain, bias = xs
        xhat, inv = aux
        dxhat = gy * gain
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        dgain = _sum_to_shape(gy * xhat, gain.shape)
        dbias = _sum_to_shape(gy, bias.shape)
        return [dx, dgain, dbias]
    if op == "embedding":
        table, ids = xs
        gt = np.zeros_like(table)
        np.add.at(gt, ids, gy)
        return [gt, None]
    return _vjp(node, xs, y, gy, aux)


def reference_adamw_update(state, lr, cfg) -> None:
    """AdamW one parameter at a time, from the gradients in ``state.grads``;
    each new parameter is written into place, so ``state.params`` keeps its
    arrays."""
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, g in state.grads.items():
        m = state.m[k]
        v = state.v[k]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if decayable(k):
            update = update + cfg.weight_decay * state.params[k]
        state.params[k][...] = state.params[k] - lr * update


# -- oracle for the folded last text block ------------------------------------------


def eos_row_text_tower(g, cfg, batch, seq_len):
    """Oracle for ``encoders.build_text_tower``: the same tower with the last
    block's keys and values projected at every position.

    Only the EOS position of the last block reaches the pooled output, so
    that block computes its query, residual and feed-forward for the EOS
    row alone; keys and values still span every position.
    """
    d, heads = cfg.embed_dim, cfg.num_heads
    dh = d // heads
    ids = g.input("ids")
    mask = g.input("mask")
    eos_idx = g.input("eos_idx")
    tok = g.input("txt.tok_emb")
    pos = g.input("txt.pos_emb")
    h = g.add(g.embedding(tok, ids), g.slice_rows(pos, seq_len))
    for i in range(cfg.num_layers):
        p = f"txt.l{i}"
        last = i == cfg.num_layers - 1
        rows = 1 if last else seq_len
        a = g.layer_norm(h, g.input(f"{p}.ln1.g"), g.input(f"{p}.ln1.b"))

        def heads_of(x, n):
            return g.transpose(g.reshape(x, (batch, n, heads, dh)), (0, 2, 1, 3))

        def proj(x, w):
            return g.add(g.matmul(x, g.input(f"{p}.w{w}")), g.input(f"{p}.b{w}"))

        if last:
            h = g.gather_rows(h, eos_idx)
            q_in = g.gather_rows(a, eos_idx)
        else:
            q_in = a
        q = heads_of(proj(q_in, "q"), rows)
        k = heads_of(proj(a, "k"), seq_len)
        v = heads_of(proj(a, "v"), seq_len)
        # prescale q so the [B,H,rows,L] score tensor needs no extra pass
        scores = g.matmul(g.scale(q, 1.0 / np.sqrt(dh)),
                          g.transpose(k, (0, 1, 3, 2)), name=f"{p}.scores")
        att = g.softmax(g.add(scores, mask))
        ctx = g.transpose(g.matmul(att, v), (0, 2, 1, 3))
        ctx = g.reshape(ctx, (batch, d) if last else (batch, seq_len, d))
        h = g.add(h, proj(ctx, "o"))
        m = g.layer_norm(h, g.input(f"{p}.ln2.g"), g.input(f"{p}.ln2.b"))
        ff = g.matmul(g.gelu(proj(m, "1")), g.input(f"{p}.w2"))
        h = g.add(h, g.add(ff, g.input(f"{p}.b2")))
    pooled = g.layer_norm(h, g.input("txt.lnf.g"), g.input("txt.lnf.b"))
    return g.l2_normalize(g.matmul(pooled, g.input("txt.proj")), name="z_txt")


# -- numerics oracles ----------------------------------------------------------------


def evaluate(graph: Graph, bindings: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Pure forward pass: returns the graph's named outputs."""
    if not graph.outputs:
        raise UsageError("graph declares no outputs")
    return forward(graph, bindings).outputs


def finite_difference_grad(graph: Graph, bindings: dict[str, np.ndarray],
                           wrt: str, h: float = 1e-5,
                           output: str | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar output w.r.t. one input.

    This is the oracle of every backward rule: it never touches them.
    """
    if h <= 0:
        raise UsageError("h must be positive")
    if output is None:
        if len(graph.outputs) != 1:
            raise UsageError("graph has multiple outputs; name one")
        output = next(iter(graph.outputs))
    if wrt not in graph.inputs:
        raise UsageError(f"unknown input {wrt!r}")
    base = np.asarray(bindings[wrt], dtype=np.float64)
    probe = evaluate(graph, bindings)[output]
    if probe.size != 1:
        raise UsageError("finite differences require a scalar output")
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    work = dict(bindings)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        work[wrt] = base
        hi = float(evaluate(graph, work)[output])
        flat[i] = orig - h
        lo = float(evaluate(graph, work)[output])
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def traced_memory(fn):
    """``fn()``, the bytes it left allocated and its peak, both counted from
    what was allocated before the call, as ``tracemalloc`` sees them."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept, peak


# -- longcap and ablation stand-ins --------------------------------------------------


def write_zero_shot_records(records, path) -> None:
    """The task file ``evaluation.read_zero_shot_records`` reads."""
    with Path(path).open("w") as fh:
        fh.writelines(json_line({"image": image_ref, "options": list(options),
                                 "correct": int(correct)})
                      for image_ref, options, correct in records)


def reference_section(prompt: str, header: str) -> str:
    """Oracle for ``longcap._section``: one lazy DOTALL scan that stops at
    the first header line (or the end of the prompt)."""
    pattern = rf"^{re.escape(header)}:\n(.*?)(?=^\S[^\n]*:$|\Z)"
    m = re.search(pattern, prompt, flags=re.MULTILINE | re.DOTALL)
    return m.group(1).strip() if m else ""


def run_ablation(cfg, corpus, vocab, contexts, ks):
    """``cli.run_ablation`` with ``vocab`` on workers started for the call,
    as ``ablate`` runs it."""
    with cli.ablation_workers(len(contexts)) as workers:
        return cli.run_ablation(workers, cfg, corpus, lambda: vocab, contexts, ks)


class CountedCorpus(PairedCorpus):
    """A corpus that counts, in ``reductions``, how often it is pickled."""

    reductions = 0

    def __reduce_ex__(self, protocol):
        CountedCorpus.reductions += 1
        return super().__reduce_ex__(protocol)


KILLED_CONTEXT = 8
FAILING_CONTEXT = 9
SLEEPING_CONTEXT = 2


def ablation_run_failing_at_context(cfg, corpus, vocab, context, ks):
    """``cli._ablation_run``, except that the run for ``FAILING_CONTEXT``
    raises a ``UsageError`` inside its worker."""
    if context == FAILING_CONTEXT:
        raise UsageError(f"context {FAILING_CONTEXT} failed in its worker")
    return cli._ablation_run(cfg, corpus, vocab, context, ks)


def ablation_run_killed_at_context(cfg, corpus, vocab, context, ks):
    """``cli._ablation_run``, except that the worker given the run for
    ``KILLED_CONTEXT`` dies of SIGKILL, as under the OOM killer."""
    if context == KILLED_CONTEXT:
        os.kill(os.getpid(), signal.SIGKILL)
    return cli._ablation_run(cfg, corpus, vocab, context, ks)


def blas_thread_vars_seen(cfg, corpus, vocab, context, ks):
    """A stand-in run: the BLAS thread variables of its worker's environment."""
    return [os.getenv(var) for var in cli._BLAS_THREAD_VARS]


def context_and_start_time(cfg, corpus, vocab, context, ks):
    """A stand-in run: its context and the monotonic clock when it began."""
    return context, time.monotonic()


def context_and_pid_printed(cfg, corpus, vocab, context, ks):
    """A stand-in run: prints its context and its worker's pid; the run for
    ``SLEEPING_CONTEXT`` then sleeps for a minute, the others return."""
    # one write per line: both workers share the pipe, and with
    # PYTHONUNBUFFERED set print() writes its pieces one at a time
    os.write(1, f"{context} {os.getpid()}\n".encode())
    if context == SLEEPING_CONTEXT:
        time.sleep(60)
    return context
