"""Tiny text and image encoders producing unit-norm embeddings.

Text side: pre-norm transformer blocks with learned absolute positions and
EOS pooling; the context length is a first-class config knob and only sizes
the positional table.  Image side: an MLP over precomputed feature vectors.
Both are expressed as numerics graphs so training can differentiate end to
end through the contrastive objective.

Attention masking uses a large negative finite constant instead of -inf so
every intermediate stays in the finite domain the numerics module enforces;
masked positions still get exactly zero probability after softmax.
"""

from __future__ import annotations

import functools
import json
import re
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DataError, UsageError
from .numerics import Graph, forward
from .tokenizer import Vocab, encode, vocab_fingerprint

MASK_VALUE = -1e9
INIT_STD = 0.02
ENCODE_TEXT_BATCH = 64
ENCODE_IMAGE_BATCH = 256
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TextEncoderConfig:
    context_length: int = 77
    vocab_size: int = 8192
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    output_dim: int = 32

    def __post_init__(self):
        if self.context_length < 3:
            raise UsageError("context_length must be >= 3")
        if min(self.vocab_size, self.embed_dim, self.num_layers, self.num_heads,
               self.output_dim) < 1:
            raise UsageError("text encoder dims must be positive")
        if self.embed_dim % self.num_heads:
            raise UsageError("embed_dim must be divisible by num_heads")


@dataclass(frozen=True)
class ImageEncoderConfig:
    input_dim: int = 64
    hidden_dim: int = 128
    num_layers: int = 2
    output_dim: int = 32

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.num_layers, self.output_dim) < 1:
            raise UsageError("image encoder dims must be positive")


# the names of the zero-initialized, never-decayed biases; gains end in ".g"
BIAS_SUFFIXES = (".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")


def param_shapes(text_cfg: TextEncoderConfig, img_cfg: ImageEncoderConfig) -> dict[str, tuple]:
    """Name -> shape map shared by initialization and graph construction."""
    if text_cfg.output_dim != img_cfg.output_dim:
        raise UsageError("text and image output_dim must match for a paired model")
    d = text_cfg.embed_dim
    shapes = {
        "txt.tok_emb": (text_cfg.vocab_size, d),
        "txt.pos_emb": (text_cfg.context_length, d),
        "txt.lnf.g": (d,), "txt.lnf.b": (d,),
        "txt.proj": (d, text_cfg.output_dim),
    }
    for i in range(text_cfg.num_layers):
        p = f"txt.l{i}"
        shapes.update({
            f"{p}.ln1.g": (d,), f"{p}.ln1.b": (d,),
            f"{p}.wq": (d, d), f"{p}.bq": (d,),
            f"{p}.wk": (d, d), f"{p}.bk": (d,),
            f"{p}.wv": (d, d), f"{p}.bv": (d,),
            f"{p}.wo": (d, d), f"{p}.bo": (d,),
            f"{p}.ln2.g": (d,), f"{p}.ln2.b": (d,),
            f"{p}.w1": (d, 4 * d), f"{p}.b1": (4 * d,),
            f"{p}.w2": (4 * d, d), f"{p}.b2": (d,),
        })
    width = img_cfg.input_dim
    for i in range(img_cfg.num_layers):
        shapes[f"img.l{i}.w"] = (width, img_cfg.hidden_dim)
        shapes[f"img.l{i}.b"] = (img_cfg.hidden_dim,)
        width = img_cfg.hidden_dim
    shapes["img.proj"] = (width, img_cfg.output_dim)
    return shapes


def init_params(text_cfg: TextEncoderConfig, img_cfg: ImageEncoderConfig,
                seed: int) -> dict[str, np.ndarray]:
    """Deterministic N(0, 0.02^2) weights, unit gains, zero biases.

    Each parameter gets its own seeded stream keyed by name, so the shared
    (non-positional) weights are identical across context lengths for the
    same seed.
    """
    params = {}
    for name, shape in param_shapes(text_cfg, img_cfg).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith(BIAS_SUFFIXES):
            params[name] = np.zeros(shape)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed,
                                       spawn_key=(zlib.crc32(name.encode()),)))
            params[name] = rng.normal(0.0, INIT_STD, size=shape)
    return params


# -- graph builders ---------------------------------------------------------------


def build_text_tower(g: Graph, cfg: TextEncoderConfig, batch: int, seq_len: int):
    """Append the text encoder to a graph; returns the [B, out] embedding node.

    Expects bindings: txt.* parameters and ``text_inputs``' ``ids`` [B, L]
    int, ``mask`` [B, 1, 1, L] additive and ``eos_idx`` [B] int.

    Only the EOS position of the last block reaches the pooled output, so
    that block computes its query, residual and feed-forward for the EOS
    row alone, and folds its key and value projections and its ln1 affine
    into that one query (weight absorption).  Per head h, with ``xhat`` the
    standardized rows of the block's input and ``γ, β`` its ln1 gain and
    bias, the ``norm_attention`` primitive computes

        scores = ((q_h Wk_hᵀ) ∘ γ) · xhatᵀ        u = softmax(scores + mask) · xhat
        ctx_h  = (u ∘ γ) Wv_h + β Wv_h + bv_h

    which equals attention over k = a Wk + bk, v = a Wv + bv with
    a = xhat ∘ γ + β in exact arithmetic: each attention row sums to 1, and
    q_h · (β Wk_hᵀ + bk_h) is the same for every key, which softmax ignores.
    So the block's full-sequence ln1 output is never formed, and the last
    block's ``bk`` is bound but never read: its gradient is exactly 0.
    ``norm_attention`` does not form ``xhat`` either: it works from the
    rows' statistics (centered rows and 1/std), so its results match the
    formula above at the rounding level.
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
        gain, bias = g.input(f"{p}.ln1.g"), g.input(f"{p}.ln1.b")

        def proj(x, w):
            return g.add(g.matmul(x, g.input(f"{p}.w{w}")), g.input(f"{p}.b{w}"))

        if i < cfg.num_layers - 1:
            a = g.layer_norm(h, gain, bias)
            q, k, v = (g.transpose(g.reshape(proj(a, w), (batch, seq_len, heads, dh)),
                                   (0, 2, 1, 3)) for w in "qkv")
            # prescale q so the [B,H,L,L] score tensor needs no extra pass
            scores = g.matmul(g.scale(q, 1.0 / np.sqrt(dh)),
                              g.transpose(k, (0, 1, 3, 2)), name=f"{p}.scores")
            att = g.softmax(g.add(scores, mask))
            ctx = g.reshape(g.transpose(g.matmul(att, v), (0, 2, 1, 3)), (batch, seq_len, d))
        else:
            g.input(f"{p}.bk")
            seq, h = h, g.gather_rows(h, eos_idx)
            q = g.scale(proj(g.layer_norm(h, gain, bias), "q"), 1.0 / np.sqrt(dh))
            # Wk and Wv split by output column into heads; with q as [H,B,dh]
            # the two per-head products are plain [H,B,*] GEMMs
            q_heads = g.transpose(g.reshape(q, (batch, heads, dh)), (1, 0, 2))
            wk = g.transpose(g.reshape(g.input(f"{p}.wk"), (d, heads, dh)), (1, 2, 0))
            qk = g.mul(g.transpose(g.matmul(q_heads, wk), (1, 0, 2)), gain)  # [B,H,d]
            u = g.norm_attention(seq, qk, g.reshape(mask, (batch, 1, seq_len)),
                                 name=f"{p}.attention")
            u = g.transpose(g.mul(u, gain), (1, 0, 2))                      # [H,B,d]
            wv_in = g.input(f"{p}.wv")
            wv = g.transpose(g.reshape(wv_in, (d, heads, dh)), (1, 0, 2))
            ctx = g.transpose(g.matmul(u, wv), (1, 0, 2))                    # [B,H,dh]
            ctx_bias = g.add(g.matmul(g.reshape(bias, (1, d)), wv_in), g.input(f"{p}.bv"))
            ctx = g.add(g.reshape(ctx, (batch, d)), ctx_bias)
        h = g.add(h, proj(ctx, "o"))
        m = g.layer_norm(h, g.input(f"{p}.ln2.g"), g.input(f"{p}.ln2.b"))
        ff = g.matmul(g.gelu(proj(m, "1")), g.input(f"{p}.w2"))
        h = g.add(h, g.add(ff, g.input(f"{p}.b2")))
    pooled = g.layer_norm(h, g.input("txt.lnf.g"), g.input("txt.lnf.b"))
    return g.l2_normalize(g.matmul(pooled, g.input("txt.proj")), name="z_txt")


def build_image_tower(g: Graph, cfg: ImageEncoderConfig):
    """Append the image MLP; expects ``img`` [B, input_dim] plus img.* params."""
    h = g.input("img")
    for i in range(cfg.num_layers):
        h = g.gelu(g.add(g.matmul(h, g.input(f"img.l{i}.w")), g.input(f"img.l{i}.b")))
    return g.l2_normalize(g.matmul(h, g.input("img.proj")), name="z_img")


def attention_mask(visible_lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """Additive mask hiding PAD key positions: [B, 1, 1, L]."""
    cols = np.arange(seq_len)
    blocked = cols[None, :] >= np.asarray(visible_lengths)[:, None]
    return np.where(blocked, MASK_VALUE, 0.0)[:, None, None, :]


def batch_arrays(seqs: list[tuple[int, ...]], pad_id: int, trim_to: int | None = None):
    """Stack visible id sequences to (ids [B, L], visible [B]), PAD-filled to
    ``trim_to`` or else to the longest sequence."""
    visible = np.array([len(s) for s in seqs], dtype=np.int64)
    max_vis = int(visible.max())
    width = trim_to if trim_to is not None else max_vis
    if width < max_vis:
        raise UsageError("cannot trim below the longest visible sequence")
    ids = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for r, s in enumerate(seqs):
        ids[r, :len(s)] = s
    return ids, visible


def text_inputs(ids: np.ndarray, visible: np.ndarray) -> dict[str, np.ndarray]:
    """The text tower's ``ids``, ``mask`` and ``eos_idx`` bindings for PAD-filled
    ``ids`` [B, L] whose rows hold ``visible`` [B] real ids each."""
    return {"ids": ids, "mask": attention_mask(visible, ids.shape[1]), "eos_idx": visible - 1}


@functools.cache
def _text_graph(cfg: TextEncoderConfig, batch: int, seq_len: int, dtype) -> Graph:
    g = Graph(dtype=dtype)
    g.output(build_text_tower(g, cfg, batch, seq_len))
    return g


@functools.cache
def _image_graph(cfg: ImageEncoderConfig, dtype) -> Graph:
    g = Graph(dtype=dtype)
    g.output(build_image_tower(g, cfg))
    return g


# -- bundled model ------------------------------------------------------------------


@dataclass
class TrainedModel:
    """Everything needed to embed new text and images."""

    text_cfg: TextEncoderConfig
    img_cfg: ImageEncoderConfig
    params: dict
    vocab: Vocab
    log_scale: float

    @property
    def dtype(self) -> str:
        """The weights' dtype, in which every forward pass runs."""
        return str(self.params["txt.tok_emb"].dtype)

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """Unit embeddings of ``texts``, tokenized one batch at a time; each
        batch is padded to its longest sequence and pooled from its EOS."""
        chunks = []
        for i in range(0, len(texts), ENCODE_TEXT_BATCH):
            seqs = [encode(self.vocab, t, self.text_cfg.context_length)
                    for t in texts[i:i + ENCODE_TEXT_BATCH]]
            ids, visible = batch_arrays(seqs, pad_id=self.vocab.pad_id)
            g = _text_graph(self.text_cfg, len(seqs), ids.shape[1], self.dtype)
            bindings = {k: v for k, v in self.params.items() if k in g.inputs}
            chunks.append(forward(g, {**bindings, **text_inputs(ids, visible)}).outputs["z_txt"])
        return np.concatenate(chunks, axis=0)

    def encode_images(self, images: np.ndarray) -> np.ndarray:
        """Unit embeddings of image feature vectors [N, input_dim]."""
        images = np.atleast_2d(np.asarray(images))
        if images.shape[1] != self.img_cfg.input_dim:
            raise UsageError(f"expected feature dim {self.img_cfg.input_dim}, "
                             f"got {images.shape[1]}")
        g = _image_graph(self.img_cfg, self.dtype)
        bindings = {k: v for k, v in self.params.items() if k in g.inputs}
        chunks = [forward(g, dict(bindings, img=images[i:i + ENCODE_IMAGE_BATCH])).outputs["z_img"]
                  for i in range(0, len(images), ENCODE_IMAGE_BATCH)]
        return np.concatenate(chunks, axis=0)


# -- checkpoints --------------------------------------------------------------------


def save_checkpoint(path, text_cfg: TextEncoderConfig, img_cfg: ImageEncoderConfig,
                    params: dict, log_scale: float, vocab: Vocab | None = None) -> None:
    """Single-file npz container with a versioned JSON header.  With
    ``vocab``, the header also records its ``vocab_fingerprint``."""
    meta = {
        "format": "longctx-checkpoint",
        "version": CHECKPOINT_VERSION,
        "text_cfg": asdict(text_cfg),
        "img_cfg": asdict(img_cfg),
        "log_scale": float(log_scale),
    }
    if vocab is not None:
        meta["vocab_sha256"] = vocab_fingerprint(vocab)
    arrays = {f"param/{k}": v for k, v in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _read_checkpoint(path, with_params: bool):
    """The checked JSON header and, if asked for, the parameters."""
    try:
        # our own handle: np.load(path) leaves the file open when it raises
        with open(path, "rb") as f, np.load(f) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            if not isinstance(meta, dict) or meta.get("format") != "longctx-checkpoint":
                raise DataError(f"{path} is not a checkpoint file")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {meta.get('version')}")
            params = {k[len("param/"):]: data[k] for k in data.files
                      if with_params and k.startswith("param/")}
    # TypeError: a plain .npy file loads as an array, not an archive
    except (OSError, EOFError, TypeError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
    return meta, params


def load_checkpoint(path):
    """The encoder configs, parameters and ``log_scale`` of a checkpoint.
    Every parameter the header's configs call for must be there with its
    shape, a float dtype and finite values; other arrays may be there too."""
    meta, params = _read_checkpoint(path, with_params=True)
    log_scale = meta.get("log_scale")
    if type(log_scale) not in (int, float):
        raise DataError(f"checkpoint {path}: bad or missing log_scale in the header")
    text_cfg = _header_config(TextEncoderConfig, meta, "text_cfg", path)
    img_cfg = _header_config(ImageEncoderConfig, meta, "img_cfg", path)
    try:
        shapes = param_shapes(text_cfg, img_cfg)
    except UsageError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    for name, shape in shapes.items():
        value = params.get(name)
        if value is None:
            fault = "is missing"
        elif value.shape != shape:
            fault = f"has shape {value.shape}, not {shape}"
        elif value.dtype.kind != "f":
            fault = f"has dtype {value.dtype}, not a float"
        elif not np.isfinite(value).all():
            fault = "holds non-finite values"
        else:
            continue
        raise DataError(f"checkpoint {path}: parameter {name} {fault}")
    return text_cfg, img_cfg, params, log_scale


def checkpoint_vocab_fingerprint(path) -> str | None:
    """The ``vocab_fingerprint`` a checkpoint header records, or None for a
    header written without one (every checkpoint saved without ``vocab``)."""
    value = _read_checkpoint(path, with_params=False)[0].get("vocab_sha256")
    if value is not None and not (isinstance(value, str)
                                  and re.fullmatch("[0-9a-f]{64}", value)):
        raise DataError(f"checkpoint {path}: bad vocab_sha256 in the header: {value!r}")
    return value


def _header_config(cls, meta: dict, key: str, path):
    """One encoder config from a checkpoint header: every field, each a
    positive int, and a config the class accepts."""
    raw = meta.get(key)
    names = {f.name for f in fields(cls)}
    if (not isinstance(raw, dict) or set(raw) != names
            or not all(type(v) is int and v > 0 for v in raw.values())):
        raise DataError(f"checkpoint {path}: bad or missing {key} in the header: {raw!r}")
    try:
        return cls(**raw)
    except UsageError as exc:
        raise DataError(f"checkpoint {path}: bad {key} in the header: {exc}") from None
