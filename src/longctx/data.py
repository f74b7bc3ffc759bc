"""Corpus ingestion, benchmark assembly, and the synthetic ablation corpus.

Two on-disk corpus layouts are supported: line-delimited JSON records, and
tar shards where an image member (``<base>.npy``) and a caption member
(``<base>.txt``) share a basename.  Images are precomputed feature vectors
throughout; pixels are out of scope.

Every line-delimited JSON file of the package (corpora, articles, caption
records, the ``longcap`` journal and zero-shot tasks) is read by
``read_json_lines``, its fields through ``json_field``, and written through
``json_line``; every CSV output is written by ``write_csv``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import tarfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, LongCtxError, UsageError
from .words import CLASS_WORDS, DISTRACTOR_POOL, SIGNATURE_POOL

@dataclass(frozen=True)
class CorpusRecord:
    id: str
    image: np.ndarray            # flat feature vector
    caption: str
    context: dict = field(default_factory=dict)


class PairedCorpus:
    """Indexed set of (image features, caption) records with unique ids."""

    def __init__(self, records: list[CorpusRecord]):
        self.records = list(records)
        self._by_id = {}
        dim = None
        for rec in self.records:
            if rec.id in self._by_id:
                raise DataError(f"duplicate record id {rec.id!r}")
            if rec.image.ndim != 1:
                raise DataError(f"record {rec.id!r}: image features must be a flat vector")
            if dim is None:
                dim = rec.image.shape[0]
            elif rec.image.shape[0] != dim:
                raise DataError(
                    f"record {rec.id!r}: feature dim {rec.image.shape[0]} != {dim}")
            self._by_id[rec.id] = rec

    def __len__(self):
        return len(self.records)

    def __getitem__(self, rec_id: str) -> CorpusRecord:
        return self._by_id[rec_id]

    def __contains__(self, rec_id: str) -> bool:
        return rec_id in self._by_id

    @property
    def image_dim(self) -> int:
        if not self.records:
            raise UsageError("empty corpus has no feature dimension")
        return self.records[0].image.shape[0]

    def captions(self) -> list[str]:
        return [r.caption for r in self.records]

    def images(self) -> np.ndarray:
        return np.stack([r.image for r in self.records])


# -- input files: JSON lines and text -----------------------------------------------


def _json_object(raw: bytes) -> dict:
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def read_json_lines(path, what: str, build) -> list:
    """``build(obj)`` for each JSON object line of ``path``, in file order.

    The one reader of every line-delimited record file.  The file is UTF-8
    read one line at a time and split on newlines only, so a U+2028 or
    U+0085 inside a string stays in its line; blank lines are skipped.  An
    unreadable file, a line that is not a UTF-8 JSON object, or a
    ``KeyError``/``ValueError``/``TypeError`` or ``LongCtxError`` from
    ``build`` (a record's own validation) raises a ``DataError`` naming the
    file and the line.
    """
    out = []
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    # a bad line's error names what the line holds, not its newline
                    out.append(build(_json_object(line.removesuffix(b"\n"))))
                except (KeyError, ValueError, TypeError, LongCtxError) as exc:
                    raise DataError(f"{path} line {lineno}: malformed {what} ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return out


_REQUIRED = object()
_SURROGATE = re.compile("[\ud800-\udfff]")
# what each kind of record field must be in JSON; ``tuple`` is a list of strings
_JSON_KINDS = {str: "a JSON string", int: "an integer", bool: "true or false",
               dict: "a JSON object", tuple: "a JSON list of strings"}


def json_field(obj: dict, key: str, kind: type, default=_REQUIRED):
    """The field ``key`` of the record ``obj``, of ``kind``: ``str``, ``int``
    (a boolean is not one), ``bool``, ``dict`` or ``tuple`` (a list of strings,
    returned as a tuple).  The one checker of every record field.  An absent
    field is ``default`` or, without one, a ``KeyError``; a value of another
    kind is a ``TypeError`` naming ``key``, never converted: an id ``7`` read
    as ``"7"`` or a string read as its characters would be a wrong value.  A
    string holding a lone surrogate is a ``ValueError``."""
    if default is not _REQUIRED and key not in obj:
        return default
    value = obj[key]
    if kind is tuple and isinstance(value, list) and all(isinstance(v, str) for v in value):
        value = tuple(value)
    elif type(value) is not kind:
        raise TypeError(f"{key} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    texts = (value,) if kind is str else value if kind is tuple else ()
    if any(map(has_lone_surrogate, texts)):
        raise ValueError(f"{key} holds a lone surrogate escape, which is not text")
    return value


def has_lone_surrogate(text: str) -> bool:
    """True when ``text`` holds a UTF-16 surrogate code point.  ``json.loads``
    joins an escaped surrogate pair into one character, so what is left is an
    escape such as ``\\ud800`` alone, which no UTF-8 encoder accepts."""
    return not text.isascii() and _SURROGATE.search(text) is not None


def json_line(obj: dict) -> str:
    """The one serializer of a record line: sorted keys, ASCII, newline-ended."""
    return json.dumps(obj, sort_keys=True) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    """The one writer of a CSV output: newline-ended rows, and a field that
    holds a comma, a quote or a newline quoted as the ``csv`` module does."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_text(path) -> str:
    """The UTF-8 text of ``path``; an unreadable or non-UTF-8 file is a
    ``DataError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file with #-comments; keys are a command's
    option names."""
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path} line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


# -- records / shards I/O ---------------------------------------------------------


def load_corpus(path) -> PairedCorpus:
    """Load and validate a corpus: tar shards when ``path`` is a ``.tar`` file
    or a directory (its ``*.tar`` files, in name order), a record file
    otherwise."""
    path = Path(path)
    if path.is_dir() or path.suffix == ".tar":
        return _corpus_from(path, _shard_records(path))
    return _corpus_from(path, read_json_lines(path, "record", lambda obj: CorpusRecord(
        id=json_field(obj, "id", str),
        image=_features(obj["image"]),
        caption=json_field(obj, "caption", str),
        context=json_field(obj, "context", dict, {}),
    )))


def save_corpus(corpus: PairedCorpus, path) -> None:
    """Write ``corpus`` as a record file, one JSON line per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in corpus.records:
            obj = {"id": rec.id, "image": [float(x) for x in rec.image],
                   "caption": rec.caption}
            if rec.context:
                obj["context"] = rec.context
            fh.write(json_line(obj))


def _corpus_from(path: Path, records: list[CorpusRecord]) -> PairedCorpus:
    if not records:
        raise DataError(f"{path}: no records")
    try:
        return PairedCorpus(records)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _features(value) -> np.ndarray:
    """Image features as float64; a value that is not numbers is a
    ``TypeError``, a NaN or an infinity a ``ValueError``."""
    image = np.asarray(value)
    # strings and booleans would convert to numbers
    if image.dtype.kind not in "iuf":
        raise TypeError(f"image features must be numbers, got {value!r:.40}")
    image = image.astype(np.float64, copy=False)
    if not np.isfinite(image).all():
        raise ValueError("image features must be finite")
    return image


def _shard_paths(path: Path) -> list[Path]:
    if path.is_dir():
        found = sorted(path.glob("*.tar"))
        if not found:
            raise DataError(f"no .tar shards under {path}")
        return found
    return [path]


# how each shard member's bytes become a field of its record
_MEMBER_DECODERS = {
    "npy": lambda raw: _features(np.load(io.BytesIO(raw), allow_pickle=False)),
    "txt": lambda raw: raw.decode("utf-8"),
    "json": _json_object,
}


def _shard_records(path: Path) -> list[CorpusRecord]:
    records = []
    for shard in _shard_paths(path):
        members: dict[str, dict[str, object]] = {}
        try:
            with tarfile.open(shard) as tar:
                for info in tar:
                    if not info.isfile():
                        continue
                    base, dot, ext = info.name.rpartition(".")
                    if not dot or ext not in _MEMBER_DECODERS:
                        raise DataError(f"{shard}: unexpected member {info.name!r}")
                    raw = tar.extractfile(info).read()
                    try:
                        members.setdefault(base, {})[ext] = _MEMBER_DECODERS[ext](raw)
                    except (ValueError, TypeError) as exc:
                        raise DataError(f"{shard}: malformed member {info.name!r} "
                                        f"({exc})") from exc
        except (OSError, tarfile.TarError) as exc:
            raise DataError(f"cannot read shard {shard}: {exc}") from exc
        for base in sorted(members):
            parts = members[base]
            if "npy" not in parts or "txt" not in parts:
                missing = "npy" if "npy" not in parts else "txt"
                raise DataError(f"{shard}: member {base!r} is missing its .{missing} half")
            records.append(CorpusRecord(id=base, image=parts["npy"], caption=parts["txt"],
                                        context=parts.get("json", {})))
    return records


# -- long-caption benchmark --------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    figure_id: str
    image: np.ndarray
    caption: str
    inline_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Article:
    article_id: str
    figures: tuple[Figure, ...]
    date: str = ""               # ISO date for optional filtering


@dataclass(frozen=True)
class BenchmarkBuild:
    corpus: PairedCorpus
    skipped_articles: int
    manifest: list[tuple[str, str, int]]   # (pair id, article id, caption words)


def build_long_caption_benchmark(articles: list[Article], seed: int = 0,
                                 min_date: str = "") -> BenchmarkBuild:
    """One seeded image-caption pair per article; no article reused.

    The pair caption is the article's inline references followed by the
    figure caption, separated by a blank line.  Articles without figures
    (or older than ``min_date`` when given) are skipped and counted.
    """
    rng = np.random.default_rng(seed)
    records = []
    manifest = []
    skipped = 0
    for article in articles:
        if min_date and article.date and article.date < min_date:
            skipped += 1
            continue
        if not article.figures:
            skipped += 1
            continue
        fig = article.figures[int(rng.integers(len(article.figures)))]
        refs = " ".join(fig.inline_refs).strip()
        caption = f"{refs}\n\n{fig.caption}" if refs else fig.caption
        pair_id = f"{article.article_id}/{fig.figure_id}"
        records.append(CorpusRecord(id=pair_id, image=np.asarray(fig.image, dtype=np.float64),
                                    caption=caption,
                                    context={"article_id": article.article_id}))
        manifest.append((pair_id, article.article_id, len(caption.split())))
    return BenchmarkBuild(corpus=PairedCorpus(records), skipped_articles=skipped,
                          manifest=manifest)


def load_articles(path) -> list[Article]:
    """Minimal fixture parser for line-delimited article records."""
    return read_json_lines(path, "article", lambda obj: Article(
        article_id=json_field(obj, "article_id", str),
        figures=tuple(
            Figure(figure_id=json_field(f, "figure_id", str),
                   image=_features(f["image"]),
                   caption=json_field(f, "caption", str),
                   inline_refs=json_field(f, "inline_refs", tuple, ()))
            for f in obj.get("figures", [])),
        date=json_field(obj, "date", str, "")))


def write_benchmark_manifest(build: BenchmarkBuild, path) -> None:
    write_csv(path, ["id", "article_id", "caption_words"], build.manifest)


# -- synthetic ablation corpus ------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the context-length ablation corpus.

    Captions carry no image signal in their first ``distractor_prefix_tokens``
    words (all drawn from the shared distractor pool, class-exchangeable).
    The slots between the prefix and ``class_token_position`` hold the
    sample's image signature, drawn from a disjoint signature vocabulary:
    the image's within-class offset points along the summed directions of
    those words.  The class word sits at ``class_token_position`` (0-based).
    A short context window therefore sees pure distractors; only a window
    reaching past the prefix sees anything predictive of the image.

    Signature words are long pseudo-words that BPE splits into several
    tokens, so the signature region is wide in tokens and the BPE
    vocabulary size sets where a window cuts it.  With the defaults and a
    vocabulary of 1850, a 77-token window sees only distractors, a 154-token
    window (152 content tokens) ends inside the signature region and drops
    the class word for 99% of captions (1982 of 2000), and a 512-token
    window sees every caption whole.
    """

    num_classes: int = 10
    samples_per_class: int = 200
    image_dim: int = 64
    distractor_prefix_tokens: int = 100
    class_token_position: int = 110
    noise_std: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.class_token_position <= self.distractor_prefix_tokens:
            raise UsageError("class_token_position must exceed distractor_prefix_tokens")
        if self.num_classes > len(CLASS_WORDS):
            raise UsageError(
                f"num_classes {self.num_classes} exceeds class-word pool "
                f"capacity {len(CLASS_WORDS)}")
        if self.num_classes < 1 or self.samples_per_class < 1:
            raise UsageError("need at least one class and one sample per class")
        if self.image_dim < 1:
            raise UsageError(f"image_dim must be at least 1, not {self.image_dim}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise UsageError(f"noise_std must be a finite number of at least 0, "
                             f"not {self.noise_std}")


MAX_PROTOTYPE_COSINE = 0.5
ZIPF_EXPONENT = 1.1


def _zipf_weights(n: int, s: float = ZIPF_EXPONENT) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -s
    return w / w.sum()


def generate_synthetic(spec: SyntheticSpec) -> tuple[PairedCorpus, list[str]]:
    """Deterministic corpus pairing images with distractor+signature captions.

    image = class prototype + noise_std * sqrt(dim) * signature direction,
    where the signature direction is the normalized sum of fixed random unit
    vectors assigned to the caption words at positions
    [distractor_prefix_tokens, class_token_position).  Those words come from
    ``SIGNATURE_POOL``; on the default spec at vocabulary 1850 they take
    26-93 tokens per caption after a 105-144 token prefix, so 99% of
    captions straddle content token 152.  Returns the corpus and the
    per-record class word.  Class prototypes are redrawn (still seeded)
    until all pairwise cosines are below ``MAX_PROTOTYPE_COSINE``.
    """
    rng = np.random.default_rng(spec.seed)
    prototypes = _draw_prototypes(rng, spec.num_classes, spec.image_dim)
    sig_dirs = rng.normal(size=(len(SIGNATURE_POOL), spec.image_dim))
    sig_dirs /= np.linalg.norm(sig_dirs, axis=1, keepdims=True)
    pool = np.array(DISTRACTOR_POOL)
    sig_pool = np.array(SIGNATURE_POOL)
    n_sig = spec.class_token_position - spec.distractor_prefix_tokens
    noise_scale = spec.noise_std * np.sqrt(spec.image_dim)
    # distractors follow a Zipf law like natural text; signature words are
    # uniform so per-sample signatures stay distinct
    zipf = _zipf_weights(len(pool))
    records = []
    labels = []
    for c in range(spec.num_classes):
        class_word = CLASS_WORDS[c]
        for s in range(spec.samples_per_class):
            prefix_idx = rng.choice(len(pool), size=spec.distractor_prefix_tokens,
                                    p=zipf)
            sig_idx = rng.integers(0, len(sig_pool), size=n_sig)
            signature = sig_dirs[sig_idx].sum(axis=0)
            norm = np.linalg.norm(signature)
            if norm > 0:
                signature /= norm
            image = prototypes[c] + noise_scale * signature
            words = pool[prefix_idx].tolist() + sig_pool[sig_idx].tolist() + [class_word]
            records.append(CorpusRecord(id=f"syn-{c:02d}-{s:04d}",
                                        image=image, caption=" ".join(words)))
            labels.append(class_word)
    return PairedCorpus(records), labels


def _draw_prototypes(rng, num_classes, dim, max_tries=50):
    for _ in range(max_tries):
        protos = rng.normal(size=(num_classes, dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        cos = protos @ protos.T
        np.fill_diagonal(cos, 0.0)
        if num_classes == 1 or np.abs(cos).max() < MAX_PROTOTYPE_COSINE:
            return protos
    raise UsageError(
        f"could not draw {num_classes} prototypes with pairwise |cos| < "
        f"{MAX_PROTOTYPE_COSINE} in {max_tries} tries at dim {dim}")
