"""Byte-level BPE tokenizer with a configurable context window.

Text is pre-chunked so that whitespace sticks to the following word
(``" word"``); merges never cross chunk boundaries, which keeps decoding a
plain concatenation and makes word-level token counts predictable.  Training
works on the chunk-frequency table, so it is fast even for large vocabularies.

Length accounting convention (documented in every report): ``full_length``
counts *content* tokens only.  BOS/EOS occupy two slots of the context
window, so a window of L holds at most L-2 content tokens.  Corpus-level
waste statistics compare content lengths against the cutoff directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, UsageError

_CHUNK_RE = re.compile(r"\s*\S+|\s+")

SPECIAL_NAMES = ("pad", "bos", "eos")
VOCAB_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Vocab:
    """Trained merge rules plus the id table and special-token ids."""

    merges: tuple[tuple[int, int], ...]          # rank-ordered (left_id, right_id)
    token_bytes: tuple[bytes, ...]               # id -> byte string (specials empty)
    pad_id: int
    bos_id: int
    eos_id: int

    @property
    def size(self) -> int:
        return len(self.token_bytes)

    @property
    def special_ids(self) -> tuple[int, int, int]:
        return (self.pad_id, self.bos_id, self.eos_id)

    def __post_init__(self):
        ranks = {pair: i for i, pair in enumerate(self.merges)}
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_chunk_cache", {})


@dataclass(frozen=True)
class TokenSeq:
    """Encoded text: padded ids plus truncation bookkeeping.

    ``full_length`` is the content-token count before truncation;
    ``visible_length`` includes BOS and EOS.
    """

    ids: tuple[int, ...]
    full_length: int
    visible_length: int
    truncated: bool


@dataclass(frozen=True)
class TokenWasteReport:
    total_tokens: int
    wasted_tokens: int
    waste_fraction: float
    mean_length: float
    median_length: float
    min_length: int
    max_length: int
    cutoff: int
    note: str = ("lengths count content tokens only; BOS/EOS/PAD excluded; "
                 "wasted = sum(max(0, length - cutoff))")


def train_bpe(corpus: list[str], vocab_size: int, seed: int = 0) -> Vocab:
    """Learn a byte-level merge table of at most ``vocab_size`` ids.

    Merging stops early, with fewer ids, when no adjacent pair is left.
    Fully deterministic: merge candidates are ranked by frequency with ties
    broken by lexicographic order of the candidate pair's byte strings.  The
    ``seed`` parameter is accepted for interface stability but unused.
    Layout: ids 0-255 are raw bytes, merged tokens follow, the three
    specials (PAD, BOS, EOS) take the last three ids.
    """
    del seed
    n_special = len(SPECIAL_NAMES)
    if vocab_size < 256 + n_special:
        raise UsageError(f"vocab_size must be >= {256 + n_special}, got {vocab_size}")
    if not corpus:
        raise UsageError("training corpus is empty")

    chunk_freq: dict[bytes, int] = {}
    for text in corpus:
        for chunk in _CHUNK_RE.findall(text):
            b = chunk.encode("utf-8")
            chunk_freq[b] = chunk_freq.get(b, 0) + 1
    # chunk as list of current ids, carried through the merge rounds
    items = [[list(b), f] for b, f in sorted(chunk_freq.items())]

    token_bytes: list[bytes] = [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int]] = []
    num_merges = vocab_size - 256 - n_special

    for _ in range(num_merges):
        counts: dict[tuple[int, int], int] = {}
        for ids, f in items:
            for pair in zip(ids, ids[1:]):
                counts[pair] = counts.get(pair, 0) + f
        if not counts:
            break
        best = max(counts.items(),
                   key=lambda kv: (kv[1], _pair_sort_key(kv[0], token_bytes)))[0]
        # max() prefers high count; invert the lexicographic key so that the
        # tie winner is the lexicographically smallest pair
        new_id = len(token_bytes)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])
        merges.append(best)
        for item in items:
            item[0] = _apply_merge(item[0], best, new_id)

    pad_id = len(token_bytes)
    token_bytes.extend([b"", b"", b""])
    return Vocab(merges=tuple(merges), token_bytes=tuple(token_bytes),
                 pad_id=pad_id, bos_id=pad_id + 1, eos_id=pad_id + 2)


def _pair_sort_key(pair, token_bytes):
    # negated bytes so that max() picks the lexicographically smallest pair
    left = bytes(255 - b for b in token_bytes[pair[0]])
    right = bytes(255 - b for b in token_bytes[pair[1]])
    return (left, right)


def _apply_merge(ids, pair, new_id):
    out = []
    i = 0
    n = len(ids)
    while i < n:
        if i + 1 < n and ids[i] == pair[0] and ids[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def content_ids(vocab: Vocab, text: str) -> list[int]:
    """Tokenize text to content ids (no specials, no truncation)."""
    ranks = vocab._ranks
    cache = vocab._chunk_cache
    out: list[int] = []
    for chunk in _CHUNK_RE.findall(text):
        hit = cache.get(chunk)
        if hit is None:
            ids = list(chunk.encode("utf-8"))
            while len(ids) >= 2:
                best = None
                best_rank = None
                for pair in zip(ids, ids[1:]):
                    r = ranks.get(pair)
                    if r is not None and (best_rank is None or r < best_rank):
                        best, best_rank = pair, r
                if best is None:
                    break
                ids = _apply_merge(ids, best, 256 + best_rank)
            hit = ids
            if len(cache) < 1_000_000:
                cache[chunk] = hit
        out.extend(hit)
    return out


def encode(vocab: Vocab, text: str, context_length: int) -> TokenSeq:
    """Encode to BOS + content + EOS, PAD-filled to ``context_length``.

    Content beyond ``context_length - 2`` is cut and recorded via
    ``full_length``/``truncated``; the last visible token is always EOS.
    """
    if context_length < 3:
        raise UsageError(f"context_length must be >= 3, got {context_length}")
    content = content_ids(vocab, text)
    full = len(content)
    capacity = context_length - 2
    visible_content = content[:capacity]
    truncated = full > capacity
    ids = [vocab.bos_id] + visible_content + [vocab.eos_id]
    visible = len(ids)
    ids.extend([vocab.pad_id] * (context_length - visible))
    return TokenSeq(ids=tuple(ids), full_length=full,
                    visible_length=visible, truncated=truncated)


def decode(vocab: Vocab, ids) -> str:
    """Inverse of encode: specials and padding are dropped."""
    specials = set(vocab.special_ids)
    data = b"".join(vocab.token_bytes[i] for i in ids if i not in specials)
    return data.decode("utf-8", errors="replace")


def corpus_token_stats(vocab: Vocab, corpus: list[str], cutoff: int) -> TokenWasteReport:
    """Exact aggregate token-waste statistics at one content cutoff."""
    if not corpus:
        raise UsageError("corpus is empty")
    lengths = sorted(len(content_ids(vocab, text)) for text in corpus)
    total = sum(lengths)
    wasted = sum(max(0, n - cutoff) for n in lengths)
    mid = len(lengths) // 2
    median = (lengths[mid] if len(lengths) % 2
              else (lengths[mid - 1] + lengths[mid]) / 2.0)
    return TokenWasteReport(
        total_tokens=total,
        wasted_tokens=wasted,
        waste_fraction=wasted / total if total else 0.0,
        mean_length=total / len(lengths),
        median_length=float(median),
        min_length=lengths[0],
        max_length=lengths[-1],
        cutoff=cutoff,
    )


def format_waste_report(report: TokenWasteReport) -> str:
    """Flat key-value text rendering of a TokenWasteReport."""
    lines = [
        f"cutoff={report.cutoff}",
        f"total_tokens={report.total_tokens}",
        f"wasted_tokens={report.wasted_tokens}",
        f"waste_fraction={report.waste_fraction:.6f}",
        f"mean_length={report.mean_length:.4f}",
        f"median_length={report.median_length:.1f}",
        f"min_length={report.min_length}",
        f"max_length={report.max_length}",
        f"note={report.note}",
    ]
    return "\n".join(lines) + "\n"


WASTE_CSV_HEADER = ("cutoff,total_tokens,wasted_tokens,waste_fraction,"
                    "mean_length,median_length,min_length,max_length")


def waste_report_csv_row(report: TokenWasteReport) -> str:
    return (f"{report.cutoff},{report.total_tokens},{report.wasted_tokens},"
            f"{report.waste_fraction:.6f},{report.mean_length:.4f},"
            f"{report.median_length:.1f},{report.min_length},{report.max_length}")


# -- vocabulary files -----------------------------------------------------------


def save_vocab(vocab: Vocab, directory) -> None:
    """Write the token table and the ordered merge list as plain text."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"version {VOCAB_FORMAT_VERSION}",
             f"pad {vocab.pad_id}", f"bos {vocab.bos_id}", f"eos {vocab.eos_id}"]
    for i, b in enumerate(vocab.token_bytes):
        lines.append(f"{i} {b.hex()}")
    (directory / "tokens.txt").write_text("\n".join(lines) + "\n")
    merge_lines = [f"{a} {b}" for a, b in vocab.merges]
    (directory / "merges.txt").write_text("\n".join(merge_lines) + ("\n" if merge_lines else ""))


def load_vocab(directory) -> Vocab:
    directory = Path(directory)
    try:
        token_lines = (directory / "tokens.txt").read_text().splitlines()
        merge_lines = (directory / "merges.txt").read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read vocabulary from {directory}: {exc}") from exc
    header, specials = token_lines[0].split(), token_lines[1:4]
    if header != ["version", str(VOCAB_FORMAT_VERSION)]:
        raise DataError(f"unsupported vocabulary file version: {token_lines[0]!r}")
    ids = {}
    for line in specials:
        name, value = line.split()
        ids[name] = int(value)
    token_bytes = []
    for line in token_lines[4:]:
        idx, hexpart = (line.split() + [""])[:2]
        if int(idx) != len(token_bytes):
            raise DataError(f"token table ids are not dense at line {line!r}")
        token_bytes.append(bytes.fromhex(hexpart))
    merges = tuple((int(a), int(b)) for a, b in (ln.split() for ln in merge_lines))
    return Vocab(merges=merges, token_bytes=tuple(token_bytes),
                 pad_id=ids["pad"], bos_id=ids["bos"], eos_id=ids["eos"])
