"""Byte-level BPE tokenizer with a configurable context window.

Text is pre-chunked so that whitespace sticks to the following word
(``" word"``); merges never cross chunk boundaries, which keeps decoding a
plain concatenation and makes word-level token counts predictable.  Training
works on the chunk-frequency table, so it is fast even for large vocabularies.

Length accounting convention (documented in every report): lengths count
*content* tokens only.  BOS/EOS occupy two slots of the context window, so a
window of L holds at most L-2 content tokens, and ``encode`` returns only the
visible ids.  Corpus-level waste statistics compare content lengths against
the cutoff directly.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from dataclasses import dataclass
from pathlib import Path

from .data import read_text
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


def train_bpe(corpus: list[str], vocab_size: int) -> Vocab:
    """Learn a byte-level merge table of at most ``vocab_size`` ids.

    Merging stops early, with fewer ids, when no adjacent pair is left.
    Fully deterministic: the most frequent pair is merged next; ties go to
    the pair whose (left, right) byte strings sort first, where a string
    sorts after the strings it is a prefix of.  No two ids spell the same
    bytes (the argument is in ``tests/test_tokenizer.py``), so no tie is
    left over.  Layout: ids 0-255 are raw bytes, merged tokens follow, the
    three specials (PAD, BOS, EOS) take the last three ids.

    Training is incremental (Sennrich et al. 2016).  The pair counts and,
    for each pair, the set of chunks holding it are built once.  A merge
    rewrites only the chunks that hold the merged pair, subtracting their
    old pairs' counts and adding their new ones.  The next merge comes from
    a lazy max-heap of (count, tie-break key) entries: each count change
    pushes a new entry, and an entry whose count no longer matches is
    stale and is dropped when it reaches the top.  The cost follows the
    chunks each merge touches, not merges times corpus.
    """
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
    chunks = sorted(chunk_freq)
    words = [list(b) for b in chunks]          # each chunk as its current ids
    freqs = [chunk_freq[b] for b in chunks]

    token_bytes: list[bytes] = [bytes([i]) for i in range(256)]
    keys = [_token_key(b) for b in token_bytes]
    counts: dict[tuple[int, int], int] = {}
    where: dict[tuple[int, int], set[int]] = {}
    for i, ids in enumerate(words):
        for pair in zip(ids, ids[1:]):
            counts[pair] = counts.get(pair, 0) + freqs[i]
            where.setdefault(pair, set()).add(i)
    heap = [(-c, keys[a] + keys[b], (a, b)) for (a, b), c in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []

    for _ in range(vocab_size - 256 - n_special):
        while heap and counts.get(heap[0][2]) != -heap[0][0]:
            heapq.heappop(heap)                 # stale: the count has moved
        if not heap:
            break
        best = heapq.heappop(heap)[2]
        new_id = len(token_bytes)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])
        keys.append(_token_key(token_bytes[-1]))
        merges.append(best)
        delta: dict[tuple[int, int], int] = {}
        for i in list(where[best]):
            old = words[i]
            new = words[i] = _apply_merge(old, best, new_id)
            f = freqs[i]
            old_pairs, new_pairs = list(zip(old, old[1:])), list(zip(new, new[1:]))
            for pair in old_pairs:
                delta[pair] = delta.get(pair, 0) - f
            for pair in new_pairs:
                delta[pair] = delta.get(pair, 0) + f
            for pair in set(old_pairs).difference(new_pairs):
                where[pair].discard(i)
            for pair in set(new_pairs).difference(old_pairs):
                where.setdefault(pair, set()).add(i)
        for pair, d in delta.items():
            if d:
                c = counts.get(pair, 0) + d
                if c:
                    counts[pair] = c
                    heapq.heappush(heap, (-c, keys[pair[0]] + keys[pair[1]], pair))
                else:
                    del counts[pair], where[pair]

    pad_id = len(token_bytes)
    token_bytes.extend([b"", b"", b""])
    return Vocab(merges=tuple(merges), token_bytes=tuple(token_bytes),
                 pad_id=pad_id, bos_id=pad_id + 1, eos_id=pad_id + 2)


def _token_key(b: bytes) -> str:
    # one code point per byte plus a terminator above every byte, so that a
    # string sorts after the strings it is a prefix of; the key of a pair is
    # the concatenation of its two token keys
    return b.decode("latin-1") + "\u0100"


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


def encode(vocab: Vocab, text: str, context_length: int) -> tuple[int, ...]:
    """The visible ids: BOS + content + EOS, content cut at ``context_length - 2``.

    The last id is always EOS; no PAD is added.
    """
    if context_length < 3:
        raise UsageError(f"context_length must be >= 3, got {context_length}")
    return (vocab.bos_id, *content_ids(vocab, text)[:context_length - 2], vocab.eos_id)


def decode(vocab: Vocab, ids) -> str:
    """Inverse of encode: specials and padding are dropped."""
    specials = set(vocab.special_ids)
    data = b"".join(vocab.token_bytes[i] for i in ids if i not in specials)
    return data.decode("utf-8", errors="replace")


def check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise UsageError(f"cutoff must be at least 0, not {cutoff}")


def corpus_token_stats(vocab: Vocab, corpus: list[str], cutoff: int) -> TokenWasteReport:
    """Exact aggregate token-waste statistics at one content cutoff."""
    check_cutoff(cutoff)
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


# the fields of ``report.txt`` and ``summary.csv``, in order, with their formats
WASTE_FORMATS = {"cutoff": "", "total_tokens": "", "wasted_tokens": "",
                 "waste_fraction": ".6f", "mean_length": ".4f", "median_length": ".1f",
                 "min_length": "", "max_length": ""}


def waste_report_fields(report: TokenWasteReport) -> dict[str, str]:
    """The report's figures as text, keyed by field name in ``WASTE_FORMATS`` order."""
    return {key: format(getattr(report, key), spec) for key, spec in WASTE_FORMATS.items()}


def format_waste_report(report: TokenWasteReport) -> str:
    """Flat key-value text rendering of a TokenWasteReport."""
    lines = [f"{key}={value}" for key, value in waste_report_fields(report).items()]
    return "\n".join([*lines, f"note={report.note}"]) + "\n"


# -- vocabulary files -----------------------------------------------------------


def _vocab_texts(vocab: Vocab) -> tuple[str, str]:
    """The contents of ``tokens.txt`` and ``merges.txt``."""
    lines = [f"version {VOCAB_FORMAT_VERSION}",
             f"pad {vocab.pad_id}", f"bos {vocab.bos_id}", f"eos {vocab.eos_id}"]
    for i, b in enumerate(vocab.token_bytes):
        lines.append(f"{i} {b.hex()}")
    merge_lines = [f"{a} {b}" for a, b in vocab.merges]
    return ("\n".join(lines) + "\n",
            "\n".join(merge_lines) + ("\n" if merge_lines else ""))


def save_vocab(vocab: Vocab, directory) -> None:
    """Write the token table and the ordered merge list as plain text."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tokens, merges = _vocab_texts(vocab)
    (directory / "tokens.txt").write_text(tokens)
    (directory / "merges.txt").write_text(merges)


def vocab_fingerprint(vocab: Vocab) -> str:
    """sha256 (hex) over the token table and the merges, as ``save_vocab``
    writes them: equal fingerprints mean equal tables and merges."""
    h = hashlib.sha256()
    for text in _vocab_texts(vocab):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def load_vocab(directory) -> Vocab:
    """Read a vocabulary written by ``save_vocab``, checking every line.

    A malformed line, a token table that is not dense or does not start
    with the 256 bytes, a special id outside it, or a merge that is not the
    concatenation of two earlier tokens raises a ``DataError`` naming the
    file and line.
    """
    directory = Path(directory)
    tokens_path, merges_path = directory / "tokens.txt", directory / "merges.txt"
    token_lines = read_text(tokens_path).splitlines()
    merge_lines = read_text(merges_path).splitlines()
    if not token_lines or token_lines[0].split() != ["version", str(VOCAB_FORMAT_VERSION)]:
        raise DataError(f"{tokens_path} line 1: unsupported vocabulary file version "
                        f"{token_lines[0] if token_lines else ''!r}")
    if len(token_lines) < 4:
        raise DataError(f"{tokens_path}: the pad, bos and eos lines are missing")
    ids = {}
    for lineno, (name, line) in enumerate(zip(SPECIAL_NAMES, token_lines[1:4]), start=2):
        fields = line.split()
        if len(fields) != 2 or fields[0] != name or not fields[1].isdigit():
            raise DataError(f"{tokens_path} line {lineno}: expected '{name} <id>', got {line!r}")
        ids[name] = int(fields[1])
    token_bytes = []
    for lineno, line in enumerate(token_lines[4:], start=5):
        fields = line.split()
        try:
            if len(fields) not in (1, 2):
                raise ValueError
            idx, data = int(fields[0]), bytes.fromhex(fields[1] if len(fields) == 2 else "")
        except ValueError:
            raise DataError(f"{tokens_path} line {lineno}: expected '<id> <hex bytes>', "
                            f"got {line!r}") from None
        if idx != len(token_bytes):
            raise DataError(f"{tokens_path} line {lineno}: token table ids are not dense "
                            f"at {line!r}")
        if idx < 256 and data != bytes([idx]):
            raise DataError(f"{tokens_path} line {lineno}: id {idx} must be the byte {idx:02x}")
        token_bytes.append(data)
    for lineno, name in enumerate(SPECIAL_NAMES, start=2):
        if not 256 <= ids[name] < len(token_bytes):
            raise DataError(f"{tokens_path} line {lineno}: {name} id {ids[name]} is outside "
                            f"the merged and special ids")
    merges = []
    for lineno, line in enumerate(merge_lines, start=1):
        new_id = 256 + len(merges)
        try:
            left, right = (int(part) for part in line.split())
        except ValueError:
            raise DataError(f"{merges_path} line {lineno}: expected '<left id> <right id>', "
                            f"got {line!r}") from None
        if not (0 <= left < new_id and 0 <= right < new_id and new_id < len(token_bytes)
                and token_bytes[new_id] == token_bytes[left] + token_bytes[right]):
            raise DataError(f"{merges_path} line {lineno}: merge {left} {right} is not two "
                            f"ids below {new_id} whose bytes spell token {new_id}")
        merges.append((left, right))
    return Vocab(merges=tuple(merges), token_bytes=tuple(token_bytes),
                 pad_id=ids["pad"], bos_id=ids["bos"], eos_id=ids["eos"])
