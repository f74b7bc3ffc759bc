"""Bidirectional retrieval (Recall@K) and zero-shot classification.

Retrieval ranks every gallery item by cosine similarity against each query,
breaking exact similarity ties by ascending gallery index so results stay
reproducible on degenerate (duplicated) embeddings.  Similarities are
computed in query blocks to bound memory on large galleries.  Zero-shot
classification reformulates a labeling task as multiple choice: encode every
candidate answer and pick the most similar one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import read_json_lines, string_list_field
from .errors import DataError, UsageError

DEFAULT_KS = (1, 5, 10)
# query rows scored per block; a block holds block x gallery float64 scores
# and as many bools.  Of 128, 256, 512 and 1,024 rows, 256 scored an
# 8,000-pair gallery fastest (2 CPUs, OpenBLAS 0.3.31, 2 BLAS threads)
RETRIEVAL_BLOCK = 256


@dataclass(frozen=True)
class RetrievalResult:
    direction: str                      # "t2i" or "i2t"
    recalls: dict[int, float]           # requested K -> recall
    ranks: np.ndarray                   # 1-based rank of ground truth per query
    capped_ks: dict[int, int] = field(default_factory=dict)  # requested -> effective


def _check_unit(z, what):
    # `<=`, not `>`: a NaN norm compares false either way, so NaN rows fail too
    norms = np.linalg.norm(z, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-5):
        raise UsageError(f"{what} embeddings are not finite unit-norm rows")


def check_block_size(block_size: int) -> None:
    if block_size < 1:
        raise UsageError(f"block_size must be at least 1, not {block_size}")


def retrieve(queries: np.ndarray, gallery: np.ndarray, ground_truth,
             ks=DEFAULT_KS, direction: str = "t2i",
             block_size: int = RETRIEVAL_BLOCK) -> RetrievalResult:
    """Rank the gallery for each query and score Recall@K.

    ``ground_truth[i]`` is the gallery index that counts as a hit for query
    i.  A query's rank is one plus the gallery items that score strictly
    higher than its hit, plus those that score equal at a lower index.  Ks
    beyond the gallery size are capped (and reported in ``capped_ks``).
    """
    check_block_size(block_size)
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.int64)
    if queries.shape[0] != ground_truth.shape[0]:
        raise UsageError("one ground-truth index per query required")
    if ground_truth.size and (ground_truth.min() < 0 or ground_truth.max() >= len(gallery)):
        raise UsageError("ground-truth index out of gallery range")
    _check_unit(queries, "query")
    _check_unit(gallery, "gallery")

    n_queries, n_gallery = queries.shape[0], gallery.shape[0]
    # every block reuses these two: its similarities and one comparison of
    # each row against the row's hit
    sims = np.empty((min(block_size, n_queries), n_gallery))
    flags = np.empty(sims.shape, dtype=bool)
    ranks = np.empty(n_queries, dtype=np.int64)
    for start in range(0, n_queries, block_size):
        stop = min(start + block_size, n_queries)
        s, f, gt = sims[:stop - start], flags[:stop - start], ground_truth[start:stop]
        np.matmul(queries[start:stop], gallery.T, out=s)
        hit = s[np.arange(stop - start), gt][:, None]
        ahead = np.count_nonzero(np.greater(s, hit, out=f), axis=1)
        # the hit equals itself, so only a row with a second equal score has
        # ties to count, and only those left of its hit count
        equal = np.count_nonzero(np.equal(s, hit, out=f), axis=1)
        for row in np.flatnonzero(equal > 1):
            ahead[row] += np.count_nonzero(f[row, :gt[row]])
        ranks[start:stop] = 1 + ahead

    recalls = {}
    capped = {}
    for k in ks:
        k_eff = min(int(k), n_gallery)
        if k_eff != k:
            capped[int(k)] = k_eff
        recalls[int(k)] = float(np.count_nonzero(ranks <= k_eff) / len(ranks))
    return RetrievalResult(direction=direction, recalls=recalls, ranks=ranks,
                           capped_ks=capped)


def recall_pair(image_embs: np.ndarray, text_embs: np.ndarray,
                ks=DEFAULT_KS, block_size: int = RETRIEVAL_BLOCK):
    """Both retrieval directions under the one-to-one pairing convention."""
    image_embs = np.asarray(image_embs)
    text_embs = np.asarray(text_embs)
    if image_embs.shape != text_embs.shape:
        raise UsageError("paired evaluation needs equally many image and text embeddings")
    identity = np.arange(image_embs.shape[0])
    t2i = retrieve(text_embs, image_embs, identity, ks, "t2i", block_size)
    i2t = retrieve(image_embs, text_embs, identity, ks, "i2t", block_size)
    return t2i, i2t


# -- zero-shot classification --------------------------------------------------------


@dataclass(frozen=True)
class ZeroShotTask:
    image_embeddings: np.ndarray          # [N, D] unit-norm
    option_texts: tuple[tuple[str, ...], ...]
    correct_index: tuple[int, ...]

    def __post_init__(self):
        n = self.image_embeddings.shape[0]
        if not (len(self.option_texts) == len(self.correct_index) == n):
            raise UsageError("task fields must have one entry per image")
        for opts, ci in zip(self.option_texts, self.correct_index):
            if len(opts) < 2:
                raise UsageError("every item needs at least 2 candidate answers")
            if not 0 <= ci < len(opts):
                raise UsageError("correct_index out of range")


@dataclass(frozen=True)
class ZeroShotOutcome:
    accuracy: float
    predictions: tuple[int, ...]


def zero_shot_classify(task: ZeroShotTask, model) -> ZeroShotOutcome:
    """Pick the candidate answer whose embedding is most similar per image.

    Exact similarity ties resolve to the lowest option index.  ``model``
    must expose ``encode_texts``.
    """
    all_options = [opt for opts in task.option_texts for opt in opts]
    if any(not opt for opt in all_options):
        raise UsageError("empty candidate answer string")
    embs = model.encode_texts(all_options)
    predictions = []
    offset = 0
    for i, opts in enumerate(task.option_texts):
        opt_embs = embs[offset:offset + len(opts)]
        offset += len(opts)
        sims = opt_embs @ task.image_embeddings[i]
        predictions.append(int(np.argmax(sims)))
    correct = sum(p == c for p, c in zip(predictions, task.correct_index))
    return ZeroShotOutcome(accuracy=correct / len(predictions),
                           predictions=tuple(predictions))


def permute_options(task: ZeroShotTask, seed: int) -> ZeroShotTask:
    """Seeded uniform shuffle of each item's options; labels follow."""
    rng = np.random.default_rng(seed)
    new_options = []
    new_correct = []
    for opts, ci in zip(task.option_texts, task.correct_index):
        perm = rng.permutation(len(opts))
        new_options.append(tuple(opts[p] for p in perm))
        new_correct.append(int(np.nonzero(perm == ci)[0][0]))
    return ZeroShotTask(image_embeddings=task.image_embeddings,
                        option_texts=tuple(new_options),
                        correct_index=tuple(new_correct))


# -- task and result files -------------------------------------------------------------


def _correct_index(value) -> int:
    # bool is an int subclass: true would read as 1
    if type(value) is not int:
        raise TypeError(f"correct must be an integer, got {value!r:.40}")
    return value


def read_zero_shot_records(path):
    """Line-delimited task records: (image ref, option list, correct index)."""
    records = read_json_lines(path, "task record", lambda obj: (
        str(obj["image"]), string_list_field(obj["options"], "options"),
        _correct_index(obj["correct"])))
    if not records:
        raise DataError(f"{path}: no task records")
    return records


RETRIEVAL_CSV_HEADER = ["benchmark", "direction", "K", "recall"]


def retrieval_csv_rows(benchmark: str, results) -> list[list[str]]:
    """Rows matching the (benchmark, direction, K, recall) table layout."""
    return [[benchmark, res.direction, str(k), f"{res.recalls[k]:.6f}"]
            for res in results for k in sorted(res.recalls)]


def format_retrieval_summary(benchmark: str, results) -> str:
    lines = [f"benchmark: {benchmark}"]
    for res in results:
        parts = [f"R@{k}={res.recalls[k]:.4f}" for k in sorted(res.recalls)]
        line = f"  {res.direction}: " + "  ".join(parts)
        if res.capped_ks:
            caps = ", ".join(f"K={k} capped to {v}" for k, v in res.capped_ks.items())
            line += f"  [warning: {caps}]"
        lines.append(line)
    return "\n".join(lines) + "\n"
