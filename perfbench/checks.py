"""Output checks and the reference computations behind them.

Every check compares the program's output with a separate computation or
with a property the method must have, never with a stored copy of an
earlier output.  Each returns a list of failure messages; an empty list
means the check passed.  ``selftest.py`` plants a wrong output for each one.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

# the chunking rule of the tokenizer: whitespace sticks to the next word
CHUNK_RE = re.compile(r"\s*\S+|\s+")


# -- ablate ----------------------------------------------------------------------


def read_convergence(path: Path) -> dict[int, list[tuple[int, float]]]:
    curves: dict[int, list[tuple[int, float]]] = {}
    for line in path.read_text().splitlines()[1:]:
        context, step, loss = line.split(",")
        curves.setdefault(int(context), []).append((int(step), float(loss)))
    return curves


def read_recalls(path: Path) -> dict[tuple[str, str, int], float]:
    """(context or benchmark, direction, K) -> recall from an ablation.csv or
    retrieval.csv."""
    table = {}
    for line in path.read_text().splitlines()[1:]:
        key, direction, k, recall = line.split(",")
        table[(key, direction, int(k))] = float(recall)
    return table


def steps_to_target(curve, target: float):
    return next((step for step, loss in curve if loss <= target), None)


def check_convergence(curves, contexts, steps: int, target: float) -> list[str]:
    """Finite losses, ``steps`` rows per context, and the longest context
    reaches ``target``."""
    fails = []
    for context in contexts:
        curve = curves.get(context, [])
        if len(curve) != steps:
            fails.append(f"convergence: context {context} has {len(curve)} rows, want {steps}")
        if not all(math.isfinite(loss) for _, loss in curve):
            fails.append(f"convergence: context {context} has a non-finite loss")
    if steps_to_target(curves.get(max(contexts), []), target) is None:
        fails.append(f"convergence: context {max(contexts)} never reaches loss {target:.4f}")
    return fails


def check_recall_table(table, short: str, long: str) -> list[str]:
    """Recall does not fall as K grows; R@1(long) > R@1(short), text to image."""
    fails = []
    for key, direction in sorted({(c, d) for c, d, _ in table}):
        ks = sorted(k for c, d, k in table if (c, d) == (key, direction))
        values = [table[(key, direction, k)] for k in ks]
        if any(b < a for a, b in zip(values, values[1:])):
            fails.append(f"recall falls as K grows at {key} {direction}: {values}")
    if not table[(long, "t2i", 1)] > table[(short, "t2i", 1)]:
        fails.append(f"R@1({long})={table[(long, 't2i', 1)]} is not above "
                     f"R@1({short})={table[(short, 't2i', 1)]}")
    return fails


# -- longcap-waste -------------------------------------------------------------------


def check_enriched(rows: list[dict], inputs: dict, planted: dict) -> list[str]:
    """Every record done, no planted non-visual clause kept, first acronym
    occurrence expanded, and enriched captions longer than the inputs."""
    fails = []
    if sorted(r["id"] for r in rows) != sorted(inputs):
        fails.append("longcap output does not hold exactly the input records")
    for row in rows:
        if row["status"] != "done":
            fails.append(f"{row['id']}: status {row['status']} ({row.get('stage')})")
            continue
        caption = row["caption"]
        facts = planted.get(row["id"], {"not_visual": [], "acronyms": {}})
        for clause in facts["not_visual"]:
            if clause in caption:
                fails.append(f"{row['id']}: non-visual clause kept: {clause!r}")
        for acro, expansion in facts["acronyms"].items():
            m = re.search(rf"\b{re.escape(acro)}\b", caption)
            if m and caption[max(0, m.start() - len(expansion) - 2):m.end() + 1] \
                    != f"{expansion} ({acro})":
                fails.append(f"{row['id']}: first {acro} is not '{expansion} ({acro})'")
    if rows and inputs:
        enriched = np.mean([len(r["caption"]) for r in rows])
        original = np.mean([len(r.caption) for r in inputs.values()])
        if not enriched > original:
            fails.append(f"mean enriched length {enriched:.1f} <= input {original:.1f}")
    return fails[:20]


def check_resume(augment_captions: list[str], done_before: list) -> list[str]:
    """The resumed pass sends no request for a record already done."""
    done = {r.caption for r in done_before}
    resent = [c for c in augment_captions if c in done]
    return [f"resumed pass re-sent {len(resent)} done records"] if resent else []


def naive_train_bpe(corpus: list[str], vocab_size: int) -> list[tuple[int, int]]:
    """Reference trainer: recount every pair for every merge.

    Ties in count go to the pair whose (left, right) byte strings sort
    first, where a string sorts after every string it is a prefix of; of
    pairs whose byte strings are equal, the first counted wins.  This is the
    rule ``train_bpe`` has always applied.
    """
    freq: dict[bytes, int] = {}
    for text in corpus:
        for chunk in CHUNK_RE.findall(text):
            b = chunk.encode("utf-8")
            freq[b] = freq.get(b, 0) + 1
    words = [(list(b), f) for b, f in sorted(freq.items())]
    tokens = [bytes([i]) for i in range(256)]
    merges = []

    def order(pair):
        return (tuple(tokens[pair[0]]) + (256,), tuple(tokens[pair[1]]) + (256,))

    while len(tokens) < vocab_size - 3:
        counts: dict[tuple[int, int], int] = {}
        for ids, f in words:
            for i in range(len(ids) - 1):
                pair = (ids[i], ids[i + 1])
                counts[pair] = counts.get(pair, 0) + f
        if not counts:
            break
        best = None
        for pair, count in counts.items():
            if best is None or count > counts[best] or (
                    count == counts[best] and order(pair) < order(best)):
                best = pair
        new_id = len(tokens)
        tokens.append(tokens[best[0]] + tokens[best[1]])
        merges.append(best)
        for w in words:
            ids, out, i = w[0], [], 0
            while i < len(ids):
                if i + 1 < len(ids) and (ids[i], ids[i + 1]) == best:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(ids[i])
                    i += 1
            w[0][:] = out
    return merges


def check_merges(got, corpus: list[str], vocab_size: int) -> list[str]:
    want = naive_train_bpe(corpus, vocab_size)
    got = [tuple(m) for m in got]
    if got == want:
        return []
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    return [f"train_bpe merges differ from the reference at merge {first} "
            f"({len(got)} vs {len(want)} merges)"]


def reference_lengths(merges, token_count: int, texts: list[str]) -> list[int]:
    """Content-token counts by applying the merges lowest rank first."""
    rank = {tuple(pair): i for i, pair in enumerate(merges)}
    base = token_count - 3 - len(merges)
    memo: dict[str, int] = {}
    lengths = []
    for text in texts:
        n = 0
        for chunk in CHUNK_RE.findall(text):
            if chunk not in memo:
                ids = list(chunk.encode("utf-8"))
                while True:
                    ranked = [(rank[p], i) for i, p in enumerate(zip(ids, ids[1:])) if p in rank]
                    if not ranked:
                        break
                    r = min(ranked)[0]
                    pair, merged, i = merges[r], [], 0
                    while i < len(ids):
                        if i + 1 < len(ids) and (ids[i], ids[i + 1]) == tuple(pair):
                            merged.append(base + r)
                            i += 2
                        else:
                            merged.append(ids[i])
                            i += 1
                    ids = merged
                memo[chunk] = len(ids)
            n += memo[chunk]
        lengths.append(n)
    return lengths


def read_report(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def check_waste(reports: dict[int, dict], lengths: list[int]) -> list[str]:
    """Token totals equal a recount; waste at the long cutoff is lower."""
    fails = []
    total = sum(lengths)
    for cutoff, report in reports.items():
        wasted = sum(max(0, n - cutoff) for n in lengths)
        if (int(report["total_tokens"]), int(report["wasted_tokens"])) != (total, wasted):
            fails.append(f"waste report at {cutoff}: {report['total_tokens']}/"
                         f"{report['wasted_tokens']} tokens, recount {total}/{wasted}")
    lo, hi = min(reports), max(reports)
    if not float(reports[hi]["waste_fraction"]) < float(reports[lo]["waste_fraction"]):
        fails.append(f"waste at {hi} is not below waste at {lo}")
    return fails


def check_round_trip(vocab, captions: list[str], content_ids, decode) -> list[str]:
    bad = [t for t in captions if decode(vocab, content_ids(vocab, t)) != t]
    return [f"{len(bad)} captions do not survive encode/decode, e.g. {bad[0][:60]!r}"] if bad else []


# -- retrieval-eval -----------------------------------------------------------------


def check_embeddings(z: np.ndarray, what: str) -> list[str]:
    if not np.all(np.isfinite(z)):
        return [f"{what} embeddings are not finite"]
    worst = float(np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)))
    return [f"{what} embeddings are not unit-norm (off by {worst:.2e})"] if worst > 1e-5 else []


def check_single_vs_batched(single: np.ndarray, batched_rows: np.ndarray,
                            tol: float = 1e-5) -> list[str]:
    worst = float(np.max(np.abs(single - batched_rows)))
    return [f"one-at-a-time embeddings differ from batched rows by {worst:.2e}"] \
        if worst > tol else []


def oracle_ranks(queries, gallery, picks) -> np.ndarray:
    """1-based rank of item i among the gallery for query i, by a stable
    argsort of negated similarities (ties go to the lower gallery index)."""
    sims = np.asarray(queries, np.float64)[picks] @ np.asarray(gallery, np.float64).T
    order = np.argsort(-sims, axis=1, kind="stable")
    return np.array([int(np.nonzero(order[row] == i)[0][0]) + 1
                     for row, i in enumerate(picks)])


def check_ranks(ranks: dict[str, np.ndarray], z_img, z_txt, table, picks) -> list[str]:
    """Ranks equal the argsort oracle on sampled queries, and the recalls in
    retrieval.csv are the share of ranks within K."""
    fails = []
    pairs = {"t2i": (z_txt, z_img), "i2t": (z_img, z_txt)}
    for direction, (queries, gallery) in pairs.items():
        want = oracle_ranks(queries, gallery, picks)
        got = ranks[direction][picks]
        if not np.array_equal(got, want):
            fails.append(f"{direction} ranks differ from the argsort oracle at "
                         f"{int(np.sum(got != want))} of {len(picks)} sampled queries")
        for (_, d, k), recall in table.items():
            if d == direction and abs(np.mean(ranks[direction] <= k) - recall) > 5e-7:
                fails.append(f"{direction} R@{k}={recall} is not the share of ranks <= {k}")
    return fails


def binomial_tail(n: int, p: float, hits: int) -> float:
    """P(X >= hits) for X ~ Binomial(n, p)."""
    total = 0.0
    for k in range(hits, n + 1):
        term = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * math.log(p) + (n - k) * math.log1p(-p))
        total += term
        if term < 1e-18 * total:
            break
    return total


# one-sided false-alarm rate of the chance check.  At chance the hit count
# is about Poisson(1), whose tail is far heavier than a normal one: "within
# 3 sigma" (4 hits or fewer) fails an untrained model on 0.4% of seeds per
# direction, so a correct program fails some of a hundred seeded runs.
CHANCE_ALPHA = 1e-6


def check_chance(table, n: int) -> list[str]:
    """An untrained model scores R@1 at chance (1/n): its hit count is not
    beyond the exact binomial tail at CHANCE_ALPHA.  At n = 8000 that
    allows 9 hits of n, against about 1 expected."""
    fails = []
    for (_, direction, k), recall in table.items():
        hits = round(recall * n)
        if k == 1 and binomial_tail(n, 1.0 / n, hits) < CHANCE_ALPHA:
            fails.append(f"untrained {direction} R@1={recall} ({hits} hits) is beyond "
                         f"chance 1/{n} (binomial tail below {CHANCE_ALPHA:g})")
    return fails


def digest(paths: list[Path]) -> str:
    """sha256 prefix over the names and contents of deterministic outputs."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]
