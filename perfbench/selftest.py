"""Shows that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Each check first passes on a correct output built here from longctx itself,
then must fail on a planted wrong one: a swapped rank, a merge list off by
one merge, a leaked non-visual clause, a padding-dependent embedding, and
so on.  A check that cannot fail proves nothing.  Exits non-zero if any
check misses its planted fault or rejects the correct output.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from longctx import encoders  # noqa: E402
from longctx.data import SyntheticSpec, generate_synthetic  # noqa: E402
from longctx.longcap import MockBackend, run_pipeline  # noqa: E402
from longctx.tokenizer import content_ids, decode, train_bpe  # noqa: E402

RESULTS = []


def expect(name: str, fails: list[str], should_fail: bool, because: str = "") -> None:
    """``because``: a fragment the first failure message must contain."""
    ok = bool(fails) == should_fail and (not fails or because in fails[0])
    RESULTS.append(ok)
    verdict = "caught" if fails else "passed"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))


def ablate_checks() -> None:
    steps, target = 20, math.log(32) / 2
    good = {c: [(i, 3.0 - 0.1 * i) for i in range(steps)] for c in (77, 154, 512)}
    expect("convergence, correct", checks.check_convergence(good, (77, 154, 512), steps, target), False)
    nan = {**good, 154: [(0, float("nan"))] + good[154][1:]}
    expect("convergence, a NaN loss", checks.check_convergence(nan, (77, 154, 512), steps, target), True)
    short = {**good, 77: good[77][:-1]}
    expect("convergence, a missing row", checks.check_convergence(short, (77, 154, 512), steps, target), True)
    flat = {**good, 512: [(i, 3.0) for i in range(steps)]}
    expect("convergence, 512 never reaches the target",
           checks.check_convergence(flat, (77, 154, 512), steps, target), True)

    table = {(c, d, k): r * {1: 1.0, 5: 1.5, 10: 1.8}[k]
             for c, r in (("77", 0.1), ("154", 0.2), ("512", 0.3))
             for d in ("t2i", "i2t") for k in (1, 5, 10)}
    expect("recall table, correct", checks.check_recall_table(table, "77", "512"), False)
    falling = {**table, ("154", "i2t", 10): 0.01}
    expect("recall table, recall falls with K", checks.check_recall_table(falling, "77", "512"), True,
           "falls")
    flipped = {**table, **{("77", "t2i", k): 0.4 for k in (1, 5, 10)}}
    expect("recall table, R@1(512) not above R@1(77)",
           checks.check_recall_table(flipped, "77", "512"), True, "is not above")


def longcap_checks() -> None:
    records, planted = inputs.caption_records(seed=5, count=40)
    corpus = run_pipeline(records, MockBackend(seed=0), max_workers=1)
    rows = [{"id": r.id, "status": r.status, "caption": r.caption, "stage": r.stage}
            for r in corpus.results]
    by_id = {r.id: r for r in records}
    expect("enriched captions, correct", checks.check_enriched(rows, by_id, planted), False)

    leaked = [dict(r) for r in rows]
    leaked[3]["caption"] += " " + planted[leaked[3]["id"]]["not_visual"][0] + "."
    expect("enriched captions, a leaked non-visual clause",
           checks.check_enriched(leaked, by_id, planted), True)
    row = next(r for r in rows if any(f"({a})" in r["caption"]
                                       for a in planted[r["id"]]["acronyms"]))
    acro, expansion = next((a, e) for a, e in planted[row["id"]]["acronyms"].items()
                           if f"({a})" in row["caption"])
    unexpanded = [dict(r) for r in rows]
    i = rows.index(row)
    unexpanded[i]["caption"] = row["caption"].replace(f"{expansion} ({acro})", acro, 1)
    expect("enriched captions, an acronym left unexpanded",
           checks.check_enriched(unexpanded, by_id, planted), True)
    failed = [dict(r) for r in rows]
    failed[0]["status"] = "failed"
    expect("enriched captions, a failed record", checks.check_enriched(failed, by_id, planted), True)
    cut = [{**r, "caption": r["caption"][:10]} for r in rows]
    expect("enriched captions, shorter than the inputs",
           checks.check_enriched(cut, by_id, planted), True)

    resent = [records[30].caption, records[2].caption]
    expect("resume, correct", checks.check_resume(resent[:1], records[:10]), False)
    expect("resume, a done record sent again", checks.check_resume(resent, records[:10]), True)

    captions = [r["caption"] for r in rows]
    sub = captions[:10]
    merges = list(train_bpe(sub, 259 + 60).merges)
    expect("BPE merges, correct", checks.check_merges(merges, sub, 259 + 60), False)
    expect("BPE merges, one merge short", checks.check_merges(merges[:-1], sub, 259 + 60), True)
    swapped = merges[:7] + [merges[8], merges[7]] + merges[9:]
    expect("BPE merges, two merges swapped", checks.check_merges(swapped, sub, 259 + 60), True)

    vocab = train_bpe(captions, 400)
    lengths = checks.reference_lengths(vocab.merges, vocab.size, captions)
    counted = [len(content_ids(vocab, t)) for t in captions]
    expect("reference lengths agree with content_ids",
           [] if lengths == counted else ["reference recount differs"], False)

    def report(cutoff, total=None, wasted=None):
        wasted_ = sum(max(0, n - cutoff) for n in counted) if wasted is None else wasted
        total_ = sum(counted) if total is None else total
        return {"total_tokens": str(total_), "wasted_tokens": str(wasted_),
                "waste_fraction": str(wasted_ / total_)}

    good = {77: report(77), 512: report(512)}
    expect("waste reports, correct", checks.check_waste(good, lengths), False)
    expect("waste reports, a token miscounted",
           checks.check_waste({**good, 77: report(77, total=sum(counted) + 1)}, lengths), True,
           "recount")
    same = {**good[512], "waste_fraction": good[77]["waste_fraction"]}
    expect("waste reports, no less waste at 512",
           checks.check_waste({**good, 512: same}, lengths), True, "is not below")

    expect("round trip, correct", checks.check_round_trip(vocab, captions, content_ids, decode), False)
    expect("round trip, a decoder that drops a byte",
           checks.check_round_trip(vocab, captions, content_ids,
                                   lambda v, ids: decode(v, ids)[:-1]), True)


def eval_checks() -> None:
    corpus, _ = generate_synthetic(SyntheticSpec(num_classes=4, samples_per_class=40,
                                                 image_dim=16, seed=3))
    captions = corpus.captions()
    vocab = train_bpe(captions, 300)
    text_cfg = encoders.TextEncoderConfig(context_length=512, vocab_size=vocab.size,
                                          embed_dim=16, num_layers=1, num_heads=2, output_dim=8)
    img_cfg = encoders.ImageEncoderConfig(input_dim=16, hidden_dim=16, num_layers=2, output_dim=8)
    model = encoders.TrainedModel(text_cfg, img_cfg, encoders.init_params(text_cfg, img_cfg, 3),
                                  vocab, log_scale=0.0)
    z_txt = model.encode_texts(captions)
    z_img = model.encode_images(corpus.images())
    expect("embeddings, correct", checks.check_embeddings(z_txt, "text"), False)
    nan = z_txt.copy()
    nan[4, 1] = np.nan
    expect("embeddings, a NaN", checks.check_embeddings(nan, "text"), True)
    expect("embeddings, not unit-norm", checks.check_embeddings(z_txt * 1.01, "text"), True)

    sample = [0, 5, 17, 60]
    single = np.concatenate([model.encode_texts([captions[i]]) for i in sample])
    expect("single vs batched, correct", checks.check_single_vs_batched(single, z_txt[sample]), False)
    mask = encoders.attention_mask
    encoders.attention_mask = lambda visible, seq_len: np.zeros_like(mask(visible, seq_len))
    try:  # padding left visible to attention: the embedding depends on the batch
        leaky = model.encode_texts(captions)
        leaky_single = np.concatenate([model.encode_texts([captions[i]]) for i in sample])
    finally:
        encoders.attention_mask = mask
    expect("single vs batched, a padding-dependent embedding",
           checks.check_single_vs_batched(leaky_single, leaky[sample]), True)

    from longctx.evaluation import recall_pair
    t2i, i2t = recall_pair(z_img, z_txt, ks=(1, 5, 10))
    n = len(captions)
    table = {("corpus", r.direction, k): float(f"{v:.6f}")
             for r in (t2i, i2t) for k, v in r.recalls.items()}
    ranks = {"t2i": t2i.ranks, "i2t": i2t.ranks}
    picks = np.arange(0, n, 3)
    expect("ranks, correct", checks.check_ranks(ranks, z_img, z_txt, table, picks), False)
    a, b = next((i, j) for i in picks for j in picks if ranks["t2i"][i] != ranks["t2i"][j])
    swapped = dict(ranks, t2i=ranks["t2i"].copy())
    swapped["t2i"][[a, b]] = swapped["t2i"][[b, a]]
    expect("ranks, two ranks swapped", checks.check_ranks(swapped, z_img, z_txt, table, picks), True)
    wrong_table = {**table, ("corpus", "i2t", 5): table[("corpus", "i2t", 5)] + 0.01}
    expect("ranks, a recall that is not the share of ranks",
           checks.check_ranks(ranks, z_img, z_txt, wrong_table, picks), True)

    chance = {("corpus", d, 1): 1 / 10000 for d in ("t2i", "i2t")}
    expect("chance, at chance", checks.check_chance(chance, 10000), False)
    # an untrained checkpoint on seed 327312645 scores 5 i2t hits in 8000
    expect("chance, five hits in 8000",
           checks.check_chance({("corpus", "i2t", 1): 5 / 8000}, 8000), False)
    expect("chance, ten hits in 10000",
           checks.check_chance({**chance, ("corpus", "t2i", 1): 10 / 10000}, 10000), True)


def main() -> int:
    ablate_checks()
    longcap_checks()
    eval_checks()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} self-tests as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
