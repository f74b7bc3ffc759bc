"""Acceptance suite: one test per criterion, each at its stated tolerance.

The context-length ablation (criteria 4 and 5) trains nine models (three
seeds x three context lengths) on the full synthetic corpus and dominates
the suite's runtime; both criteria read from the same shared run matrix,
built by the engine of `longctx ablate` (`cli.run_ablation`).
"""

import math
import os
import time

import numpy as np
import pytest

from helpers import evaluate, fixture_caption_records, profile, run_ablation, unit_rows
from longctx.cli import run as cli_run
from longctx.data import SyntheticSpec, generate_synthetic, save_corpus
from longctx.encoders import (
    ImageEncoderConfig,
    TextEncoderConfig,
    TrainedModel,
    init_params,
    text_inputs,
)
from longctx.evaluation import ZeroShotTask, permute_options, recall_pair, retrieve, zero_shot_classify
from longctx.longcap import MockBackend, run_pipeline, write_output_corpus
from longctx.numerics import backward, forward
from longctx.tokenizer import content_ids, corpus_token_stats, train_bpe
from longctx.trainer import (
    TrainConfig,
    _build_train_graph,
    clip_gradients,
    lr_schedule,
)

RNG_DRAWS = 100


def fd_component(graph, bindings, name, flat_idx, h=1e-5):
    """Richardson-extrapolated central difference for one component.

    The composed contrastive loss can be extremely sharp (the temperature
    amplifies softmax curvature), so a single step size has no safe value;
    combining h and h/2 cancels the O(h^2) truncation term while float64
    keeps roundoff near 1e-10.  Stays fully independent of backward().
    """
    base = np.asarray(bindings[name], dtype=np.float64).copy()
    work = dict(bindings)
    flat = base.ravel()
    orig = flat[flat_idx]

    def central(step):
        flat[flat_idx] = orig + step
        work[name] = base
        hi = float(evaluate(graph, work)["loss"])
        flat[flat_idx] = orig - step
        lo = float(evaluate(graph, work)["loss"])
        flat[flat_idx] = orig
        return (hi - lo) / (2.0 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def test_criterion_1_gradient_fidelity():
    """criterion 1: gradient fidelity (backward vs central differences, 1e-4)"""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for draw in range(RNG_DRAWS):
        heads = int(rng.choice([1, 2]))
        embed = int(rng.choice([8, 16]))
        out_dim = int(rng.choice([4, 6]))
        batch = int(rng.integers(2, 5))
        seq_len = int(rng.integers(4, 9))
        text_cfg = TextEncoderConfig(
            context_length=seq_len, vocab_size=40, embed_dim=embed,
            num_layers=int(rng.integers(1, 3)), num_heads=heads, output_dim=out_dim)
        img_cfg = ImageEncoderConfig(
            input_dim=int(rng.integers(3, 7)), hidden_dim=int(rng.integers(4, 9)),
            num_layers=int(rng.integers(1, 3)), output_dim=out_dim)
        graph = _build_train_graph(text_cfg, img_cfg, batch, seq_len, "float64")
        params = init_params(text_cfg, img_cfg, seed=int(rng.integers(1 << 30)))
        visible = rng.integers(2, seq_len + 1, size=batch)
        bindings = dict(params, log_scale=np.asarray(rng.uniform(0.0, 2.0)),
                        **text_inputs(rng.integers(0, 40, size=(batch, seq_len)), visible),
                        img=rng.normal(size=(batch, img_cfg.input_dim)))
        tape = forward(graph, bindings)
        grads = backward(tape, output="loss")
        # 1e-4 relative, with an absolute guard of 1e-9 for components whose
        # true gradient is below what h=1e-6 central differences can resolve
        for name in params:
            size = params[name].size
            for flat_idx in {int(rng.integers(size)), size - 1}:
                fd = fd_component(graph, bindings, name, flat_idx)
                got = grads[name].ravel()[flat_idx]
                assert abs(fd - got) <= 1e-4 * max(abs(fd), abs(got)) + 1e-9, (
                    f"draw {draw}, {name}[{flat_idx}]: fd={fd} backward={got}")
        fd = fd_component(graph, bindings, "log_scale", 0)
        got = float(grads["log_scale"])
        assert abs(fd - got) <= 1e-4 * max(abs(fd), abs(got)) + 1e-9
    assert time.monotonic() - start < 60.0


def oracle_ranks(queries, gallery, ground_truth):
    sims = queries @ gallery.T
    ranks = []
    for i, gt in enumerate(ground_truth):
        order = np.argsort(-sims[i], kind="stable")
        ranks.append(int(np.nonzero(order == gt)[0][0]) + 1)
    return np.array(ranks)


def test_criterion_2_retrieval_oracle_equivalence():
    """criterion 2: recall@K bit-equal to the brute-force sort oracle"""
    rng = np.random.default_rng(7)
    for trial in range(100):
        n_gallery = int(rng.integers(2, 1001))
        n_queries = int(rng.integers(1, 200))
        dim = int(rng.integers(2, 8))
        gallery = unit_rows(rng, n_gallery, dim)
        if n_gallery >= 4:
            # duplicated embeddings exercise the index tie-break
            dup_at = int(rng.integers(0, n_gallery - 2))
            gallery[dup_at + 1] = gallery[dup_at]
            gallery[dup_at + 2] = gallery[dup_at]
        queries = gallery[rng.integers(0, n_gallery, size=n_queries)]
        gt = rng.integers(0, n_gallery, size=n_queries)
        ks = (1, 5, 10, int(rng.integers(1, 1200)))
        res = retrieve(queries, gallery, gt, ks=ks,
                       block_size=int(rng.integers(8, 2048)))
        expected_ranks = oracle_ranks(queries, gallery, gt)
        np.testing.assert_array_equal(res.ranks, expected_ranks)
        for k in ks:
            k_eff = min(k, n_gallery)
            oracle = float(np.count_nonzero(expected_ranks <= k_eff) / n_queries)
            assert res.recalls[k] == oracle  # bit-equal


def test_criterion_3_token_waste_exactness():
    """criterion 3: corpus_token_stats equals an independent recount; fixture 0.32"""
    rng = np.random.default_rng(11)
    base = ["the tissue section shows cells", "a long caption with many words",
            "arrows mark the region of interest"]
    vocab = train_bpe(base, vocab_size=300)
    for _ in range(25):
        texts = [" ".join(rng.choice(["cell", "tissue", "arrow", "region", "stain"],
                                     size=rng.integers(1, 120)))
                 for _ in range(int(rng.integers(1, 40)))]
        cutoff = int(rng.integers(1, 90))
        report = corpus_token_stats(vocab, texts, cutoff)
        lengths = [len(content_ids(vocab, t)) for t in texts]
        assert report.total_tokens == sum(lengths)
        assert report.wasted_tokens == sum(max(0, n - cutoff) for n in lengths)
        assert report.waste_fraction == report.wasted_tokens / report.total_tokens
        assert report.min_length == min(lengths)
        assert report.max_length == max(lengths)

    # 3-caption fixture with content lengths exactly 50/100/150
    texts = ["z" * 50, "z" * 100, "z" * 150]
    for t, n in zip(texts, (50, 100, 150)):
        assert len(content_ids(vocab, t)) == n
    report = corpus_token_stats(vocab, texts, cutoff=77)
    assert report.wasted_tokens == 96 and report.total_tokens == 300
    assert report.waste_fraction == 96 / 300

    path = os.environ.get("BIOMEDICA_CAPTIONS_PATH")
    if not path:
        pytest.skip("dataset-gated check: set BIOMEDICA_CAPTIONS_PATH to a "
                    "caption dump (one caption per line) to compare waste "
                    "fractions against 0.55 +/- 0.02 at cutoff 77 and "
                    "0.022 +/- 0.005 at cutoff 512")
    captions = [ln for ln in open(path, encoding="utf-8").read().splitlines() if ln]
    big_vocab = train_bpe(captions[:50_000], vocab_size=8192)
    frac77 = corpus_token_stats(big_vocab, captions, 77).waste_fraction
    frac512 = corpus_token_stats(big_vocab, captions, 512).waste_fraction
    assert abs(frac77 - 0.55) <= 0.02
    assert abs(frac512 - 0.022) <= 0.005


ABLATION_CONTEXTS = (77, 154, 512)
ABLATION_SEEDS = (1, 2, 3)
# the desk profile of `longctx ablate`, trained for 19 epochs
ABLATION_PROFILE = profile("ablate", max_epochs=19)


@pytest.fixture(scope="module")
def ablation_matrix():
    """Nine trained models: R@1 (T2I) and steps-to-threshold per run."""
    spec = SyntheticSpec(num_classes=10, samples_per_class=200, image_dim=64,
                         distractor_prefix_tokens=100, class_token_position=110,
                         noise_std=0.15, seed=0)
    corpus, _ = generate_synthetic(spec)
    vocab = train_bpe(corpus.captions(), ABLATION_PROFILE["vocab_size"])
    results = {}
    start = time.monotonic()
    for seed in ABLATION_SEEDS:
        cfg = {**ABLATION_PROFILE, "seed": seed}
        for run in run_ablation(cfg, corpus, vocab, ABLATION_CONTEXTS, ks=(1,)):
            results[(seed, run.context)] = {
                "recall1": run.t2i.recalls[1],
                "steps_to_threshold": run.steps_to_target,
            }
    results["wall_seconds"] = time.monotonic() - start
    return results


def test_criterion_4_context_ablation_directional(ablation_matrix):
    """criterion 4: R@1 ordering 512 > 154 > 77 with >= 20-point gap (2 of 3 seeds)"""
    passes = 0
    report = []
    for seed in ABLATION_SEEDS:
        r = {c: ablation_matrix[(seed, c)]["recall1"] for c in ABLATION_CONTEXTS}
        ok = (r[512] > r[154] > r[77]) and (r[512] - r[77] >= 0.20)
        passes += ok
        report.append(f"seed {seed}: R@1(77)={r[77]:.3f} R@1(154)={r[154]:.3f} "
                      f"R@1(512)={r[512]:.3f} -> {'ok' if ok else 'FAIL'}")
    print("\n".join(report))
    assert passes >= 2, "\n".join(report)
    # the stated budget assumes a typical laptop (4+ hardware threads);
    # scale proportionally on smaller CI boxes
    budget = 600.0 * max(1.0, 4.0 / (os.cpu_count() or 1))
    assert ablation_matrix["wall_seconds"] <= budget


def test_criterion_5_convergence_ordering(ablation_matrix):
    """criterion 5: 512-context reaches loss ln(B)/2 in fewer steps than 77 (2 of 3 seeds)"""
    passes = 0
    report = []
    for seed in ABLATION_SEEDS:
        s512 = ablation_matrix[(seed, 512)]["steps_to_threshold"]
        s77 = ablation_matrix[(seed, 77)]["steps_to_threshold"]
        ok = s512 is not None and (s77 is None or s512 < s77)
        passes += ok
        report.append(f"seed {seed}: steps(512)={s512} steps(77)={s77} "
                      f"-> {'ok' if ok else 'FAIL'}")
    print("\n".join(report))
    assert passes >= 2, "\n".join(report)


def test_criterion_6_chance_level_calibration():
    """criterion 6: untrained encoders score at chance (3 sigma, pooled over 5 seeds)"""
    text_cfg = TextEncoderConfig(context_length=12, vocab_size=300, embed_dim=16,
                                 num_layers=1, num_heads=2, output_dim=8)
    img_cfg = ImageEncoderConfig(input_dim=16, hidden_dim=12, num_layers=1,
                                 output_dim=8)
    vocab = train_bpe(["alpha beta gamma delta words for the tiny vocabulary"],
                      vocab_size=300)
    options = ("axolotl", "begonia", "catamaran", "dulcimer")
    n_classes = len(options)
    items_per_seed = 200
    zs_hits = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        model = TrainedModel(text_cfg, img_cfg, init_params(text_cfg, img_cfg, seed),
                             vocab, log_scale=0.0)
        # labels are round-robin, independent of the random image features
        images = rng.normal(size=(items_per_seed, img_cfg.input_dim))
        correct = tuple(i % n_classes for i in range(items_per_seed))
        task = ZeroShotTask(image_embeddings=model.encode_images(images),
                            option_texts=tuple(options for _ in range(items_per_seed)),
                            correct_index=correct)
        task = permute_options(task, seed=seed)
        outcome = zero_shot_classify(task, model)
        zs_hits += round(outcome.accuracy * items_per_seed)
    total = 5 * items_per_seed
    p = 1.0 / n_classes
    sigma = math.sqrt(total * p * (1 - p))
    assert abs(zs_hits - total * p) <= 3 * sigma

    n = 1000
    retrieval_hits = 0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        t2i, _ = recall_pair(unit_rows(rng, n, 8), unit_rows(rng, n, 8), ks=(1,))
        retrieval_hits += round(t2i.recalls[1] * n)
    p = 1.0 / n
    sigma = math.sqrt(5 * n * p * (1 - p))
    assert abs(retrieval_hits - 5 * n * p) <= 3 * sigma


def test_criterion_7_pipeline_determinism_and_filtering(tmp_path):
    """criterion 7: longcap pipeline determinism, filtering, resume, length gain"""
    records = fixture_caption_records()
    out_a = run_pipeline(records, MockBackend(), max_workers=4)
    by_id = {r.id: r for r in out_a.results}
    out_b = run_pipeline(records, MockBackend(), max_workers=4)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_output_corpus(out_a, pa)
    write_output_corpus(out_b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert all(r.status == "done" for r in out_a.results)

    # no refined caption contains a NOT_FEASIBLE feature verbatim
    from longctx.longcap import assess_feasibility, augment_caption
    for rec in records:
        probe = MockBackend()
        report = assess_feasibility(rec.image_ref, augment_caption(rec, probe), probe)
        final = by_id[rec.id].caption
        for blocked in report.not_feasible():
            assert blocked not in final

    # resume re-sends nothing for completed records
    journal = tmp_path / "journal.jsonl"
    first = MockBackend()
    run_pipeline(records[:6], first, journal_path=journal, max_workers=2)
    requests_for_six = len(first.requests)
    second = MockBackend()
    full = run_pipeline(records, second, journal_path=journal, max_workers=2)
    assert len(full.results) == len(records)
    assert len(second.requests) == requests_for_six / 6 * 4
    resumed_text = "\n".join(second.requests)
    for rec in records[:6]:
        assert rec.caption not in resumed_text

    # mean output length exceeds mean input length (in trained BPE tokens)
    vocab = train_bpe([r.caption for r in records], vocab_size=300)
    mean_in = np.mean([len(content_ids(vocab, r.caption)) for r in records])
    mean_out = np.mean([len(content_ids(vocab, by_id[r.id].caption))
                        for r in records])
    assert mean_out > mean_in


def test_criterion_8_schedule_and_clipping():
    """criterion 8: schedule endpoints exact; clipping rescales to 1.0 within 1e-12"""
    cfg = TrainConfig(warmup_steps=1000, learning_rate=5e-4)
    total = 21_000
    assert lr_schedule(0, cfg, total) == 0.0
    assert lr_schedule(1000, cfg, total) == cfg.learning_rate
    midpoint = 1000 + (total - 1000) // 2
    assert lr_schedule(midpoint, cfg, total) == pytest.approx(cfg.learning_rate / 2,
                                                              abs=1e-20)

    grads = {"a": np.array([1.2, 0.0, 0.9]), "b": np.array([[0.8], [0.5]])}
    norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    scaled = {k: g * (2.0 / norm) for k, g in grads.items()}  # exact norm 2.0
    clipped, seen = clip_gradients(scaled, max_norm=1.0)
    clipped_norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in clipped.values()))
    assert abs(clipped_norm - 1.0) <= 1e-12
    assert abs(seen - 2.0) <= 1e-12


def test_criterion_9_cli_determinism(tmp_path):
    """criterion 9: train and ablate produce bit-identical curves and tables"""
    spec = SyntheticSpec(num_classes=3, samples_per_class=12, image_dim=8,
                         distractor_prefix_tokens=4, class_token_position=6, seed=4)
    corpus, _ = generate_synthetic(spec)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, corpus_path)

    train_args = ["train", "--corpus", str(corpus_path), "--context-length", "16",
                  "--batch-size", "8", "--max-epochs", "2", "--vocab-size", "300",
                  "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
                  "--output-dim", "8", "--hidden-dim", "16",
                  "--learning-rate", "0.002", "--seed", "6"]
    curves = []
    for out in ("t1", "t2"):
        assert cli_run(train_args + ["--out", str(tmp_path / out)]) == 0
        rows = (tmp_path / out / "losscurve.csv").read_text().splitlines()
        curves.append([",".join(r.split(",")[:3]) for r in rows])  # drop wall time
    assert curves[0] == curves[1]

    ablate_args = ["ablate", "--corpus", str(corpus_path), "--contexts", "8,16",
                   "--batch-size", "8", "--max-epochs", "2", "--vocab-size", "300",
                   "--embed-dim", "16", "--num-layers", "1", "--num-heads", "2",
                   "--output-dim", "8", "--hidden-dim", "16", "--seed", "6"]
    for out in ("a1", "a2"):
        assert cli_run(ablate_args + ["--out", str(tmp_path / out)]) == 0
    for name in ("ablation.csv", "convergence.csv"):
        assert (tmp_path / "a1" / name).read_bytes() == \
               (tmp_path / "a2" / name).read_bytes()
