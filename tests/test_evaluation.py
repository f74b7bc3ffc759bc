import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_memory, write_zero_shot_records
from longctx.errors import UsageError
from longctx.evaluation import (
    DEFAULT_KS,
    RETRIEVAL_BLOCK,
    RetrievalResult,
    ZeroShotTask,
    format_retrieval_summary,
    permute_options,
    read_zero_shot_records,
    recall_pair,
    retrieval_csv_rows,
    retrieve,
    zero_shot_classify,
)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def oracle_ranks(queries, gallery, ground_truth):
    """Brute force: full float64 similarity matrix + stable descending sort."""
    sims = np.asarray(queries, np.float64) @ np.asarray(gallery, np.float64).T
    ranks = []
    for i, gt in enumerate(ground_truth):
        order = np.argsort(-sims[i], kind="stable")
        ranks.append(int(np.nonzero(order == gt)[0][0]) + 1)
    return np.array(ranks)


def paired_with_duplicates(seed, n=300, d=8):
    """Float32 unit rows as the encoders return them, each text near its
    image.  Runs of repeated pairs make hits tie with items on either side;
    one run crosses the default block's boundary, and one list alone
    repeats a run too."""
    rng = np.random.default_rng(seed)
    z_img = unit_rows(rng, n, d)
    z_txt = z_img + 0.1 * rng.normal(size=(n, d))
    z_txt /= np.linalg.norm(z_txt, axis=1, keepdims=True)
    z_img, z_txt = z_img.astype(np.float32), z_txt.astype(np.float32)
    for z in (z_img, z_txt):
        z[10:15] = z[3]
        z[RETRIEVAL_BLOCK - 3:RETRIEVAL_BLOCK + 3] = z[RETRIEVAL_BLOCK + 20]
    z_txt[40:44] = z_txt[41]
    return z_img, z_txt


PAIRED_BLOCKS = (1, 7, RETRIEVAL_BLOCK, 300)


def oracle_recalls(ranks, ks, n_gallery):
    return {int(k): float(np.count_nonzero(ranks <= min(int(k), n_gallery)) / len(ranks))
            for k in ks}


# -- retrieve -------------------------------------------------------------------


def test_self_retrieval_perfect():
    rng = np.random.default_rng(0)
    z = unit_rows(rng, 8, 4)
    res = retrieve(z, z, np.arange(8), ks=(1,))
    assert res.recalls[1] == 1.0
    assert np.all(res.ranks == 1)


def test_full_gallery_recall_is_one():
    rng = np.random.default_rng(1)
    q, g = unit_rows(rng, 5, 4), unit_rows(rng, 7, 4)
    res = retrieve(q, g, rng.integers(0, 7, size=5), ks=(7, 100))
    assert res.recalls[7] == 1.0
    assert res.recalls[100] == 1.0
    assert res.capped_ks == {100: 7}


def test_handcrafted_2d_ranks():
    # gallery at known angles; cosine order is exhaustively checkable
    angles = np.deg2rad([0, 30, 60, 90])
    gallery = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    query = gallery[1:2]  # 30 degrees: nearest 30, then 0/60 tie, then 90
    res = retrieve(query, gallery, [1], ks=(1,))
    assert res.ranks[0] == 1
    res0 = retrieve(query, gallery, [0], ks=(1, 2))
    # cos(30-0)=cos(30-60): exact tie would need exact equality; floats differ
    expected = oracle_ranks(query, gallery, [0])
    assert res0.ranks[0] == expected[0]


def test_tie_break_by_ascending_gallery_index():
    v = np.array([[1.0, 0.0]])
    gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # duplicated best vectors: ground truth at index 1 ranks second
    res = retrieve(v, gallery, [1], ks=(1, 2))
    assert res.ranks[0] == 2
    res = retrieve(v, gallery, [0], ks=(1,))
    assert res.ranks[0] == 1


def test_matches_oracle_with_duplicates():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n_g = int(rng.integers(3, 40))
        n_q = int(rng.integers(1, 30))
        gallery = unit_rows(rng, n_g, 3)
        # duplicate a run of gallery vectors to exercise ties
        dup = int(rng.integers(0, n_g))
        gallery[dup:dup + 3] = gallery[dup % n_g]
        queries = gallery[rng.integers(0, n_g, size=n_q)]
        gt = rng.integers(0, n_g, size=n_q)
        ks = (1, 2, 5, n_g)
        res = retrieve(queries, gallery, gt, ks=ks)
        np.testing.assert_array_equal(res.ranks, oracle_ranks(queries, gallery, gt))
        assert res.recalls == oracle_recalls(res.ranks, ks, n_g)
    z_img, z_txt = paired_with_duplicates(5)
    identity = np.arange(len(z_img))
    want = {"t2i": oracle_ranks(z_txt, z_img, identity),
            "i2t": oracle_ranks(z_img, z_txt, identity)}
    # each copy's hit ranks behind the equal items at lower indices
    for ranks in want.values():
        assert ranks[14] == 6 and ranks[RETRIEVAL_BLOCK + 20] == 7
    for block in PAIRED_BLOCKS:
        for res in recall_pair(z_img, z_txt, ks=(1, 5), block_size=block):
            np.testing.assert_array_equal(res.ranks, want[res.direction])
            assert res.recalls == oracle_recalls(res.ranks, (1, 5), len(z_img))


def test_blocked_equals_unblocked():
    rng = np.random.default_rng(9)
    q, g = unit_rows(rng, 37, 6), unit_rows(rng, 21, 6)
    gt = rng.integers(0, 21, size=37)
    a = retrieve(q, g, gt, ks=(1, 5), block_size=4)
    b = retrieve(q, g, gt, ks=(1, 5), block_size=10_000)
    np.testing.assert_array_equal(a.ranks, b.ranks)
    assert a.recalls == b.recalls
    z_img, z_txt = paired_with_duplicates(9)
    whole = recall_pair(z_img, z_txt, ks=(1, 5), block_size=10_000)
    for block in PAIRED_BLOCKS:
        for a, b in zip(recall_pair(z_img, z_txt, ks=(1, 5), block_size=block), whole):
            np.testing.assert_array_equal(a.ranks, b.ranks)
            assert a.recalls == b.recalls


def test_recall_pair_memory_stays_within_one_block():
    # scoring holds block x gallery float64 scores and as many bools (9.2 MB
    # here), besides float64 copies of both lists (2 MB in all)
    rng = np.random.default_rng(21)
    z_img, z_txt = (unit_rows(rng, 4000, 32).astype(np.float32) for _ in range(2))
    _, _, peak = traced_memory(lambda: recall_pair(z_img, z_txt))
    assert peak < 20e6, f"recall_pair peaked at {peak / 1e6:.1f} MB"


def test_recall_monotone_in_k():
    rng = np.random.default_rng(11)
    q, g = unit_rows(rng, 30, 4), unit_rows(rng, 50, 4)
    res = retrieve(q, g, rng.integers(0, 50, size=30), ks=(1, 3, 5, 10, 50))
    values = [res.recalls[k] for k in (1, 3, 5, 10, 50)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_ranks_invariant_under_orthogonal_transform():
    rng = np.random.default_rng(13)
    q, g = unit_rows(rng, 10, 6), unit_rows(rng, 15, 6)
    gt = rng.integers(0, 15, size=10)
    rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = retrieve(q, g, gt)
    b = retrieve(q @ rot, g @ rot, gt)
    np.testing.assert_array_equal(a.ranks, b.ranks)


def test_retrieve_input_validation():
    rng = np.random.default_rng(2)
    z = unit_rows(rng, 3, 4)
    with pytest.raises(UsageError, match="ground-truth"):
        retrieve(z, z, [0, 1], ks=(1,))
    with pytest.raises(UsageError, match="range"):
        retrieve(z, z, [0, 1, 9], ks=(1,))
    with pytest.raises(UsageError, match="unit-norm"):
        retrieve(2 * z, z, [0, 1, 2], ks=(1,))
    for bad in (np.nan, np.inf):
        broken = z.copy()
        broken[1, 0] = bad
        with pytest.raises(UsageError, match="finite"):
            retrieve(broken, z, [0, 1, 2], ks=(1,))
        with pytest.raises(UsageError, match="finite"):
            retrieve(z, broken, [0, 1, 2], ks=(1,))


def test_recall_pair_directions():
    rng = np.random.default_rng(3)
    z = unit_rows(rng, 6, 4)
    t2i, i2t = recall_pair(z, z, ks=DEFAULT_KS)
    assert t2i.direction == "t2i" and i2t.direction == "i2t"
    assert t2i.recalls[1] == 1.0 and i2t.recalls[1] == 1.0
    assert t2i.recalls == i2t.recalls  # identical lists coincide
    with pytest.raises(UsageError, match="equally many"):
        recall_pair(z, z[:4])
    assert set(DEFAULT_KS) == {1, 5, 10}


def test_random_embeddings_chance_level():
    rng = np.random.default_rng(17)
    n = 1000
    hits = 0
    seeds = 5
    for s in range(seeds):
        r = np.random.default_rng(s)
        t2i, _ = recall_pair(unit_rows(r, n, 8), unit_rows(r, n, 8), ks=(1,))
        hits += round(t2i.recalls[1] * n)
    p = 1.0 / n
    sigma = np.sqrt(seeds * n * p * (1 - p))
    assert abs(hits - seeds * n * p) <= 3 * sigma


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 40), st.integers(1, 25))
def test_retrieve_equals_oracle_property(seed, n_gallery, n_queries):
    rng = np.random.default_rng(seed)
    gallery = unit_rows(rng, n_gallery, 3)
    if n_gallery > 2:
        gallery[1] = gallery[0]  # force ties
    queries = unit_rows(rng, n_queries, 3)
    gt = rng.integers(0, n_gallery, size=n_queries)
    res = retrieve(queries, gallery, gt, ks=(1, 5, 10))
    np.testing.assert_array_equal(res.ranks, oracle_ranks(queries, gallery, gt))
    assert res.recalls == oracle_recalls(res.ranks, (1, 5, 10), n_gallery)


# -- zero-shot ---------------------------------------------------------------------


class StubTextModel:
    """Embeds strings deterministically via a hash -> direction map."""

    def __init__(self, dim=8):
        self.dim = dim

    def encode_texts(self, texts):
        out = []
        for t in texts:
            rng = np.random.default_rng(abs(hash(t)) % 2**32)
            v = rng.normal(size=self.dim)
            out.append(v / np.linalg.norm(v))
        return np.stack(out)


def make_task(model, n_items=6, options=("alpha", "beta", "gamma")):
    embs = model.encode_texts([options[i % len(options)] for i in range(n_items)])
    return ZeroShotTask(image_embeddings=embs,
                        option_texts=tuple(tuple(options) for _ in range(n_items)),
                        correct_index=tuple(i % len(options) for i in range(n_items)))


def test_exact_match_classification():
    model = StubTextModel()
    task = make_task(model)
    outcome = zero_shot_classify(task, model)
    assert outcome.accuracy == 1.0


def test_classify_rejects_empty_option():
    model = StubTextModel()
    embs = model.encode_texts(["a", "b"])
    task = ZeroShotTask(image_embeddings=embs,
                        option_texts=(("a", ""), ("a", "b")),
                        correct_index=(0, 1))
    with pytest.raises(UsageError, match="empty"):
        zero_shot_classify(task, model)


def test_task_validation():
    embs = StubTextModel().encode_texts(["a", "b"])
    with pytest.raises(UsageError, match="at least 2"):
        ZeroShotTask(embs, (("only",), ("a", "b")), (0, 0))
    with pytest.raises(UsageError, match="range"):
        ZeroShotTask(embs, (("a", "b"), ("a", "b")), (0, 5))


def test_permute_deterministic_and_consistent():
    model = StubTextModel()
    task = make_task(model, options=("alpha", "beta", "gamma", "delta"))
    p1 = permute_options(task, seed=3)
    p2 = permute_options(task, seed=3)
    assert p1.option_texts == p2.option_texts
    assert p1.correct_index == p2.correct_index
    for orig_opts, orig_ci, new_opts, new_ci in zip(
            task.option_texts, task.correct_index, p1.option_texts, p1.correct_index):
        assert sorted(orig_opts) == sorted(new_opts)
        assert new_opts[new_ci] == orig_opts[orig_ci]


def test_accuracy_invariant_under_permutation():
    model = StubTextModel()
    task = make_task(model, n_items=9, options=("alpha", "beta", "gamma", "delta"))
    base = zero_shot_classify(task, model)
    for seed in (1, 2, 3):
        permuted = zero_shot_classify(permute_options(task, seed), model)
        assert permuted.accuracy == base.accuracy


def test_task_records_round_trip(tmp_path):
    records = [("img-1", ("a", "b"), 0), ("img-2", ("x", "y", "z"), 2)]
    path = tmp_path / "task.jsonl"
    write_zero_shot_records(records, path)
    assert read_zero_shot_records(path) == records


def test_result_rendering():
    res = RetrievalResult("t2i", {1: 0.5, 5: 0.75}, np.array([1, 3]), {})
    rows = retrieval_csv_rows("bench", [res])
    assert rows[0] == ["bench", "t2i", "1", "0.500000"]
    text = format_retrieval_summary("bench", [res])
    assert "R@5=0.7500" in text
