import functools
import hashlib
import math

import numpy as np
import pytest

from helpers import (
    REFERENCE_RULES,
    bits,
    contrastive_loss,
    eos_row_text_tower,
    finite_difference_grad,
    profile,
    reference_adamw_update,
    train_with_bpe,
)
from longctx import cli, numerics, trainer
from longctx.data import SyntheticSpec, generate_synthetic, parse_config_file
from longctx.encoders import ImageEncoderConfig, TextEncoderConfig
from longctx.errors import DataError, NumericError, UsageError
from longctx.numerics import backward, forward
from longctx.tokenizer import train_bpe
from longctx.trainer import (
    TrainConfig,
    TrainState,
    clip_gradients,
    decayable,
    effective_warmup,
    lr_schedule,
    steps_to_loss,
    train,
    write_loss_curve,
    _adamw_update,
    _build_train_graph,
)

SMALL_TEXT = TextEncoderConfig(context_length=12, vocab_size=280, embed_dim=16,
                               num_layers=1, num_heads=2, output_dim=8)
SMALL_IMG = ImageEncoderConfig(input_dim=6, hidden_dim=8, num_layers=1, output_dim=8)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# -- contrastive loss ------------------------------------------------------------


def test_perfect_alignment_high_scale():
    z = np.eye(2)
    loss, _ = contrastive_loss(z, z, log_scale=math.log(100.0))
    assert loss < 1e-6


def test_uniform_similarities_give_log_n():
    # orthonormal pairs at scale exp(-inf)->0: all scaled sims equal 0
    z_img = np.eye(4)
    z_txt = np.roll(np.eye(4), 1, axis=0)
    loss, sim = contrastive_loss(z_img, z_txt, log_scale=-200.0)
    assert np.allclose(sim, 0.0)
    assert loss == math.log(4)


def test_identity_similarity_exact_value():
    z = np.eye(2)
    loss, sim = contrastive_loss(z, z, log_scale=0.0)
    np.testing.assert_array_equal(sim, np.eye(2))
    assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)
    assert loss == pytest.approx(0.31326, abs=1e-5)


def test_loss_requires_two_pairs_and_unit_norm():
    z = np.ones((1, 4)) / 2.0
    with pytest.raises(UsageError, match="2 pairs"):
        contrastive_loss(z, z, 0.0)
    bad = np.ones((2, 4))
    with pytest.raises(UsageError, match="unit-norm"):
        contrastive_loss(bad, bad, 0.0)


def test_loss_permutation_equivariant():
    rng = np.random.default_rng(0)
    zi, zt = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
    base, _ = contrastive_loss(zi, zt, 1.0)
    perm = rng.permutation(6)
    permuted, _ = contrastive_loss(zi[perm], zt[perm], 1.0)
    assert abs(base - permuted) < 1e-10


def test_loss_rotation_invariant():
    rng = np.random.default_rng(1)
    zi, zt = unit_rows(rng, 5, 8), unit_rows(rng, 5, 8)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    base, _ = contrastive_loss(zi, zt, 0.7)
    rotated, _ = contrastive_loss(zi @ q, zt @ q, 0.7)
    assert abs(base - rotated) < 1e-8


def test_loss_approaches_zero_in_ideal_geometry():
    # matched sims -> 1, mismatched -> -1 at fixed scale: loss -> 0
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    loss, _ = contrastive_loss(z, z, log_scale=math.log(20.0))
    assert loss < 1e-8


# -- schedule and clipping ---------------------------------------------------------


def test_schedule_endpoints_paper_scale():
    cfg = TrainConfig(warmup_steps=1000, learning_rate=5e-4)
    total = 10_000
    assert lr_schedule(0, cfg, total) == 0.0
    assert lr_schedule(1000, cfg, total) == cfg.learning_rate
    mid = 1000 + (total - 1000) // 2
    assert lr_schedule(mid, cfg, total) == pytest.approx(cfg.learning_rate / 2, abs=1e-20)
    assert lr_schedule(total, cfg, total) == pytest.approx(0.0, abs=1e-19)


def test_schedule_desk_scale_warmup_shrinks():
    cfg = TrainConfig(warmup_steps=1000)
    assert effective_warmup(cfg, 400) == 20
    assert effective_warmup(cfg, 1000) == 1000
    assert lr_schedule(20, cfg, 400) == cfg.learning_rate


def test_clip_under_threshold_unchanged():
    grads = {"a": np.array([0.3, 0.4])}
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == 0.5
    np.testing.assert_array_equal(clipped["a"], grads["a"])


def test_clip_rescales_to_max_norm():
    grads = {"a": np.array([2.0, 0.0]), "b": np.zeros(3)}
    clipped, norm = clip_gradients(grads, 1.0)
    assert norm == 2.0
    np.testing.assert_allclose(clipped["a"], [1.0, 0.0], atol=1e-15)
    total = math.sqrt(sum(float(np.sum(g ** 2)) for g in clipped.values()))
    assert abs(total - 1.0) <= 1e-12


def test_clip_rejects_nonfinite():
    with pytest.raises(NumericError):
        clip_gradients({"a": np.array([np.inf])}, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_rejects_a_nonfinite_value_in_any_gradient(dtype, bad):
    grads = {"a": np.array([3.0, 4.0], dtype), "b": np.array([1.0, bad, 2.0], dtype)}
    kept = {k: g.copy() for k, g in grads.items()}
    with pytest.raises(NumericError, match="non-finite gradient"):
        clip_gradients(grads, 1.0)
    for k, g in grads.items():
        np.testing.assert_array_equal(g, kept[k])


def test_clip_turns_a_float64_norm_overflow_into_zeros():
    grads = {"a": np.array([1e200, -1e200]), "b": np.array([1.0, 2.0])}
    with np.errstate(over="ignore"):
        clipped, norm = clip_gradients(grads, 1.0)
    assert norm == math.inf
    assert all(np.all(g == 0) for g in clipped.values())


def test_paper_default_clip_norm():
    assert TrainConfig().grad_clip_norm == 1.0


def test_decay_mask():
    assert decayable("txt.l0.wq")
    assert decayable("txt.tok_emb")
    assert not decayable("txt.pos_emb")
    assert not decayable("txt.l0.ln1.g")
    assert not decayable("txt.l0.bq")
    assert not decayable("log_scale")


# -- full-loss gradient check -------------------------------------------------------


def test_full_loss_gradients_match_finite_differences():
    from longctx.encoders import init_params, text_inputs

    rng = np.random.default_rng(7)
    batch, seq_len = 4, 6
    g = _build_train_graph(SMALL_TEXT, SMALL_IMG, batch, seq_len, "float64")
    params = init_params(SMALL_TEXT, SMALL_IMG, seed=3)
    visible = np.array([4, 6, 3, 5])
    bindings = dict(params, log_scale=np.asarray(1.3),
                    **text_inputs(rng.integers(0, 256, size=(batch, seq_len)), visible),
                    img=rng.normal(size=(batch, SMALL_IMG.input_dim)))
    tape = forward(g, bindings)
    grads = backward(tape, output="loss")
    for name in ("txt.l0.wq", "txt.proj", "img.proj", "txt.lnf.g", "log_scale",
                 "txt.pos_emb"):
        fd = finite_difference_grad(g, bindings, name, output="loss")
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert np.max(np.abs(fd - grads[name]) / denom) <= 1e-4, name


# -- training loop ------------------------------------------------------------------


def tiny_corpus():
    spec = SyntheticSpec(num_classes=3, samples_per_class=8, image_dim=6,
                         distractor_prefix_tokens=3, class_token_position=4, seed=5)
    corpus, _ = generate_synthetic(spec)
    return corpus


def tiny_config(**kw):
    base = dict(context_length=12, batch_size=6, max_epochs=2, seed=1,
                learning_rate=3e-3, dtype="float64")
    base.update(kw)
    return TrainConfig(**base)


def test_train_deterministic_curves():
    corpus = tiny_corpus()
    r1 = train_with_bpe(tiny_config(), corpus)
    r2 = train_with_bpe(tiny_config(), corpus)
    assert [(p.step, p.loss, p.lr) for p in r1.curve] == \
           [(p.step, p.loss, p.lr) for p in r2.curve]


def test_train_loss_decreases():
    corpus = tiny_corpus()
    result = train_with_bpe(tiny_config(max_epochs=6), corpus)
    steps_per_epoch = len(corpus) // 6
    first = np.mean([p.loss for p in result.curve[:steps_per_epoch]])
    last = np.mean([p.loss for p in result.curve[-steps_per_epoch:]])
    assert last < first


def test_train_rejects_small_corpus():
    corpus = tiny_corpus()
    with pytest.raises(UsageError, match="batch_size"):
        train_with_bpe(tiny_config(batch_size=1000), corpus)


def test_train_drops_partial_batches_and_counts_steps():
    corpus = tiny_corpus()  # 24 records
    cfg = tiny_config(batch_size=7, max_epochs=2)
    result = train_with_bpe(cfg, corpus)
    assert len(result.curve) == 2 * (24 // 7)
    assert [p.step for p in result.curve] == list(range(len(result.curve)))


def test_log_scale_clamped(monkeypatch):
    corpus = tiny_corpus()
    monkeypatch.setattr(trainer, "LOG_SCALE_INIT", math.log(99.0))
    cfg = tiny_config(learning_rate=0.5, max_epochs=3)
    result = train_with_bpe(cfg, corpus)
    assert math.exp(result.state.log_scale) <= 100.0 + 1e-9


def test_trained_model_embeds(tmp_path):
    corpus = tiny_corpus()
    result = train_with_bpe(tiny_config(), corpus)
    z = result.model.encode_texts([corpus.records[0].caption])
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)
    write_loss_curve(result.curve, tmp_path / "curve.csv")
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "step,loss,lr,seconds"
    assert len(lines) == len(result.curve) + 1


def test_steps_to_loss():
    from longctx.trainer import LossPoint
    curve = [LossPoint(0, 3.0, 0.1, 0.0), LossPoint(1, 2.0, 0.1, 0.1),
             LossPoint(2, 1.0, 0.1, 0.2)]
    assert steps_to_loss(curve, 2.0) == 1
    assert steps_to_loss(curve, 0.5) is None


def test_parse_config_file(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("# comment\nlearning_rate = 0.001\nbatch_size=32\n\n")
    assert parse_config_file(p) == {"learning_rate": "0.001", "batch_size": "32"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(UsageError, match="line 1"):
        parse_config_file(bad)
    bad.write_bytes(b"seed = \xff\n")
    with pytest.raises(DataError, match="bad.cfg"):
        parse_config_file(bad)


def test_invalid_train_configs():
    with pytest.raises(UsageError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(UsageError):
        TrainConfig(grad_clip_norm=-1.0)


# -- the fast training step against its oracles, byte for byte ----------------------


def _digest_run(mp, context, dtype) -> str:
    """sha256 over every node gradient and clipped-gradient input of every
    step, and over the final parameters and moments, of a six-step run on
    the ``ablate`` profile."""
    spec = SyntheticSpec(num_classes=4, samples_per_class=24, image_dim=16, seed=3)
    corpus, _ = generate_synthetic(spec)
    cfg = profile("ablate", max_epochs=2, dtype=dtype)
    vocab = train_bpe(corpus.captions(), 400)
    text_cfg, img_cfg = cli._encoder_configs(cfg, context, vocab.size, corpus.image_dim)
    h = hashlib.sha256()
    clip = trainer.clip_gradients

    def hashed(rule):
        def hashed_rule(node, *xs):
            y, vjp = rule(node, *xs)

            def hashed_vjp(gy):
                parts = vjp(gy)
                for part in parts:
                    if part is not None:
                        h.update(bits(part).tobytes())
                return parts

            return y, hashed_vjp

        return hashed_rule

    def hashed_clip(grads, max_norm):
        for g in grads.values():
            h.update(bits(g).tobytes())
        return clip(grads, max_norm)

    mp.setattr(numerics, "RULES", {op: hashed(rule) for op, rule in numerics.RULES.items()})
    mp.setattr(trainer, "clip_gradients", hashed_clip)
    result = train(cli._train_config(cfg, context, 0), corpus, text_cfg, img_cfg, vocab)
    assert len(result.curve) == 6
    state = result.state
    for arrays in (state.params, state.views(state.m), state.views(state.v)):
        for a in arrays.values():
            h.update(bits(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("context", [77, 512])
def test_training_step_matches_oracle_bytes(monkeypatch, context, dtype):
    with monkeypatch.context() as mp:
        fast = _digest_run(mp, context, dtype)
    with monkeypatch.context() as mp:
        mp.setattr(numerics, "RULES", REFERENCE_RULES)
        mp.setattr(trainer, "_adamw_update", reference_adamw_update)
        oracle = _digest_run(mp, context, dtype)
    assert fast == oracle


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.2])
def test_adamw_update_matches_oracle_bytes(dtype, weight_decay):
    # decayable and other parameters interleaved, a 0-d log_scale among them,
    # and gradients with exact (signed) zeros
    rng = np.random.default_rng(7)
    shapes = {"txt.tok_emb": (5, 3), "txt.l0.ln1.g": (3,), "txt.l0.wq": (3, 3),
              "log_scale": (), "txt.pos_emb": (4, 3), "img.l0.w": (2, 3),
              "img.l0.b": (3,)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    fast = TrainState(params, 0.0)
    oracle = TrainState(params, 0.0)
    cfg = TrainConfig(weight_decay=weight_decay)
    for step in range(5):
        grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        for k, g in grads.items():
            g[rng.random(size=g.shape) < 0.2] = 0.0
            g[rng.random(size=g.shape) < 0.1] = -0.0
            fast.grads[k][...] = oracle.grads[k][...] = g
        fast.step = oracle.step = step
        _adamw_update(fast, 1e-2, cfg)
        reference_adamw_update(oracle, 1e-2, cfg)
        for name in ("p", "m", "v"):
            got, want = (state.views(getattr(state, name)) for state in (fast, oracle))
            assert list(got) == list(shapes)
            for k in shapes:
                np.testing.assert_array_equal(bits(got[k]), bits(want[k]), err_msg=k)
        assert all(np.shares_memory(fast.params[k], fast.p) for k in shapes)


def test_float32_ablate_training_tracks_the_eos_row_oracle(monkeypatch):
    # the folded last block equals the oracle's in exact arithmetic; in
    # float32 the two differ at rounding level, and over 90 steps of the
    # ablate profile at context 512 the loss curves stay within 1e-4
    spec = SyntheticSpec(num_classes=4, samples_per_class=24, image_dim=16, seed=3)
    corpus, _ = generate_synthetic(spec)
    cfg = profile("ablate", max_epochs=30)
    assert cfg["dtype"] == "float32"
    vocab = train_bpe(corpus.captions(), 400)
    text_cfg, img_cfg = cli._encoder_configs(cfg, 512, vocab.size, corpus.image_dim)

    def losses():
        result = train(cli._train_config(cfg, 512, 0), corpus, text_cfg, img_cfg, vocab)
        return np.array([p.loss for p in result.curve])

    fast = losses()
    monkeypatch.setattr(trainer, "build_text_tower", eos_row_text_tower)
    # graphs built with the oracle tower go to a cache of their own
    monkeypatch.setattr(trainer, "_build_train_graph",
                        functools.cache(trainer._build_train_graph.__wrapped__))
    oracle = losses()
    assert len(fast) == 90 and oracle[-1] < 0.5 * oracle[0]
    assert np.max(np.abs(fast - oracle)) <= 1e-4
