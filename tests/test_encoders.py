import io
import json

import numpy as np
import pytest

from helpers import bits, eos_row_text_tower, finite_difference_grad
from longctx import encoders
from longctx.encoders import (
    ENCODE_TEXT_BATCH,
    ImageEncoderConfig,
    TextEncoderConfig,
    TrainedModel,
    attention_mask,
    batch_arrays,
    checkpoint_vocab_fingerprint,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    text_inputs,
)
from longctx.errors import DataError, UsageError
from longctx.numerics import Graph, backward, forward
from longctx.encoders import build_image_tower, build_text_tower
from longctx.tokenizer import encode, train_bpe, vocab_fingerprint

TEXT_CFG = TextEncoderConfig(context_length=16, vocab_size=300, embed_dim=16,
                             num_layers=2, num_heads=2, output_dim=8)
IMG_CFG = ImageEncoderConfig(input_dim=6, hidden_dim=10, num_layers=2, output_dim=8)


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(["the cat sat on the mat", "a dog ran far away"], vocab_size=300)


@pytest.fixture(scope="module")
def params():
    return init_params(TEXT_CFG, IMG_CFG, seed=11)


@pytest.fixture(scope="module")
def model(vocab, params):
    return TrainedModel(TEXT_CFG, IMG_CFG, params, vocab, log_scale=0.0)


def test_init_deterministic():
    a = init_params(TEXT_CFG, IMG_CFG, seed=3)
    b = init_params(TEXT_CFG, IMG_CFG, seed=3)
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_different_seeds_differ():
    a = init_params(TEXT_CFG, IMG_CFG, seed=3)
    b = init_params(TEXT_CFG, IMG_CFG, seed=4)
    assert any(not np.array_equal(a[k], b[k]) for k in a if k.endswith("emb"))


def test_positional_table_rows_follow_context_length():
    cfg512 = TextEncoderConfig(context_length=512, vocab_size=300, embed_dim=16,
                               num_layers=1, num_heads=2, output_dim=8)
    params = init_params(cfg512, IMG_CFG, seed=0)
    assert params["txt.pos_emb"].shape == (512, 16)


def test_context_length_changes_only_positional_table():
    cfg_a = TEXT_CFG
    cfg_b = TextEncoderConfig(context_length=64, vocab_size=300, embed_dim=16,
                              num_layers=2, num_heads=2, output_dim=8)
    sa, sb = param_shapes(cfg_a, IMG_CFG), param_shapes(cfg_b, IMG_CFG)
    assert sa.keys() == sb.keys()
    for k in sa:
        if k == "txt.pos_emb":
            assert sa[k] != sb[k]
        else:
            assert sa[k] == sb[k]
    # same seed: every shared-shape parameter is bit-identical
    pa, pb = init_params(cfg_a, IMG_CFG, seed=9), init_params(cfg_b, IMG_CFG, seed=9)
    for k in pa:
        if k != "txt.pos_emb":
            np.testing.assert_array_equal(pa[k], pb[k])


def test_weight_scale_statistics():
    big_txt = TextEncoderConfig(context_length=8, vocab_size=2000, embed_dim=64,
                                num_layers=1, num_heads=2, output_dim=8)
    params = init_params(big_txt, IMG_CFG, seed=5)
    w = params["txt.tok_emb"]
    assert abs(w.std() / 0.02 - 1.0) < 0.2


def test_text_encode_unit_norm_and_purity(model):
    z = model.encode_texts(["the cat sat", "a dog ran", "the cat sat"])
    norms = np.linalg.norm(z, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    np.testing.assert_array_equal(z[0], z[2])


def test_extra_padding_does_not_change_embedding(vocab, model):
    short = encode(vocab, "the cat", TEXT_CFG.context_length)
    longer = encode(vocab, "the cat sat on the mat", TEXT_CFG.context_length)
    # batch_arrays writes the PAD: the short row is filled to the longer width
    ids, visible = batch_arrays([short, longer], pad_id=vocab.pad_id)
    assert visible.tolist() == [len(short), len(longer)] and len(short) < len(longer)
    assert ids[0].tolist() == [*short, *[vocab.pad_id] * (len(longer) - len(short))]
    assert ids[1].tolist() == list(longer)
    wide, _ = batch_arrays([short], pad_id=vocab.pad_id, trim_to=TEXT_CFG.context_length)
    assert wide[0].tolist() == [*short, *[vocab.pad_id] * (TEXT_CFG.context_length - len(short))]
    with pytest.raises(UsageError, match="trim"):
        batch_arrays([longer], pad_id=vocab.pad_id, trim_to=len(longer) - 1)
    alone = model.encode_texts(["the cat"])
    padded = model.encode_texts(["the cat", "the cat sat on the mat"])
    np.testing.assert_allclose(alone[0], padded[0], atol=1e-6)


def test_words_past_the_window_do_not_change_the_embedding(vocab, model):
    # the text tower sees BOS, the first context_length - 2 content ids and EOS
    long = "the cat sat on the mat " * 10
    assert len(encode(vocab, long, 1000)) > TEXT_CFG.context_length
    z, z_more, z_moved = (model.encode_texts([text]) for text in
                          (long, long + "a dog ran far away", "a dog " + long))
    np.testing.assert_array_equal(bits(z), bits(z_more))
    assert not np.allclose(z, z_moved)


def test_image_encode_unit_norm_and_purity(model):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, IMG_CFG.input_dim))
    x[3] = x[0]
    z = model.encode_images(x)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)
    np.testing.assert_array_equal(z[0], z[3])


def test_image_encode_rejects_wrong_dim(model):
    with pytest.raises(UsageError, match="dim"):
        model.encode_images(np.zeros((2, IMG_CFG.input_dim + 1)))


def full_position_text_tower(g, cfg, batch, seq_len):
    """Reference tower: every block runs at every position, then EOS pooling."""
    d, heads = cfg.embed_dim, cfg.num_heads
    dh = d // heads
    mask = g.input("mask")
    eos_idx = g.input("eos_idx")
    h = g.add(g.embedding(g.input("txt.tok_emb"), g.input("ids")),
              g.slice_rows(g.input("txt.pos_emb"), seq_len))

    def heads_of(x):
        return g.transpose(g.reshape(x, (batch, seq_len, heads, dh)), (0, 2, 1, 3))

    for i in range(cfg.num_layers):
        p = f"txt.l{i}"

        def proj(x, w):
            return g.add(g.matmul(x, g.input(f"{p}.w{w}")), g.input(f"{p}.b{w}"))

        a = g.layer_norm(h, g.input(f"{p}.ln1.g"), g.input(f"{p}.ln1.b"))
        q, k, v = (heads_of(proj(a, w)) for w in "qkv")
        scores = g.matmul(g.scale(q, 1.0 / np.sqrt(dh)), g.transpose(k, (0, 1, 3, 2)))
        att = g.softmax(g.add(scores, mask))
        ctx = g.reshape(g.transpose(g.matmul(att, v), (0, 2, 1, 3)), (batch, seq_len, d))
        h = g.add(h, proj(ctx, "o"))
        m = g.layer_norm(h, g.input(f"{p}.ln2.g"), g.input(f"{p}.ln2.b"))
        ff = g.matmul(g.gelu(proj(m, "1")), g.input(f"{p}.w2"))
        h = g.add(h, g.add(ff, g.input(f"{p}.b2")))
    hf = g.layer_norm(h, g.input("txt.lnf.g"), g.input("txt.lnf.b"))
    pooled = g.gather_rows(hf, eos_idx)
    return g.l2_normalize(g.matmul(pooled, g.input("txt.proj")), name="z_txt")


@pytest.mark.parametrize("num_layers", [1, 2])
def test_text_tower_matches_full_position_reference(num_layers):
    # the last block computes the EOS row only; outputs and gradients must
    # equal the all-positions reference up to float64 rounding
    cfg = TextEncoderConfig(context_length=12, vocab_size=40, embed_dim=16,
                            num_layers=num_layers, num_heads=2, output_dim=8)
    batch, seq_len = 5, 10
    rng = np.random.default_rng(num_layers)
    params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
              for k, v in init_params(cfg, IMG_CFG, seed=4).items()
              if k.startswith("txt.")}
    visible = rng.integers(2, seq_len + 1, size=batch)
    bindings = dict(params, **text_inputs(rng.integers(0, 40, size=(batch, seq_len)), visible))
    seed = rng.normal(size=(batch, cfg.output_dim))
    results = []
    for build in (build_text_tower, full_position_text_tower):
        g = Graph()
        g.output(build(g, cfg, batch, seq_len))
        tape = forward(g, bindings)
        results.append((tape.outputs["z_txt"], backward(tape, seed=seed)))
    (z, grads), (z_ref, grads_ref) = results
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
    for name in params:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=1e-9, atol=1e-12,
                                   err_msg=name)


def _tower_case(num_layers):
    """A float64 text-tower problem: config, bindings and an output seed."""
    cfg = TextEncoderConfig(context_length=12, vocab_size=40, embed_dim=16,
                            num_layers=num_layers, num_heads=2, output_dim=8)
    batch, seq_len = 5, 10
    rng = np.random.default_rng(10 + num_layers)
    params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
              for k, v in init_params(cfg, IMG_CFG, seed=4).items()
              if k.startswith("txt.")}
    visible = rng.integers(2, seq_len + 1, size=batch)
    bindings = dict(params, **text_inputs(rng.integers(0, 40, size=(batch, seq_len)), visible))
    return cfg, batch, seq_len, bindings, rng.normal(size=(batch, cfg.output_dim))


def _run_tower(build, cfg, batch, seq_len, bindings, seed):
    g = Graph()
    g.output(build(g, cfg, batch, seq_len))
    tape = forward(g, bindings)
    return tape.outputs["z_txt"], backward(tape, seed=seed)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_folded_last_block_matches_eos_row_oracle(num_layers):
    # folding Wk into the query and applying Wv after the attention average
    # is exact in real arithmetic; float64 results agree to rounding
    cfg, batch, seq_len, bindings, seed = _tower_case(num_layers)
    z, grads = _run_tower(build_text_tower, cfg, batch, seq_len, bindings, seed)
    z_ref, grads_ref = _run_tower(eos_row_text_tower, cfg, batch, seq_len, bindings, seed)
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=1e-9, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_last_block_key_bias_is_inert(num_layers):
    cfg, batch, seq_len, bindings, seed = _tower_case(num_layers)
    bk = f"txt.l{num_layers - 1}.bk"
    z, grads = _run_tower(build_text_tower, cfg, batch, seq_len, bindings, seed)
    assert not bits(grads[bk]).any()  # +0 everywhere
    moved = dict(bindings, **{bk: bindings[bk] + 5.0})
    z_moved, _ = _run_tower(build_text_tower, cfg, batch, seq_len, moved, seed)
    np.testing.assert_array_equal(bits(z_moved), bits(z))


def test_image_tower_gradient_matches_finite_differences(params):
    g = Graph()
    z = build_image_tower(g, IMG_CFG)
    g.output(g.mean(g.mul(z, z)), "f")
    rng = np.random.default_rng(1)
    bindings = {k: v for k, v in params.items() if k.startswith("img.")}
    bindings["img"] = rng.normal(size=(2, IMG_CFG.input_dim))
    tape = forward(g, bindings)
    grads = backward(tape, output="f")
    fd = finite_difference_grad(g, bindings, "img", output="f")
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads["img"])), 1e-6)
    assert np.max(np.abs(fd - grads["img"]) / denom) <= 1e-4


def test_attention_mask_shape_and_values():
    mask = attention_mask(np.array([2, 4]), seq_len=4)
    assert mask.shape == (2, 1, 1, 4)
    assert mask[0, 0, 0, 1] == 0.0 and mask[0, 0, 0, 2] < -1e8
    assert np.all(mask[1] == 0.0)


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.npz"
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5)
    text_cfg, img_cfg, loaded, log_scale = load_checkpoint(path)
    assert text_cfg == TEXT_CFG and img_cfg == IMG_CFG and log_scale == 2.5
    assert loaded.keys() == params.keys()
    for k in params:
        np.testing.assert_array_equal(loaded[k], params[k])


def _edit_header(path, edit):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("text_cfg"),
    lambda m: m.pop("img_cfg"),
    lambda m: m.pop("log_scale"),
    lambda m: m.update(log_scale="big"),
    lambda m: m.update(text_cfg=[16, 300]),
    lambda m: m["text_cfg"].update(colour=3),
    lambda m: m["text_cfg"].pop("embed_dim"),
    lambda m: m["text_cfg"].update(embed_dim="16"),
    lambda m: m["text_cfg"].update(num_heads=0),
    lambda m: m["text_cfg"].update(num_heads=3),
    lambda m: m["img_cfg"].update(hidden_dim=10.5),
    lambda m: m["img_cfg"].update(output_dim=4),
], ids=["no-text-cfg", "no-img-cfg", "no-log-scale", "str-log-scale", "list-cfg",
        "unknown-key", "missing-key", "str-value", "zero-heads", "indivisible-heads",
        "float-value", "output-dims-differ"])
def test_bad_checkpoint_header_is_data_error(tmp_path, params, edit):
    path = tmp_path / "model.npz"
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5)
    _edit_header(path, edit)
    with pytest.raises(DataError, match="model.npz"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, fault", [
    (lambda p: p.pop("txt.proj"), "txt.proj is missing"),
    (lambda p: p.update({"txt.pos_emb": p["txt.pos_emb"][:-1]}),
     r"txt.pos_emb has shape \(15, 16\), not \(16, 16\)"),
    (lambda p: p.update({"img.proj": p["img.proj"].astype(np.int64)}),
     "img.proj has dtype int64"),
    (lambda p: p["img.l0.w"].__setitem__((0, 0), np.inf), "img.l0.w holds non-finite"),
], ids=["missing", "short", "integer", "infinite"])
def test_bad_checkpoint_parameter_is_data_error(tmp_path, params, edit, fault):
    params = {k: v.copy() for k, v in params.items()}
    edit(params)
    path = tmp_path / "model.npz"
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5)
    with pytest.raises(DataError, match=f"checkpoint .*model.npz: parameter {fault}"):
        load_checkpoint(path)


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:len(raw) // 2],
    lambda raw: b"PK\x03\x04" + bytes(100),
    lambda raw: b"",
    lambda raw: _npy_bytes(np.zeros(3)),
], ids=["half-length", "zip-magic-then-garbage", "empty", "plain-npy"])
def test_corrupt_checkpoint_file_is_data_error(tmp_path, params, corrupt):
    path = tmp_path / "model.npz"
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(DataError, match="cannot load checkpoint .*model.npz"):
        load_checkpoint(path)


def test_checkpoint_records_vocab_fingerprint(tmp_path, vocab, params):
    path = tmp_path / "model.npz"
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5)
    assert checkpoint_vocab_fingerprint(path) is None  # an older header
    save_checkpoint(path, TEXT_CFG, IMG_CFG, params, log_scale=2.5, vocab=vocab)
    assert checkpoint_vocab_fingerprint(path) == vocab_fingerprint(vocab)
    assert load_checkpoint(path)[0] == TEXT_CFG
    _edit_header(path, lambda m: m.update(vocab_sha256=12))
    with pytest.raises(DataError, match="model.npz"):
        checkpoint_vocab_fingerprint(path)


def test_trained_model_encodes_both_modalities(model):
    zt = model.encode_texts(["the cat", "a dog ran far"])
    zi = model.encode_images(np.random.default_rng(2).normal(size=(3, IMG_CFG.input_dim)))
    assert zt.shape == (2, 8) and zi.shape == (3, 8)
    np.testing.assert_allclose(np.linalg.norm(zt, axis=1), 1.0, atol=1e-6)


def test_trained_model_tokenizes_one_batch_at_a_time(model, monkeypatch):
    tokenized, waiting = [], []

    def counted_encode(*args):
        tokenized.append(args[1])
        return encode(*args)

    def recorded_forward(graph, bindings):
        waiting.append(len(tokenized))  # every tokenized text not yet encoded
        tokenized.clear()
        return forward(graph, bindings)

    monkeypatch.setattr(encoders, "encode", counted_encode)
    monkeypatch.setattr(encoders, "forward", recorded_forward)
    texts = [f"the cat sat {i}" for i in range(2 * ENCODE_TEXT_BATCH + 5)]
    assert model.encode_texts(texts).shape == (len(texts), TEXT_CFG.output_dim)
    assert waiting == [ENCODE_TEXT_BATCH, ENCODE_TEXT_BATCH, 5]


def test_invalid_configs_rejected():
    with pytest.raises(UsageError):
        TextEncoderConfig(embed_dim=10, num_heads=3)
    with pytest.raises(UsageError):
        TextEncoderConfig(context_length=2)
    with pytest.raises(UsageError):
        param_shapes(TEXT_CFG, ImageEncoderConfig(output_dim=9))
