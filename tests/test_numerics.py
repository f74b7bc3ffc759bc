import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_RULES, bits, evaluate, finite_difference_grad
from longctx.encoders import MASK_VALUE
from longctx.errors import NumericError, ShapeError, UsageError
from longctx.numerics import RULES, Graph, backward, forward


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def scalar_graph(op_builder):
    g = Graph()
    x = g.input("x")
    g.output(op_builder(g, x), "y")
    return g


# -- evaluate ------------------------------------------------------------------


def test_matmul_identity():
    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.matmul(a, b), "out")
    out = evaluate(g, {"a": np.eye(2), "b": np.array([[2.0], [3.0]])})["out"]
    np.testing.assert_array_equal(out, [[2.0], [3.0]])


def test_softmax_uniform():
    g = scalar_graph(lambda g, x: g.softmax(x))
    out = evaluate(g, {"x": np.zeros(3)})["y"]
    np.testing.assert_allclose(out, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_layernorm_direct_formula():
    g = Graph()
    x, gain, bias = g.input("x"), g.input("gain"), g.input("bias")
    g.output(g.layer_norm(x, gain, bias), "y")
    xv = np.array([1.0, 2.0, 3.0])
    out = evaluate(g, {"x": xv, "gain": np.ones(3), "bias": np.zeros(3)})["y"]
    mu = xv.mean()
    var = ((xv - mu) ** 2).mean()
    expected = (xv - mu) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


def test_evaluate_is_pure():
    g = Graph()
    x = g.input("x")
    g.output(g.gelu(g.matmul(x, g.transpose(x, (1, 0)))), "y")
    xv = np.random.default_rng(0).normal(size=(4, 3))
    a = evaluate(g, {"x": xv})["y"]
    b = evaluate(g, {"x": xv})["y"]
    assert np.array_equal(a, b)


def test_shape_mismatch_names_node():
    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.matmul(a, b, name="bad_mm"), "y")
    with pytest.raises(ShapeError, match="bad_mm"):
        evaluate(g, {"a": np.ones((2, 3)), "b": np.ones((2, 3))})


def test_nonfinite_names_node():
    g = Graph()
    x = g.input("x")
    g.output(g.exp(g.scale(x, 1000.0, name="blowup")), "y")
    with pytest.raises(NumericError, match="exp"):
        evaluate(g, {"x": np.array([1.0, 2.0])})


def test_unbound_and_unknown_inputs():
    g = Graph()
    g.input("x")
    g.output(g.scale(g.inputs["x"], 2.0), "y")
    with pytest.raises(UsageError, match="unbound"):
        evaluate(g, {})
    with pytest.raises(UsageError, match="unknown"):
        evaluate(g, {"x": np.ones(2), "z": np.ones(2)})


# -- backward ------------------------------------------------------------------


def test_square_gradient():
    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.mul(x, x)), "f")
    tape = forward(g, {"x": np.array(3.0)})
    grads = backward(tape)
    np.testing.assert_allclose(grads["x"], 6.0, rtol=1e-12)


def test_sum_of_softmax_has_zero_gradient():
    # softmax rows sum to 1, so d(sum)/dx == 0 componentwise
    g = Graph()
    x = g.input("x")
    s = g.softmax(x)
    g.output(g.scale(g.mean(s), 5.0), "f")  # mean * 5 == sum for a 5-vector
    tape = forward(g, {"x": np.random.default_rng(1).normal(size=5)})
    grads = backward(tape)
    np.testing.assert_allclose(grads["x"], np.zeros(5), atol=1e-15)


def test_nonscalar_output_needs_seed():
    g = Graph()
    x = g.input("x")
    g.output(g.softmax(x), "y")
    tape = forward(g, {"x": np.zeros(3)})
    with pytest.raises(UsageError, match="seed"):
        backward(tape)
    grads = backward(tape, seed=np.array([1.0, 0.0, 0.0]))
    assert grads["x"].shape == (3,)


def test_unused_input_gets_zero_gradient():
    g = Graph()
    x, z = g.input("x"), g.input("z")
    g.output(g.mean(g.mul(x, x)), "f")
    g.output(g.mean(z), "aux")
    tape = forward(g, {"x": np.ones(3), "z": np.ones(4)})
    grads = backward(tape, output="f")
    np.testing.assert_array_equal(grads["z"], np.zeros(4))


# -- finite differences (the oracle, and its own sanity checks) -----------------


def test_fd_square():
    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.mul(x, x)), "f")
    fd = finite_difference_grad(g, {"x": np.array(3.0)}, "x", h=1e-5)
    assert abs(float(fd) - 6.0) <= 1e-6


def test_fd_exp_at_zero():
    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.exp(x)), "f")
    fd = finite_difference_grad(g, {"x": np.array(0.0)}, "x", h=1e-5)
    assert abs(float(fd) - 1.0) <= 1e-6


def test_fd_rejects_nonscalar():
    g = Graph()
    x = g.input("x")
    g.output(g.softmax(x), "y")
    with pytest.raises(UsageError, match="scalar"):
        finite_difference_grad(g, {"x": np.zeros(3)}, "x")


# -- per-primitive gradient checks against the oracle ----------------------------


def _fd_check(g, bindings, names=None, tol=1e-4):
    tape = forward(g, bindings)
    grads = backward(tape)
    for name in names or [n for n in g.inputs
                          if not np.issubdtype(np.asarray(bindings[n]).dtype, np.integer)]:
        fd = finite_difference_grad(g, bindings, name)
        assert rel_err(grads[name], fd) <= tol, f"gradient mismatch for {name}"


@pytest.mark.parametrize("seed", range(5))
def test_primitive_grads_randomized(seed):
    rng = np.random.default_rng(seed)
    cases = []

    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.mean(g.matmul(a, b)), "f")
    cases.append((g, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}))

    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.mean(g.matmul(a, b)), "f")
    cases.append((g, {"a": rng.normal(size=(2, 3, 4, 5)), "b": rng.normal(size=(5, 3))}))

    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.mean(g.add(a, b)), "f")
    cases.append((g, {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4,))}))

    g = Graph()
    a, b = g.input("a"), g.input("b")
    g.output(g.mean(g.mul(a, b)), "f")
    cases.append((g, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=())}))

    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.gelu(x)), "f")
    cases.append((g, {"x": rng.normal(size=(3, 5))}))

    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.mul(g.softmax(x), g.exp(x))), "f")
    cases.append((g, {"x": rng.normal(size=(4, 6))}))

    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.logsumexp(x)), "f")
    cases.append((g, {"x": rng.normal(size=(4, 6))}))

    g = Graph()
    x, gain, bias = g.input("x"), g.input("gain"), g.input("bias")
    g.output(g.mean(g.mul(g.layer_norm(x, gain, bias), g.layer_norm(x, gain, bias))), "f")
    cases.append((g, {"x": rng.normal(size=(3, 6)),
                      "gain": 1 + 0.1 * rng.normal(size=(6,)),
                      "bias": 0.1 * rng.normal(size=(6,))}))

    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.mul(g.l2_normalize(x), g.exp(x))), "f")
    cases.append((g, {"x": 1 + 0.3 * rng.normal(size=(3, 5))}))

    g = Graph()
    t, ids = g.input("t"), g.input("ids")
    g.output(g.mean(g.mul(g.embedding(t, ids), g.embedding(t, ids))), "f")
    cases.append((g, {"t": rng.normal(size=(7, 3)),
                      "ids": rng.integers(0, 7, size=(2, 4))}))

    g = Graph()
    x, idx = g.input("x"), g.input("idx")
    g.output(g.mean(g.mul(g.gather_rows(x, idx), g.gather_rows(x, idx))), "f")
    cases.append((g, {"x": rng.normal(size=(3, 5, 2)),
                      "idx": rng.integers(0, 5, size=3)}))

    g = Graph()
    x = g.input("x")
    g.output(g.mean(g.mul(g.diag(x), g.diag(x))), "f")
    cases.append((g, {"x": rng.normal(size=(4, 4))}))

    g = Graph()
    x = g.input("x")
    y = g.reshape(g.transpose(x, (1, 0, 2)), (6, 4))
    g.output(g.mean(g.mul(y, y)), "f")
    cases.append((g, {"x": rng.normal(size=(2, 3, 4))}))

    g = Graph()
    x = g.input("x")
    s = g.slice_rows(x, 2)
    g.output(g.mean(g.mul(s, s)), "f")
    cases.append((g, {"x": rng.normal(size=(5, 3))}))

    for graph, bindings in cases:
        _fd_check(graph, bindings)


@pytest.mark.parametrize("seed", range(8))
def test_random_composite_graph_grads(seed):
    # random 3-layer composite: affine -> gelu -> layernorm -> softmax mixing
    rng = np.random.default_rng(100 + seed)
    g = Graph()
    x = g.input("x")
    w1, b1 = g.input("w1"), g.input("b1")
    w2 = g.input("w2")
    gain, bias = g.input("gain"), g.input("bias")
    h = g.gelu(g.add(g.matmul(x, w1), b1))
    h = g.layer_norm(h, gain, bias)
    h = g.matmul(g.softmax(h), w2)
    g.output(g.mean(g.mul(h, h)), "f")
    bindings = {
        "x": rng.normal(size=(3, 4)),
        "w1": rng.normal(size=(4, 5)) * 0.5,
        "b1": rng.normal(size=(5,)) * 0.1,
        "w2": rng.normal(size=(5, 2)) * 0.5,
        "gain": 1 + 0.1 * rng.normal(size=(5,)),
        "bias": 0.1 * rng.normal(size=(5,)),
    }
    _fd_check(g, bindings)


# -- invariants ------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.integers(1, 4))
def test_softmax_rows_sum_to_one(row, nrows):
    g = Graph()
    x = g.input("x")
    g.output(g.softmax(x), "y")
    xv = np.tile(np.asarray(row), (nrows, 1))
    out = evaluate(g, {"x": xv})["y"]
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(nrows), rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_layernorm_centering_and_variance(seed):
    # with eps=1e-5 the output variance is exactly var/(var+eps), so the
    # deviation from 1 is eps/(var+eps), about 1e-5 for unit-variance rows
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(4, 32))
    g = Graph()
    x, gain, bias = g.input("x"), g.input("gain"), g.input("bias")
    g.output(g.layer_norm(x, gain, bias), "y")
    out = evaluate(g, {"x": xv, "gain": np.ones(32), "bias": np.zeros(32)})["y"]
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
    row_var = xv.var(axis=-1)
    expected = row_var / (row_var + 1e-5)
    np.testing.assert_allclose(out.var(axis=-1), expected, rtol=0, atol=1e-12)
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-4


def test_float32_mode():
    g = Graph(dtype="float32")
    x = g.input("x")
    g.output(g.gelu(x), "y")
    out = evaluate(g, {"x": np.ones(3)})["y"]
    assert out.dtype == np.float32


def test_graph_rejects_foreign_nodes():
    g1, g2 = Graph(), Graph()
    x1 = g1.input("x")
    with pytest.raises(UsageError, match="another graph"):
        g2.gelu(x1)


# -- fast kernels against their oracles, byte for byte ----------------------------


def _node(op, n_inputs):
    g = Graph()
    return getattr(g, op)(*[g.input(f"x{i}") for i in range(n_inputs)])


def _values(rng, shape, dtype, zero_share):
    """Signed values over seven decades, so that a change in summation
    order shows in the low bits, with a share of exact zeros."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    x[rng.random(size=shape) < zero_share] = 0.0
    return x.astype(dtype)


def _assert_rule_matches_oracle(op, xs, gy):
    """The op's value and VJP from ``RULES`` and from ``REFERENCE_RULES``
    are the same bytes."""
    node = _node(op, len(xs))
    (y, vjp), (want_y, want_vjp) = RULES[op](node, *xs), REFERENCE_RULES[op](node, *xs)
    got, want = (y, *vjp(gy)), (want_y, *want_vjp(gy))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(bits(g), bits(w))


_dtypes = st.sampled_from([np.float32, np.float64])


@st.composite
def _batch_shapes(draw):
    """Two leading-batch shapes that broadcast against each other."""
    full = draw(st.lists(st.integers(1, 3), max_size=2))
    def part():
        dims = [d if draw(st.booleans()) else 1 for d in full]
        return tuple(dims[draw(st.integers(0, len(dims))):])
    return part(), part()


@settings(max_examples=150, deadline=None)
@given(_batch_shapes(), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       _dtypes, st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_matmul_vjp_matches_oracle(batches, m, k, n, dtype, zero_share, seed):
    # m == 1 is the outer-product path; zeros in a against negative gy give
    # -0 products, which the matmul oracle turns into +0
    rng = np.random.default_rng(seed)
    a = _values(rng, batches[0] + (m, k), dtype, zero_share)
    b = _values(rng, batches[1] + (k, n), dtype, zero_share)
    gy = _values(rng, np.broadcast_shapes(batches[0], batches[1]) + (m, n), dtype, 0.0)
    _assert_rule_matches_oracle("matmul", [a, b], gy)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3), st.integers(1, 40),
       st.sampled_from(["row", "one", "full"]), _dtypes, st.integers(0, 2**32 - 1))
def test_layer_norm_matches_oracle(batch, d, gain_shape, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (d,)
    x = _values(rng, shape, dtype, 0.1)
    pshape = {"row": (d,), "one": (1,), "full": shape}[gain_shape]
    gain = _values(rng, pshape, dtype, 0.1)
    bias = _values(rng, pshape, dtype, 0.1)
    gy = _values(rng, shape, dtype, 0.1)
    _assert_rule_matches_oracle("layer_norm", [x, gain, bias], gy)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.lists(st.integers(1, 6), min_size=1, max_size=3),
       _dtypes, st.integers(0, 2**32 - 1))
def test_embedding_vjp_matches_oracle(rows, d, ids_shape, dtype, seed):
    # few rows and many positions: each row collects many values, whose
    # sum depends on the order they are added in
    rng = np.random.default_rng(seed)
    table = _values(rng, (rows, d), dtype, 0.0)
    ids = rng.integers(0, rows, size=tuple(ids_shape))
    gy = _values(rng, tuple(ids_shape) + (d,), dtype, 0.1)
    _assert_rule_matches_oracle("embedding", [table, ids], gy)


def test_layer_norm_gain_must_broadcast_to_input():
    g = Graph()
    x, gain, bias = g.input("x"), g.input("gain"), g.input("bias")
    g.output(g.layer_norm(x, gain, bias), "y")
    with pytest.raises(ShapeError, match="broadcastable to input"):
        evaluate(g, {"x": np.ones(3), "gain": np.ones((2, 3)), "bias": np.zeros(3)})


# -- norm_attention ---------------------------------------------------------------


def _norm_attention_graph(dtype="float64"):
    g = Graph(dtype=dtype)
    h, qk, mask, w = (g.input(n) for n in ("h", "qk", "mask", "w"))
    g.output(g.mean(g.mul(g.norm_attention(h, qk, mask, name="att"), w)), "f")
    return g


def _norm_attention_bindings(rng, batch=2, length=5, d=6, heads=3, mask_heads=1):
    mask = rng.normal(size=(batch, mask_heads, length))
    mask[0, :, -2:] = MASK_VALUE  # padded keys, as attention_mask writes them
    return {"h": rng.normal(size=(batch, length, d)) + rng.normal(size=(batch, length, 1)),
            "qk": rng.normal(size=(batch, heads, d)), "mask": mask,
            "w": rng.normal(size=(batch, heads, d))}


def test_norm_attention_matches_layer_norm_then_attention():
    rng = np.random.default_rng(0)
    b = _norm_attention_bindings(rng)
    g = Graph()
    g.output(g.norm_attention(*(g.input(n) for n in ("h", "qk", "mask"))), "u")
    u = evaluate(g, {k: b[k] for k in ("h", "qk", "mask")})["u"]
    ln = Graph()
    ln.output(ln.layer_norm(ln.input("x"), ln.input("g"), ln.input("b")), "y")
    xhat = evaluate(ln, {"x": b["h"], "g": np.ones(6), "b": np.zeros(6)})["y"]
    scores = b["qk"] @ np.swapaxes(xhat, 1, 2) + b["mask"]
    att = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(u, att @ xhat, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mask_heads", [1, 3])
@pytest.mark.parametrize("seed", range(3))
def test_norm_attention_grads_match_finite_differences(seed, mask_heads):
    rng = np.random.default_rng(seed)
    _fd_check(_norm_attention_graph(), _norm_attention_bindings(rng, mask_heads=mask_heads),
              names=["h", "qk", "mask"])


def _attention_loss_graph(dtype, attention):
    """Outputs ``u = attention(g, h, qk, mask)`` and ``f = mean(u * w)``."""
    g = Graph(dtype=dtype)
    h, qk, mask, w = (g.input(n) for n in ("h", "qk", "mask", "w"))
    u = g.output(attention(g, h, qk, mask), "u")
    g.output(g.mean(g.mul(u, w)), "f")
    return g


def _layer_norm_then_attention(g, h, qk, mask):
    ones = g.input("ones")
    xhat = g.layer_norm(h, ones, g.scale(ones, 0.0))
    att = g.softmax(g.add(g.matmul(qk, g.transpose(xhat, (0, 2, 1))), mask))
    return g.matmul(att, xhat)


def test_float32_norm_attention_matches_a_float64_composition():
    rng = np.random.default_rng(7)
    b = _norm_attention_bindings(rng, batch=3, length=9, d=8, heads=2)
    b["h"][1, 4] = 10.0 + rng.normal(size=8)  # a row whose mean is 10 times its spread
    b = {k: v.astype(np.float32) for k, v in b.items()}  # both sides read the same values
    tape = forward(_attention_loss_graph("float32", Graph.norm_attention), b)
    grads = backward(tape, "f")
    ref_tape = forward(_attention_loss_graph("float64", _layer_norm_then_attention),
                       dict(b, ones=np.ones(8)))
    ref_grads = backward(ref_tape, "f")
    # float32 rounding: a few dozen ulps of the largest value
    tol = 64 * np.finfo(np.float32).eps
    for got, want in [(tape.outputs["u"], ref_tape.outputs["u"])] + [
            (grads[n], ref_grads[n]) for n in ("h", "qk", "mask")]:
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_norm_attention_gradient_rows_of_masked_keys_are_zero(dtype):
    rng = np.random.default_rng(5)
    b = _norm_attention_bindings(rng)  # keys 3 and 4 of sequence 0 are masked
    grads = backward(forward(_norm_attention_graph(dtype), b))
    assert np.all(grads["h"][0, -2:] == 0) and np.all(grads["mask"][0, :, -2:] == 0)
    assert np.any(grads["h"][0, :-2] != 0) and np.all(grads["h"][1] != 0)


@pytest.mark.parametrize("h_shape, qk_shape, mask_shape", [
    ((2, 5, 6), (2, 3, 4), (2, 1, 5)),    # qk's width is not h's
    ((2, 5, 6), (3, 3, 6), (2, 1, 5)),    # batch sizes differ
    ((2, 5, 6), (2, 3, 6), (2, 1, 4)),    # mask is not over h's rows
    ((2, 5, 6), (2, 3, 6), (2, 2, 5)),    # mask heads neither 1 nor H
    ((5, 6), (2, 3, 6), (2, 1, 5)),       # h is not [B,L,d]
])
def test_norm_attention_shape_errors_name_the_node(h_shape, qk_shape, mask_shape):
    g = Graph()
    g.output(g.norm_attention(*(g.input(n) for n in ("h", "qk", "mask")), name="att"), "u")
    with pytest.raises(ShapeError, match="node 'att' \\(norm_attention\\)"):
        evaluate(g, {"h": np.ones(h_shape), "qk": np.ones(qk_shape),
                     "mask": np.zeros(mask_shape)})


def test_gather_rows_gradient_does_not_write_into_an_aliased_gradient():
    # backward reaches x first through the add, whose VJP hands the same gy
    # to x and k; the gathered rows must then go into a copy, not into k's
    g = Graph()
    x, k, idx, w = (g.input(n) for n in ("x", "k", "idx", "w"))
    rows = g.gather_rows(x, idx)
    g.output(g.add(g.mean(g.mul(rows, rows)), g.mean(g.mul(g.add(x, k), w))), "f")
    rng = np.random.default_rng(3)
    _fd_check(g, {"x": rng.normal(size=(3, 4, 2)), "k": rng.normal(size=(3, 4, 2)),
                  "idx": np.array([0, 3, 3]), "w": rng.normal(size=(3, 4, 2))})
