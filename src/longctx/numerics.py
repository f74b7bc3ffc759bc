"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Graph`` is a frozen DAG of primitive operations built once and then bound
to named input arrays as many times as needed.  Each op is defined once, by
its rule in ``RULES``: the rule returns the op's value and a closure for its
vector-Jacobian product.  ``forward`` produces a ``Tape`` (every node's value
and VJP closure), ``backward`` walks the tape in reverse and returns one
gradient array per graph input.  Everything runs in float64 by default;
float32 is selectable per graph for speed.

Primitives operate on the last axis where an axis matters (softmax,
log-sum-exp, layer norm, l2 normalization).  Broadcasting is limited to
leading-batch and bias-add patterns; any other mismatch raises ``ShapeError``
naming the offending node.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError, UsageError

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
LAYERNORM_EPS = 1e-5


class Node:
    """One primitive operation (or free input) in a Graph."""

    __slots__ = ("idx", "op", "name", "args", "attrs")

    def __init__(self, idx, op, name, args, attrs):
        self.idx = idx
        self.op = op
        self.name = name
        self.args = args
        self.attrs = attrs

    def __repr__(self):
        return f"Node({self.name}:{self.op})"


class Graph:
    """Builder for a frozen computation DAG.

    Nodes are appended in topological order by construction.  Inputs are
    declared by name and bound at evaluation time, so one graph can be
    reused across parameter updates and batches of the same shape.
    """

    def __init__(self, dtype="float64"):
        self.dtype = np.dtype(dtype)
        self.nodes: list[Node] = []
        self.inputs: dict[str, Node] = {}
        self.outputs: dict[str, Node] = {}
        self._names: set[str] = set()

    def _register(self, op, args, name=None, **attrs) -> Node:
        if name is None:
            name = f"{op}_{len(self.nodes)}"
        if name in self._names:
            raise UsageError(f"duplicate node name {name!r}")
        for a in args:
            if not isinstance(a, Node) or a.idx >= len(self.nodes) or self.nodes[a.idx] is not a:
                raise UsageError(f"node {name!r} wired to a node from another graph")
        node = Node(len(self.nodes), op, name, tuple(args), attrs)
        self.nodes.append(node)
        self._names.add(name)
        return node

    def input(self, name: str) -> Node:
        node = self._register("input", (), name=name)
        self.inputs[name] = node
        return node

    def output(self, node: Node, name: str | None = None) -> Node:
        self.outputs[name or node.name] = node
        return node

    # -- primitive builders -------------------------------------------------

    def matmul(self, a, b, name=None):
        return self._register("matmul", (a, b), name)

    def add(self, a, b, name=None):
        return self._register("add", (a, b), name)

    def mul(self, a, b, name=None):
        return self._register("mul", (a, b), name)

    def sub(self, a, b, name=None):
        return self.add(a, self.scale(b, -1.0), name)

    def scale(self, a, c, name=None):
        return self._register("scale", (a,), name, c=float(c))

    def gelu(self, a, name=None):
        return self._register("gelu", (a,), name)

    def exp(self, a, name=None):
        return self._register("exp", (a,), name)

    def softmax(self, a, name=None):
        return self._register("softmax", (a,), name)

    def logsumexp(self, a, name=None):
        return self._register("logsumexp", (a,), name)

    def layer_norm(self, a, gain, bias, name=None):
        return self._register("layer_norm", (a, gain, bias), name)

    def norm_attention(self, h, qk, mask, name=None):
        """Attention of one query per head over the standardized rows of h.

        With ``xhat`` the rows of ``h`` [B,L,d] standardized (``layer_norm``
        without gain or bias), per head ``u = softmax(qk·xhatᵀ + mask)·xhat``
        for ``qk`` [B,H,d] and an additive ``mask`` broadcastable to
        [B,H,L]; the result is [B,H,d].

        ``xhat`` is never formed.  The kernel keeps the centered rows ``c``
        and each row's ``inv = 1/std`` (row statistics), and folds ``inv``
        into the [B,H,L] tensors: ``scores = (qk·cᵀ)∘inv + mask`` and
        ``u = (att∘inv)·c``.  So its results differ from the formula above
        at the rounding level.
        """
        return self._register("norm_attention", (h, qk, mask), name)

    def l2_normalize(self, a, name=None):
        return self._register("l2_normalize", (a,), name)

    def embedding(self, table, ids, name=None):
        return self._register("embedding", (table, ids), name)

    def gather_rows(self, a, idx, name=None):
        return self._register("gather_rows", (a, idx), name)

    def diag(self, a, name=None):
        return self._register("diag", (a,), name)

    def transpose(self, a, axes, name=None):
        return self._register("transpose", (a,), name, axes=tuple(axes))

    def reshape(self, a, shape, name=None):
        return self._register("reshape", (a,), name, shape=tuple(shape))

    def slice_rows(self, a, n, name=None):
        return self._register("slice_rows", (a,), name, n=int(n))

    def mean(self, a, name=None):
        return self._register("mean", (a,), name)


class Tape:
    """Values of every node from one forward pass, consumed by backward.

    ``vjps`` holds each node's VJP closure from its rule (None for an input);
    the closures keep the intermediates they need (tanh terms, norm
    statistics), so the backward pass never recomputes transcendentals.
    """

    def __init__(self, graph: Graph, values, vjps):
        self.graph = graph
        self.values = values
        self.vjps = vjps

    @property
    def outputs(self) -> dict[str, np.ndarray]:
        return {name: self.values[n.idx] for name, n in self.graph.outputs.items()}


def _check_finite(value, node):
    # a single-pass reduction: any NaN poisons the sum, +/-Inf survives it
    # (pairwise float64 summation cannot overflow for arrays this size)
    if value.size and not np.isfinite(value.sum(dtype=np.float64)):
        if np.isfinite(value.min()) and np.isfinite(value.max()):
            return  # genuine cancellation overflow cannot happen in float64
        raise NumericError(f"non-finite values produced by node {node.name!r} ({node.op})")


def _require(cond, node, msg):
    if not cond:
        raise ShapeError(f"node {node.name!r} ({node.op}): {msg}")


def _broadcastable(sa, sb):
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            return False
    return True


def _broadcasts_to(shape, target):
    """True when broadcasting ``shape`` against ``target`` yields ``target``."""
    return len(shape) <= len(target) and all(
        d in (1, t) for d, t in zip(reversed(shape), reversed(target)))


def _sum_to_shape(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _softmax_last(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_means(x):
    """Means along the last axis, kept as a length-1 axis: a GEMV against a
    1/d column, several times faster than ``mean(axis=-1)`` on short rows.
    numpy runs one GEMV per leading index, so a row's bits do not depend on
    where its sequence sits in the batch."""
    return np.matmul(x, np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.dtype))


# -- rules: each op's forward value and its vector-Jacobian product -----------------
#
# A rule takes the node and its input values and returns ``(value, vjp)``;
# ``vjp(gy)`` returns one gradient, or None, per input.


def _matmul(node, a, b):
    _require(a.ndim >= 2 and b.ndim >= 2, node, "matmul needs >=2-d operands")
    _require(a.shape[-1] == b.shape[-2], node, f"inner dims differ: {a.shape} @ {b.shape}")
    _require(_broadcastable(a.shape[:-2], b.shape[:-2]), node,
             f"leading dims not broadcastable: {a.shape} @ {b.shape}")

    def vjp(gy):
        ga = np.matmul(gy, np.swapaxes(b, -1, -2))
        if a.shape[-2] == 1:
            # aT @ gy sums one product per element: an outer product.  BLAS
            # accumulates onto +0, so += 0.0 turns -0 products into +0 too.
            gb = np.multiply(np.swapaxes(a, -1, -2), gy, order="C")
            gb += 0.0
        else:
            gb = np.matmul(np.swapaxes(a, -1, -2), gy)
        return _sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)

    return np.matmul(a, b), vjp


def _add(node, a, b):
    _require(_broadcastable(a.shape, b.shape), node,
             f"shapes not broadcastable: {a.shape} vs {b.shape}")
    return a + b, lambda gy: (_sum_to_shape(gy, a.shape), _sum_to_shape(gy, b.shape))


def _mul(node, a, b):
    _require(_broadcastable(a.shape, b.shape), node,
             f"shapes not broadcastable: {a.shape} vs {b.shape}")
    return a * b, lambda gy: (_sum_to_shape(gy * b, a.shape), _sum_to_shape(gy * a, b.shape))


def _scale(node, x):
    c = node.attrs["c"]
    return x * c, lambda gy: (gy * c,)


def _gelu(node, x):
    x2 = x * x
    t = _GELU_A * x2 * x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return 0.5 * x * (1.0 + t), lambda gy: (
        gy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x2)),)


def _exp(node, x):
    y = np.exp(x)
    return y, lambda gy: (gy * y,)


def _softmax(node, x):
    _require(x.ndim >= 1, node, "softmax needs >=1-d input")
    y = _softmax_last(x)
    return y, lambda gy: (y * (gy - (gy * y).sum(axis=-1, keepdims=True)),)


def _logsumexp(node, x):
    _require(x.ndim >= 1, node, "logsumexp needs >=1-d input")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    p = e / s
    return np.squeeze(m, -1) + np.log(np.squeeze(s, -1)), lambda gy: (p * gy[..., None],)


def _layer_norm(node, x, gain, bias):
    _require(x.ndim >= 1, node, "layer_norm needs >=1-d input")
    _require(_broadcasts_to(gain.shape, x.shape) and _broadcasts_to(bias.shape, x.shape),
             node, "gain/bias not broadcastable to input")
    # the rows of x centered and scaled to unit variance
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LAYERNORM_EPS)
    xhat *= inv
    y = xhat * gain
    y += bias

    def vjp(gy):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place
        dx = gy * gain
        t = dx * xhat
        t_mean = t.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, t_mean, out=t)
        dx *= inv
        dgain = _sum_to_shape(np.multiply(gy, xhat, out=t), gain.shape)
        return dx, dgain, _sum_to_shape(gy, bias.shape)

    return y, vjp


def _norm_attention(node, h, qk, mask):
    _require(h.ndim == 3 and qk.ndim == 3 and qk.shape[0] == h.shape[0]
             and qk.shape[2] == h.shape[2], node,
             f"norm_attention expects h [B,L,d] and qk [B,H,d], got {h.shape}, {qk.shape}")
    _require(_broadcasts_to(mask.shape, qk.shape[:2] + h.shape[1:2]), node,
             f"mask {mask.shape} not broadcastable to [B,H,L] {qk.shape[:2] + h.shape[1:2]}")
    c = h - _row_means(h)
    inv = np.swapaxes(1.0 / np.sqrt(_row_means(c * c) + LAYERNORM_EPS), -1, -2)  # [B,1,L]
    scores = np.matmul(qk, np.swapaxes(c, -1, -2))
    scores *= inv
    scores += mask
    att = _softmax_last(scores)

    def vjp(gy):
        heads, d = att.shape[1], c.shape[-1]
        # g_xhat = Aᵀ·C for A = [att; gs] and C = [gy; qk].  Through xhat =
        # c∘inv, with W = A∘inv and P = C·cᵀ (its first H rows give g_att):
        #   g_h = Wᵀ·(C - mean_d(C)) - c∘inv²∘sum_k(W∘P)/d,  g_qk = (gs∘inv)·c
        # so every term before the last GEMM is [B,2H,L]-sized
        cat = np.concatenate((gy, qk), axis=1)
        p = np.matmul(cat, np.swapaxes(c, -1, -2))
        gs = p[:, :heads] * inv
        gs -= (gs * att).sum(axis=-1, keepdims=True)
        gs *= att  # the softmax VJP: gs = att * (g_att - sum(g_att * att))
        w = np.concatenate((att, gs), axis=1)
        w *= inv
        cat -= _row_means(cat)
        g_h = np.matmul(np.swapaxes(w, -1, -2), cat)
        p *= w
        t = p.sum(axis=1)[..., None]
        t *= np.square(np.swapaxes(inv, -1, -2)) / d
        g_h -= c * t
        return g_h, np.matmul(w[:, heads:], c), _sum_to_shape(gs, mask.shape)

    return np.matmul(att * inv, c), vjp


def _l2_normalize(node, x):
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    _require(bool(np.all(n > 0)), node, "zero-norm row cannot be normalized")
    y = x / n
    return y, lambda gy: ((gy - y * (gy * y).sum(axis=-1, keepdims=True)) / n,)


def _embedding(node, table, ids):
    _require(table.ndim == 2, node, "embedding table must be 2-d")
    _require(ids.dtype.kind in "iu", node, "ids must be integers")
    _require(ids.size == 0 or (ids.min() >= 0 and ids.max() < table.shape[0]),
             node, "token id out of range")

    def vjp(gy):
        # one 1-D scatter-add (numpy's fast path) into the flat table; each
        # element still receives its rows' values in position order
        d = table.shape[1]
        gt = np.zeros(table.shape, dtype=table.dtype)
        flat_ids = ids.astype(np.intp, copy=False)[..., None] * d + np.arange(d)
        np.add.at(gt.reshape(-1), flat_ids.reshape(-1), gy.reshape(-1))
        return gt, None

    return table[ids], vjp


def _gather_rows(node, x, idx):
    _require(x.ndim >= 2 and idx.ndim == 1 and idx.shape[0] == x.shape[0],
             node, f"gather_rows expects [B,...] and [B] index, got {x.shape}, {idx.shape}")
    _require(idx.dtype.kind in "iu", node, "indices must be integers")
    _require(idx.size == 0 or (idx.min() >= 0 and idx.max() < x.shape[1]),
             node, "row index out of range")
    # the VJP is the gathered rows' gradient alone: backward adds it in place
    # at row idx[b] of sequence b, instead of forming the dense array
    return x[np.arange(x.shape[0]), idx], lambda gy: (gy, None)


def _diag(node, x):
    _require(x.ndim == 2 and x.shape[0] == x.shape[1], node,
             f"diag needs a square matrix, got {x.shape}")

    def vjp(gy):
        gx = np.zeros_like(x)
        np.fill_diagonal(gx, gy)
        return (gx,)

    return np.diagonal(x).copy(), vjp


def _transpose(node, x):
    axes = node.attrs["axes"]
    _require(len(axes) == x.ndim, node, f"axes {axes} do not match rank {x.ndim}")
    return np.transpose(x, axes), lambda gy: (np.transpose(gy, np.argsort(axes)),)


def _reshape(node, x):
    shape = node.attrs["shape"]
    _require(int(np.prod(shape)) == x.size, node, f"cannot reshape {x.shape} to {shape}")
    return x.reshape(shape), lambda gy: (gy.reshape(x.shape),)


def _slice_rows(node, x):
    n = node.attrs["n"]
    _require(0 < n <= x.shape[0], node, f"slice of {n} rows from shape {x.shape}")

    def vjp(gy):
        gx = np.zeros_like(x)
        gx[:n] = gy
        return (gx,)

    return x[:n], vjp


def _mean(node, x):
    return np.asarray(x.mean()), lambda gy: (np.full_like(x, gy / x.size),)


# looked up for every node at run time, so a test can swap one rule
RULES = {"matmul": _matmul, "add": _add, "mul": _mul, "scale": _scale, "gelu": _gelu,
         "exp": _exp, "softmax": _softmax, "logsumexp": _logsumexp,
         "layer_norm": _layer_norm, "norm_attention": _norm_attention,
         "l2_normalize": _l2_normalize, "embedding": _embedding,
         "gather_rows": _gather_rows, "diag": _diag, "transpose": _transpose,
         "reshape": _reshape, "slice_rows": _slice_rows, "mean": _mean}


# -- public API ----------------------------------------------------------------


def forward(graph: Graph, bindings: dict[str, np.ndarray]) -> Tape:
    """Evaluate every node; returns the Tape of intermediate values.

    Raises ``UsageError`` on unbound/unknown names, ``ShapeError`` on shape
    rule violations, ``NumericError`` if a graph output holds NaN/Inf.  Only
    the outputs are checked on the normal path; when one fails, the pass is
    replayed with a check after every node so the error names the first
    node (or input) that left the finite domain.
    """
    unknown = set(bindings) - set(graph.inputs)
    if unknown:
        raise UsageError(f"bindings for unknown inputs: {sorted(unknown)}")
    missing = set(graph.inputs) - set(bindings)
    if missing:
        raise UsageError(f"unbound graph inputs: {sorted(missing)}")
    bound = {}
    for name in graph.inputs:
        v = np.asarray(bindings[name])
        if v.dtype.kind not in "iu":  # integers (token ids) stay as they are
            v = v.astype(graph.dtype, copy=False)
        bound[name] = v
    tape = _run(graph, bound, check_every_node=False)
    for name, node in graph.outputs.items():
        if not np.isfinite(tape.values[node.idx]).all():
            _run(graph, bound, check_every_node=True)  # raises naming the node
            raise NumericError(f"non-finite values in output {name!r}")
    return tape


def _run(graph: Graph, bound: dict[str, np.ndarray], check_every_node: bool) -> Tape:
    values = [None] * len(graph.nodes)
    vjps = [None] * len(graph.nodes)
    for name, node in graph.inputs.items():
        v = bound[name]
        if check_every_node and v.dtype.kind not in "iu":
            _check_finite(v, node)
        values[node.idx] = v
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in graph.nodes:
            if node.op == "input":
                continue
            out, vjps[node.idx] = RULES[node.op](node, *[values[a.idx] for a in node.args])
            if check_every_node:
                _check_finite(out, node)
            values[node.idx] = out
    return Tape(graph, values, vjps)


def backward(tape: Tape, output: str | None = None, seed=None) -> dict[str, np.ndarray]:
    """Gradients of one output w.r.t. every graph input.

    ``seed`` defaults to 1 for scalar outputs; non-scalar outputs require a
    seed of matching shape.  Inputs that do not reach the output (or are
    integer-valued, like token ids) get zero gradients.
    """
    graph = tape.graph
    if output is None:
        if len(graph.outputs) != 1:
            raise UsageError("graph has multiple outputs; name one")
        output = next(iter(graph.outputs))
    if output not in graph.outputs:
        raise UsageError(f"unknown output {output!r}")
    out_node = graph.outputs[output]
    out_val = tape.values[out_node.idx]
    if seed is None:
        if out_val.size != 1:
            raise UsageError("non-scalar output needs an explicit seed")
        seed = np.ones_like(out_val)
    else:
        seed = np.asarray(seed, dtype=graph.dtype)
        if seed.shape != out_val.shape:
            raise UsageError(f"seed shape {seed.shape} != output shape {out_val.shape}")
    grads = [None] * len(graph.nodes)
    # owned[i]: grads[i] is a buffer only backward holds, so it may be added
    # into; a VJP part that is (a view of) its gy, like add's, or the
    # caller's seed, is not
    owned = [False] * len(graph.nodes)
    grads[out_node.idx] = seed
    for node in reversed(graph.nodes):
        gy, vjp = grads[node.idx], tape.vjps[node.idx]
        if gy is None or vjp is None:  # an input has no VJP
            continue
        for arg, part in zip(node.args, vjp(gy)):
            if part is None:
                continue
            i = arg.idx
            if node.op == "gather_rows":
                x = tape.values[i]
                at = (np.arange(x.shape[0]), tape.values[node.args[1].idx])
                if grads[i] is None:
                    grads[i] = np.zeros_like(x)
                    grads[i][at] = part
                else:
                    if not owned[i]:
                        grads[i] = grads[i].copy()
                    grads[i][at] += part
                owned[i] = True
                continue
            fresh = part is not gy and not np.may_share_memory(part, gy)
            if grads[i] is None:
                grads[i], owned[i] = part, fresh
            elif owned[i]:
                grads[i] += part
            elif fresh:
                part += grads[i]  # float addition commutes: same bits as grads[i] + part
                grads[i], owned[i] = part, True
            else:
                grads[i], owned[i] = grads[i] + part, True
    result = {}
    for name, node in graph.inputs.items():
        g = grads[node.idx]
        v = tape.values[node.idx]
        if v.dtype.kind in "iu":
            continue
        result[name] = np.zeros_like(v) if g is None else g
    return result
