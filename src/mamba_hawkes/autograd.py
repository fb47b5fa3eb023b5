"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation that participates in training records its parents and a
backward closure on the output tensor, through ``_node`` or, for an op
written over whole arrays with its own pullback, ``lift``;
calling ``backward`` on a scalar loss walks the recorded graph once in
reverse topological order and accumulates gradients into leaf tensors.
Graphs are built per forward pass and freed after backward. A ``Module``
lists the Parameters it holds.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class GraphError(RuntimeError):
    """The differentiation graph cannot support the requested traversal."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked by autodiff.

    Attributes:
        data: contiguous float64 ndarray (row-major).
        grad: same-shape gradient buffer, or None before any backward pass.
        requires_grad: whether gradients flow to this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        # graph edges only exist on tracked outputs; leaves stay parent-free
        self._parents = _parents if self.requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __len__(self):
        return len(self.data)

    def __getitem__(self, key):
        return take_slice(self, key)


class Parameter(Tensor):
    """A trainable leaf tensor; a Module names it by its attribute path."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self):
        return f"Parameter(shape={self.data.shape})"


class Module:
    """A holder of Parameters: its parameter list is its attributes, walked
    in the order they were assigned.

    A Parameter attribute is named by the attribute, a Module attribute adds
    its own parameters under "<attribute>.", and a list of Modules adds each
    under "<attribute>.<index>.". Other attributes are not parameters.
    """

    def named_parameters(self, prefix=""):
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                out.append((prefix + name, value))
            elif isinstance(value, Module):
                out += value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out += item.named_parameters(f"{prefix}{name}.{i}.")
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _track(*tensors):
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _binary(a, b, op):
    """Both operands as tensors, checked to broadcast against each other:
    each pair of trailing axes is equal or has a 1."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        for m, n in zip(a.shape[::-1], b.shape[::-1]):
            if m != n and m != 1 and n != 1:
                raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable")
    return a, b


def _sum_to(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data, parents, *grads):
    """The output tensor of an op on `parents`.

    When it is tracked, its backward adds `grads[i](out.grad)`, reduced to
    the parent's shape, into the gradient of each parent i that requires one.
    """
    out = Tensor(data, _track(*parents), parents)
    if out.requires_grad:
        def _bw():
            for p, grad in zip(parents, grads):
                if p.requires_grad:
                    p.grad += _sum_to(grad(out.grad), p.shape)
        out._backward = _bw
    return out


def lift(op, inputs, *args):
    """`op` run on the arrays of `inputs` (Tensors, arrays or None), as one
    graph node on the Tensors among them.

    op(*arrays, *args, pullback=p) returns (output, back), back None unless
    p; back(g) returns the gradient of each input, in order and in its
    shape, from the output's g. p is whether the node records a graph.
    """
    inputs = tuple(None if x is None else as_tensor(x) for x in inputs)
    parents = tuple(t for t in inputs if t is not None)
    track = _track(*parents)
    y, back = op(*(None if t is None else t.data for t in inputs), *args, pullback=track)
    out = Tensor(y, track, parents)
    if track:
        def _bw():
            for t, g in zip(inputs, back(out.grad)):
                if t is not None and t.requires_grad:
                    t.grad += g
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _binary(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _binary(a, b, "sub")
    return _node(a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _binary(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


def div(a, b):
    a, b = _binary(a, b, "div")
    return _node(a.data / b.data, (a, b), lambda g: g / b.data,
                 lambda g: -(g * a.data / (b.data * b.data)))


def neg(a):
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: -g)


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)
    return _node(y, (a,), lambda g: g * y)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError(f"log of non-positive value (min={float(a.data.min())})")
    return _node(np.log(a.data), (a,), lambda g: g / a.data)


def _sigmoid(x):
    # exp(min(x, 0)) / (1 + exp(-|x|)), stable in both tails: exp never sees
    # a positive argument, and runs once, since exp(min(x, 0)) is exp(-|x|)
    # where x < 0 and 1 elsewhere, which is max(exp(-|x|), x >= 0)
    e = np.abs(x, out=np.empty_like(x))     # an array even when 0-d
    np.exp(np.negative(e, out=e), out=e)
    s = np.maximum(e, x >= 0.0, out=np.empty_like(e))
    e += 1.0
    return np.divide(s, e, out=s)


def _silu_grad(g, x, s):
    """The gradient reaching x of silu(x) = x * s, s = sigmoid(x), from its g."""
    return g * s * (1.0 + x * (1.0 - s))


def silu(a):
    a = as_tensor(a)
    s = _sigmoid(a.data)
    return _node(a.data * s, (a,), lambda g: _silu_grad(g, a.data, s))


def softplus(a, beta=1.0):
    """Softplus with scale: f(x) = beta * log(1 + exp(x / beta)).

    ``beta`` may be a positive float or a broadcastable Tensor; gradients flow
    to it in the latter case.
    """
    b = as_tensor(beta)
    if np.any(b.data <= 0.0):
        raise DomainError(f"softplus scale must be positive (min={float(b.data.min())})")
    a, b = _binary(a, b, "softplus")
    u = a.data / b.data
    sp = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))  # log(1+e^u), stable
    sig = _sigmoid(u) if _track(a, b) else None
    return _node(b.data * sp, (a, b), lambda g: g * sig, lambda g: g * (sp - u * sig))


# ---------------------------------------------------------------------------
# linear algebra, reductions, shape ops


def matmul(a, b):
    """[..., k] @ [k, n] -> [..., n]: one [m, k] @ [k, n] product over the
    m rows of a, whatever its leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul needs [..., k] @ [k, n], got {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, b.shape[0])
    return _node((rows @ b.data).reshape(a.shape[:-1] + b.shape[1:]), (a, b),
                 lambda g: (g.reshape(len(rows), -1) @ b.data.T).reshape(a.shape),
                 lambda g: rows.T @ g.reshape(len(rows), -1))


def _linear(x, w):
    """x [..., k] @ w [k, n] as one [m, k] @ [k, n] product over x's m rows,
    the product `matmul` runs."""
    return (x.reshape(-1, len(w)) @ w).reshape(x.shape[:-1] + w.shape[1:])


def _linear_back(g, x, w):
    """The gradients of x and w of `_linear(x, w)` from the output's g."""
    rows, g = x.reshape(-1, len(w)), g.reshape(-1, w.shape[1])
    return (g @ w.T).reshape(x.shape), rows.T @ g


def _check_axis(axis, ndim, op):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"{op}: invalid axis {ax} for ndim {ndim}")
    return tuple(ax % ndim for ax in axes)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim, "reduce_sum")
    kept = axes is None or keepdims     # the gradient broadcasts as it is
    return _node(a.data.sum(axis=axes, keepdims=keepdims), (a,),
                 lambda g: np.broadcast_to(g if kept else np.expand_dims(g, axes), a.shape))


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    _check_axis(axis, a.ndim, "log_softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    return _node(y, (a,), lambda g: g - np.exp(y) * g.sum(axis=axis, keepdims=True))


def gather(a, indices, axis=0):
    """Select entries along an axis by a 1-D integer index vector."""
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim, "gather")
    ax = axes[0]
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be 1-D, got shape {idx.shape}")
    dim = a.shape[ax]
    if idx.size and (idx.min() < -dim or idx.max() >= dim):
        raise IndexError(f"gather: index out of range for axis {ax} of size {dim}")
    idx = idx % dim if idx.size else idx
    out = Tensor(np.take(a.data, idx, axis=ax), _track(a), (a,))
    if out.requires_grad:
        key = (slice(None),) * ax + (idx,)
        def _bw():
            np.add.at(a.grad, key, out.grad)
        out._backward = _bw
    return out


def take_slice(a, key):
    """Basic indexing (ints/slices); gradient scatters back into place."""
    a = as_tensor(a)
    data = a.data[key]
    out = Tensor(data, _track(a), (a,))
    if out.requires_grad:
        def _bw():
            a.grad[key] += out.grad
        out._backward = _bw
    return out


def reshape(a, shape):
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), lambda g: g.reshape(a.shape))


def transpose(a):
    """All axes reversed (a 2-D tensor's transpose)."""
    a = as_tensor(a)
    return _node(a.data.T, (a,), lambda g: g.T)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    axes = _check_axis(axis, tensors[0].ndim, "concat")
    ax = axes[0]
    offsets = np.cumsum([0] + [t.shape[ax] for t in tensors])
    keys = [(slice(None),) * ax + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _node(np.concatenate([t.data for t in tensors], axis=ax), tuple(tensors),
                 *(lambda g, key=key: g[key] for key in keys))


def causal_conv1d(x, kernel, bias=None, left=None, pullback=False):
    """Depthwise causal convolution over a [L, D] sequence, or over B
    sequences at once, time-major: x [L, B, D].

    out[t, ..., d] = sum_w kernel[w, d] * x[t - W + 1 + w, ..., d], zero-padded
    on the left; position t never reads inputs after t. kernel[-1] is the tap
    on the current position. The kernel and bias gradients sum over every
    leading axis.

    `left`, if given, is a [W - 1, ..., D] array of the inputs just before x,
    read instead of the zero padding and then overwritten with the last W - 1
    inputs, so that a call on the next stretch of the sequence carries on
    from it. It is a constant: no gradient reaches it.

    Returns (out, back), back None unless `pullback`: back(g) returns the
    gradients of x, kernel and bias (None without a bias).
    """
    if x.ndim not in (2, 3) or kernel.ndim != 2:
        raise ShapeError(f"causal_conv1d expects [L, D] or [L, B, D] and [W, D], "
                         f"got {x.shape}, {kernel.shape}")
    L, D = x.shape[0], x.shape[-1]
    W, Dk = kernel.shape
    if Dk != D:
        raise ShapeError(f"causal_conv1d: channel mismatch between x {x.shape} and kernel {kernel.shape}")
    if W < 1 or L < 1:
        raise ShapeError(f"causal_conv1d: empty kernel or input ({kernel.shape}, {x.shape})")
    if left is not None and left.shape != (W - 1,) + x.shape[1:]:
        raise ShapeError(f"causal_conv1d: left context must be [W - 1, ..., D]="
                         f"{(W - 1,) + x.shape[1:]}, got {left.shape}")
    xp = np.empty((L + W - 1,) + x.shape[1:])
    xp[:W - 1] = 0.0 if left is None else left
    xp[W - 1:] = x
    if left is not None:
        left[...] = xp[L:]
    out = np.multiply(kernel[0], xp[:L])
    tap = np.empty_like(out)
    for w in range(1, W):
        out += np.multiply(kernel[w], xp[w:w + L], out=tap)
    if bias is not None:
        out += bias
    if not pullback:
        return out, None

    def back(g):
        gxp = np.zeros_like(xp)
        for w in range(W):
            gxp[w:w + L] += kernel[w] * g
        gk = np.stack([(xp[w:w + L] * g).reshape(-1, D).sum(axis=0) for w in range(W)])
        return gxp[W - 1:], gk, None if bias is None else _sum_to(g, bias.shape)
    return out, back


# ---------------------------------------------------------------------------
# backward pass


def topo_order(root):
    """All reachable graph nodes, parents before children (iterative DFS)."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad and
    return the number of graph nodes walked.

    Repeated calls on fresh graphs accumulate. Each leaf that requires grad
    and has no gradient yet gets a zeros buffer before the walk, so every
    reachable Parameter ends with one. An intermediate node gets its zeros
    buffer just before the first of its children runs its backward, and the
    node drops that buffer, its parents and its backward closure right after
    its own backward has run, so the graph is freed as the walk goes.
    """
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not require grad; nothing to differentiate")
    order = topo_order(loss)
    for node in order:
        if node.requires_grad and not node._parents and node.grad is None:
            node.grad = np.zeros_like(node.data)
    # seed d(loss)/d(loss) = 1, on top of what a leaf loss already holds
    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + 1.0
    for node in reversed(order):
        if node._backward is None:
            continue
        for p in node._parents:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)
        node._backward()
        node._parents = ()
        node._backward = None
        node.grad = None
    return len(order)
