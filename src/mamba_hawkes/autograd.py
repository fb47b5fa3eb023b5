"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation that participates in training records its parents and a
backward closure on the output tensor, almost always through ``_node``;
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
    """Both operands as tensors, checked to broadcast against each other."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcastable"
        ) from None
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
        raise DomainError(f"log of non-positive value (min={a.data.min()!r})")
    return _node(np.log(a.data), (a,), lambda g: g / a.data)


def sqrt(a):
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError(f"sqrt of negative value (min={a.data.min()!r})")
    y = np.sqrt(a.data)
    return _node(y, (a,), lambda g: g * 0.5 / y)


def _sigmoid(x):
    # stable in both tails: exp never sees a positive argument
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(a):
    a = as_tensor(a)
    s = _sigmoid(a.data)
    return _node(a.data * s, (a,), lambda g: g * s * (1.0 + a.data * (1.0 - s)))


def softplus(a, beta=1.0):
    """Softplus with scale: f(x) = beta * log(1 + exp(x / beta)).

    ``beta`` may be a positive float or a broadcastable Tensor; gradients flow
    to it in the latter case.
    """
    b = as_tensor(beta)
    if np.any(b.data <= 0.0):
        raise DomainError(f"softplus scale must be positive (min={b.data.min()!r})")
    a, b = _binary(a, b, "softplus")
    u = a.data / b.data
    sp = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))  # log(1+e^u), stable
    sig = _sigmoid(u) if _track(a, b) else None
    return _node(b.data * sp, (a, b), lambda g: g * sig, lambda g: g * (sp - u * sig))


_EXPM1_SERIES_CUTOFF = 1e-4


def expm1_over_x_parts(x, exp_x=None):
    """phi(x) = (exp(x) - 1) / x and, given exp_x = exp(x), its derivative.

    Plain numpy on arrays. Both switch to a Taylor series for |x| < 1e-4,
    where the closed forms cancel. phi'(x) = (exp(x) - phi(x)) / x; it is
    returned as None when exp_x is None, so a caller that needs no gradient
    pays nothing for it.
    """
    phi = np.abs(x, out=np.empty_like(x))   # an array even when 0-d
    small = phi < _EXPM1_SERIES_CUTOFF
    xs = x[small]
    safe = np.where(small, 1.0, x) if xs.size else x
    np.expm1(safe, out=phi)
    phi /= safe
    phi[small] = 1.0 + xs / 2.0 + xs * xs / 6.0
    if exp_x is None:
        return phi, None
    slope = np.subtract(exp_x, phi, out=np.empty_like(phi))
    slope /= safe
    slope[small] = 0.5 + xs / 3.0 + xs * xs / 8.0
    return phi, slope


# ---------------------------------------------------------------------------
# linear algebra, reductions, shape ops


def matmul(a, b):
    """[m, k] @ [k, n] -> [m, n]; both operands must be 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m, k] @ [k, n], got {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def _check_axis(axis, ndim, op):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"{op}: invalid axis {ax} for ndim {ndim}")
    return tuple(ax % ndim for ax in axes)


def _unreduce(g, axes, keepdims):
    """A reduction's output gradient with the reduced axes put back."""
    return g if axes is None or keepdims else np.expand_dims(g, axes)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim, "reduce_sum")
    return _node(a.data.sum(axis=axes, keepdims=keepdims), (a,),
                 lambda g: np.broadcast_to(_unreduce(g, axes, keepdims), a.shape))


def reduce_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim, "reduce_mean")
    n = a.size if axes is None else int(np.prod([a.shape[ax] for ax in axes]))
    return _node(a.data.mean(axis=axes, keepdims=keepdims), (a,),
                 lambda g: np.broadcast_to(_unreduce(g, axes, keepdims) / n, a.shape))


def softmax(a, axis=-1):
    a = as_tensor(a)
    _check_axis(axis, a.ndim, "softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _node(s, (a,), lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)))


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


def causal_conv1d(x, kernel, bias=None, left=None):
    """Depthwise causal convolution over a [L, D] sequence.

    out[t, d] = sum_w kernel[w, d] * x[t - W + 1 + w, d], zero-padded on the
    left; position t never reads inputs after t. kernel[-1] is the tap on the
    current position.

    `left`, if given, is a [W - 1, D] array of the inputs just before x, read
    instead of the zero padding and then overwritten with the last W - 1
    inputs, so that a call on the next stretch of the sequence carries on
    from it. It is a constant: no gradient reaches it.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 2 or kernel.ndim != 2:
        raise ShapeError(f"causal_conv1d expects [L, D] and [W, D], got {x.shape}, {kernel.shape}")
    L, D = x.shape
    W, Dk = kernel.shape
    if Dk != D:
        raise ShapeError(f"causal_conv1d: channel mismatch between x {x.shape} and kernel {kernel.shape}")
    if W < 1 or L < 1:
        raise ShapeError(f"causal_conv1d: empty kernel or input ({kernel.shape}, {x.shape})")
    b = as_tensor(bias) if bias is not None else None
    if left is None:
        xp = np.pad(x.data, ((W - 1, 0), (0, 0)))
    elif left.shape != (W - 1, D):
        raise ShapeError(f"causal_conv1d: left context must be [W - 1, D]={W - 1, D}, "
                         f"got {left.shape}")
    else:
        xp = np.concatenate([left, x.data])
        left[...] = xp[L:]
    data = np.zeros((L, D))
    for w in range(W):
        data += kernel.data[w] * xp[w:w + L]
    if b is not None:
        data = data + b.data

    def grad_x(g):
        gxp = np.zeros_like(xp)
        for w in range(W):
            gxp[w:w + L] += kernel.data[w] * g
        return gxp[W - 1:]
    parents = (x, kernel) if b is None else (x, kernel, b)
    return _node(data, parents, grad_x,
                 lambda g: np.stack([(xp[w:w + L] * g).sum(axis=0) for w in range(W)]),
                 lambda g: g)


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
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad.

    Repeated calls on fresh graphs accumulate. The graph is freed afterwards:
    every intermediate node drops its parents, backward closure and gradient.
    """
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not require grad; nothing to differentiate")
    order = topo_order(loss)
    for node in order:
        if node.requires_grad and node.grad is None:
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    for node in order:
        if node._parents:
            node._parents = ()
            node._backward = None
            node.grad = None
