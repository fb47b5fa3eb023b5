"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation that participates in training records its parents and a
backward closure on the output tensor; calling ``backward`` on a scalar loss
walks the recorded graph once in reverse topological order and accumulates
gradients into leaf tensors. Graphs are built per forward pass and freed
after backward.
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

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        # graph edges only exist on tracked outputs; leaves stay parent-free
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward

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

    def backward(self, free_graph=True):
        backward(self, free_graph=free_graph)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __len__(self):
        return len(self.data)

    def __getitem__(self, key):
        return take_slice(self, key)


class Parameter(Tensor):
    """A trainable leaf tensor with a dotted path name (e.g. "layers.0.A_log")."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _track(*tensors):
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _check_broadcast(a_shape, b_shape, op):
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a_shape} and {b_shape} are not broadcastable"
        ) from None


def _sum_to(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape, "add")
    out = Tensor(a.data + b.data, _track(a, b), (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a.grad += _sum_to(out.grad, a.shape)
            if b.requires_grad:
                b.grad += _sum_to(out.grad, b.shape)
        out._backward = _bw
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape, "sub")
    out = Tensor(a.data - b.data, _track(a, b), (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a.grad += _sum_to(out.grad, a.shape)
            if b.requires_grad:
                b.grad -= _sum_to(out.grad, b.shape)
        out._backward = _bw
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape, "mul")
    out = Tensor(a.data * b.data, _track(a, b), (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a.grad += _sum_to(out.grad * b.data, a.shape)
            if b.requires_grad:
                b.grad += _sum_to(out.grad * a.data, b.shape)
        out._backward = _bw
    return out


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape, "div")
    out = Tensor(a.data / b.data, _track(a, b), (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a.grad += _sum_to(out.grad / b.data, a.shape)
            if b.requires_grad:
                b.grad -= _sum_to(out.grad * a.data / (b.data * b.data), b.shape)
        out._backward = _bw
    return out


def neg(a):
    a = as_tensor(a)
    out = Tensor(-a.data, _track(a), (a,))
    if out.requires_grad:
        def _bw():
            a.grad -= out.grad
        out._backward = _bw
    return out


def exp(a):
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), _track(a), (a,))
    if out.requires_grad:
        y = out.data
        def _bw():
            a.grad += out.grad * y
        out._backward = _bw
    return out


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError(f"log of non-positive value (min={a.data.min()!r})")
    out = Tensor(np.log(a.data), _track(a), (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad / a.data
        out._backward = _bw
    return out


def sqrt(a):
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError(f"sqrt of negative value (min={a.data.min()!r})")
    out = Tensor(np.sqrt(a.data), _track(a), (a,))
    if out.requires_grad:
        y = out.data
        def _bw():
            a.grad += out.grad * 0.5 / y
        out._backward = _bw
    return out


def _sigmoid(x):
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(a):
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out = Tensor(a.data * s, _track(a), (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad * s * (1.0 + a.data * (1.0 - s))
        out._backward = _bw
    return out


def softplus(a, beta=1.0):
    """Softplus with scale: f(x) = beta * log(1 + exp(x / beta)).

    ``beta`` may be a positive float or a broadcastable Tensor; gradients flow
    to it in the latter case.
    """
    a = as_tensor(a)
    b = as_tensor(beta)
    if np.any(b.data <= 0.0):
        raise DomainError(f"softplus scale must be positive (min={b.data.min()!r})")
    _check_broadcast(a.shape, b.shape, "softplus")
    u = a.data / b.data
    sp = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))  # log(1+e^u), stable
    out = Tensor(b.data * sp, _track(a, b), (a, b))
    if out.requires_grad:
        sig = _sigmoid(u)
        def _bw():
            if a.requires_grad:
                a.grad += _sum_to(out.grad * sig, a.shape)
            if b.requires_grad:
                b.grad += _sum_to(out.grad * (sp - u * sig), b.shape)
        out._backward = _bw
    return out


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
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError(f"matmul requires arrays, got shapes {a.shape} and {b.shape}")
    a_vec, b_vec = a.ndim == 1, b.ndim == 1
    A = a.data[None, :] if a_vec else a.data
    B = b.data[:, None] if b_vec else b.data
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} @ {b.shape}")
    try:
        prod = A @ B
    except ValueError:
        raise ShapeError(
            f"matmul: batch dimensions not broadcastable for {a.shape} @ {b.shape}"
        ) from None
    data = prod
    if b_vec:
        data = data[..., 0]
    if a_vec:
        data = data[..., 0, :] if not b_vec else data[..., 0]
    out = Tensor(data, _track(a, b), (a, b))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if a_vec and b_vec:
                g = g[..., None, None]
            elif a_vec:
                g = g[..., None, :]
            elif b_vec:
                g = g[..., None]
            if a.requires_grad:
                ga = g @ np.swapaxes(B, -1, -2)
                if a_vec:
                    ga = ga[..., 0, :]
                a.grad += _sum_to(ga, a.shape)
            if b.requires_grad:
                gb = np.swapaxes(A, -1, -2) @ g
                if b_vec:
                    gb = gb[..., 0]
                b.grad += _sum_to(gb, b.shape)
        out._backward = _bw
    return out


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
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims), _track(a), (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if axes is not None and not keepdims:
                g = np.expand_dims(g, axes)
            a.grad += np.broadcast_to(g, a.shape)
        out._backward = _bw
    return out


def reduce_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim, "reduce_mean")
    out = Tensor(a.data.mean(axis=axes, keepdims=keepdims), _track(a), (a,))
    if out.requires_grad:
        n = a.size if axes is None else int(np.prod([a.shape[ax] for ax in axes]))
        def _bw():
            g = out.grad
            if axes is not None and not keepdims:
                g = np.expand_dims(g, axes)
            a.grad += np.broadcast_to(g / n, a.shape)
        out._backward = _bw
    return out


def softmax(a, axis=-1):
    a = as_tensor(a)
    _check_axis(axis, a.ndim, "softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s, _track(a), (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad
            a.grad += s * (g - (g * s).sum(axis=axis, keepdims=True))
        out._backward = _bw
    return out


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    _check_axis(axis, a.ndim, "log_softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor(shifted - lse, _track(a), (a,))
    if out.requires_grad:
        s = np.exp(out.data)
        def _bw():
            g = out.grad
            a.grad += g - s * g.sum(axis=axis, keepdims=True)
        out._backward = _bw
    return out


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
    out = Tensor(a.data.reshape(shape), _track(a), (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad.reshape(a.shape)
        out._backward = _bw
    return out


def transpose(a, axes=None):
    a = as_tensor(a)
    out = Tensor(np.transpose(a.data, axes), _track(a), (a,))
    if out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        def _bw():
            a.grad += np.transpose(out.grad, inv)
        out._backward = _bw
    return out


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    axes = _check_axis(axis, tensors[0].ndim, "concat")
    ax = axes[0]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax),
                 _track(*tensors), tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[ax] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    key = (slice(None),) * ax + (slice(lo, hi),)
                    t.grad += out.grad[key]
        out._backward = _bw
    return out


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
    parents = (x, kernel) if b is None else (x, kernel, b)
    out = Tensor(data, _track(*parents), parents)
    if out.requires_grad:
        def _bw():
            g = out.grad
            if x.requires_grad:
                gxp = np.zeros_like(xp)
                for w in range(W):
                    gxp[w:w + L] += kernel.data[w] * g
                x.grad += gxp[W - 1:]
            if kernel.requires_grad:
                for w in range(W):
                    kernel.grad[w] += (xp[w:w + L] * g).sum(axis=0)
            if b is not None and b.requires_grad:
                b.grad += _sum_to(g, b.shape)
        out._backward = _bw
    return out


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


def backward(loss, free_graph=True):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad.

    Repeated calls on fresh graphs accumulate; intermediate nodes are freed
    afterwards unless free_graph is False.
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
    if free_graph:
        for node in order:
            if node._parents:
                node._parents = ()
                node._backward = None
                node.grad = None
