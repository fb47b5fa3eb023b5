import itertools

import numpy as np
import pytest

from helpers import (check_param_grads, expm1_over_x, numeric_grad, rel_err,
                     two_branch_sigmoid)
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import (DomainError, GraphError, Parameter,
                                   ShapeError, Tensor)


def test_softplus_with_scale_at_zero():
    out = ag.softplus(Tensor(np.zeros(3)), 1.0)
    np.testing.assert_allclose(out.data, np.log(2.0), rtol=1e-15)


def test_softplus_scale_changes_value():
    # f(x) = beta*log(1+exp(x/beta)); at x=0 equals beta*log 2
    out = ag.softplus(Tensor(np.array([0.0])), 2.5)
    np.testing.assert_allclose(out.data, 2.5 * np.log(2.0), rtol=1e-15)


def test_exp_of_zero_tensor_is_ones():
    out = ag.exp(Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, np.ones((2, 3)))


def test_softplus_gradient_at_zero_matches_fd():
    p = Parameter(np.zeros(1))
    ag.backward(ag.reduce_sum(ag.softplus(p)))
    fd = numeric_grad(lambda x: float(np.log1p(np.exp(x[0]))), np.zeros(1), h=1e-5)
    assert abs(p.grad[0] - 0.5) / 0.5 < 1e-6
    assert abs(p.grad[0] - fd[0]) / abs(fd[0]) < 1e-6


def test_matmul_identity():
    v = np.array([[3.0], [-1.0], [2.0]])
    out = ag.matmul(Tensor(np.eye(3)), Tensor(v))
    np.testing.assert_array_equal(out.data, v)


def test_matmul_hand_computed():
    out = ag.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_gradient_matches_fd():
    rng = np.random.default_rng(0)
    A = Parameter(rng.normal(size=(3, 4)))
    B = Parameter(rng.normal(size=(4, 2)))
    errs = check_param_grads(lambda: ag.reduce_sum(ag.matmul(A, B)), [A, B])
    assert max(errs.values()) < 1e-4


def test_matmul_shape_errors():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_symmetry():
    out = ag.softmax(Tensor(np.zeros(3)), axis=0)
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    out = ag.softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(3)
    x = Parameter(rng.normal(size=(4, 5)))
    w = rng.normal(size=(4, 5))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.softmax(x, axis=1), w)), [x])
    assert max(errs.values()) < 1e-4


def test_log_softmax_gradient_matches_fd():
    rng = np.random.default_rng(4)
    x = Parameter(rng.normal(size=(3, 6)))
    w = rng.normal(size=(3, 6))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.log_softmax(x, axis=1), w)), [x])
    assert max(errs.values()) < 1e-4


def test_reduce_sum_hand_computed():
    out = ag.reduce_sum(Tensor(np.ones((2, 3))), axis=1)
    np.testing.assert_array_equal(out.data, [3.0, 3.0])


def test_reduce_sum_backward_broadcasts():
    p = Parameter(np.ones((2, 3)))
    ag.backward(ag.reduce_sum(ag.mul(ag.reduce_sum(p, axis=1), np.array([2.0, 5.0]))))
    np.testing.assert_array_equal(p.grad, [[2.0] * 3, [5.0] * 3])


def test_reduce_mean_gradient():
    rng = np.random.default_rng(5)
    x = Parameter(rng.normal(size=(3, 4)))
    errs = check_param_grads(lambda: ag.reduce_mean(ag.mul(x, x)), [x])
    assert max(errs.values()) < 1e-4


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "neg", "exp", "log",
                                  "silu", "softplus", "sqrt", "expm1_over_x"])
def test_elementwise_gradients_match_fd(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    raw = rng.normal(size=(3, 4))
    if name in ("log", "sqrt"):
        raw = np.exp(raw)  # keep inputs in the domain
    x = Parameter(raw.copy())
    other = Parameter(np.exp(rng.normal(size=raw.shape)))
    w = rng.normal(size=raw.shape)

    def make_loss():
        if name in ("add", "sub", "mul", "div"):
            out = getattr(ag, name)(x, other)
        elif name == "softplus":
            out = ag.softplus(x, other)  # gradient w.r.t. the scale too
        elif name == "expm1_over_x":
            out = expm1_over_x(x)  # the test op over ag.expm1_over_x_parts
        else:
            out = getattr(ag, name)(x)
        return ag.reduce_sum(ag.mul(out, w))

    params = [x, other] if name in ("add", "sub", "mul", "div", "softplus") else [x]
    errs = check_param_grads(make_loss, params)
    assert max(errs.values()) < 1e-4, errs


def _all_shapes(max_rank=3, dims=(1, 2, 3, 4)):
    shapes = [()]
    for rank in range(1, max_rank + 1):
        shapes.extend(itertools.product(dims, repeat=rank))
    return shapes


def _unbroadcast_oracle(g, shape):
    # independent reduction: materialize and sum over expanded axes explicitly
    out = np.zeros(shape)
    for idx in np.ndindex(*g.shape):
        src = tuple(0 if (len(shape) > d - (g.ndim - len(shape)) >= 0 and
                          shape[d - (g.ndim - len(shape))] == 1) else idx[d]
                    for d in range(g.ndim))
        reduced = src[g.ndim - len(shape):]
        out[reduced] += g[idx]
    return out


def test_broadcast_agrees_with_materialized_oracle():
    shapes = _all_shapes()
    rng = np.random.default_rng(7)
    pairs = []
    for sa, sb in itertools.product(shapes, shapes):
        try:
            np.broadcast_shapes(sa, sb)
        except ValueError:
            continue
        pairs.append((sa, sb))
    for sa, sb in pairs:
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        out_shape = np.broadcast_shapes(sa, sb)
        expect_add = np.broadcast_to(a, out_shape) + np.broadcast_to(b, out_shape)
        expect_mul = np.broadcast_to(a, out_shape) * np.broadcast_to(b, out_shape)
        np.testing.assert_array_equal(ag.add(Tensor(a), Tensor(b)).data, expect_add)
        np.testing.assert_array_equal(ag.mul(Tensor(a), Tensor(b)).data, expect_mul)


def test_broadcast_gradient_reduction_matches_oracle():
    rng = np.random.default_rng(8)
    cases = [((), (2, 3)), ((3,), (2, 3)), ((1, 3), (2, 3)), ((2, 1), (2, 3)),
             ((4, 1, 3), (4, 2, 3)), ((1,), (4, 2, 3)), ((2, 3), (2, 3))]
    for sa, sb in cases:
        a = Parameter(rng.normal(size=sa))
        b = Tensor(rng.normal(size=sb))
        w = rng.normal(size=np.broadcast_shapes(sa, sb))
        a.zero_grad()
        ag.backward(ag.reduce_sum(ag.mul(ag.mul(a, b), w)))
        oracle = _unbroadcast_oracle(np.broadcast_to(b.data, w.shape) * w, sa)
        np.testing.assert_allclose(a.grad, oracle, atol=1e-12)


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
    x = np.concatenate([rng.normal(0.0, 10.0, 5000), rng.normal(0.0, 1000.0, 500), special])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = ag._sigmoid(x), two_branch_sigmoid(x)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)   # a NaN's sign bit carries nothing
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert got.shape == x.shape and ag._sigmoid(np.zeros((2, 3))).shape == (2, 3)


def test_shape_mismatch_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        ag.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_log_domain_error():
    with pytest.raises(DomainError, match="non-positive"):
        ag.log(Tensor(np.array([1.0, 0.0])))


def test_invalid_axis_error():
    with pytest.raises(ShapeError, match="invalid axis"):
        ag.reduce_sum(Tensor(np.ones((2, 3))), axis=2)


def test_gather_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        ag.gather(Tensor(np.ones((2, 3))), [0, 3], axis=1)


def test_gather_gradient_accumulates_repeats():
    p = Parameter(np.arange(6.0).reshape(2, 3))
    ag.backward(ag.reduce_sum(ag.gather(p, [1, 1, 0], axis=1)))
    np.testing.assert_array_equal(p.grad, [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])


def test_backward_sum_gives_ones():
    p = Parameter(np.array([1.0, 2.0, 3.0]))
    ag.backward(ag.reduce_sum(p))
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_square():
    p = Parameter(np.array([1.0, 2.0]))
    ag.backward(ag.reduce_sum(ag.mul(p, p)))
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_nonscalar_loss_error():
    p = Parameter(np.ones(3))
    with pytest.raises(GraphError, match="scalar"):
        ag.backward(ag.mul(p, p))


def test_double_consumption_sums_contributions():
    p = Parameter(np.array([2.0]))
    q = Tensor(np.array([5.0]))
    # p appears twice: once multiplied with q, once alone
    ag.backward(ag.reduce_sum(ag.add(ag.mul(p, q), p)))
    np.testing.assert_array_equal(p.grad, [6.0])


def test_backward_accumulates_across_calls():
    p = Parameter(np.array([1.0, 2.0]))
    ag.backward(ag.reduce_sum(ag.mul(p, p)))
    first = p.grad.copy()
    ag.backward(ag.reduce_sum(ag.mul(p, p)))
    np.testing.assert_array_equal(p.grad, 2 * first)


def test_no_grad_blocks_recording():
    p = Parameter(np.ones(2))
    with ag.no_grad():
        out = ag.mul(p, p)
    assert not out.requires_grad
    assert out._parents == ()


def test_slice_concat_reshape_transpose_gradients():
    rng = np.random.default_rng(9)
    x = Parameter(rng.normal(size=(4, 3)))

    def make_loss():
        top = x[:2]
        bottom = x[2:]
        rebuilt = ag.concat([bottom, top], axis=0)
        flipped = ag.transpose(rebuilt)
        return ag.reduce_sum(ag.mul(ag.reshape(flipped, (-1,)),
                                    np.arange(flipped.size, dtype=float)))

    errs = check_param_grads(make_loss, [x])
    assert max(errs.values()) < 1e-4


def test_causal_conv_identity_tap():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(6, 3)))
    k = np.zeros((4, 3))
    k[-1] = 1.0
    out = ag.causal_conv1d(x, Tensor(k))
    np.testing.assert_array_equal(out.data, x.data)


def test_causal_conv_hand_computed():
    out = ag.causal_conv1d(Tensor(np.array([[1.0], [2.0], [3.0]])),
                           Tensor(np.array([[1.0], [1.0]])))
    np.testing.assert_array_equal(out.data, [[1.0], [3.0], [5.0]])


def test_causal_conv_causality_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 2))
    k = Tensor(rng.normal(size=(4, 2)))
    base = ag.causal_conv1d(Tensor(x), k).data
    for t in range(8):
        bumped = x.copy()
        bumped[t] += 1.0
        out = ag.causal_conv1d(Tensor(bumped), k).data
        assert np.array_equal(out[:t], base[:t])
        assert not np.array_equal(out[t], base[t])


def test_causal_conv_gradients_match_fd():
    rng = np.random.default_rng(12)
    x = Parameter(rng.normal(size=(5, 3)))
    k = Parameter(rng.normal(size=(3, 3)))
    b = Parameter(rng.normal(size=3))
    w = rng.normal(size=(5, 3))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.causal_conv1d(x, k, b), w)), [x, k, b])
    assert max(errs.values()) < 1e-4


def test_expm1_over_x_series_branch_continuity():
    cutoff = 1e-4
    for sign in (1.0, -1.0):
        u = np.array([sign * cutoff * (1 - 1e-9), sign * cutoff * (1 + 1e-9)])
        vals, slope = ag.expm1_over_x_parts(u, np.exp(u))
        exact = np.expm1(u) / u
        assert np.max(np.abs(vals / exact - 1.0)) < 1e-10
        exact_slope = (u * np.exp(u) - np.expm1(u)) / (u * u)
        assert np.max(np.abs(slope / exact_slope - 1.0)) < 1e-8


def test_parameter_is_leaf():
    p = Parameter(np.ones(2))
    assert p._parents == ()
    assert p.requires_grad


@pytest.mark.parametrize("W", [1, 2, 4])
def test_causal_conv_left_context_carries_across_calls(W):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(9, 3))
    k, b = Tensor(rng.normal(size=(W, 3))), Tensor(rng.normal(size=3))
    whole = ag.causal_conv1d(Tensor(x), k, b).data
    left = np.zeros((W - 1, 3))
    parts = [ag.causal_conv1d(Tensor(x[lo:hi]), k, b, left=left).data
             for lo, hi in ((0, 1), (1, 6), (6, 9))]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    np.testing.assert_array_equal(left, x[9 - (W - 1):])
    with pytest.raises(ag.ShapeError, match="left context"):
        ag.causal_conv1d(Tensor(x), k, b, left=np.zeros((W, 3)))
