import itertools
import zlib

import numpy as np
import pytest

from helpers import (check_param_grads, expm1_over_x, expm1_over_x_parts,
                     numeric_grad, rel_err, time_major, two_branch_sigmoid)
from mamba_hawkes import autograd as ag
from mamba_hawkes.autograd import (DomainError, GraphError, Parameter,
                                   ShapeError, Tensor)
from mamba_hawkes import hybrid, ssm
from mamba_hawkes.model import IntensityHead
from mamba_hawkes.ssm import selective_scan


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


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "neg", "exp", "log",
                                  "silu", "softplus", "expm1_over_x"])
def test_elementwise_gradients_match_fd(name):
    # a fixed seed per name: str hashes change from one process to the next
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    raw = rng.normal(size=(3, 4))
    if name == "log":
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
            out = expm1_over_x(x)  # the test op over helpers.expm1_over_x_parts
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


def test_domain_errors_print_the_minimum_as_a_plain_float():
    # numpy 2 reprs a scalar as np.float64(...); the message shows the number
    head = IntensityHead(2, 3, np.random.default_rng(0))
    head.log_beta.data[:] = -800.0     # beta underflows to 0
    calls = [lambda: ag.log(Tensor(np.array([1.0, 0.0]))),
             lambda: ag.softplus(Tensor(np.ones(2)), Tensor(np.array([1.0, 0.0]))),
             lambda: head.integral(np.ones(2), Tensor(np.zeros((2, 2)))),
             lambda: selective_scan(np.ones((2, 1)), -np.ones((1, 1)), np.ones((2, 1)),
                                    np.ones((2, 1)), None, np.array([0.5, -0.25]))]
    for call, low in zip(calls, ("0.0", "0.0", "0.0", "-0.25")):
        with pytest.raises(DomainError) as err:
            call()
        assert "np.float64" not in str(err.value) and f"(min={low})" in str(err.value)


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


def test_backward_returns_the_nodes_walked():
    p = Parameter(np.array([1.0, 2.0]))
    loss = ag.reduce_sum(ag.mul(p, Tensor(np.array([3.0, 4.0]))))
    assert ag.backward(loss) == 4  # p, the constant, mul and reduce_sum


def test_zero_gradient_parameter_still_gets_a_buffer():
    p = Parameter(np.ones((2, 3)))
    q = Parameter(np.ones(2))
    ag.backward(ag.add(ag.reduce_sum(ag.mul(p, Tensor(np.zeros((2, 3))))),
                       ag.reduce_sum(q)))
    np.testing.assert_array_equal(p.grad, np.zeros((2, 3)))
    np.testing.assert_array_equal(q.grad, np.ones(2))


def test_shared_intermediate_accumulates_every_child():
    p = Parameter(np.array([0.5, -1.0]))
    y = ag.exp(p)
    twice = ag.add(y, y)  # a reused subexpression: two more children of y
    ag.backward(ag.reduce_sum(ag.add(ag.mul(y, y), twice)))
    e = np.exp(p.data)
    np.testing.assert_allclose(p.grad, 2.0 * e * e + 2.0 * e, rtol=1e-15)


def test_backward_frees_every_intermediate():
    p = Parameter(np.array([1.0, 2.0]))
    c = Tensor(np.array([3.0, 4.0]))
    loss = ag.reduce_sum(ag.mul(ag.exp(p), ag.add(p, c)))
    order = ag.topo_order(loss)
    ag.backward(loss)
    inner = [n for n in order if n is not p and n is not c]
    assert len(inner) == 4
    for node in inner:
        assert node.grad is None and node._parents == () and node._backward is None
    assert p.grad is not None and c.grad is None


def test_backward_accumulates_across_fresh_graphs_through_intermediates():
    p = Parameter(np.array([1.0, 2.0]))
    q = Parameter(np.array([3.0]))
    ag.backward(ag.reduce_sum(ag.mul(ag.exp(p), q)))
    first_p, first_q = p.grad.copy(), q.grad.copy()
    ag.backward(ag.reduce_sum(ag.exp(p)))  # q is not in this graph
    np.testing.assert_array_equal(p.grad, first_p + np.exp(p.data))
    np.testing.assert_array_equal(q.grad, first_q)


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
    x = rng.normal(size=(6, 3))
    k = np.zeros((4, 3))
    k[-1] = 1.0
    out = ag.causal_conv1d(x, k)[0]
    np.testing.assert_array_equal(out, x)


def test_causal_conv_hand_computed():
    out = ag.causal_conv1d(np.array([[1.0], [2.0], [3.0]]), np.array([[1.0], [1.0]]))[0]
    np.testing.assert_array_equal(out, [[1.0], [3.0], [5.0]])


def test_causal_conv_causality_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 2))
    k = rng.normal(size=(4, 2))
    base = ag.causal_conv1d(x, k)[0]
    for t in range(8):
        bumped = x.copy()
        bumped[t] += 1.0
        out = ag.causal_conv1d(bumped, k)[0]
        assert np.array_equal(out[:t], base[:t])
        assert not np.array_equal(out[t], base[t])


def test_causal_conv_gradients_match_fd():
    rng = np.random.default_rng(12)
    x = Parameter(rng.normal(size=(5, 3)))
    k = Parameter(rng.normal(size=(3, 3)))
    b = Parameter(rng.normal(size=3))
    w = rng.normal(size=(5, 3))
    errs = check_param_grads(
        lambda: ag.reduce_sum(ag.mul(ag.lift(ag.causal_conv1d, (x, k, b)), w)), [x, k, b])
    assert max(errs.values()) < 1e-4


def test_expm1_over_x_series_branch_continuity():
    cutoff = 1e-4
    for sign in (1.0, -1.0):
        u = np.array([sign * cutoff * (1 - 1e-9), sign * cutoff * (1 + 1e-9)])
        vals, slope = expm1_over_x_parts(u, np.exp(u))
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
    k, b = rng.normal(size=(W, 3)), rng.normal(size=3)
    whole = ag.causal_conv1d(x, k, b)[0]
    left = np.zeros((W - 1, 3))
    parts = [ag.causal_conv1d(x[lo:hi], k, b, left=left)[0]
             for lo, hi in ((0, 1), (1, 6), (6, 9))]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    np.testing.assert_array_equal(left, x[9 - (W - 1):])
    with pytest.raises(ag.ShapeError, match="left context"):
        ag.causal_conv1d(x, k, b, left=np.zeros((W, 3)))


@pytest.mark.parametrize("W", [1, 4])
def test_causal_conv_batch_axis_equals_per_sequence_calls(W):
    # ragged sequences time-major, [L, B, D], give each sequence's outputs
    # bit for bit whatever fills the padding; a carried left context works
    # per sequence too
    rng = np.random.default_rng(14)
    lengths, D = (6, 1, 9, 3), 3
    L, B = max(lengths), len(lengths)
    k, b = rng.normal(size=(W, D)), rng.normal(size=D)
    seqs = [rng.normal(size=(n, D)) for n in lengths]
    want = [ag.causal_conv1d(x, k, b)[0] for x in seqs]
    for scale in (1.0, 1e6):
        x = scale * rng.normal(size=(L, B, D))
        for j, s in enumerate(seqs):
            x[:len(s), j] = s
        out = ag.causal_conv1d(x, k, b)[0]
        assert out.shape == (L, B, D)
        for j, n in enumerate(lengths):
            assert np.array_equal(out[:n, j], want[j])
    left = np.zeros((W - 1, B, D))
    parts = [ag.causal_conv1d(x[lo:hi], k, b, left=left)[0] for lo, hi in ((0, 2), (2, L))]
    np.testing.assert_array_equal(np.concatenate(parts), ag.causal_conv1d(x, k, b)[0])


def test_causal_conv_batch_axis_gradients_match_fd_and_per_sequence_calls():
    # ragged B = 3, time-major: x gets each sequence's own gradient (none on
    # padding), and the kernel and bias the sum of the sequences'
    rng = np.random.default_rng(15)
    lengths, D, W = (5, 2, 4), 3, 3
    L, B = max(lengths), len(lengths)
    seqs = [rng.normal(size=(n, D)) for n in lengths]
    ws = [rng.normal(size=(n, D)) for n in lengths]
    x = Parameter(time_major(seqs, L, rng.normal(size=(L, B, D))))
    w = time_major(ws, L, np.zeros((L, B, D)))
    k, b = Parameter(rng.normal(size=(W, D))), Parameter(rng.normal(size=D))
    errs = check_param_grads(lambda: ag.reduce_sum(ag.mul(ag.lift(ag.causal_conv1d, (x, k, b)), w)),
                             [x, k, b])
    assert max(errs.values()) < 1e-6, errs
    alone = []
    for s, wj in zip(seqs, ws):
        one = [Parameter(s.copy()), Parameter(k.data.copy()), Parameter(b.data.copy())]
        ag.backward(ag.reduce_sum(ag.mul(ag.lift(ag.causal_conv1d, one), wj)))
        alone.append([p.grad for p in one])
    assert rel_err(x.grad, time_major([g[0] for g in alone], L, np.zeros(x.shape))) < 1e-12
    assert rel_err(k.grad, sum(g[1] for g in alone)) < 1e-12
    assert rel_err(b.grad, sum(g[2] for g in alone)) < 1e-12


def test_add_names_shapes_that_do_not_broadcast():
    # equal shapes and 0-d operands skip the check; these still reach it
    with pytest.raises(ShapeError, match=r"^add: shapes \(2, 3\) and \(4,\) are not broadcastable$"):
        ag.add(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ShapeError, match=r"^add: shapes \(2, 3\) and \(3, 3\) are not broadcastable$"):
        ag.add(np.ones((2, 3)), np.ones((3, 3)))
    # the check on trailing axes refuses exactly the pairs numpy refuses
    for sa, sb in itertools.product(_all_shapes(), _all_shapes()):
        try:
            np.broadcast_shapes(sa, sb)
        except ValueError:
            with pytest.raises(ShapeError, match="are not broadcastable"):
                ag.mul(np.ones(sa), np.ones(sb))


# -- lift: the one way an array op becomes a graph node ----------------------


def affine(x, w, b, calls=None, pullback=False):
    """x * w (+ b) in the array ops' convention, recording each `pullback`
    it is asked for in `calls`."""
    if calls is not None:
        calls.append(pullback)
    out = x * w if b is None else x * w + b
    if not pullback:
        return out, None
    return out, lambda g: (g * w, g * x, None if b is None else g)


def test_lift_gives_a_none_input_no_gradient():
    x, w = Parameter(np.array([1.0, 2.0])), Parameter(np.array([3.0, -1.0]))
    out = ag.lift(affine, (x, w, None))
    assert out._parents == (x, w)
    ag.backward(ag.reduce_sum(out))
    assert np.array_equal(x.grad, w.data) and np.array_equal(w.grad, x.data)


def test_lift_leaves_an_untracked_tensor_without_a_gradient():
    x, w = Parameter(np.array([1.0, 2.0])), Tensor(np.array([3.0, -1.0]))
    ag.backward(ag.reduce_sum(ag.lift(affine, (x, w, None))))
    assert w.grad is None and np.array_equal(x.grad, w.data)


def test_lift_adds_both_gradients_of_a_tensor_passed_twice():
    x = Parameter(np.array([1.5, -2.0]))
    ag.backward(ag.reduce_sum(ag.lift(affine, (x, x, np.ones(2)))))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_lift_asks_for_no_pullback_when_nothing_records():
    x, w, calls = Parameter(np.ones(2)), Parameter(np.ones(2)), []
    with ag.no_grad():
        out = ag.lift(affine, (x, w, None), calls)
    assert calls == [False] and out._parents == () and not out.requires_grad
    ag.lift(affine, (Tensor(np.ones(2)), np.ones(2), None), calls)
    ag.lift(affine, (x, w, None), calls)
    assert calls == [False, False, True]


LIFTED_OPS = ("rms_norm", "causal_conv1d", "selective_scan", "multi_head_attention",
              "mamba_block", "attention_block")


def lifted_op(name):
    """(op, inputs, constants) of the array op `name` that `lift` takes,
    with every optional input given."""
    rng = np.random.default_rng(16)
    L, B, D, N = 5, 2, 3, 4
    mamba = ssm.MambaBlock(d_model=4, d_state=2, d_conv=3, expand=2, rng=rng)
    attn = hybrid.AttentionBlock(d_model=4, n_heads=2, ff_dim=6, rng=rng)
    return dict(
        rms_norm=(ssm.rms_norm, (rng.normal(size=(L, D)), rng.normal(size=D)), ()),
        causal_conv1d=(ag.causal_conv1d, (rng.normal(size=(L, B, D)), rng.normal(size=(3, D)),
                            rng.normal(size=D)), ()),
        selective_scan=(selective_scan, (rng.normal(size=(L, B, D)),
                                         -np.exp(rng.normal(size=(D, N))),
                                         rng.normal(size=(L, B, N)), rng.normal(size=(L, B, N)),
                                         rng.normal(size=D)),
                        (rng.uniform(0.1, 1.0, size=(L, B)),)),
        multi_head_attention=(hybrid.multi_head_attention,
                              (rng.normal(size=(L, 4)), rng.normal(size=(L + 2, 4)),
                               rng.normal(size=(L + 2, 4))), (2, 2)),
        mamba_block=(ssm.mamba_block,
                     (rng.normal(size=(L, B, 4)), *(p.data for p in mamba.parameters())),
                     (rng.uniform(0.1, 1.0, size=(L, B)),)),
        attention_block=(hybrid.attention_block,
                         (rng.normal(size=(L, 4)), *(p.data for p in attn.parameters())), (2,)),
    )[name]


@pytest.mark.parametrize("name", LIFTED_OPS)
def test_every_lifted_op_returns_one_gradient_per_input_in_its_shape(name):
    # lift zips the inputs with back's gradients, so a missing one would be
    # dropped without a word
    op, inputs, constants = lifted_op(name)
    out, back = op(*inputs, *constants, pullback=True)
    grads = back(np.ones(out.shape))
    assert len(grads) == len(inputs)
    assert [np.shape(g) for g in grads] == [x.shape for x in inputs]
