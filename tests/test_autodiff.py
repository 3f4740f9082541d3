import gc
import weakref

import numpy as np
import pytest

from advrec import autodiff as ad
from advrec.errors import ConfigError, ContractError, DimensionError, GradientCheckError


def test_dense_identity_weights():
    tape = ad.Tape()
    x = tape.constant([[1.0, 2.0]])
    w = tape.leaf([[1.0, 0.0], [0.0, 1.0]])
    b = tape.leaf([0.0, 0.0])
    out = ad.dense(x, w, b)
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_dense_hand_matmul():
    tape = ad.Tape()
    x = tape.constant([[1.0, 1.0]])
    w = tape.leaf([[2.0], [3.0]])
    b = tape.leaf([1.0])
    out = ad.dense(x, w, b)
    assert np.array_equal(out.data, [[6.0]])


def test_dense_empty_batch():
    tape = ad.Tape()
    x = tape.constant(np.zeros((0, 3)))
    w = tape.leaf(np.ones((3, 4)))
    b = tape.leaf(np.zeros(4))
    out = ad.dense(x, w, b)
    assert out.data.shape == (0, 4)


def test_dense_shape_mismatch_names_both_shapes():
    tape = ad.Tape()
    x = tape.constant(np.zeros((2, 3)))
    w = tape.leaf(np.zeros((4, 5)))
    b = tape.leaf(np.zeros(5))
    with pytest.raises(DimensionError) as err:
        ad.dense(x, w, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_tanh_values_and_gradient():
    tape = ad.Tape()
    x = tape.leaf([0.0, 100.0])
    y = ad.tanh(x)
    assert y.data[0] == 0.0
    assert 1.0 - 1e-12 < y.data[1] <= 1.0
    loss = ad.sum_all(y)
    grads = tape.backward(loss)
    g = grads[x]
    assert abs(g[0] - 1.0) < 1e-12  # tanh'(0) = 1
    assert np.isfinite(g[1]) and abs(g[1]) < 1e-12  # saturated


def test_grl_forward_is_identity_bitwise():
    tape = ad.Tape()
    x = tape.leaf([1.0, -2.0, 3.0])
    for lam in (0.0, 1.0, 200.0, 800.0):
        out = ad.grl(x, lam)
        assert out.data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("lam", [0.0, 1.0, 200.0, 400.0, 600.0, 800.0])
def test_grl_backward_is_exact_negated_scale(lam):
    tape = ad.Tape()
    x = tape.leaf([1.0, 1.0])
    out = ad.grl(x, lam)
    loss = ad.sum_all(out)  # incoming grad is exactly ones
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], -lam * np.ones(2))


def test_grl_rejects_negative_lambda():
    tape = ad.Tape()
    x = tape.leaf([1.0])
    with pytest.raises(ConfigError):
        ad.grl(x, -0.5)


def test_backward_sum_of_linear_map():
    # loss = sum(x @ W) with x=[1,1], W=[[1],[1]] so dLoss/dW = [[1],[1]]
    tape = ad.Tape()
    x = tape.constant([[1.0, 1.0]])
    w = tape.leaf([[1.0], [1.0]])
    b = tape.leaf([0.0])
    loss = ad.sum_all(ad.dense(x, w, b))
    grads = tape.backward(loss)
    assert np.array_equal(grads[w], [[1.0], [1.0]])


def test_backward_unused_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf([2.0, 3.0])
    unused = tape.leaf(np.ones((2, 2)))
    loss = ad.sum_all(ad.mul_const(x, 2.0))
    grads = tape.backward(loss)
    assert np.array_equal(grads[unused], np.zeros((2, 2)))
    assert np.array_equal(grads[x], [2.0, 2.0])


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    y = ad.tanh(x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_grl_pipeline_negates_upstream_gradient():
    # encoder -> grl(1) -> head vs the same graph without grl: the encoder
    # gradient must flip sign exactly, head gradients stay equal.
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 4))
    w_enc0 = rng.standard_normal((4, 5))
    w_head0 = rng.standard_normal((5, 2))

    def run(with_grl):
        tape = ad.Tape()
        x = tape.constant(x0)
        w_enc = tape.leaf(w_enc0)
        b_enc = tape.leaf(np.zeros(5))
        w_head = tape.leaf(w_head0)
        b_head = tape.leaf(np.zeros(2))
        h = ad.tanh(ad.dense(x, w_enc, b_enc))
        hh = ad.grl(h, 1.0) if with_grl else h
        out = ad.dense(hh, w_head, b_head)
        loss = ad.sum_all(ad.tanh(out))
        grads = tape.backward(loss)
        return grads[w_enc], grads[w_head]

    g_enc_plain, g_head_plain = run(with_grl=False)
    g_enc_rev, g_head_rev = run(with_grl=True)
    assert np.array_equal(g_enc_rev, -g_enc_plain)
    assert np.array_equal(g_head_rev, g_head_plain)


def test_backward_touches_each_entry_exactly_once():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 3)))
    w = tape.leaf(np.ones((3, 3)))
    b = tape.leaf(np.zeros(3))
    h = ad.tanh(ad.dense(x, w, b))
    h2 = ad.add(h, h)  # fan-out
    loss = ad.sum_all(h2)
    tape.backward(loss)
    assert tape.backward_visits == len(tape)
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_backward_frees_the_graph_without_the_cyclic_collector():
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.constant(np.ones((2, 3)))
        w = tape.leaf(np.ones((3, 3)))
        b = tape.leaf(np.zeros(3))
        h = ad.tanh(ad.dense(x, w, b))
        loss = ad.sum_all(h)
        intermediate = weakref.ref(h.data)
        grads = tape.backward(loss)
        del h, loss, tape
        assert intermediate() is None
        assert grads[w].shape == (3, 3)
    finally:
        gc.enable()


def test_finite_difference_quadratic():
    p = np.array([3.0])

    def f(params):
        return float(params[0][0] ** 2)

    err = ad.finite_difference_check(f, [p], [np.array([6.0])])
    assert err < 1e-7


def test_finite_difference_constant_function():
    p = np.array([1.0, -2.0])

    def f(params):
        return 5.0

    err = ad.finite_difference_check(f, [p], [np.zeros(2)])
    assert err == 0.0


def test_finite_difference_flags_non_finite():
    p = np.array([0.0])

    def f(params):
        v = params[0][0]
        return float("nan") if v != 0.0 else 0.0

    with pytest.raises(GradientCheckError) as err:
        ad.finite_difference_check(f, [p], [np.zeros(1)])
    assert "coordinate 0" in str(err.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((3, 4)) * 0.5
    w0 = rng.standard_normal((4, 3)) * 0.5
    b0 = rng.standard_normal(3) * 0.1
    c = rng.standard_normal((3, 3))

    def build(params):
        tape = ad.Tape()
        x = tape.leaf(params[0])
        w = tape.leaf(params[1])
        b = tape.leaf(params[2])
        h = ad.dense(x, w, b)
        out = ad.add(ad.tanh(h), ad.mul_const(ad.sigmoid(h), 0.5))
        out = ad.add(out, ad.exp(ad.mul_const(h, 0.1)))
        out = ad.mul_const(out, c)
        return ad.sum_all(out), tape, [x, w, b]

    loss, tape, leaves = build([x0, w0, b0])
    grads = tape.backward(loss)

    def f(params):
        value, _, _ = build(params)
        return float(value.data)

    err = ad.finite_difference_check(f, [x0, w0, b0], [grads[t] for t in leaves])
    assert err < 1e-6
