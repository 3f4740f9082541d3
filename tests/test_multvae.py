import numpy as np
import pytest

from advrec import autodiff as ad
from advrec import evaluation as ev
from advrec import multvae as mv
from advrec.errors import ContractError, DimensionError


def make_params(n_items=8, d_hidden=6, d_latent=4, seed=0):
    rng = np.random.default_rng(seed)
    enc = mv.init_encoder(n_items, d_hidden, d_latent, rng)
    dec = mv.init_decoder(n_items, d_hidden, d_latent, rng)
    return {**enc, **dec}


def as_leaves(tape, params):
    return {name: tape.leaf(arr, name=name) for name, arr in params.items()}


def random_x(n_rows, n_items, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    x = (rng.random((n_rows, n_items)) < density).astype(np.float64)
    x[x.sum(axis=1) == 0, 0] = 1.0  # no empty rows
    return x


def rows_of(x):
    """The item-index rows of a dense 0/1 matrix: what the model reads."""
    return [np.flatnonzero(row) for row in x]


@pytest.mark.parametrize("dtype, seed", [(np.float32, 3), (np.float64, None)], ids=["float32-rng", "float64-no-rng"])
def test_encode_input_is_the_normalized_dense_row_bit_for_bit(dtype, seed):
    params = {name: arr.astype(dtype) for name, arr in make_params().items()}
    x = random_x(5, 8, seed=4)
    x[2] = 0.0  # an empty row
    tape = ad.Tape()
    leaves = as_leaves(tape, params)
    rng = None if seed is None else np.random.default_rng(seed)
    state = mv.encode(rows_of(x), leaves, rng)

    norms = np.sqrt(x.sum(axis=1, keepdims=True))
    xn = x / np.where(norms > 0, norms, 1.0)
    if seed is not None:
        xn = xn * (np.random.default_rng(seed).random(x.shape) < mv.DROPOUT_KEEP) / mv.DROPOUT_KEEP
    x_in = tape.constant(xn.astype(dtype))
    h = ad.tanh(ad.dense(x_in, leaves["enc.hidden_w"], leaves["enc.hidden_b"]))
    mu = ad.dense(h, leaves["enc.mu_w"], leaves["enc.mu_b"])
    assert state.mu.data.dtype == dtype
    assert state.mu.data.tobytes() == mu.data.tobytes()
    assert np.all(np.isfinite(state.mu.data[2]))


@pytest.mark.parametrize("rows, dtypes, message", [
    ([[0, 2], [1, 8]], [np.int64] * 2, "row 1 has item 8 outside [0, 8)"),
    ([[0, 2], [], [-1, 3]], [np.int64] * 3, "row 2 has item -1 outside [0, 8)"),
    ([[0, 2], [3, 3]], [np.int64] * 2, "row 1 has items not strictly increasing"),
    ([[4, 1], [0]], [np.int64] * 2, "row 0 has items not strictly increasing"),
    ([[0, 2], [1, 8]], [np.uint64] * 2, "row 1 has item 8 outside [0, 8)"),
    ([[4, 1], [0]], [np.uint32] * 2, "row 0 has items not strictly increasing"),
    ([[0, 2], [], [1, 3]], [np.int64, np.int64, np.float64], "row 2 has items of dtype float64, not integer indices"),
], ids=["out_of_range", "negative", "repeated", "unsorted", "uint64_out_of_range", "uint32_unsorted", "float"])
def test_encode_rejects_rows_it_cannot_read_naming_the_row(rows, dtypes, message):
    enc_t = as_leaves(ad.Tape(), make_params())
    with pytest.raises(ContractError) as err:
        mv.encode([np.array(row, dtype=dtype) for row, dtype in zip(rows, dtypes)], enc_t, None)
    assert str(err.value) == message


@pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
def test_rows_of_any_integer_dtype_give_the_int64_matrix_and_ranking(dtype):
    x = random_x(6, 8, seed=5)
    x[2] = 0.0  # an empty row
    rows = rows_of(x)
    for normalized in (True, False):
        expected = mv.row_matrix(rows, 8, normalized)
        assert mv.row_matrix([row.astype(dtype) for row in rows], 8, normalized).tobytes() == expected.tobytes()
    foldin, holdout = [row[::2] for row in rows], [row[1::2] for row in rows]
    scores = np.random.default_rng(5).standard_normal(x.shape)
    expected = ev.ranking_metrics(scores, foldin, holdout, 3)
    ranked = ev.ranking_metrics(scores, [row.astype(dtype) for row in foldin],
                                [row.astype(dtype) for row in holdout], 3)
    assert [a.tobytes() for a in ranked] == [a.tobytes() for a in expected]


def test_encode_deterministic_given_seed():
    params = make_params()
    x = random_x(3, 8, seed=1)
    outs = []
    for _ in range(2):
        state = mv.encode(rows_of(x), as_leaves(ad.Tape(), params), np.random.default_rng(42))
        outs.append((state.mu.data.copy(), state.logsigma.data.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_encode_zero_weights_gives_bias():
    params = make_params()
    for name in ("enc.hidden_w", "enc.mu_w", "enc.logsigma_w"):
        params[name] = np.zeros_like(params[name])
    params["enc.mu_b"] = np.full(4, 0.7)
    params["enc.logsigma_b"] = np.full(4, -0.3)
    state = mv.encode(rows_of(random_x(5, 8)), as_leaves(ad.Tape(), params), None)
    assert np.allclose(state.mu.data, 0.7)
    assert np.allclose(state.logsigma.data, -0.3)


def test_encode_rows_are_independent():
    params = make_params()
    x = np.zeros((1, 8))
    x[0, 3] = 1.0
    x2 = np.vstack([x, x])
    enc_t = as_leaves(ad.Tape(), params)
    one = mv.encode(rows_of(x), enc_t, None)
    two = mv.encode(rows_of(x2), enc_t, None)
    # identical rows in one batch encode identically ...
    assert np.array_equal(two.mu.data[0], two.mu.data[1])
    # ... and batch size does not influence a row's encoding (up to BLAS
    # kernel selection, which may differ in the last ulp between shapes)
    assert np.allclose(two.mu.data[0], one.mu.data[0], rtol=0, atol=1e-12)


def test_reparameterize_eval_returns_mu_bitwise():
    enc_t = as_leaves(ad.Tape(), make_params())
    state = mv.encode(rows_of(random_x(4, 8)), enc_t, None)
    z = mv.reparameterize(state, None)
    assert z is state.mu


def test_reparameterize_vanishing_variance():
    tape = ad.Tape()
    mu = tape.leaf(np.zeros((2, 3)))
    logsigma = tape.leaf(np.full((2, 3), -50.0))
    z = mv.reparameterize(mv.LatentState(mu, logsigma), np.random.default_rng(3))
    assert np.max(np.abs(z.data - mu.data)) < 1e-20


def test_reparameterize_sample_mean_matches_prior():
    tape = ad.Tape()
    n = 100_000
    mu = tape.leaf(np.zeros((n, 1)))
    logsigma = tape.leaf(np.zeros((n, 1)))
    z = mv.reparameterize(mv.LatentState(mu, logsigma), np.random.default_rng(11))
    assert abs(z.data.mean()) < 0.02


def test_decode_zero_weights_and_empty_batch():
    params = make_params()
    params["dec.hidden_w"] = np.zeros_like(params["dec.hidden_w"])
    params["dec.out_w"] = np.zeros_like(params["dec.out_w"])
    params["dec.out_b"] = np.arange(8.0)
    tape = ad.Tape()
    dec_t = as_leaves(tape, params)
    z = tape.constant(np.random.default_rng(0).standard_normal((3, 4)))
    logits = mv.decode(z, dec_t)
    assert np.allclose(logits.data, np.arange(8.0))
    empty = mv.decode(tape.constant(np.zeros((0, 4))), dec_t)
    assert empty.data.shape == (0, 8)


def test_decode_dimension_mismatch():
    tape = ad.Tape()
    dec_t = as_leaves(tape, make_params())
    with pytest.raises(DimensionError):
        mv.decode(tape.constant(np.zeros((2, 7))), dec_t)


def test_roundtrip_shape():
    x = random_x(5, 8)
    leaves = as_leaves(ad.Tape(), make_params())
    state = mv.encode(rows_of(x), leaves, None)
    logits = mv.decode(state.mu, leaves)
    assert logits.data.shape == x.shape


def test_multinomial_nll_uniform_logits_closed_form():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((1, 4)))
    x = np.zeros((1, 4))
    x[0, 2] = 1.0
    nll = mv.multinomial_nll(logits, rows_of(x))
    assert abs(float(nll.data) - np.log(4.0)) < 1e-12


def test_multinomial_nll_empty_x_is_zero():
    tape = ad.Tape()
    logits = tape.leaf(np.random.default_rng(0).standard_normal((3, 5)))
    nll = mv.multinomial_nll(logits, rows_of(np.zeros((3, 5))))
    assert float(nll.data) == 0.0


def test_multinomial_nll_shift_invariance():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((4, 6))
    x = random_x(4, 6, seed=2)
    values = []
    for c in (0.0, 123.456):
        tape = ad.Tape()
        logits = tape.leaf(base + c)
        values.append(float(mv.multinomial_nll(logits, rows_of(x)).data))
    assert abs(values[0] - values[1]) < 1e-10


def test_kl_gaussian_closed_forms():
    tape = ad.Tape()
    mu = tape.leaf(np.zeros((2, 3)))
    ls = tape.leaf(np.zeros((2, 3)))
    assert float(mv.kl_gaussian(mu, ls).data) == 0.0
    mu1 = tape.leaf(np.ones((1, 1)))
    ls1 = tape.leaf(np.zeros((1, 1)))
    assert abs(float(mv.kl_gaussian(mu1, ls1).data) - 0.5) < 1e-12


def test_kl_gaussian_nonnegative():
    rng = np.random.default_rng(9)
    tape = ad.Tape()
    for _ in range(1000):
        mu = tape.leaf(rng.standard_normal((1, 3)) * 3)
        ls = tape.leaf(rng.standard_normal((1, 3)) * 2)
        assert float(mv.kl_gaussian(mu, ls).data) >= 0.0


def test_multvae_loss_beta_zero_equals_nll():
    params = make_params()
    x = random_x(5, 8, seed=3)
    loss, parts = mv.multvae_loss(
        rows_of(x),
        as_leaves(ad.Tape(), params),
        beta=0.0,
        rng=np.random.default_rng(1),
    )
    assert float(loss.data) == float(parts.nll.data)


def test_multvae_loss_parts_carry_mu_and_the_decoded_sample():
    params = make_params(seed=5)
    x = rows_of(random_x(5, 8, seed=5))
    _, parts = mv.multvae_loss(x, as_leaves(ad.Tape(), params), 0.2, None)
    assert parts.z is parts.mu
    assert np.array_equal(parts.mu.data, mv.encode_eval(x, params))

    tape = ad.Tape()
    leaves = as_leaves(tape, params)
    _, parts = mv.multvae_loss(x, leaves, 0.2, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    state = mv.encode(x, leaves, rng)
    z = mv.reparameterize(state, rng)
    assert np.array_equal(parts.mu.data, state.mu.data)
    assert np.array_equal(parts.z.data, z.data) and not np.array_equal(z.data, state.mu.data)


def test_multvae_loss_zero_information_encoder():
    params = make_params()
    for name in ("enc.hidden_w", "enc.mu_w", "enc.logsigma_w"):
        params[name] = np.zeros_like(params[name])
    # biases already zero: mu = 0 and logsigma = 0, so the KL term vanishes
    x = random_x(5, 8, seed=4)
    loss, parts = mv.multvae_loss(
        rows_of(x),
        as_leaves(ad.Tape(), params),
        beta=1.0,
        rng=None,
    )
    assert float(parts.kl.data) == 0.0
    assert float(loss.data) == float(parts.nll.data)


def test_multvae_loss_gradients_match_finite_differences():
    params = make_params(n_items=8, d_hidden=6, d_latent=4, seed=7)
    x = rows_of(random_x(5, 8, seed=8))
    names = list(params)
    arrays = list(params.values())

    def build(arrs):
        tape = ad.Tape()
        leaves = as_leaves(tape, dict(zip(names, arrs)))
        loss, _ = mv.multvae_loss(x, leaves, beta=0.7, rng=np.random.default_rng(99))
        return loss, tape, leaves

    loss, tape, leaves = build(arrays)
    grads = tape.backward(loss)

    def f(arrs):
        value, _, _ = build(arrs)
        return float(value.data)

    err = ad.finite_difference_check(f, arrays, [grads[leaves[name]] for name in names])
    assert err < 1e-4


def test_eval_path_matches_tape_path_bitwise():
    params = make_params(seed=13)
    x = rows_of(random_x(6, 8, seed=13))
    leaves = as_leaves(ad.Tape(), params)
    state = mv.encode(x, leaves, None)
    z = mv.reparameterize(state, None)
    logits = mv.decode(z, leaves)
    assert np.array_equal(mv.encode_eval(x, params), state.mu.data)
    assert np.array_equal(mv.scores_eval(x, params), logits.data)


def test_eval_rankings_are_stable_across_passes():
    params = make_params(seed=21)
    x = rows_of(random_x(10, 8, seed=21))
    first = np.argsort(-mv.scores_eval(x, params), axis=1)
    second = np.argsort(-mv.scores_eval(x, params), axis=1)
    assert np.array_equal(first, second)
