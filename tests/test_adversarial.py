import numpy as np
import pytest

from advrec import adversarial as adv
from advrec import autodiff as ad
from advrec import multvae as mv
from advrec.container import load_container, save_container
from advrec.errors import ConfigError, DataError
from advrec.training import AdamState, adam_step


def gender_spec(lam=0.0, weights=None):
    return adv.AttributeSpec(name="gender", kind=adv.CATEGORICAL, n_classes=2,
                             class_weights=weights, lam=lam)


def age_spec(lam=0.0):
    return adv.AttributeSpec(name="age", kind=adv.CONTINUOUS, lam=lam)


def make_head(spec=None, d_latent=4, d_hidden=5, seed=0):
    return adv.init_heads([spec or gender_spec()], d_latent, d_hidden, np.random.default_rng(seed))


def as_leaves(tape, params):
    return {name: tape.leaf(arr, name=name) for name, arr in params.items()}


def small_model(n_items=8, d_hidden=6, d_latent=4, adv_hidden=5, seed=0):
    rng = np.random.default_rng(seed)
    heads = adv.init_heads([gender_spec(), age_spec()], d_latent, adv_hidden, rng)
    return adv.Params(
        **mv.init_encoder(n_items, d_hidden, d_latent, rng),
        **mv.init_decoder(n_items, d_hidden, d_latent, rng),
        **heads,
    )


def small_recommender(seed=0):
    """The encoder and decoder of ``small_model``: what a checkpoint holds."""
    return adv.Params((name, arr) for name, arr in small_model(seed=seed).items() if name.startswith(("enc.", "dec.")))


def random_x(n_rows, n_items, seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.random((n_rows, n_items)) < 0.4).astype(np.float64)
    x[x.sum(axis=1) == 0, 0] = 1.0
    return x


def test_adv_forward_identical_with_and_without_reversal():
    head = make_head()
    z0 = np.random.default_rng(1).standard_normal((3, 4))
    tape = ad.Tape()
    z = tape.constant(z0)
    head_t = as_leaves(tape, head)
    plain = ad.dense(ad.tanh(ad.dense(z, head_t["head.gender.hidden_w"], head_t["head.gender.hidden_b"])),
                     head_t["head.gender.out_w"], head_t["head.gender.out_b"])
    rev = adv.adv_forward(z, head_t, gender_spec(lam=400.0))
    assert np.array_equal(plain.data, rev.data)


def test_reversed_head_with_zero_lambda_sends_no_gradient_upstream():
    head = make_head()
    z0 = np.random.default_rng(2).standard_normal((3, 4))
    tape = ad.Tape()
    z = tape.leaf(z0, "z")
    head_t = as_leaves(tape, head)
    pred = adv.adv_forward(z, head_t, gender_spec(lam=0.0))
    loss = adv.weighted_ce(pred, np.array([0, 1, 0]), np.ones(2))
    grads = tape.backward(loss)
    assert np.array_equal(grads[z], np.zeros((3, 4)))
    assert np.any(grads[head_t["head.gender.hidden_w"]] != 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_attribute_spec_rejects_a_lambda_out_of_range(lam):
    with pytest.raises(ConfigError, match="'gender'"):
        gender_spec(lam=lam)


def test_zero_weight_head_outputs_bias():
    head = make_head()
    head["head.gender.hidden_w"] = np.zeros_like(head["head.gender.hidden_w"])
    head["head.gender.out_w"] = np.zeros_like(head["head.gender.out_w"])
    head["head.gender.out_b"] = np.array([0.3, -0.2])
    tape = ad.Tape()
    z = tape.constant(np.random.default_rng(0).standard_normal((4, 4)))
    head_t = as_leaves(tape, head)
    pred = adv.adv_forward(z, head_t, gender_spec())
    assert np.allclose(pred.data, [0.3, -0.2])


def test_continuous_head_prediction_lies_in_unit_interval():
    head = make_head(age_spec())
    tape = ad.Tape()
    z = tape.constant(np.random.default_rng(0).standard_normal((20, 4)) * 10)
    head_t = as_leaves(tape, head)
    pred = adv.adv_forward(z, head_t, age_spec())
    assert np.all(pred.data > 0.0) and np.all(pred.data < 1.0)


def test_weighted_ce_uniform_closed_form():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((3, 2)))
    loss = adv.weighted_ce(logits, np.array([0, 1, 0]), np.ones(2))
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_weighted_ce_confident_correct_is_tiny():
    tape = ad.Tape()
    logits = tape.leaf(np.array([[10.0, -10.0]]))
    loss = adv.weighted_ce(logits, np.array([0]), np.array([3.7]))
    assert float(loss.data) < 1e-8


def test_weighted_ce_weighted_mean_hand_computation():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((2, 2))
    labels = np.array([0, 1])

    def sample_loss(row, label):
        shifted = raw[row] - raw[row].max()
        return -(shifted[label] - np.log(np.exp(shifted).sum()))

    l0, l1 = sample_loss(0, 0), sample_loss(1, 1)
    tape = ad.Tape()
    logits = tape.leaf(raw)
    loss = adv.weighted_ce(logits, labels, np.array([1.0, 3.0]))
    assert abs(float(loss.data) - (l0 + 3 * l1) / 4.0) < 1e-12


def test_weighted_ce_equal_weights_match_unweighted():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)
    tape = ad.Tape()
    weighted = adv.weighted_ce(tape.leaf(raw), labels, np.full(3, 2.5))
    uniform = adv.weighted_ce(tape.leaf(raw), labels, np.ones(3))
    assert abs(float(weighted.data) - float(uniform.data)) < 1e-12


def test_weighted_ce_label_out_of_range_names_row():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(DataError) as err:
        adv.weighted_ce(logits, np.array([0, 5, 1]), np.ones(2))
    assert "row 1" in str(err.value)


def test_mse_examples():
    tape = ad.Tape()
    pred = tape.leaf(np.array([[0.5]]))
    assert float(adv.mse(pred, np.array([0.5])).data) == 0.0
    assert abs(float(adv.mse(pred, np.array([0.3])).data) - 0.04) < 1e-15
    doubled = tape.leaf(np.array([[0.7]]))  # error 0.4 instead of 0.2
    assert abs(float(adv.mse(doubled, np.array([0.3])).data) - 0.16) < 1e-15


def test_advx_loss_additive_and_permutation_invariant():
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal((4, 4))
    heads = {**make_head(gender_spec(), seed=1), **make_head(age_spec(), seed=2)}
    targets = {"gender": np.array([0, 1, 1, 0]), "age": rng.random(4)}
    specs = {"gender": gender_spec(lam=1.0), "age": age_spec(lam=1.0)}

    def total(order):
        tape = ad.Tape()
        z = tape.constant(z0)
        loss, per_attr = adv.advx_loss(z, as_leaves(tape, heads), [specs[name] for name in order], targets)
        return float(loss.data), {k: float(v.data) for k, v in per_attr.items()}

    both, parts = total(["gender", "age"])
    swapped, _ = total(["age", "gender"])
    assert abs(both - (parts["gender"] + parts["age"])) < 1e-12
    assert both == swapped

    single, single_parts = total(["gender"])
    assert single == single_parts["gender"]


def test_advx_loss_missing_target_column():
    tape = ad.Tape()
    z = tape.constant(np.zeros((2, 4)))
    with pytest.raises(DataError):
        adv.advx_loss(z, as_leaves(tape, make_head()), [gender_spec()], {"age": np.zeros(2)})


def objective_grads(model, specs, x, targets, seed=11):
    parts, tape, leaves = adv.total_objective(
        x, targets, model, specs, beta=0.3, rng=np.random.default_rng(seed),
    )
    grad_map = tape.backward(parts.loss)
    return parts, {name: grad_map[leaf] for name, leaf in leaves.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_total_objective_runs_in_the_dtype_of_its_store(dtype):
    model = small_model()
    store = {name: arr.astype(dtype) for name, arr in model.items()}
    x = random_x(5, 8, seed=12)
    targets = {"gender": np.array([0, 1, 1, 0, 1]), "age": np.random.default_rng(13).random(5)}
    specs = [gender_spec(lam=40.0, weights=[0.7, 1.3]), age_spec(lam=40.0)]
    parts, grads = objective_grads(store, specs, x, targets)
    for tensor in (parts.loss, parts.mult, parts.nll, parts.kl, *parts.adv.values()):
        assert tensor.data.shape == () and tensor.data.dtype == dtype, tensor
    assert grads.keys() == model.keys()
    for name, grad in grads.items():
        assert grad.dtype == dtype and grad.shape == model[name].shape, name
    # the float32 graph computes the float64 objective, to float32's precision
    reference, reference_grads = objective_grads(model, specs, x, targets)
    assert abs(float(parts.loss.data) - float(reference.loss.data)) <= 1e-5 * abs(float(reference.loss.data))
    for name, grad in grads.items():
        scale = np.abs(reference_grads[name]).max()
        assert np.abs(grad - reference_grads[name]).max() <= 1e-4 * scale + 1e-7, name


def test_total_objective_zero_lambda_matches_plain_model_gradients():
    model = small_model()
    x = random_x(5, 8, seed=6)
    targets = {"gender": np.array([0, 1, 0, 1, 1]), "age": np.random.default_rng(7).random(5)}
    specs = [gender_spec(lam=0.0), age_spec(lam=0.0)]
    _, grads_with_heads = objective_grads(model, specs, x, targets)
    _, grads_plain = objective_grads(model, [], x, targets)
    for name, grad in grads_plain.items():
        assert np.array_equal(grads_with_heads[name], grad), name
    # the heads still learn: their own gradients are nonzero
    assert np.any(grads_with_heads["head.gender.hidden_w"] != 0.0)


def test_total_objective_single_active_lambda_matches_single_head_graph():
    model = small_model()
    x = random_x(5, 8, seed=8)
    targets = {"gender": np.array([1, 1, 0, 1, 0]), "age": np.random.default_rng(9).random(5)}
    specs_both = [gender_spec(lam=0.0), age_spec(lam=300.0)]
    _, grads_both = objective_grads(model, specs_both, x, targets)
    _, grads_single = objective_grads(model, [age_spec(lam=300.0)], x, targets)
    for name, grad in grads_single.items():
        assert np.array_equal(grads_both[name], grad), name


def test_total_objective_gradients_match_finite_differences_with_reversal():
    # The reversal layer changes the backward pass only, so each parameter
    # group is checked against the value function whose true gradient the
    # tape is supposed to produce: decoder and heads see the joint loss,
    # the encoder sees the recommender loss MINUS each lambda-scaled head loss.
    model = small_model()
    x = random_x(5, 8, seed=10)
    targets = {"gender": np.array([0, 1, 1, 0, 1]), "age": np.random.default_rng(12).random(5)}
    lam = {"gender": 1.0, "age": 1.0}
    specs = [gender_spec(lam=lam["gender"]), age_spec(lam=lam["age"])]

    names = list(model)
    arrays = list(model.values())

    def rebuild(arrs):
        return adv.total_objective(
            x, targets, dict(zip(names, arrs)), specs, beta=0.3, rng=np.random.default_rng(13),
        )

    parts, tape, leaves = rebuild(arrays)
    grad_map = tape.backward(parts.loss)
    grads = {name: grad_map[leaf] for name, leaf in leaves.items()}

    def value_total(arrs):
        p, _, _ = rebuild(arrs)
        return float(p.loss.data)

    def value_encoder_view(arrs):
        p, _, _ = rebuild(arrs)
        value = float(p.mult.data)
        for attr, tensor in p.adv.items():
            value -= lam[attr] * float(tensor.data)
        return value

    worst = 0.0
    for i, name in enumerate(names):
        fn = value_encoder_view if name.startswith("enc.") else value_total

        def one_param(arrs, i=i, fn=fn):
            full = list(arrays)
            full[i] = arrs[0]
            return fn(full)

        err = ad.finite_difference_check(one_param, [arrays[i]], [grads[name]])
        worst = max(worst, err)
    assert worst < 1e-4


def train_attacker_on_latents(latents, labels, spec, epochs=60, seed=0, lr=5e-3):
    head = make_head(spec, latents.shape[1], 8, seed)
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed + 100)
    n = len(labels)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, 64):
            idx = order[start : start + 64]
            loss, _, tape, leaves = adv.attacker_loss_graph(latents[idx], head, [spec], {spec.name: labels[idx]})
            grad_map = tape.backward(loss)
            head = adam_step(head, {name: grad_map[leaf] for name, leaf in leaves.items()}, state)
    return head


def test_attacker_on_pure_noise_latents_is_chance_level():
    from advrec.evaluation import balanced_accuracy

    baccs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        latents = rng.standard_normal((400, 8))
        labels = np.tile([0, 1], 200)
        test_latents = rng.standard_normal((400, 8))
        test_labels = np.tile([0, 1], 200)
        head = train_attacker_on_latents(latents, labels, gender_spec(), epochs=30, seed=seed)
        preds = adv.attacker_predictions(test_latents, head, [gender_spec()])["gender"]
        baccs.append(balanced_accuracy(preds, test_labels, 2))
    assert abs(np.mean(baccs) - 0.5) <= 0.05


def test_attacker_on_label_revealing_latents_learns():
    from advrec.evaluation import balanced_accuracy

    rng = np.random.default_rng(0)
    labels = np.tile([0, 1], 200)
    latents = rng.standard_normal((400, 8)) * 0.1
    latents[:, 0] = labels * 2.0 - 1.0
    head = train_attacker_on_latents(latents, labels, gender_spec(), epochs=60, seed=1)
    preds = adv.attacker_predictions(latents, head, [gender_spec()])["gender"]
    assert balanced_accuracy(preds, labels, 2) > 0.95


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = small_recommender(seed=42)
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, model, {"d_latent": 4})
    assert load_container(path)[1] == {"kind": adv.CHECKPOINT_KIND, "config": {"d_latent": 4}}
    loaded, config = adv.load_checkpoint(path)
    assert config == {"d_latent": 4}
    assert sorted(loaded) == sorted(model)
    for name, arr in model.items():
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_missing_array_fails_with_data_error(tmp_path):
    arrays = dict(small_recommender())
    del arrays["enc.mu_b"]
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, arrays, {})
    with pytest.raises(DataError, match="enc.mu_b"):
        adv.load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("config", "text"), ("config", 5), ("config", [])])
def test_checkpoint_with_a_malformed_header_fails_with_data_error(tmp_path, field, value):
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, small_recommender(), {})
    arrays, meta = load_container(path)
    meta[field] = value
    save_container(path, arrays, meta)
    with pytest.raises(DataError, match=f"model.ckpt.*{field}"):
        adv.load_checkpoint(path)


@pytest.mark.parametrize("name, dtype", [("enc.hidden_w", np.bool_), ("dec.out_b", np.int64)])
def test_checkpoint_with_weights_that_are_not_float64_fails_with_data_error(tmp_path, name, dtype):
    model = small_recommender()
    model[name] = model[name].astype(dtype)
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, model, {})  # the container stores |b1 and <i8 for other records
    with pytest.raises(DataError, match=f"model.ckpt.*{name}.*float64"):
        adv.load_checkpoint(path)


@pytest.mark.parametrize("name, shape", [("enc.mu_b", (3,)), ("dec.out_w", (5, 8)),
                                         ("dec.hidden_w", (3, 6)), ("enc.hidden_b", (6, 1))])
def test_checkpoint_with_shapes_that_do_not_fit_fails_with_data_error(tmp_path, name, shape):
    model = small_recommender()
    model[name] = np.zeros(shape)
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, model, {})
    with pytest.raises(DataError, match=name):
        adv.load_checkpoint(path)
