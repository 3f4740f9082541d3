import numpy as np
import pytest

from advrec import adversarial as adv
from advrec import autodiff as ad
from advrec import multvae as mv
from advrec.errors import ConfigError, DataError
from advrec.training import AdamState, adam_step


def make_head(d_latent=4, d_hidden=5, out_dim=2, seed=0):
    return adv.init_head(d_latent, d_hidden, out_dim, np.random.default_rng(seed))


def gender_spec(lam=0.0, weights=None):
    return adv.AttributeSpec(name="gender", kind=adv.CATEGORICAL, n_classes=2,
                             class_weights=weights, lam=lam)


def age_spec(lam=0.0):
    return adv.AttributeSpec(name="age", kind=adv.CONTINUOUS, lam=lam)


def small_model(n_items=8, d_hidden=6, d_latent=4, adv_hidden=5, seed=0, attrs=("gender", "age")):
    rng = np.random.default_rng(seed)
    heads = {}
    if "gender" in attrs:
        heads["gender"] = adv.init_head(d_latent, adv_hidden, 2, rng)
    if "age" in attrs:
        heads["age"] = adv.init_head(d_latent, adv_hidden, 1, rng)
    return adv.ModelParams(
        encoder=mv.init_encoder(n_items, d_hidden, d_latent, rng),
        decoder=mv.init_decoder(n_items, d_hidden, d_latent, rng),
        heads=heads,
    )


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
    head_t = mv.leaves_like(tape, head, "h")
    plain = adv.adv_forward(z, head_t, gender_spec(lam=0.0), reversed=False)
    rev = adv.adv_forward(z, head_t, gender_spec(lam=400.0), reversed=True)
    assert np.array_equal(plain.data, rev.data)


def test_reversed_head_with_zero_lambda_sends_no_gradient_upstream():
    head = make_head()
    z0 = np.random.default_rng(2).standard_normal((3, 4))
    tape = ad.Tape()
    z = tape.leaf(z0, "z")
    head_t = mv.leaves_like(tape, head, "h")
    pred = adv.adv_forward(z, head_t, gender_spec(lam=0.0), reversed=True)
    loss = adv.weighted_ce(pred, np.array([0, 1, 0]), np.ones(2))
    grads = tape.backward(loss)
    assert np.array_equal(grads[z], np.zeros((3, 4)))
    assert np.any(grads[head_t.hidden_w] != 0.0)


def test_zero_weight_head_outputs_bias():
    head = make_head()
    head.hidden_w = np.zeros_like(head.hidden_w)
    head.out_w = np.zeros_like(head.out_w)
    head.out_b = np.array([0.3, -0.2])
    tape = ad.Tape()
    z = tape.constant(np.random.default_rng(0).standard_normal((4, 4)))
    head_t = mv.leaves_like(tape, head, "h")
    pred = adv.adv_forward(z, head_t, gender_spec(), reversed=False)
    assert np.allclose(pred.data, [0.3, -0.2])


def test_continuous_head_prediction_lies_in_unit_interval():
    head = make_head(out_dim=1)
    tape = ad.Tape()
    z = tape.constant(np.random.default_rng(0).standard_normal((20, 4)) * 10)
    head_t = mv.leaves_like(tape, head, "h")
    pred = adv.adv_forward(z, head_t, age_spec(), reversed=False)
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
    g_head, a_head = make_head(seed=1), make_head(out_dim=1, seed=2)
    targets = {"gender": np.array([0, 1, 1, 0]), "age": rng.random(4)}

    def total(order):
        tape = ad.Tape()
        z = tape.constant(z0)
        pairs = []
        for name in order:
            if name == "gender":
                pairs.append((mv.leaves_like(tape, g_head, "g"), gender_spec(lam=1.0)))
            else:
                pairs.append((mv.leaves_like(tape, a_head, "a"), age_spec(lam=1.0)))
        loss, per_attr = adv.advx_loss(z, pairs, targets)
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
    pairs = [(mv.leaves_like(tape, make_head(), "g"), gender_spec())]
    with pytest.raises(DataError):
        adv.advx_loss(z, pairs, {"age": np.zeros(2)})


def objective_grads(model, specs, x, targets, seed=11):
    parts, tape, registry = adv.total_objective(
        x, targets, model, specs, beta=0.3, rng=np.random.default_rng(seed),
        training=True, dropout_keep=0.8,
    )
    grad_map = tape.backward(parts.loss)
    return parts, {name: grad_map[leaf] for name, leaf in registry.items()}


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

    names = [name for name, _ in model.named()]
    arrays = [arr for _, arr in model.named()]

    def rebuild(arrs):
        m = small_model()
        for (name, _), arr in zip(model.named(), arrs):
            group, field = name.rsplit(".", 1)
            obj = {"enc": m.encoder, "dec": m.decoder, "head.gender": m.heads["gender"],
                   "head.age": m.heads["age"]}[group]
            setattr(obj, field, np.asarray(arr))
        parts, tape, registry = adv.total_objective(
            x, targets, m, specs, beta=0.3, rng=np.random.default_rng(13),
            training=True, dropout_keep=0.8,
        )
        return parts, tape, registry

    parts, tape, registry = rebuild(arrays)
    grad_map = tape.backward(parts.loss)
    grads = {name: grad_map[leaf] for name, leaf in registry.items()}

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
    head = adv.init_head(latents.shape[1], 8, spec.out_dim, np.random.default_rng(seed))
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed + 100)
    n = len(labels)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, 64):
            idx = order[start : start + 64]
            loss, tape, registry = adv.attacker_loss_graph(latents[idx], head, spec, labels[idx])
            grad_map = tape.backward(loss)
            grads = {name: grad_map[leaf] for name, leaf in registry.items()}
            updated = adam_step(adv.attacker_arrays({spec.name: head}), grads, state)
            head = adv.attackers_from_arrays(updated)[spec.name]
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
        preds = adv.attacker_forward_eval(test_latents, head, gender_spec()).argmax(axis=1)
        baccs.append(balanced_accuracy(preds, test_labels, 2))
    assert abs(np.mean(baccs) - 0.5) <= 0.05


def test_attacker_on_label_revealing_latents_learns():
    from advrec.evaluation import balanced_accuracy

    rng = np.random.default_rng(0)
    labels = np.tile([0, 1], 200)
    latents = rng.standard_normal((400, 8)) * 0.1
    latents[:, 0] = labels * 2.0 - 1.0
    head = train_attacker_on_latents(latents, labels, gender_spec(), epochs=60, seed=1)
    preds = adv.attacker_forward_eval(latents, head, gender_spec()).argmax(axis=1)
    assert balanced_accuracy(preds, labels, 2) > 0.95


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = small_model(seed=42)
    path = str(tmp_path / "model.ckpt")
    adv.save_checkpoint(path, model, {"d_latent": 4})
    loaded, config = adv.load_checkpoint(path)
    assert config == {"d_latent": 4}
    for (name_a, arr_a), (name_b, arr_b) in zip(sorted(model.named()), sorted(loaded.named())):
        assert name_a == name_b
        assert arr_a.tobytes() == arr_b.tobytes()


def test_attacker_roundtrip_is_bit_exact_and_checks_kind(tmp_path):
    heads = {"gender": make_head(out_dim=2, seed=1), "age": make_head(out_dim=1, seed=2)}
    path = str(tmp_path / "attacker.bin")
    adv.save_attacker(path, heads, {"fold": 3})
    loaded, meta = adv.load_attacker(path)
    assert meta == {"kind": "attacker", "fold": 3}
    assert sorted(loaded) == ["age", "gender"]
    for name, arr in adv.attacker_arrays(heads).items():
        assert adv.attacker_arrays(loaded)[name].tobytes() == arr.tobytes()
    adv.save_checkpoint(str(tmp_path / "model.ckpt"), small_model(), {})
    with pytest.raises(DataError):
        adv.load_attacker(str(tmp_path / "model.ckpt"))
