import dataclasses
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from advrec import adversarial as adv
from advrec import config as cf
from advrec import multvae as mv
from advrec import training as tr
from advrec.data import HOLDOUT_RATIO, make_folds, prepare_fold
from advrec.errors import ConfigError, ContractError, TrainingDiverged
from advrec.synthetic import planted_dataset


def tiny_setup(n_users=100, n_items=40, seed=0, **config_kw):
    dataset, attrs = planted_dataset(n_users, n_items, seed=seed, items_low=5, items_high=15)
    defaults = dict(
        epochs_adversarial=5,
        epochs_attack=5,
        batch_size=32,
        d_hidden=16,
        d_latent=8,
        d_adv_hidden=8,
        anneal_steps=100,
        val_every=0,
        selection="final",
    )
    defaults.update(config_kw)
    config = tr.TrainConfig(**defaults)
    folds = make_folds(dataset.n_users, seed=11)
    fold = prepare_fold(dataset, folds[0], HOLDOUT_RATIO, config.data_seed)
    return dataset, attrs, fold, config


def params_hash(named_iter) -> str:
    digest = hashlib.sha256()
    for name, arr in sorted(named_iter):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


RECOMMENDER_NAMES = {f"enc.{field}" for field in mv.ENCODER} | {f"dec.{field}" for field in mv.DECODER}


def units(config, *lambda_maps):
    """Grid units: ``config`` with each of the lambda maps."""
    return [dataclasses.replace(config, lambdas=lambdas) for lambdas in lambda_maps]


def enc_dec_bytes(model):
    return [
        (name, arr.tobytes())
        for name, arr in model.items()
        if name.startswith(("enc.", "dec."))
    ]


def test_adam_first_step_closed_form():
    state = tr.AdamState(lr=1e-3)
    params = {"w": np.array([0.0])}
    before = params["w"].copy()
    updated = tr.adam_step(params, {"w": np.array([1.0])}, state)
    delta = updated["w"][0] - before[0]
    assert abs(delta + 0.001) < 1e-6


def reference_adam_step(params, grads, state, moments):
    """The out-of-place textbook update, kept as the oracle for the fused one."""
    step = state.step + 1
    corr1 = 1.0 - tr.ADAM_BETA1**step
    corr2 = 1.0 - tr.ADAM_BETA2**step
    updated = {}
    for name, p in params.items():
        g = grads[name]
        m, v = moments.get(name, (np.zeros_like(p), np.zeros_like(p)))
        m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
        v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * (g * g)
        moments[name] = m, v
        updated[name] = p - state.lr * (m / corr1) / (np.sqrt(v / corr2) + tr.ADAM_EPSILON)
    return updated


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_fused_adam_matches_the_textbook_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    shapes = {"one": (1,), "short": (tr.ADAM_BLOCK - 1,), "block": (tr.ADAM_BLOCK,),
              "over": (tr.ADAM_BLOCK + 3,), "weight": (130, 257)}
    params = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    expected = {name: p.copy() for name, p in params.items()}
    state, moments = tr.AdamState(lr=3e-3), {}
    for _ in range(6):
        grads = {name: (rng.standard_normal(shape) * rng.choice([1e-6, 1.0, 1e3])).astype(dtype)
                 for name, shape in shapes.items()}
        expected = reference_adam_step(expected, grads, state, moments)
        assert tr.adam_step(params, grads, state) is params
        for name in shapes:
            assert params[name].dtype == state.m[name].dtype == state.scratch.dtype == dtype, name
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert state.m[name].tobytes() == moments[name][0].tobytes(), name
            assert state.v[name].tobytes() == moments[name][1].tobytes(), name
    assert state.step == 6


def test_adam_step_with_a_non_finite_last_gradient_changes_nothing():
    rng = np.random.default_rng(6)
    shapes = {"first": (tr.ADAM_BLOCK + 3,), "middle": (4, 5), "last": (7,)}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    state = tr.AdamState(lr=1e-3)
    for _ in range(2):
        tr.adam_step(params, {name: rng.standard_normal(shape) for name, shape in shapes.items()}, state)
    before = {name: (params[name].copy(), state.m[name].copy(), state.v[name].copy()) for name in shapes}
    grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    grads["last"][3] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        tr.adam_step(params, grads, state)
    assert "'last'" in str(err.value)
    assert state.step == 2
    for name, arrays in before.items():
        for old, new in zip(arrays, (params[name], state.m[name], state.v[name])):
            assert old.tobytes() == new.tobytes(), name


@pytest.mark.parametrize("name, grad", [
    ("wide", np.ones((3, 4), np.float32)),  # same size, another layout
    ("wide", np.ones((2, 6), np.float64)),  # would be cast through out=
    ("short", np.ones(5, np.float32)),
    ("short", None),
], ids=["layout", "dtype", "size", "missing"])
def test_adam_step_rejects_a_gradient_that_does_not_match_its_parameter(name, grad):
    rng = np.random.default_rng(7)
    params = {field: rng.standard_normal(shape).astype(np.float32)
              for field, shape in {"first": (5,), "wide": (2, 6), "short": (4,)}.items()}
    state = tr.AdamState(lr=1e-3)
    tr.adam_step(params, {field: np.ones_like(p) for field, p in params.items()}, state)
    before = {field: (params[field].copy(), state.m[field].copy(), state.v[field].copy()) for field in params}
    grads = {field: np.ones_like(p) for field, p in params.items()}
    grads[name] = grad
    if grad is None:
        del grads[name]
    with pytest.raises(ContractError) as err:
        tr.adam_step(params, grads, state)
    assert f"'{name}'" in str(err.value)
    assert state.step == 1
    for field, arrays in before.items():
        for old, new in zip(arrays, (params[field], state.m[field], state.v[field])):
            assert old.tobytes() == new.tobytes(), field


def test_adam_zero_gradient_leaves_parameters_unchanged():
    state = tr.AdamState(lr=1e-3)
    params = {"w": np.array([1.5, -2.5])}
    for _ in range(10):
        params = tr.adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.5, -2.5])


def test_adam_rejects_non_finite_gradient_naming_parameter():
    state = tr.AdamState(lr=1e-3)
    with pytest.raises(TrainingDiverged) as err:
        tr.adam_step({"enc.mu_w": np.zeros(2)}, {"enc.mu_w": np.array([1.0, np.nan])}, state)
    assert "enc.mu_w" in str(err.value)


@pytest.mark.parametrize("unwritable", ["read-only", "transposed"])
def test_adam_step_rejects_a_parameter_it_cannot_update_in_place(unwritable):
    params = {"first": np.arange(6.0), "last": np.arange(6.0).reshape(2, 3)}
    if unwritable == "read-only":
        params["last"].flags.writeable = False
    else:
        params["last"] = params["last"].T
    state = tr.AdamState(lr=1e-3)
    with pytest.raises(ContractError) as err:
        tr.adam_step(params, {name: np.ones_like(p) for name, p in params.items()}, state)
    assert "'last'" in str(err.value)
    assert state.step == 0 and state.m == {} and np.array_equal(params["first"], np.arange(6.0))


def test_default_epoch_counts_follow_protocol():
    config = tr.TrainConfig()
    assert config.epochs_adversarial == 200
    assert config.epochs_attack == 50


INTEGER_FIELDS = ["epochs_adversarial", "epochs_attack", "batch_size", "anneal_steps", "d_hidden", "d_latent",
                  "d_adv_hidden", "val_every", "model_seed", "data_seed", "adversary_seed"]


def test_a_train_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="'gender'"):
        dataclasses.replace(tr.TrainConfig(), lambdas={"gender": float("nan")})
    for settings, named in [
        ({"lr": 0}, "lr"),
        ({"lr": True}, "lr"),
        ({"beta_max": "0.4"}, "beta_max"),
        ({"val_every": -1}, "val_every"),
        ({"continuous_head": "linear"}, "continuous_head .*linear head was removed"),
        # lambda maps the program cannot run: not a dict, an attribute it cannot remove, values not real numbers
        ({"lambdas": [("gender", 1.0)]}, "lambdas must be a dict"),
        ({"lambdas": {"ethnicity": 1.0}}, "'ethnicity'"),
        ({"lambdas": {"gender": "400"}}, "'gender'"),
        ({"lambdas": {"age": True}}, "'age'"),
        *[({name: value}, f"{name} must be an integer") for name in INTEGER_FIELDS for value in (2.5, True, "8")],
    ]:
        with pytest.raises(ConfigError, match=named):
            tr.TrainConfig(**settings)
    assert tr.TrainConfig(batch_size=np.int64(32), lambdas={"age": np.float32(2), "gender": 1}).batch_size == 32
    config = tr.TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lr = 0.5
    assert config.lr == 1e-3
    # the lambdas are read-only too, so nothing can undo their check
    config = tr.TrainConfig(lambdas={"gender": 1.0})
    with pytest.raises(TypeError):
        config.lambdas["gender"] = float("nan")
    assert config.lambdas == {"gender": 1.0}
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    with pytest.raises(TypeError):
        copy.lambdas["gender"] = float("nan")


def test_train_defaults_are_written_once():
    config = cf.load_config(None)
    assert type(config) is dict
    assert cf.train_config(config) == tr.TrainConfig()
    for f in dataclasses.fields(tr.TrainConfig):
        if f.name != "lambdas":
            assert f"train.{f.name}" in config


@pytest.mark.parametrize("section", ["lambda", "grid"])
def test_schema_attribute_keys_are_the_attribute_table(section):
    keys = [key.split(".", 1)[1] for key in cf.SCHEMA if key.startswith(f"{section}.")]
    assert keys == list(tr.ATTRIBUTES)


def test_configs_that_compare_equal_train_alike_whatever_the_order_of_their_lambdas():
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=2, lambdas={"gender": 1, "age": 1})
    swapped = dataclasses.replace(config, lambdas={"age": 1, "gender": 1})
    assert swapped == config and list(swapped.lambdas) == list(tr.ATTRIBUTES)
    assert tr.combo_label(swapped.lambdas) == tr.combo_label(config.lambdas) == "gender1_age1"
    hashes = [params_hash(tr.train_adversarial_phase(dataset, attrs, fold, c).params.items())
              for c in (config, swapped)]
    assert hashes[0] == hashes[1]


class ZeroPenalty:
    """A second removal method through the seam: no parameters and no loss."""

    def __init__(self, specs):
        pass

    def init(self, d_latent, d_adv_hidden, rng):
        return adv.Params()

    def loss(self, parts, leaves, targets):
        return None, {}


def test_a_method_with_no_parameters_and_no_loss_is_reversal_without_heads():
    dataset, attrs, fold, config = tiny_setup()
    users = fold.split.train[: config.batch_size]
    targets = {name: values[users] for name, values in attrs.targets().items()}
    stores, grads = [], []
    for method in (ZeroPenalty([]), adv.Reversal([])):
        store = tr.init_model(dataset, method, config, np.random.default_rng(0), np.random.default_rng(1))
        parts, tape, leaves = adv.total_objective([dataset.row(u) for u in users], targets, store, method, 0.2,
                                                  np.random.default_rng(2))
        assert parts.adv == {}
        grad_map = tape.backward(parts.loss)
        stores.append([(name, arr.tobytes()) for name, arr in store.items()])
        grads.append([(name, grad_map[leaf].tobytes()) for name, leaf in leaves.items()] + [parts.loss.data.tobytes()])
    assert stores[0] == stores[1]
    assert grads[0] == grads[1]


def test_a_removal_phase_through_a_method_with_no_loss_trains_plain_multvae(monkeypatch):
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=2, val_every=1, selection="best")
    plain = tr.train_adversarial_phase(dataset, attrs, fold, config)
    monkeypatch.setattr(adv, "Reversal", ZeroPenalty)
    zero = tr.train_adversarial_phase(dataset, attrs, fold,
                                      dataclasses.replace(config, lambdas={"gender": 1.0, "age": 1.0}))
    assert enc_dec_bytes(zero.params) == enc_dec_bytes(plain.params)
    assert zero.log == plain.log


def test_training_is_bit_deterministic():
    results = []
    for _ in range(2):
        dataset, attrs, fold, config = tiny_setup(lambdas={"gender": 1.0, "age": 1.0})
        result = tr.train_adversarial_phase(dataset, attrs, fold, config)
        results.append(params_hash(result.params.items()))
    assert results[0] == results[1]


def test_epoch_log_length_matches_configuration():
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=7, epochs_attack=3)
    result = tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert len(result.log) == 7
    attack = tr.train_attack_phase(result.params, dataset, attrs, fold.split,
                                   dataclasses.replace(config, lambdas={"gender": 0.0}))
    assert len(attack.log) == 3
    nothing = tr.train_attack_phase(result.params, dataset, attrs, fold.split, config)
    assert nothing.log == [{"epoch": e} for e in range(3)] and nothing.metrics == {}


def test_zero_lambda_run_matches_plain_training_bitwise():
    dataset, attrs, fold, config = tiny_setup(
        epochs_adversarial=10, lambdas={"gender": 0.0, "age": 0.0}
    )
    with_heads = tr.train_adversarial_phase(dataset, attrs, fold, config)

    plain_config = dataclasses.replace(config, lambdas={})
    plain = tr.train_adversarial_phase(dataset, attrs, fold, plain_config)

    for (name_a, bytes_a), (name_b, bytes_b) in zip(
        enc_dec_bytes(with_heads.params), enc_dec_bytes(plain.params)
    ):
        assert name_a == name_b
        assert bytes_a == bytes_b, f"{name_a} diverged"


def test_divergence_aborts_with_location(monkeypatch):
    dataset, attrs, fold, config = tiny_setup()

    class BadLoss:
        data = np.float64("nan")

    def bad_objective(*args, **kwargs):
        return adv.ObjectiveParts(loss=BadLoss(), mult=None, nll=None, kl=None, adv={}), None, {}

    model = tr.train_adversarial_phase(dataset, attrs, fold, config).params
    monkeypatch.setattr(adv, "total_objective", bad_objective)
    with pytest.raises(TrainingDiverged) as err:
        tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert "epoch 0" in str(err.value) and "batch 0" in str(err.value)

    monkeypatch.setattr(adv, "attacker_loss_graph", lambda *args: (BadLoss(), {}, None, {}))
    with pytest.raises(TrainingDiverged) as err:
        tr.train_attack_phase(model, dataset, attrs, fold.split, dataclasses.replace(config, lambdas={"gender": 0.0}))
    assert "epoch 0" in str(err.value) and "batch 0" in str(err.value)


def test_no_parameter_store_outlives_its_step(monkeypatch):
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=3, lambdas={"gender": 1.0, "age": 1.0})
    assert config.val_every == 0  # no validation, so no epoch is kept as the best
    init_model, adam_step = tr.init_model, tr.adam_step
    initial, same_arrays, peaks = {}, [], []

    def tracked_init(*args):
        model = init_model(*args)
        initial.update(model)
        return model

    def checked_step(params, grads, state):
        if state.step == 0:
            result = adam_step(params, grads, state)  # allocates the moments and the scratch rows
        else:
            tracemalloc.start()
            try:
                result = adam_step(params, grads, state)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        if len(same_arrays) < 4:
            same_arrays.append(result is params and params.keys() == initial.keys()
                               and all(params[name] is arr for name, arr in initial.items()))
        return result

    monkeypatch.setattr(tr, "init_model", tracked_init)
    monkeypatch.setattr(tr, "adam_step", checked_step)
    result = tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert same_arrays == [True] * 4
    # the phase steps one float32 store in place and returns the float64 upcast of its recommender
    assert all(arr.dtype == np.float32 for arr in initial.values())
    assert any(name.startswith("head.") for name in initial)
    assert result.params.keys() == RECOMMENDER_NAMES
    for name, arr in result.params.items():
        assert arr.tobytes() == initial[name].astype(np.float64).tobytes(), name
    largest = max(arr.nbytes for arr in initial.values())
    assert peaks and max(peaks) < largest, (max(peaks), largest)


@pytest.mark.parametrize("selection", ["best", "final"])
def test_removal_phase_returns_float64_upcasts_of_a_float32_store(selection):
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=3, val_every=1, selection=selection,
                                              lambdas={"gender": 1.0, "age": 1.0})
    result = tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert result.params.keys() == RECOMMENDER_NAMES  # the removal heads end with the phase
    for name, arr in result.params.items():
        assert arr.dtype == np.float64, name
        assert arr.astype(np.float32).astype(np.float64).tobytes() == arr.tobytes(), name


def test_best_selection_returns_the_store_of_a_run_stopped_at_the_best_epoch():
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=8, val_every=1, selection="best",
                                              lambdas={"gender": 1.0})
    best = tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert best.best_epoch < config.epochs_adversarial - 1  # later steps change the live store
    stopped_config = dataclasses.replace(config, epochs_adversarial=best.best_epoch + 1, selection="final")
    stopped = tr.train_adversarial_phase(dataset, attrs, fold, stopped_config)
    assert best.params.keys() == stopped.params.keys()
    for name, arr in stopped.params.items():
        assert best.params[name].tobytes() == arr.tobytes(), name


def test_attack_phase_leaves_model_frozen():
    dataset, attrs, fold, config = tiny_setup(lambdas={"gender": 0.0})
    result = tr.train_adversarial_phase(dataset, attrs, fold, config)
    before = params_hash(result.params.items())
    for arr in result.params.values():
        arr.setflags(write=False)  # numpy refuses any write into the model
    tr.train_attack_phase(result.params, dataset, attrs, fold.split, config)
    after = params_hash(result.params.items())
    assert before == after


def test_chunked_encoding_matches_one_full_matrix():
    n_users = tr.EVAL_CHUNK + 300
    dataset, _, _, _ = tiny_setup(n_users=n_users, n_items=20)
    encoder = mv.init_encoder(dataset.n_items, 6, 3, np.random.default_rng(5))
    users = np.random.default_rng(6).permutation(n_users)
    chunked = tr.encode_users(dataset, users, encoder)
    full = mv.encode_eval([dataset.row(u) for u in users], encoder)
    assert chunked.shape == (n_users, 3)
    assert np.max(np.abs(chunked - full)) <= 1e-12


def test_attacker_on_untrained_encoder_with_random_labels_is_chance_level():
    baccs = []
    for seed in range(5):
        dataset, attrs, fold, config = tiny_setup(
            n_users=250, seed=seed, epochs_attack=20, lambdas={"gender": 0.0}
        )
        rng = np.random.default_rng(seed + 900)
        attrs.gender = rng.permutation(np.tile([0, 1], 125))  # labels independent of x
        specs = tr.build_specs(attrs, config.lambdas, fold.split.train)
        model = tr.init_model(
            dataset, adv.Reversal(specs), config,
            np.random.default_rng(seed), np.random.default_rng(seed + 1),
        )
        attack = tr.train_attack_phase(model, dataset, attrs, fold.split, config)
        baccs.append(attack.metrics["bacc_gender"])
    assert 0.45 <= float(np.mean(baccs)) <= 0.60


def test_run_single_produces_percent_metrics_and_label():
    dataset, attrs, fold, config = tiny_setup(lambdas={"gender": 200.0, "age": 0.0})
    record = tr.run_single(dataset, attrs, fold, config, dataset_name="tiny")
    row = record.result_row()
    assert row["model"] == "AdvMultVAE-G"
    assert row["dataset"] == "tiny"
    assert row["lambda_gender"] == 200.0
    assert 0.0 <= row["ndcg@10"] <= 100.0
    assert 0.0 <= row["bacc_gender"] <= 100.0
    assert row["mae_age"] >= 0.0


def test_users_with_fewer_than_ten_rankable_items_do_not_fail_the_run():
    dataset, attrs = planted_dataset(n_users=80, n_items=14, seed=3, items_low=4, items_high=9)
    config = tr.TrainConfig(epochs_adversarial=2, epochs_attack=2, batch_size=32, d_hidden=8, d_latent=4,
                            d_adv_hidden=4, anneal_steps=10, val_every=1, lambdas={"gender": 1.0})
    fold = prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0], HOLDOUT_RATIO, config.data_seed)
    assert max(len(f) for f in fold.val_foldin + fold.test_foldin) > dataset.n_items - 10
    record = tr.run_single(dataset, attrs, fold, config)
    assert 0.0 < record.metrics["ndcg@10"] <= 1.0
    assert all(entry["val_ndcg"] > 0.0 for entry in record.train_log)


def test_model_labels_follow_suffix_convention():
    assert tr.model_label({}) == "MultVAE"
    assert tr.model_label({"gender": 0.0, "age": 0.0}) == "MultVAE"
    assert tr.model_label({"gender": 400.0, "age": 0.0}) == "AdvMultVAE-G"
    assert tr.model_label({"gender": 0.0, "age": 400.0}) == "AdvMultVAE-A"
    assert tr.model_label({"gender": 400.0, "age": 400.0}) == "AdvXMultVAE"


def test_default_grid_has_36_combinations():
    config = cf.load_config(None)
    config["grid.gender"] = config["grid.age"] = [0, 1, 200, 400, 600, 800]
    assert len(cf.grid_configs(config)) == 36


def test_grid_configs_vary_the_last_attribute_fastest_on_one_base():
    config = cf.load_config(None)
    config["train.lr"] = 0.01
    config["lambda.age"] = 7.0  # the grid's attributes make up each unit's whole lambda map
    config["grid.age"] = [0.0, 5.0]
    config["grid.gender"] = [1.0, 2.0]
    grid = cf.grid_configs(config)
    assert [list(unit.lambdas.items()) for unit in grid] == [
        [("gender", g), ("age", a)] for g, a in [(1.0, 0.0), (1.0, 5.0), (2.0, 0.0), (2.0, 5.0)]
    ]
    base = dataclasses.replace(cf.train_config(config), lambdas={})
    assert all(dataclasses.replace(unit, lambdas={}) == base for unit in grid)

    config["grid.age"] = None
    assert [unit.lambdas for unit in cf.grid_configs(config)] == [{"gender": 1.0}, {"gender": 2.0}]
    config["grid.gender"] = None
    with pytest.raises(ConfigError, match="grid"):
        cf.grid_configs(config)


def test_grid_search_rejects_a_grid_without_units():
    dataset, attrs, fold, config = tiny_setup()
    with pytest.raises(ConfigError, match="no unit"):
        tr.grid_search(dataset, attrs, [], [fold])
    with pytest.raises(ConfigError, match="no unit"):
        tr.grid_search(dataset, attrs, [config], [])


def test_grid_row_count_and_single_point_equivalence():
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=2, epochs_attack=2)
    folds = [
        prepare_fold(dataset, split, HOLDOUT_RATIO, config.data_seed)
        for split in make_folds(dataset.n_users, seed=11)[:2]
    ]
    outcome = tr.grid_search(
        dataset, attrs, units(config, {"gender": 0.0, "age": 0.0}, {"gender": 100.0, "age": 0.0}), folds,
        dataset_name="tiny",
    )
    assert not outcome.failures
    assert len(outcome.records) == 2 * 2  # combinations x folds
    assert [(r.lambdas["gender"], r.fold) for r in outcome.records] == [
        (lam, fold.index) for lam in (0.0, 100.0) for fold in folds
    ]

    single = tr.grid_search(
        dataset, attrs, units(config, {"gender": 100.0, "age": 0.0}), folds[:1], dataset_name="tiny"
    )
    direct = tr.run_single(
        dataset, attrs, folds[0],
        dataclasses.replace(config, lambdas={"gender": 100.0, "age": 0.0}),
        dataset_name="tiny",
    )
    assert single.records[0].result_row() == direct.result_row()


def test_grid_records_do_not_depend_on_worker_count():
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=2, epochs_attack=2)
    folds = [prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0],
                          HOLDOUT_RATIO, config.data_seed)]
    grid = units(config, {"gender": 0.0, "age": 10.0}, {"gender": 50.0, "age": 10.0})
    serial = tr.grid_search(dataset, attrs, grid, folds, workers=1)
    pooled = tr.grid_search(dataset, attrs, grid, folds, workers=2)
    assert not serial.failures and not pooled.failures
    assert [r.result_row() for r in pooled.records] == [r.result_row() for r in serial.records]
    for a, b in zip(serial.records, pooled.records):
        assert a.per_user.keys() == b.per_user.keys()
        assert all(a.per_user[key].tobytes() == b.per_user[key].tobytes() for key in a.per_user)
        assert a.train_log == b.train_log and a.attack_log == b.attack_log


def test_grid_records_hold_no_parameter_store():
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=1, epochs_attack=1)
    outcome = tr.grid_search(dataset, attrs, units(config, {"gender": 0.0}, {"gender": 50.0}), [fold])
    assert len(outcome.records) == 2 and all(record.params is None for record in outcome.records)
    single = tr.run_single(dataset, attrs, fold, dataclasses.replace(config, lambdas={"gender": 50.0}))
    assert single.params is not None and "enc.mu_b" in single.params


def test_grid_results_do_not_depend_on_combination_order():
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=2, epochs_attack=2)
    folds = [prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0],
                          HOLDOUT_RATIO, config.data_seed)]
    forward = tr.grid_search(dataset, attrs, units(config, {"gender": 0.0}, {"gender": 50.0}), folds)
    backward = tr.grid_search(dataset, attrs, units(config, {"gender": 50.0}, {"gender": 0.0}), folds)
    rows_fwd = sorted(str(sorted(r.result_row().items())) for r in forward.records)
    rows_bwd = sorted(str(sorted(r.result_row().items())) for r in backward.records)
    assert rows_fwd == rows_bwd


def test_grid_records_failures_and_continues(monkeypatch):
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=1, epochs_attack=1)
    folds = [prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0],
                          HOLDOUT_RATIO, config.data_seed)]
    original = tr.run_single

    def flaky(ds, at, fold, cfg, dataset_name="synthetic"):
        if cfg.lambdas.get("gender") == 13.0:
            raise RuntimeError("boom")
        return original(ds, at, fold, cfg, dataset_name)

    monkeypatch.setattr(tr, "run_single", flaky)
    outcome = tr.grid_search(dataset, attrs, units(config, {"gender": 0.0}, {"gender": 13.0}), folds)
    assert len(outcome.records) == 1
    assert len(outcome.failures) == 1
    assert outcome.failures[0][0] == {"gender": 13.0}


def test_grid_summary_pairs_users_only_within_folds_both_combinations_completed():
    dataset, attrs, _, config = tiny_setup(n_users=300, epochs_adversarial=2, epochs_attack=2)
    folds = [
        prepare_fold(dataset, split, HOLDOUT_RATIO, config.data_seed)
        for split in make_folds(dataset.n_users, seed=11)[:2]
    ]

    def record(lam, fold):
        record = tr.run_single(dataset, attrs, fold, dataclasses.replace(config, lambdas={"gender": lam}))
        if lam:  # the removal combination is the best one, whatever the tiny run gives
            record.metrics["bacc_gender"] = 0.0
        return record

    baseline = [record(0.0, fold) for fold in folds]
    removed = record(400.0, folds[1])
    p_keys = ("p_ndcg_vs_baseline", "p_attr_vs_baseline")

    (disjoint,) = tr.grid_summary([baseline[0], removed])
    assert not any(key in disjoint for key in p_keys)

    (mismatched,) = tr.grid_summary([*baseline, removed])
    (shared_only,) = tr.grid_summary([baseline[1], removed])
    assert all(key in shared_only for key in p_keys)
    assert mismatched == shared_only


def test_grid_summary_rows_follow_the_lambda_map_with_kinds_from_the_table():
    def record(lambdas, fold, bacc, mae):
        # the metrics list age before gender, unlike the lambda map
        metrics = {"ndcg@10": 0.5, "mae_age": mae, "bacc_gender": bacc}
        return tr.RunRecord(dataset_name="tiny", lambdas=lambdas, fold=fold, metrics=metrics, per_user={},
                            train_log=[], attack_log=[], params=None)

    records = [
        record({"gender": 0.0, "age": 0.0}, 0, bacc=0.9, mae=0.1),
        record({"gender": 400.0, "age": 0.0}, 1, bacc=0.6, mae=0.1),
        record({"gender": 0.0, "age": 400.0}, 1, bacc=0.9, mae=0.3),
    ]
    rows = tr.grid_summary(records)
    assert [row["attribute"] for row in rows] == ["gender", "age"]
    assert [row["selection_rule"] for row in rows] == ["min bacc_gender", "max mae_age"]
    assert [row["model"] for row in rows] == ["AdvMultVAE-G", "AdvMultVAE-A"]


def test_best_validation_checkpoint_is_tracked():
    dataset, attrs, fold, config = tiny_setup(
        epochs_adversarial=6, val_every=2, selection="best"
    )
    result = tr.train_adversarial_phase(dataset, attrs, fold, config)
    assert result.best_epoch >= 0
    logged = [entry for entry in result.log if "val_ndcg" in entry]
    assert logged, "validation entries expected"
    best_logged = max(entry["val_ndcg"] for entry in logged)
    assert abs(best_logged - result.best_val_ndcg) < 1e-12
