import dataclasses

import numpy as np
import pytest

from advrec import adversarial as adv
from advrec import multvae as mv
from advrec import training as tr
from advrec.config import load_config
from advrec.data import make_folds, prepare_fold
from advrec.errors import TrainingDiverged
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
    fold = prepare_fold(dataset, folds[0], config.holdout_ratio, config.data_seed)
    return dataset, attrs, fold, config


def enc_dec_bytes(model):
    return [
        (name, arr.tobytes())
        for name, arr in model.named()
        if name.startswith(("enc.", "dec."))
    ]


def test_adam_first_step_closed_form():
    state = tr.AdamState(lr=1e-3)
    params = {"w": np.array([0.0])}
    updated = tr.adam_step(params, {"w": np.array([1.0])}, state)
    delta = updated["w"][0] - params["w"][0]
    assert abs(delta + 0.001) < 1e-6


def test_adam_zero_gradient_leaves_parameters_unchanged():
    state = tr.AdamState()
    params = {"w": np.array([1.5, -2.5])}
    for _ in range(10):
        params = tr.adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.5, -2.5])


def test_adam_rejects_non_finite_gradient_naming_parameter():
    state = tr.AdamState()
    with pytest.raises(TrainingDiverged) as err:
        tr.adam_step({"enc.mu_w": np.zeros(2)}, {"enc.mu_w": np.array([1.0, np.nan])}, state)
    assert "enc.mu_w" in str(err.value)


def test_default_epoch_counts_follow_protocol():
    config = tr.TrainConfig()
    assert config.epochs_adversarial == 200
    assert config.epochs_attack == 50


def test_train_defaults_are_written_once():
    config = load_config(None)
    assert config.train_config() == tr.TrainConfig()
    for f in dataclasses.fields(tr.TrainConfig):
        if f.name != "lambdas":
            assert f"train.{f.name}" in config.values


def test_training_is_bit_deterministic():
    results = []
    for _ in range(2):
        dataset, attrs, fold, config = tiny_setup(lambdas={"gender": 1.0, "age": 1.0})
        specs = tr.build_specs(attrs, config.lambdas, fold.split.train)
        result = tr.train_adversarial_phase(dataset, attrs, specs, fold, config)
        results.append(tr.params_hash(result.final_params.named()))
    assert results[0] == results[1]


def test_epoch_log_length_matches_configuration():
    dataset, attrs, fold, config = tiny_setup(epochs_adversarial=7, epochs_attack=3)
    specs = tr.build_specs(attrs, {}, fold.split.train)
    result = tr.train_adversarial_phase(dataset, attrs, specs, fold, config)
    assert len(result.log) == 7
    attack = tr.train_attack_phase(result.final_params, dataset, attrs,
                                   tr.build_specs(attrs, {"gender": 0.0}, fold.split.train),
                                   fold, config)
    assert len(attack.log) == 3


def test_zero_lambda_run_matches_plain_training_bitwise():
    dataset, attrs, fold, config = tiny_setup(
        epochs_adversarial=10, lambdas={"gender": 0.0, "age": 0.0}
    )
    specs = tr.build_specs(attrs, config.lambdas, fold.split.train)
    with_heads = tr.train_adversarial_phase(dataset, attrs, specs, fold, config)

    plain_config = dataclasses.replace(config, lambdas={})
    plain = tr.train_adversarial_phase(dataset, attrs, [], fold, plain_config)

    for (name_a, bytes_a), (name_b, bytes_b) in zip(
        enc_dec_bytes(with_heads.final_params), enc_dec_bytes(plain.final_params)
    ):
        assert name_a == name_b
        assert bytes_a == bytes_b, f"{name_a} diverged"


def test_divergence_aborts_with_location(monkeypatch):
    dataset, attrs, fold, config = tiny_setup()

    class BadLoss:
        data = np.float64("nan")

    def bad_objective(*args, **kwargs):
        parts = adv.ObjectiveParts(
            loss=BadLoss(), mult=None, nll=None, kl=None, adv={}, state=None
        )
        return parts, None, {}

    monkeypatch.setattr(adv, "total_objective", bad_objective)
    with pytest.raises(TrainingDiverged) as err:
        tr.train_adversarial_phase(dataset, attrs, [], fold, config)
    assert "epoch 0" in str(err.value) and "batch 0" in str(err.value)


def test_attack_phase_leaves_model_frozen():
    dataset, attrs, fold, config = tiny_setup(lambdas={"gender": 0.0})
    specs = tr.build_specs(attrs, config.lambdas, fold.split.train)
    result = tr.train_adversarial_phase(dataset, attrs, specs, fold, config)
    before = tr.params_hash(
        (n, a) for n, a in result.final_params.named() if n.startswith(("enc.", "dec."))
    )
    tr.train_attack_phase(result.final_params, dataset, attrs, specs, fold, config)
    after = tr.params_hash(
        (n, a) for n, a in result.final_params.named() if n.startswith(("enc.", "dec."))
    )
    assert before == after
    frozen = result.final_params.frozen_copy()
    with pytest.raises(ValueError):
        frozen.encoder.hidden_w[0, 0] = 1.0  # numpy blocks writes to frozen arrays


def test_chunked_encoding_matches_one_full_matrix():
    n_users = tr.EVAL_CHUNK + 300
    dataset, _, _, config = tiny_setup(n_users=n_users, n_items=20)
    encoder = mv.init_encoder(dataset.n_items, 6, 3, np.random.default_rng(5))
    users = np.random.default_rng(6).permutation(n_users)
    chunked = tr.encode_users(dataset, users, encoder, config.activation)
    full = mv.encode_eval(dataset.batch_matrix(users), encoder, config.activation)
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
            dataset, specs, config,
            np.random.default_rng(seed), np.random.default_rng(seed + 1),
        )
        attack = tr.train_attack_phase(model, dataset, attrs, specs, fold, config)
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


def test_model_labels_follow_suffix_convention():
    assert tr.model_label({}) == "MultVAE"
    assert tr.model_label({"gender": 0.0, "age": 0.0}) == "MultVAE"
    assert tr.model_label({"gender": 400.0, "age": 0.0}) == "AdvMultVAE-G"
    assert tr.model_label({"gender": 0.0, "age": 400.0}) == "AdvMultVAE-A"
    assert tr.model_label({"gender": 400.0, "age": 400.0}) == "AdvXMultVAE"


def test_default_grid_has_36_combinations():
    grid = {"gender": [0, 1, 200, 400, 600, 800], "age": [0, 1, 200, 400, 600, 800]}
    assert len(tr.lambda_combinations(grid)) == 36


def test_grid_row_count_and_single_point_equivalence():
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=2, epochs_attack=2)
    folds = [
        prepare_fold(dataset, split, config.holdout_ratio, config.data_seed)
        for split in make_folds(dataset.n_users, seed=11)[:2]
    ]
    outcome = tr.grid_search(
        dataset, attrs, {"gender": [0.0, 100.0], "age": [0.0]}, folds, config, dataset_name="tiny"
    )
    assert not outcome.failures
    assert len(outcome.records) == 2 * 2  # combinations x folds

    single = tr.grid_search(
        dataset, attrs, {"gender": [100.0], "age": [0.0]}, folds[:1], config, dataset_name="tiny"
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
                          config.holdout_ratio, config.data_seed)]
    grid = {"gender": [0.0, 50.0], "age": [10.0]}
    serial = tr.grid_search(dataset, attrs, grid, folds, config, workers=1)
    pooled = tr.grid_search(dataset, attrs, grid, folds, config, workers=2)
    assert not serial.failures and not pooled.failures
    assert [r.result_row() for r in pooled.records] == [r.result_row() for r in serial.records]
    for a, b in zip(serial.records, pooled.records):
        assert tr.params_hash(a.params.named()) == tr.params_hash(b.params.named())


def test_grid_results_do_not_depend_on_combination_order():
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=2, epochs_attack=2)
    folds = [prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0],
                          config.holdout_ratio, config.data_seed)]
    forward = tr.grid_search(dataset, attrs, {"gender": [0.0, 50.0]}, folds, config)
    backward = tr.grid_search(dataset, attrs, {"gender": [50.0, 0.0]}, folds, config)
    rows_fwd = sorted(str(sorted(r.result_row().items())) for r in forward.records)
    rows_bwd = sorted(str(sorted(r.result_row().items())) for r in backward.records)
    assert rows_fwd == rows_bwd


def test_grid_records_failures_and_continues(monkeypatch):
    dataset, attrs, _, config = tiny_setup(epochs_adversarial=1, epochs_attack=1)
    folds = [prepare_fold(dataset, make_folds(dataset.n_users, seed=11)[0],
                          config.holdout_ratio, config.data_seed)]
    original = tr.run_single

    def flaky(ds, at, fold, cfg, dataset_name="synthetic"):
        if cfg.lambdas.get("gender") == 13.0:
            raise RuntimeError("boom")
        return original(ds, at, fold, cfg, dataset_name)

    monkeypatch.setattr(tr, "run_single", flaky)
    outcome = tr.grid_search(dataset, attrs, {"gender": [0.0, 13.0]}, folds, config)
    assert len(outcome.records) == 1
    assert len(outcome.failures) == 1
    assert outcome.failures[0][0] == {"gender": 13.0}


def test_best_validation_checkpoint_is_tracked():
    dataset, attrs, fold, config = tiny_setup(
        epochs_adversarial=6, val_every=2, selection="best"
    )
    specs = tr.build_specs(attrs, {}, fold.split.train)
    result = tr.train_adversarial_phase(dataset, attrs, specs, fold, config)
    assert result.best_epoch >= 0
    logged = [entry for entry in result.log if "val_ndcg" in entry]
    assert logged, "validation entries expected"
    best_logged = max(entry["val_ndcg"] for entry in logged)
    assert abs(best_logged - result.best_val_ndcg) < 1e-12
