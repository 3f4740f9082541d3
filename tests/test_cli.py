import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from advrec.cli import main
from advrec.synthetic import planted_dataset


def write_raw_tsvs(tmp_path, n_users=80, n_items=30, seed=0):
    dataset, attrs = planted_dataset(n_users, n_items, seed=seed, items_low=4, items_high=12)
    ipath = tmp_path / "interactions.tsv"
    dpath = tmp_path / "demographics.tsv"
    with open(ipath, "w") as fh:
        fh.write("user_id\titem_id\n")
        for u, row in enumerate(dataset.rows):
            for i in row:
                fh.write(f"{dataset.user_ids[u]}\t{dataset.item_ids[i]}\n")
    with open(dpath, "w") as fh:
        fh.write("user_id\tgender\tage\n")
        for u in range(dataset.n_users):
            token = attrs.gender_labels[attrs.gender[u]]
            fh.write(f"{dataset.user_ids[u]}\t{token}\t{attrs.age_raw[u]:.6f}\n")
    return ipath, dpath


def write_config(tmp_path, **extra):
    lines = {
        "data.name": "tiny",
        "data.interactions": str(tmp_path / "interactions.tsv"),
        "data.demographics": str(tmp_path / "demographics.tsv"),
        "data.cache": str(tmp_path / "tiny.cache"),
        "data.k_core": "2",
        "train.epochs_adversarial": "3",
        "train.epochs_attack": "3",
        "train.batch_size": "32",
        "train.d_hidden": "12",
        "train.d_latent": "6",
        "train.d_adv_hidden": "6",
        "train.val_every": "0",
        "train.selection": "final",
        "train.n_folds": "2",
        "train.anneal_steps": "50",
        "out.dir": str(tmp_path / "runs"),
        "lambda.gender": "0",
        "lambda.age": "0",
    }
    lines.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def workspace(tmp_path):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path)
    return tmp_path, config


def test_preprocess_writes_cache_and_stats(workspace, capsys):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "users" in out and "density" in out
    stats = json.loads((tmp_path / "tiny.cache.stats.json").read_text())
    assert stats["users"] > 0 and stats["items"] > 0
    assert len(stats["gender_counts"]) == 2

    first = (tmp_path / "tiny.cache").read_bytes()
    assert main(["preprocess", "--config", str(config)]) == 0
    assert (tmp_path / "tiny.cache").read_bytes() == first


def test_preprocess_missing_demographics_fails_clearly(tmp_path, capsys):
    write_raw_tsvs(tmp_path)
    (tmp_path / "demographics.tsv").unlink()
    config = write_config(tmp_path)
    code = main(["preprocess", "--config", str(config)])
    assert code != 0
    assert "demographics" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path)
    config.write_text(config.read_text() + "train.warp_speed=9\n")
    code = main(["preprocess", "--config", str(config)])
    assert code == 2
    assert "train.warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("train.d_adv_hidden", "0"), ("train.lr", "-1"), ("train.lr", "0"), ("train.lr", "nan"),
    ("train.adam_beta1", "1"), ("train.adam_beta2", "1"), ("train.adam_epsilon", "0"),
    ("train.val_every", "-1"), ("train.anneal_steps", "-1"),
    ("train.beta_max", "nan"), ("train.beta_max", "inf"), ("lambda.gender", "nan"),
    ("train.model_seed", "-1"), ("train.data_seed", "-1"), ("train.adversary_seed", "-1"),
    ("train.d_hidden", "0"), ("train.d_latent", "0"), ("train.dropout_keep", "0"),
    ("train.dropout_keep", "nan"), ("train.dropout_keep", "1.5"), ("train.holdout_ratio", "0"),
    ("train.holdout_ratio", "1"), ("train.holdout_ratio", "nan"),
])
def test_train_rejects_out_of_range_settings(tmp_path, capsys, key, value):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path, **{key: value})
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 2
    assert key.split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "grid"])
def test_settings_are_checked_before_the_data_is_read(tmp_path, capsys, command):
    config = write_config(tmp_path, **{"train.dropout_keep": "0", "grid.gender": "0,60"})
    assert main([command, "--config", str(config)]) == 2  # no cache exists, and the setting is named first
    assert "dropout_keep" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_grid_without_folds_is_rejected(workspace, capsys):
    tmp_path, config = workspace
    config.write_text(config.read_text() + "train.n_folds=0\ngrid.gender=0,60\n")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["grid", "--config", str(config)]) == 2
    assert "n_folds" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_removed_activation_key_is_rejected(workspace, capsys):
    _, config = workspace
    config.write_text(config.read_text() + "train.activation=tanh\n")
    assert main(["preprocess", "--config", str(config)]) == 2
    assert "train.activation" in capsys.readouterr().err


def test_negative_master_seed_is_rejected(tmp_path, capsys):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path)
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    {"data.item_subsample": "-3"}, {"data.item_subsample": "20", "data.subsample_seed": "-1"},
    {"data.age_cap": "0"}, {"data.age_cap": "-5"}, {"data.age_cap": "nan"}, {"data.age_cap": "inf"},
    {"data.k_core": "0"}, {"data.k_core": "-2"},
    # checked before the inputs are opened, so a missing file does not mask it
    {"data.interactions": "no-such-dir/interactions.tsv", "data.k_core": "0"},
], ids=lambda settings: ",".join(f"{key}={value}" for key, value in settings.items()))
def test_preprocess_rejects_out_of_range_settings(tmp_path, capsys, settings):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path, **settings)
    assert main(["preprocess", "--config", str(config)]) == 2
    assert list(settings)[-1] in capsys.readouterr().err


def test_full_single_run_pipeline(workspace, capsys):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0

    # eval before training: clear error
    assert main(["eval", "--config", str(config)]) == 2
    assert "checkpoint" in capsys.readouterr().err

    assert main(["train", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "MultVAE" / "fold0"
    assert (run_dir / "checkpoint.bin").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["model"] == "MultVAE"
    assert manifest["artifact_version"]
    assert "dataset_sha256" in manifest
    log_rows = read_csv(run_dir / "train_log.csv")
    assert len(log_rows) == 3

    assert main(["attack", "--config", str(config)]) == 0
    attack_rows = read_csv(run_dir / "attack_metrics.csv")
    assert attack_rows[0]["model"] == "MultVAE"
    assert 0.0 <= float(attack_rows[0]["bacc_gender"]) <= 100.0
    assert (run_dir / "attacker.bin").exists()

    assert main(["eval", "--config", str(config)]) == 0
    metric_rows = read_csv(run_dir / "metrics.csv")
    assert 0.0 <= float(metric_rows[0]["ndcg@10"]) <= 100.0

    assert main(["export-embeddings", "--config", str(config)]) == 0
    lines = (run_dir / "embeddings.tsv").read_text().splitlines()
    cache_rows = json.loads((tmp_path / "tiny.cache.stats.json").read_text())["users"]
    n_test = round(0.2 * cache_rows)
    assert len(lines) == 1 + n_test
    assert len(lines[1].split("\t")) == 1 + 6 + 4  # user id, d_latent, preds + trues
    again = (run_dir / "embeddings.tsv").read_bytes()
    assert main(["export-embeddings", "--config", str(config)]) == 0
    assert (run_dir / "embeddings.tsv").read_bytes() == again


def test_export_embeddings_names_an_attribute_without_an_attacker(workspace, capsys):
    tmp_path, config = workspace
    config.write_text(config.read_text().replace("lambda.age=0\n", ""))
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["attack", "--config", str(config)]) == 0
    capsys.readouterr()
    # the same MultVAE run directory, whose attacker.bin has a gender attacker only
    assert main(["export-embeddings", "--config", str(config), "--lambda", "age=0"]) == 2
    assert "'age'" in capsys.readouterr().err


def test_commands_reject_a_checkpoint_for_another_catalog(workspace, capsys):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["attack", "--config", str(config)]) == 0
    write_raw_tsvs(tmp_path, n_items=36)
    assert main(["preprocess", "--config", str(config)]) == 0
    capsys.readouterr()
    for command in ("attack", "eval", "export-embeddings"):
        assert main([command, "--config", str(config)]) == 2
        assert "checkpoint expects" in capsys.readouterr().err


def test_train_log_keeps_validation_column_when_the_first_epoch_is_not_validated(tmp_path):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path, **{"train.val_every": "2", "train.selection": "best"})
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    rows = read_csv(tmp_path / "runs" / "MultVAE" / "fold0" / "train_log.csv")
    assert [row["val_ndcg"] != "" for row in rows] == [False, True, True]


def test_model_labels_in_output_paths(workspace):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--lambda", "gender=100"]) == 0
    assert (tmp_path / "runs" / "AdvMultVAE-G" / "fold0" / "checkpoint.bin").exists()
    assert main(["train", "--config", str(config), "--lambda", "gender=100",
                 "--lambda", "age=100"]) == 0
    assert (tmp_path / "runs" / "AdvXMultVAE" / "fold0" / "checkpoint.bin").exists()


def test_grid_results_and_summary(workspace):
    tmp_path, config = workspace
    config.write_text(config.read_text() + "grid.gender=0,60\ngrid.age=0\n")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["grid", "--config", str(config)]) == 0

    results = read_csv(tmp_path / "runs" / "grid" / "results.csv")
    assert len(results) == 2 * 2  # combinations x folds
    assert {row["model"] for row in results} == {"MultVAE", "AdvMultVAE-G"}

    summary = read_csv(tmp_path / "runs" / "grid" / "summary.csv")
    by_attr = {row["attribute"]: row for row in summary}
    assert set(by_attr) == {"gender", "age"}

    # the summary's gender row follows the min-BAcc selection rule
    mean_bacc = {}
    for row in results:
        key = (row["lambda_gender"], row["lambda_age"])
        mean_bacc.setdefault(key, []).append(float(row["bacc_gender"]))
    best = min(mean_bacc, key=lambda key: np.mean(mean_bacc[key]))
    assert float(by_attr["gender"]["lambda_gender"]) == float(best[0])
    assert float(by_attr["gender"]["bacc_gender_mean"]) == pytest.approx(
        float(np.mean(mean_bacc[best])), abs=1e-4
    )


def test_grid_single_point_matches_single_run(workspace):
    tmp_path, config = workspace
    config.write_text(
        config.read_text().replace("train.n_folds=2", "train.n_folds=1")
        + "grid.gender=60\ngrid.age=0\n"
    )
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["grid", "--config", str(config)]) == 0
    grid_rows = read_csv(tmp_path / "runs" / "grid" / "results.csv")
    assert len(grid_rows) == 1

    assert main(["train", "--config", str(config), "--lambda", "gender=60"]) == 0
    assert main(["attack", "--config", str(config), "--lambda", "gender=60"]) == 0
    assert main(["eval", "--config", str(config), "--lambda", "gender=60"]) == 0
    run_dir = tmp_path / "runs" / "AdvMultVAE-G" / "fold0"
    eval_row = read_csv(run_dir / "metrics.csv")[0]
    attack_row = read_csv(run_dir / "attack_metrics.csv")[0]
    grid_row = grid_rows[0]
    assert float(grid_row["ndcg@10"]) == pytest.approx(float(eval_row["ndcg@10"]), abs=1e-6)
    assert float(grid_row["bacc_gender"]) == pytest.approx(float(attack_row["bacc_gender"]), abs=1e-6)
    assert float(grid_row["mae_age"]) == pytest.approx(float(attack_row["mae_age"]), abs=1e-6)


def test_console_script_entry_point(workspace):
    _, config = workspace
    result = subprocess.run(
        [sys.executable, "-m", "advrec.cli", "preprocess", "--config", str(config)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "cache written" in result.stdout
