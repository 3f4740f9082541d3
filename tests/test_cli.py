import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from advrec import adversarial as adv
from advrec import multvae as mv
from advrec import training as tr
from advrec.cli import main
from advrec.container import MAGIC, load_container, save_container
from advrec.data import load_cache
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


def test_preprocess_stats_count_what_ingest_dropped(tmp_path, capsys):
    (tmp_path / "interactions.tsv").write_text(
        "user_id\titem_id\nu1\ta\nu1\tb\nu1\ta\n\nu2\ta\nu2\tb\nu3\ta\nu9\tc\n"
    )
    (tmp_path / "demographics.tsv").write_text("user_id\tgender\tage\nu1\tm\t30\nu2\tf\t40\nu3\tm\t50\n")
    assert main(["preprocess", "--config", str(write_config(tmp_path))]) == 0
    stats = json.loads((tmp_path / "tiny.cache.stats.json").read_text())
    assert stats["ingest"] == {
        "lines": 7, "lines_without_demographics": 1, "distinct_pairs": 5,
        "k_core_removed_users": 1, "k_core_removed_items": 0,
    }
    assert (stats["users"], stats["items"], stats["interactions"]) == (2, 2, 4)
    assert "lines_without_demographics: 1" in capsys.readouterr().out


def test_a_gender_label_that_no_kept_user_holds_is_dropped(workspace, capsys):
    tmp_path, config = workspace
    demographics = tmp_path / "demographics.tsv"
    header, rest = demographics.read_text().split("\n", 1)
    demographics.write_text(f"{header}\nnobody\tx\t30\n{rest}")  # demographics, but no interaction lines
    assert main(["preprocess", "--config", str(config)]) == 0
    stats = json.loads((tmp_path / "tiny.cache.stats.json").read_text())
    assert stats["gender_labels"] == ["g0", "g1"] and sum(stats["gender_counts"]) == stats["users"]
    assert 0 not in stats["gender_counts"]
    assert main(["train", "--config", str(config), "--lambda", "gender=400"]) == 0


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
    ("train.val_every", "-1"), ("train.anneal_steps", "-1"),
    ("train.beta_max", "nan"), ("train.beta_max", "inf"), ("lambda.gender", "nan"),
    ("train.model_seed", "-1"), ("train.data_seed", "-1"), ("train.adversary_seed", "-1"),
    ("train.d_hidden", "0"), ("train.d_latent", "0"),
])
def test_train_rejects_out_of_range_settings(tmp_path, capsys, key, value):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path, **{key: value})
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 2
    assert key.split(".")[1] in capsys.readouterr().err


@pytest.mark.parametrize("command, settings, named", [
    ("train", {"train.d_hidden": "0", "grid.gender": "0,60"}, "d_hidden"),
    ("grid", {"train.d_hidden": "0", "grid.gender": "0,60"}, "d_hidden"),
    # a bad value in one grid combination fails the command before any unit runs
    ("grid", {"grid.gender": "0,-1"}, "'gender'"),
    ("grid", {"grid.gender": "0,nan"}, "'gender'"),
    # two units of one grid would write the same directory
    ("grid", {"grid.gender": "400,0,400"}, "grid.gender"),
    ("grid", {"grid.age": "0.1234567,0.1234568"}, "grid.age"),
    # two labels of one value would train one combination twice
    ("grid", {"grid.gender": "0,-0"}, "grid.gender"),
    # the fold settings are named before the cache is looked for
    ("train", {"train.fold": "7"}, "train.fold"),
    ("eval", {"train.fold": "-1"}, "train.fold"),
    ("train", {"train.n_folds": "0"}, "n_folds"),
    ("grid", {"train.n_folds": "0", "grid.gender": "0,60"}, "n_folds"),
], ids=["train", "grid", "grid.gender=0,-1", "grid.gender=0,nan", "grid.gender=400,0,400",
        "grid.age=0.1234567,0.1234568", "grid.gender=0,-0", "train.fold=7", "eval.train.fold=-1",
        "train.n_folds=0", "grid.n_folds=0"])
def test_settings_are_checked_before_the_data_is_read(tmp_path, capsys, command, settings, named):
    config = write_config(tmp_path, **settings)
    assert main([command, "--config", str(config)]) == 2  # no cache exists, and the setting is named first
    assert named in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_grid_without_folds_is_rejected(workspace, capsys):
    tmp_path, config = workspace
    config.write_text(config.read_text() + "train.n_folds=0\ngrid.gender=0,60\n")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["grid", "--config", str(config)]) == 2
    assert "n_folds" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("setting", [
    "train.activation=tanh", "train.adam_beta1=0.9", "train.adam_beta2=0.999", "train.adam_epsilon=1e-8",
    "train.dropout_keep=0.5", "train.holdout_ratio=0.2", "data.subsample_seed=0",
])
def test_removed_key_is_rejected(workspace, capsys, setting):
    _, config = workspace
    config.write_text(config.read_text() + setting + "\n")
    assert main(["preprocess", "--config", str(config)]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "train", "attack", "eval", "export-embeddings"])
def test_only_grid_takes_workers(workspace, capsys, command):
    _, config = workspace
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(config), "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_grid_needs_at_least_one_worker(tmp_path, capsys, workers):
    config = write_config(tmp_path, **{"grid.gender": "0,60"})
    assert main(["grid", "--config", str(config), "--workers", workers]) == 2  # no cache exists
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("target, problem", [
    ("run.conf", "missing"), ("run.conf", "directory"), ("run.conf", "not-utf8"),
    ("interactions.tsv", "directory"), ("interactions.tsv", "not-utf8"), ("demographics.tsv", "not-utf8"),
], ids=lambda value: value)
def test_unreadable_inputs_exit_2_naming_the_file(tmp_path, capsys, target, problem):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path)
    path = tmp_path / target
    if problem == "not-utf8":
        path.write_bytes(path.read_bytes() + b"u1\t\xff\t30\n")
    else:
        path.unlink()
        if problem == "directory":
            path.mkdir()
    assert main(["preprocess", "--config", str(config)]) == 2
    assert str(path) in capsys.readouterr().err


def test_a_corrupt_cache_header_exits_2_naming_the_cache(workspace, capsys):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    cache = tmp_path / "tiny.cache"
    cache.write_bytes(MAGIC + (2).to_bytes(8, "little") + b"[]")
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert str(cache) in capsys.readouterr().err


def _fail_if_called(*args, **kwargs):
    raise AssertionError("ran despite an output path that cannot be written")


@pytest.mark.parametrize("command, unusable", [
    ("train", "out.dir"), ("grid", "out.dir"), ("preprocess", "data.cache"),
], ids=["train", "grid", "preprocess"])
def test_an_unusable_output_path_exits_2_naming_it(workspace, capsys, monkeypatch, command, unusable):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    path = tmp_path / "unusable"
    if unusable == "out.dir":
        path.write_text("a file, not a directory\n")  # train and grid find it before any unit trains
        monkeypatch.setattr(tr, "train_adversarial_phase", _fail_if_called)
        monkeypatch.setattr(tr, "grid_search", _fail_if_called)
    else:
        path.mkdir()
    config.write_text(config.read_text() + f"{unusable}={path}\ngrid.gender=0,60\n")
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    assert str(path) in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("**/*.tmp")] == []


@pytest.mark.parametrize("command, target", [
    ("train", "tiny.cache"),
    ("attack", "runs/MultVAE/fold0/checkpoint.bin"),
    ("eval", "runs/MultVAE/fold0/checkpoint.bin"),
    ("export-embeddings", "runs/MultVAE/fold0/attack_scores.bin"),
], ids=["train-cache", "attack-checkpoint", "eval-checkpoint", "export-embeddings-attack-scores"])
def test_a_container_that_cannot_be_read_exits_2_naming_it(workspace, capsys, command, target):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    path = tmp_path / target
    if path.exists():
        path.unlink()
    path.mkdir(parents=True)
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    assert str(path) in capsys.readouterr().err


def test_negative_master_seed_is_rejected(tmp_path, capsys):
    write_raw_tsvs(tmp_path)
    config = write_config(tmp_path)
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    {"data.item_subsample": "-3"},
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


def test_full_single_run_pipeline(workspace, capsys, monkeypatch):
    tmp_path, config = workspace
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
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
    environment = manifest["environment"]
    assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
    assert environment["numpy"] == np.__version__
    assert sorted(environment["blas_threads"]) == sorted(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                                          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"])
    assert environment["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["blas_threads"]["MKL_NUM_THREADS"] is None
    assert 1 <= environment["usable_cpus"] <= os.cpu_count()
    log_rows = read_csv(run_dir / "train_log.csv")
    assert len(log_rows) == 3

    assert main(["attack", "--config", str(config)]) == 0
    attack_rows = read_csv(run_dir / "attack_metrics.csv")
    assert attack_rows[0]["model"] == "MultVAE"
    assert 0.0 <= float(attack_rows[0]["bacc_gender"]) <= 100.0
    assert not (run_dir / "attacker.bin").exists()  # the attack writes only what it measured

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


def test_export_embeddings_squashes_as_the_loaded_attacker_was_trained(workspace):
    tmp_path, config = workspace
    default = config.read_text()
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    config.write_text(default + "train.continuous_head=linear\n")
    assert main(["attack", "--config", str(config)]) == 0
    config.write_text(default)
    assert main(["export-embeddings", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "MultVAE" / "fold0"
    scores, _ = load_container(str(run_dir / "attack_scores.bin"))
    with open(run_dir / "embeddings.tsv", newline="") as fh:
        exported = [float(row["pred_age"]) for row in csv.DictReader(fh, delimiter="\t")]
    assert np.array_equal(exported, scores["pred_age"])


def test_export_embeddings_writes_what_the_attack_measured(workspace):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["attack", "--config", str(config)]) == 0
    # a retrained checkpoint does not change what the attack measured
    assert main(["train", "--config", str(config), "--seed", "9"]) == 0
    assert main(["export-embeddings", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "MultVAE" / "fold0"
    scores, _ = load_container(str(run_dir / "attack_scores.bin"))
    with open(run_dir / "embeddings.tsv", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    mu = np.array([[float(row[f"z{i}"]) for i in range(scores["mu"].shape[1])] for row in rows])
    assert mu.tobytes() == scores["mu"].tobytes()
    assert [int(row["pred_gender"]) for row in rows] == scores["pred_gender"].tolist()
    assert np.array([float(row["pred_age"]) for row in rows]).tobytes() == scores["pred_age"].tobytes()


def test_export_embeddings_formats_each_value_as_repr_precision_text(workspace):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["attack", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "MultVAE" / "fold0"
    path = str(run_dir / "attack_scores.bin")
    scores, meta = load_container(path)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3, -7.0, 123456789.0]
    mu = np.resize(np.array(special), scores["mu"].size).reshape(scores["mu"].shape)
    mu[1::2] *= np.random.default_rng(0).standard_normal(mu[1::2].shape)
    scores["mu"] = mu
    scores["pred_age"] = np.resize(np.array(special[:4]), scores["pred_age"].shape)
    save_container(path, scores, meta)
    assert main(["export-embeddings", "--config", str(config)]) == 0

    dataset, attrs, _ = load_cache(str(tmp_path / "tiny.cache"))
    targets = attrs.targets()
    d = mu.shape[1]
    lines = ["\t".join(["user_id"] + [f"z{i}" for i in range(d)] + ["pred_gender", "pred_age", "true_gender", "true_age"])]
    for i, user in enumerate(scores["test_users"]):
        parts = [dataset.user_ids[user]] + [f"{value:.17g}" for value in mu[i]]
        parts += [str(int(scores["pred_gender"][i])), f"{scores['pred_age'][i]:.17g}"]
        parts += [str(int(targets["gender"][user])), f"{targets['age'][user]:.17g}"]
        lines.append("\t".join(parts))
    exported = (run_dir / "embeddings.tsv").read_text()
    assert exported == "\n".join(lines) + "\n"
    assert "\t-0\t" in exported and "\t4.9406564584124654e-324\t" in exported and "\t-1.0000000000000001e+300" in exported


def _without_attack_scores(run_dir, config):
    (run_dir / "attack_scores.bin").unlink()


def _attack_on_other_test_users(run_dir, config):
    assert main(["train", "--config", str(config), "--seed", "5"]) == 0
    assert main(["attack", "--config", str(config), "--seed", "5"]) == 0


def _attack_scores_without_mu(run_dir, config):
    path = str(run_dir / "attack_scores.bin")
    scores, meta = load_container(path)
    del scores["mu"], meta["n_items"]
    save_container(path, scores, meta)


def _attack_scores_with(name, value):
    """A spoiler named after ``name`` that replaces that array of the attack's record with ``value(array)``."""
    def spoil(run_dir, config):
        path = str(run_dir / "attack_scores.bin")
        scores, meta = load_container(path)
        scores[name] = value(scores[name])
        save_container(path, scores, meta)
    spoil.__name__ = f"_attack_scores_with_a_reshaped_{name}"
    return spoil


@pytest.mark.parametrize("spoil", [
    _without_attack_scores, _attack_on_other_test_users, _attack_scores_without_mu,
    _attack_scores_with("pred_gender", lambda pred: pred[:3]),
    _attack_scores_with("mu", lambda mu: mu[:, 0].copy()),
], ids=lambda spoil: spoil.__name__.strip("_"))
def test_export_embeddings_needs_the_attack_record_of_this_fold(workspace, capsys, spoil):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["attack", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "MultVAE" / "fold0"
    spoil(run_dir, config)
    capsys.readouterr()
    assert main(["export-embeddings", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "attack_scores.bin") in err and "run the attack command" in err


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


@pytest.mark.parametrize("command", ["attack", "eval"])
@pytest.mark.parametrize("flags, trained, wanted", [
    (["--lambda", "gender=400", "--seed", "1"], "lambdas {'gender': 100.0}", "{'gender': 400.0}"),
    (["--lambda", "gender=100", "--seed", "7"], "data_seed 2", "8"),
], ids=["lambda", "seed"])
def test_commands_reject_a_checkpoint_trained_with_other_settings(workspace, capsys, command, flags, trained, wanted):
    tmp_path, config = workspace
    config.write_text(config.read_text().replace("lambda.age=0\n", ""))
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--lambda", "gender=100", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(config), *flags]) == 2
    err = capsys.readouterr().err
    run_dir = tmp_path / "runs" / "AdvMultVAE-G" / "fold0"
    assert str(run_dir / "checkpoint.bin") in err and trained in err and wanted in err
    assert sorted(path.name for path in run_dir.iterdir()) == ["checkpoint.bin", "manifest.json", "train_log.csv"]


def test_checkpoint_holds_the_recommender_alone(workspace):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--lambda", "gender=100", "--lambda", "age=100"]) == 0
    arrays, meta = load_container(tmp_path / "runs" / "AdvXMultVAE" / "fold0" / "checkpoint.bin")
    assert sorted(arrays) == sorted([f"enc.{field}" for field in mv.ENCODER] + [f"dec.{field}" for field in mv.DECODER])
    assert all(arr.dtype == np.float64 for arr in arrays.values())
    assert sorted(meta) == ["config", "kind"]


@pytest.mark.parametrize("command", ["attack", "eval"])
def test_commands_reject_a_checkpoint_that_holds_removal_heads(workspace, capsys, command):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    path = tmp_path / "runs" / "MultVAE" / "fold0" / "checkpoint.bin"
    # the layout of a checkpoint from before 0.3.0: the removal heads beside the recommender
    arrays, meta = load_container(path)
    specs = [adv.AttributeSpec(name="gender", kind=adv.CATEGORICAL, n_classes=2),
             adv.AttributeSpec(name="age", kind=adv.CONTINUOUS)]
    arrays.update(adv.init_heads(specs, arrays["enc.mu_b"].shape[0], 6, np.random.default_rng(0)))
    save_container(path, arrays, dict(meta, head_names=["age", "gender"]))
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "head.gender.hidden_w" in err


def test_attack_sizes_its_heads_by_the_checkpoint_not_the_config(workspace):
    tmp_path, config = workspace
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0  # train.d_latent=6
    scores = tmp_path / "runs" / "MultVAE" / "fold0" / "attack_scores.bin"
    assert main(["attack", "--config", str(config)]) == 0
    at_six = scores.read_bytes()
    config.write_text(config.read_text().replace("train.d_latent=6", "train.d_latent=8"))
    assert main(["attack", "--config", str(config)]) == 0
    assert scores.read_bytes() == at_six


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

    # every per-user array of the grid unit, byte for byte: the attack's and the ranking's
    grid_scores, _ = load_container(str(tmp_path / "runs" / "grid" / "gender60_age0" / "fold0" / "user_scores.bin"))
    attack_scores, _ = load_container(str(run_dir / "attack_scores.bin"))
    eval_scores, _ = load_container(str(run_dir / "eval_scores.bin"))
    single = {**attack_scores, **eval_scores}
    del single["mu"]
    assert sorted(grid_scores) == sorted(single)
    assert {"ndcg", "recall", "evaluated", "pred_gender", "correct_gender", "pred_age", "abs_err_age"} <= set(single)
    for name, arr in grid_scores.items():
        assert (arr.dtype, arr.shape, arr.tobytes()) == (single[name].dtype, single[name].shape,
                                                          single[name].tobytes()), name


def test_console_script_entry_point(workspace):
    _, config = workspace
    result = subprocess.run(
        [sys.executable, "-m", "advrec.cli", "preprocess", "--config", str(config)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "cache written" in result.stdout


# with scipy installed, these three fail if any code path imports it, even behind a fallback
SCIPY_LOADED = "sys.exit(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or None)"


def test_importing_the_cli_loads_no_scipy():
    # scipy.special alone adds a quarter second and 20 MB to every process, grid workers included
    result = subprocess.run([sys.executable, "-c", "import sys, advrec.cli\n" + SCIPY_LOADED],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_a_run_with_both_removal_heads_loads_no_scipy():
    # the sigmoid of the continuous heads computes expit without scipy.special
    code = """
import sys
from advrec import training as tr
from advrec.data import HOLDOUT_RATIO, make_folds, prepare_fold
from advrec.synthetic import planted_dataset
dataset, attrs = planted_dataset(120, 30, seed=0, items_low=4, items_high=12)
config = tr.TrainConfig(epochs_adversarial=2, epochs_attack=2, d_hidden=8, d_latent=4, d_adv_hidden=4,
                        lambdas={"gender": 400.0, "age": 400.0}, continuous_head="sigmoid")
fold = prepare_fold(dataset, make_folds(120, config.data_seed, 2)[0], HOLDOUT_RATIO, config.data_seed)
record = tr.run_single(dataset, attrs, fold, config)
assert "mae_age" in record.metrics and "bacc_gender" in record.metrics
""" + SCIPY_LOADED
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_a_grid_and_its_summary_leave_scipy_stats_unloaded():
    # the grid benchmark peaks near 110 MB under a 10% bound; scipy.stats adds about 46 MB
    code = """
import dataclasses, sys
from advrec import training as tr
from advrec.data import HOLDOUT_RATIO, make_folds, prepare_fold
from advrec.synthetic import planted_dataset
dataset, attrs = planted_dataset(200, 30, seed=0, items_low=4, items_high=12)
base = tr.TrainConfig(epochs_adversarial=2, epochs_attack=2, d_hidden=8, d_latent=4, d_adv_hidden=4)
configs = [dataclasses.replace(base, lambdas={"gender": g, "age": a}) for g, a in [(0.0, 0.0), (400.0, 0.0), (0.0, 400.0)]]
folds = [prepare_fold(dataset, split, HOLDOUT_RATIO, base.data_seed) for split in make_folds(200, base.data_seed, 2)]
outcome = tr.grid_search(dataset, attrs, configs, folds)
summary = tr.grid_summary(outcome.records)
assert not outcome.failures and any("p_ndcg_vs_baseline" in row and "p_attr_vs_baseline" in row for row in summary)
sys.exit('scipy.stats' in sys.modules)
"""
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_a_grid_and_its_summary_run_with_scipy_blocked():
    # the package needs numpy alone: a grid with both removal heads, and its summary's three paired tests
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import dataclasses
import advrec.cli
from advrec import training as tr
from advrec.data import HOLDOUT_RATIO, make_folds, prepare_fold
from advrec.synthetic import planted_dataset
dataset, attrs = planted_dataset(200, 30, seed=0, items_low=4, items_high=12)
base = tr.TrainConfig(epochs_adversarial=5, epochs_attack=10, d_hidden=8, d_latent=4, d_adv_hidden=4,
                      continuous_head="sigmoid")
# at this scale each attribute's best combination is not the baseline, so the summary tests both
configs = [dataclasses.replace(base, lambdas={"gender": g, "age": a})
           for g, a in [(0.0, 0.0), (40.0, 0.0), (0.0, 40.0), (40.0, 40.0)]]
folds = [prepare_fold(dataset, split, HOLDOUT_RATIO, base.data_seed) for split in make_folds(200, base.data_seed, 2)]
outcome = tr.grid_search(dataset, attrs, configs, folds)
assert not outcome.failures, outcome.failures
summary = tr.grid_summary(outcome.records)
tested = {row["attr_test"]: row for row in summary if "attr_test" in row}
assert all(0.0 <= tested[test][p] <= 1.0 for test in ("t-test", "mcnemar")
           for p in ("p_attr_vs_baseline", "p_ndcg_vs_baseline")), summary
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
