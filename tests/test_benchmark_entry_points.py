"""The program names that perfbench binds to, exercised at a small size.

perfbench does not change along with the program, so a refactor that
renames or reshapes what it calls breaks the benchmark without breaking
any other test. These tests import perfbench's own modules and run its
set-up, one training run built from its criterion-4 settings, its record
writer and its tracer, each on a tiny planted catalog.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import child
    import gen
    import run

    return child, gen, run


def test_setup_run_single_and_record_keep_their_bindings(tmp_path, perfbench):
    from advrec import adversarial as adv
    from advrec import training as tr

    child, gen, run = perfbench
    cache = str(tmp_path / "planted.cache")
    gen.planted_cache(cache, 5, n_users=200, n_items=60)
    spec = {"op": "setup", "cache": cache, "data_seed": 1, "n_folds": 5, "folds": [0]}
    dataset, attrs, folds = child.program_setup(spec)
    assert dataset.n_users == 200 and len(folds) == 1

    config = tr.TrainConfig(**dict(run.C4_TRAIN, epochs_adversarial=1, epochs_attack=1, d_hidden=16, d_latent=8,
                                   d_adv_hidden=8, data_seed=1))
    record = tr.run_single(dataset, attrs, folds[0], config, dataset_name="planted")
    path = str(tmp_path / "record.npz")
    child.save_record(path, record, folds[0])
    with np.load(path) as saved:
        names = set(saved.files)
    assert {f"param.{name}" for name, _ in record.params.named()} <= names
    assert {f"per_user.{key}" for key in record.per_user} <= names
    assert {"test_foldin.indptr", "test_holdout.indices", "train_users", "test_users", "meta"} <= names

    checkpoint = str(tmp_path / "checkpoint.bin")
    adv.save_checkpoint(checkpoint, record.params, config.to_meta())
    child.program_setup(dict(spec, checkpoint=checkpoint))


def test_tracing_finds_every_traced_function(tmp_path):
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, PERFBENCH]))
    done = subprocess.run([sys.executable, "-c", f"import tracing; tracing.install({str(tmp_path)!r})"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_traced_counters_read_what_the_traced_functions_return(tmp_path, perfbench):
    from advrec import adversarial as adv
    from advrec import training as tr

    child, gen, run = perfbench
    cache = str(tmp_path / "planted.cache")
    gen.planted_cache(cache, 5, n_users=200, n_items=60)
    train = dict(run.C4_TRAIN, epochs_adversarial=1, epochs_attack=1, d_hidden=16, d_latent=8, d_adv_hidden=8,
                 data_seed=1)
    spec = {"op": "run_single", "cache": cache, "data_seed": 1, "n_folds": 5, "folds": [0], "train": train,
            "record": str(tmp_path / "record.npz")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), str(tmp_path / "spec.json"),
                           str(tmp_path / "report.json"), str(trace_dir)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    import tracing

    summary = tracing.summarize(tracing.load_spans(str(trace_dir)))

    # one removal step on a batch of the same shape, outside the tracer
    dataset, attrs, folds = child.program_setup(spec)
    config = tr.TrainConfig(**train)
    users = folds[0].split.train[: config.batch_size]
    method = adv.Reversal(tr.build_specs(attrs, config.lambdas, folds[0].split.train))
    store = tr.init_model(dataset, method, config, np.random.default_rng(0), np.random.default_rng(1))
    targets = {name: values[users] for name, values in attrs.targets().items()}
    _, tape, _ = adv.total_objective([dataset.row(u) for u in users], targets, store, method, 0.1,
                                     np.random.default_rng(2))
    assert 0 < summary["adversarial.total_objective"]["tape_entries_max"] == len(tape)
    assert summary["training.adam_step"]["bytes_computed"] > 0
