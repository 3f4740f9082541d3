"""The benchmark's own tests: its checks, its generator and its tracing.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's test run from collecting these; the
grid test runs the grid-1w grid with one and with two workers (about
half a minute on 2 CPUs).
"""

import filecmp
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from child import save_record  # noqa: E402


def test_grid_results_do_not_depend_on_worker_count(tmp_path):
    """grid_search promises results independent of the worker count."""
    child = run.Child(str(tmp_path), time.perf_counter() + 600)
    ctx = run.prepare_grid(str(tmp_path), 3, child)
    one = child.run(ctx["round"])
    conf = ctx["round"]["commands"][0][2]
    two = child.run({"op": "cli", "commands": [["grid", "--config", conf, "--workers", "2",
                                                 "--out", str(tmp_path / "two")]]})
    assert two and one and two["ops"][0]["rc"] == 0 and one["ops"][0]["rc"] == 0
    grid_one, grid_two = ctx["grid_dir"], str(tmp_path / "two" / "grid")
    for name in ("results.csv", "summary.csv"):
        assert filecmp.cmp(os.path.join(grid_two, name), os.path.join(grid_one, name), shallow=False)
    units = 0
    for dirpath, _, files in os.walk(grid_two):
        if "user_scores.bin" in files:
            rel = os.path.relpath(dirpath, grid_two)
            assert filecmp.cmp(os.path.join(dirpath, "user_scores.bin"),
                               os.path.join(grid_one, rel, "user_scores.bin"), shallow=False)
            units += 1
    assert units == 8
    fails, _ = reference.check_grid(grid_two, 2, 8)
    assert fails == []


def test_train_check_accepts_the_program_and_rejects_a_changed_score(tmp_path):
    from advrec import data as dp
    from advrec import training as tr

    cache = str(tmp_path / "planted.cache")
    truth = gen.planted_cache(cache, 5, n_users=200, n_items=60)
    dataset, attrs, _ = dp.load_cache(cache)
    fold = dp.prepare_fold(dataset, dp.make_folds(200, 1)[0], 0.2, 1)
    config = tr.TrainConfig(epochs_adversarial=3, epochs_attack=3, d_hidden=16, d_latent=8, d_adv_hidden=8,
                            val_every=0, selection="final", lambdas={"gender": 10.0, "age": 10.0})
    record = tr.run_single(dataset, attrs, fold, config)
    path = str(tmp_path / "record.npz")
    save_record(path, record, fold)
    fails, info = reference.check_train(path, cache, truth)
    assert [f for f in fails if "popularity" not in f] == []
    assert info["ndcg_at_10"] == pytest.approx(record.metrics["ndcg@10"], abs=1e-12)

    record.per_user["ndcg"] = record.per_user["ndcg"] + 1e-6
    record.per_user["pred_age"] = record.per_user["pred_age"] * 0.5
    save_record(path, record, fold)
    fails, _ = reference.check_train(path, cache, truth)
    assert any("per-user NDCG" in f for f in fails)
    assert any("abs_err_age" in f for f in fails)


def _naive_k_core(pairs: set, k: int) -> set:
    while True:
        users, items = {}, {}
        for u, i in pairs:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        kept = {(u, i) for u, i in pairs if users[u] >= k and items[i] >= k}
        if kept == pairs:
            return pairs
        pairs = kept


def test_ingest_check_and_reference_k_core(tmp_path):
    from advrec.cli import main

    tsv, demo = str(tmp_path / "i.tsv"), str(tmp_path / "d.tsv")
    truth = gen.stream_catalog(tsv, demo, n_users=400, n_items=150, mean_degree=12.0, seed=4, chunk_users=128)
    assert truth["lines"] > truth["degrees"].sum()  # duplicates were written
    assert truth["missing"].any()
    users, items = np.divmod(truth["pairs"], truth["n_items"])
    pairs = {(u, i) for u, i in zip(users.tolist(), items.tolist()) if not truth["missing"][u]}
    want = sorted(u * truth["n_items"] + i for u, i in _naive_k_core(pairs, 5))
    assert reference.reference_k_core(truth, 5)[2].tolist() == want

    conf = run.write_config(str(tmp_path / "c.conf"), {
        "data.interactions": tsv, "data.demographics": demo, "data.cache": str(tmp_path / "c.cache"),
        "data.k_core": 5})
    assert main(["preprocess", "--config", conf]) == 0
    fails, info = reference.check_ingest(str(tmp_path / "c.cache"), truth, 5)
    assert fails == [] and info["kept_interactions"] == len(want)
    fails, _ = reference.check_ingest(str(tmp_path / "c.cache"), truth, 4)
    assert fails


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0, None, "outer", 0.0, 10.0, None, None],
        ["a", 1, 0, "inner", 1.0, 4.0, "rows", 5],
        ["a", 2, 1, "gc", 2.0, 3.0, None, None],
        ["a", 3, 0, "inner", 5.0, 6.0, "rows", 7],
        ["b", 0, None, "inner", 0.0, 2.0, "rows", 1],
    ]
    s = tracing.summarize(spans)
    assert s["outer"]["self_s"] == pytest.approx(6.0)
    assert s["inner"]["calls"] == 3 and s["inner"]["s"] == pytest.approx(6.0)
    assert s["inner"]["self_s"] == pytest.approx(5.0)
    assert s["inner"]["rows"] == 13 and s["inner"]["rows_max"] == 7
    assert run.per_layer_value("inner.rows", s, 2) == 6.5
    assert run.per_layer_value("gc.collections", s, 1) == 1.0
