"""One round of a workload, run in a fresh process.

Usage: python3 child.py SPEC.json REPORT.json TRACE_DIR|-

The spec names an op:
- ``setup``: the program's own set-up only (import, cache, folds, checkpoint);
- ``run_single``: set-up, then one ``training.run_single``; its record and
  fold are saved for the checks;
- ``cli``: one or more ``advrec`` commands through ``advrec.cli.main``.
The report holds the set-up and per-op wall times, the peak RSS of this
process and of its reaped children (pool workers), and CPU seconds.
With a trace directory, spans are recorded and written there.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def program_setup(spec: dict):
    """Import, load the cache, prepare folds and load the checkpoint."""
    import advrec.cli  # noqa: F401
    from advrec import adversarial as adv
    from advrec import data as dp

    if not spec.get("cache"):
        return None, None, None
    dataset, attrs, _ = dp.load_cache(spec["cache"])
    splits = dp.make_folds(dataset.n_users, spec["data_seed"], spec["n_folds"])
    folds = [dp.prepare_fold(dataset, splits[i], 0.2, spec["data_seed"]) for i in spec["folds"]]
    if spec.get("checkpoint"):
        adv.load_checkpoint(spec["checkpoint"])
    return dataset, attrs, folds


def save_record(path: str, record, fold) -> None:
    import numpy as np

    arrays = {f"param.{name}": np.asarray(arr) for name, arr in record.params.named()}
    arrays.update({f"per_user.{k}": np.asarray(v) for k, v in record.per_user.items()})
    for part in ("test_foldin", "test_holdout"):
        rows = getattr(fold, part)
        arrays[f"{part}.indptr"] = np.cumsum([0] + [len(r) for r in rows])
        arrays[f"{part}.indices"] = np.concatenate(rows)
    arrays["train_users"] = fold.split.train
    arrays["test_users"] = fold.split.test
    meta = {"metrics": record.metrics, "train_log": record.train_log, "attack_log": record.attack_log}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def main(argv) -> int:
    spec_path, report_path, trace_dir = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if trace_dir != "-":
        import tracing

        tracer = tracing.install(trace_dir)
    dataset, attrs, folds = program_setup(spec)
    setup_s = time.perf_counter() - T0

    ops = []
    if spec["op"] == "run_single":
        from advrec import training as tr

        config = tr.TrainConfig(**spec["train"])
        t = time.perf_counter()
        record = tr.run_single(dataset, attrs, folds[0], config, dataset_name="planted")
        ops.append({"name": "run_single", "wall_s": time.perf_counter() - t, "rc": 0})
        save_record(spec["record"], record, folds[0])
    elif spec["op"] == "cli":
        from advrec.cli import main as cli_main

        for argv_cli in spec["commands"]:
            t = time.perf_counter()
            rc = cli_main(argv_cli)
            ops.append({"name": argv_cli[0], "wall_s": time.perf_counter() - t, "rc": rc})

    if tracer is not None:
        tracer.flush()
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "setup_s": setup_s,
        "ops": ops,
        "maxrss_self_mb": me.ru_maxrss / 1024.0,
        "maxrss_children_mb": kids.ru_maxrss / 1024.0,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
