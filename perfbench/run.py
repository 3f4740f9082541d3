"""advrec benchmark: four workloads, end-to-end and per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from ``--seed``, measures the program's set-up several times in
fresh processes, then repeats whole rounds of the workload's operations,
each round in a fresh process, until ``--seconds`` have passed. It checks
the outputs against reference computations (``reference.py``), writes a
result file under ``perfbench/out/results/`` stamped with machine facts, and
prints every metric by name and unit. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``). A closed loop: one client, one job at a time.

The program runs with the machine's thread settings; nothing here pins
BLAS threads, which would hide what pool workers pay for them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# criterion-4 shape: planted 2,000 x 500, widths 600/200/128, batch 64, joint removal.
# 12 removal epochs keep NDCG@10 near twice the popularity ranker's, which the check requires.
C4_TRAIN = dict(epochs_adversarial=12, epochs_attack=10, batch_size=64, d_hidden=600, d_latent=200,
                d_adv_hidden=128, anneal_steps=1000, beta_max=0.4, val_every=0, selection="final",
                continuous_head="sigmoid", lambdas={"gender": 400.0, "age": 400.0})
SCORE_SHAPE = dict(n_users=6000, n_items=3400, mean_degree=290.0)
INGEST_SHAPE = dict(n_users=50000, n_items=10000, mean_degree=36.5)
GRID_EPOCHS = dict(adversarial=1, attack=5)  # keeps a grid round near 10 s


class Child:
    """Runs ``child.py`` in a fresh process group and reaps all of it."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC, HERE] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, spec: dict, trace_dir: str | None = None) -> dict | None:
        self.count += 1
        base = os.path.join(self.work, f"child{self.count}")
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), base + ".spec.json", base + ".report.json",
               trace_dir or "-"]
        with open(base + ".log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0:
            with open(base + ".log", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child {spec['op']} {'timed out' if code is None else f'exited {code}'}:\n{tail}",
                  file=sys.stderr)
            return None
        with open(base + ".report.json", encoding="utf-8") as fh:
            return json.load(fh)


def write_config(path: str, values: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in values.items())
    return path


def seeds(seed: int) -> dict:
    return {"train.model_seed": 3 * seed, "train.data_seed": 3 * seed + 1, "train.adversary_seed": 3 * seed + 2}


# --- workloads: prepare() makes inputs (not timed); check() holds outputs to references

def prepare_train(work: str, seed: int, child: Child) -> dict:
    import gen

    cache = os.path.join(work, "planted.cache")
    truth = gen.planted_cache(cache, seed)
    s = seeds(seed)
    train = dict(C4_TRAIN, model_seed=s["train.model_seed"], data_seed=s["train.data_seed"],
                 adversary_seed=s["train.adversary_seed"])
    setup = {"op": "setup", "cache": cache, "data_seed": train["data_seed"], "n_folds": 5, "folds": [0]}
    record = os.path.join(work, "record.npz")
    return {"setup": setup, "round": dict(setup, op="run_single", train=train, record=record),
            "ops_per_round": 1, "truth": truth, "cache": cache, "record": record}


def check_train(ctx: dict):
    import reference

    return reference.check_train(ctx["record"], ctx["cache"], ctx["truth"])


def prepare_score(work: str, seed: int, child: Child) -> dict:
    import gen

    tsv, demo = os.path.join(work, "interactions.tsv"), os.path.join(work, "demographics.tsv")
    truth = gen.stream_catalog(tsv, demo, seed=seed, **SCORE_SHAPE)
    cache = os.path.join(work, "score.cache")
    conf = write_config(os.path.join(work, "score.conf"), {
        "data.name": "score-wide", "data.interactions": tsv, "data.demographics": demo, "data.cache": cache,
        "train.epochs_adversarial": 1, "train.epochs_attack": 10, "train.batch_size": 256,
        "train.val_every": 0, "train.selection": "final", "lambda.gender": 400, "lambda.age": 400,
        "out.dir": os.path.join(work, "runs"), **seeds(seed)})
    made = child.run({"op": "cli", "commands": [["preprocess", "--config", conf], ["train", "--config", conf]]})
    if made is None or any(op["rc"] != 0 for op in made["ops"]):
        raise RuntimeError("score-wide set-up: preprocess or train failed")
    run_dir = os.path.join(work, "runs", "AdvXMultVAE", "fold0")
    setup = {"op": "setup", "cache": cache, "data_seed": seeds(seed)["train.data_seed"], "n_folds": 5,
             "folds": [0], "checkpoint": os.path.join(run_dir, "checkpoint.bin")}
    commands = [[c, "--config", conf] for c in ("eval", "attack", "export-embeddings")]
    return {"setup": setup, "round": {"op": "cli", "commands": commands}, "ops_per_round": 3,
            "truth": truth, "cache": cache, "run_dir": run_dir}


def check_score(ctx: dict):
    import reference
    from advrec import data as dp

    dataset, _, _ = dp.load_cache(ctx["cache"])
    split = dp.make_folds(dataset.n_users, ctx["setup"]["data_seed"], 5)[0]
    fold = dp.prepare_fold(dataset, split, 0.2, ctx["setup"]["data_seed"])
    return reference.check_score(ctx["run_dir"], ctx["cache"], fold, ctx["truth"])


def prepare_ingest(work: str, seed: int, child: Child) -> dict:
    import gen

    tsv, demo = os.path.join(work, "interactions.tsv"), os.path.join(work, "demographics.tsv")
    truth = gen.stream_catalog(tsv, demo, seed=seed, **INGEST_SHAPE)
    cache = os.path.join(work, "ingest.cache")
    conf = write_config(os.path.join(work, "ingest.conf"), {
        "data.name": "ingest-50k", "data.interactions": tsv, "data.demographics": demo, "data.cache": cache,
        "data.k_core": 5})
    return {"setup": {"op": "setup"}, "round": {"op": "cli", "commands": [["preprocess", "--config", conf]]},
            "ops_per_round": 1, "truth": truth, "cache": cache}


def check_ingest(ctx: dict):
    import reference

    return reference.check_ingest(ctx["cache"], ctx["truth"], 5)


def prepare_grid(work: str, seed: int, child: Child) -> dict:
    import gen

    cache = os.path.join(work, "planted.cache")
    gen.planted_cache(cache, seed)
    conf = write_config(os.path.join(work, "grid.conf"), {
        "data.name": "grid-1w", "data.cache": cache, "train.n_folds": 2,
        "train.epochs_adversarial": GRID_EPOCHS["adversarial"], "train.epochs_attack": GRID_EPOCHS["attack"],
        "train.anneal_steps": 1000, "train.val_every": 1, "train.selection": "best",
        "grid.gender": "0,400", "grid.age": "0,400", "out.dir": os.path.join(work, "runs"), **seeds(seed)})
    setup = {"op": "setup", "cache": cache, "data_seed": seeds(seed)["train.data_seed"], "n_folds": 2,
             "folds": [0, 1]}
    grid_dir = os.path.join(work, "runs", "grid")
    return {"setup": setup, "round": {"op": "cli", "commands": [["grid", "--config", conf, "--workers", "1"]]},
            "ops_per_round": 8, "grid_dir": grid_dir, "failed_ops": lambda report: grid_failures(grid_dir)}


def check_grid(ctx: dict):
    import reference

    return reference.check_grid(ctx["grid_dir"], 2, 8)


def grid_failures(grid_dir: str) -> int:
    """Failed units of the last grid: the grid command exits 1 if any unit failed."""
    with open(os.path.join(grid_dir, "manifest.json"), encoding="utf-8") as fh:
        return len(json.load(fh)["failures"])


def failed_commands(report: dict) -> int:
    return sum(op["rc"] != 0 for op in report["ops"])


WORKLOADS = {
    "train-c4": (prepare_train, check_train),
    "score-wide": (prepare_score, check_score),
    "ingest-50k": (prepare_ingest, check_ingest),
    "grid-1w": (prepare_grid, check_grid),
}


# --- metrics ------------------------------------------------------------------

def end_to_end(setups: list, rounds: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(op["wall_s"] for op in r["ops"]) for r in rounds),
        "peak_rss_mb": statistics.median(max(r["maxrss_self_mb"], r["maxrss_children_mb"]) for r in rounds),
    }


def per_layer_value(name: str, summary: dict, n_rounds: int) -> float:
    """Per-round value of a per-layer metric, from the span summary."""
    if name == "autodiff.tape_entries_per_step":
        return float(summary.get("adversarial.total_objective", {}).get("tape_entries_max", 0.0))
    span, field = name.rsplit(".", 1)
    entry = summary.get(span, {})
    if name == "training.adam_step.bytes_computed":  # per step
        return entry["bytes_computed"] / entry["calls"] if entry.get("calls") else 0.0
    field = {"collections": "calls"}.get(field, field)
    return float(entry.get(field, 0.0)) / n_rounds


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    prepare, check = WORKLOADS[name]
    work = os.path.join(OUT, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        child = Child(work, deadline)
        ctx = prepare(work, seed, child)
        setups = []

        def probe():
            report = child.run(ctx["setup"])
            if report is None:
                raise RuntimeError("set-up probe failed")
            setups.append(report["setup_s"])

        trace_dir = os.path.join(work, "spans")
        if trace:
            os.makedirs(trace_dir)
        rounds, attempted, failed, timed = [], 0, 0, 0.0
        while not rounds or timed < seconds:
            probe()  # set-up samples spread over the run, not bunched before it
            start = time.perf_counter()
            report = child.run(ctx["round"], trace_dir if trace else None)
            timed += time.perf_counter() - start
            attempted += ctx["ops_per_round"]
            if report is None:
                failed += ctx["ops_per_round"]
                break
            failed += ctx.get("failed_ops", failed_commands)(report)
            rounds.append(report)
        while len(setups) < SETUP_PROBES:
            probe()
        if not rounds:
            raise RuntimeError("no round completed")

        fails, info = check(ctx)
        metrics = end_to_end(setups, rounds)
        if trace:
            import tracing

            summary = tracing.summarize(tracing.load_spans(trace_dir))
            metrics.update({m["name"]: per_layer_value(m["name"], summary, len(rounds))
                            for m in bench["per_layer"]})
        listed = bench["per_layer"] if trace else bench["end_to_end"]
        result = {
            "correct": not fails,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
        }
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine_facts(),
            "rounds": rounds, "setup_samples": setups, "all_metrics": metrics, "check_failures": fails,
            "figures": info, "result": result,
        }
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        for message in fails:
            print(f"CHECK FAILED [{name}]: {message}")
        for key, value in info.items():
            print(f"[{name}] {key} = {value}")
        for key, entry in result["metrics"].items():
            print(f"[{name}] {key} = {entry['value']:.6g} {entry['unit']}")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "advrec")):
        print(f"no program source at {SRC}; run from the root of an advrec checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), bench) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
