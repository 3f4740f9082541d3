"""Span tracing of the program's public functions, from outside the program.

``install`` wraps the functions in ``TARGETS`` wherever the loaded
``advrec`` modules refer to them (``from .x import f`` makes a second
binding), plus two class methods. Each call records a span: name, start,
end and the span that was open when it started. Counters ride on the same
spans (rows assembled, users ranked, bytes moved). Python's cyclic
collector is observed through ``gc.callbacks`` as ``gc`` spans.

Spans stay in memory and are written out when the traced process ends.
Only the traced process records spans: the benchmark runs no process pool
(see README.md on grid-2w).
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict



def _param_bytes(args, kwargs) -> int:
    params = args[0] if args else kwargs["params"]
    # adam_step reads parameter, gradient and both moments; writes all but the gradient
    return 7 * sum(int(p.nbytes) for p in params.values())


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, qualified name, span name, counter name, counter(args, kwargs, result))
TARGETS = [
    ("advrec.autodiff", "dense", "autodiff.dense", None, None),
    ("advrec.autodiff", "Tape.backward", "autodiff.Tape.backward", None, None),
    ("advrec.multvae", "multvae_loss", "multvae.multvae_loss", None, None),
    ("advrec.multvae", "encode_eval", "multvae.encode_eval", None, None),
    ("advrec.multvae", "scores_eval", "multvae.scores_eval", None, None),
    ("advrec.adversarial", "advx_loss", "adversarial.advx_loss", None, None),
    ("advrec.adversarial", "attacker_loss_graph", "adversarial.attacker_loss_graph", None, None),
    ("advrec.adversarial", "total_objective", "adversarial.total_objective", "tape_entries",
     lambda a, k, r: len(r[1])),
    ("advrec.training", "adam_step", "training.adam_step", "bytes_computed",
     lambda a, k, r: _param_bytes(a, k)),
    ("advrec.training", "train_adversarial_phase", "training.train_adversarial_phase", None, None),
    ("advrec.training", "train_attack_phase", "training.train_attack_phase", None, None),
    ("advrec.training", "evaluate_ranking", "training.evaluate_ranking", "users",
     lambda a, k, r: len(r[0])),
    ("advrec.training", "grid_search", "training.grid_search", None, None),
    ("advrec.training", "run_single", "training.run_single", None, None),
    ("advrec.training", "grid_summary", "training.grid_summary", None, None),
    ("advrec.data", "InteractionDataset.batch_matrix", "data.batch_matrix", "rows",
     lambda a, k, r: r.shape[0]),
    ("advrec.data", "load_interactions", "data.load_interactions", None, None),
    ("advrec.data", "k_core_filter", "data.k_core_filter", None, None),
    ("advrec.data", "save_cache", "data.save_cache", None, None),
    ("advrec.data", "load_cache", "data.load_cache", None, None),
    ("advrec.data", "prepare_fold", "data.prepare_fold", None, None),
    ("advrec.evaluation", "ranking_metrics", "evaluation.ranking_metrics", "users",
     lambda a, k, r: len(r[0])),
    ("advrec.evaluation", "wilcoxon_signed_rank", "evaluation.wilcoxon_signed_rank", None, None),
    ("advrec.evaluation", "mcnemar_test", "evaluation.mcnemar_test", None, None),
    ("advrec.evaluation", "paired_t_test", "evaluation.paired_t_test", None, None),
    ("advrec.container", "save_container", "container.save_container", "bytes",
     lambda a, k, r: _file_bytes(a[0] if a else k["path"])),
    ("advrec.container", "load_container", "container.load_container", "bytes",
     lambda a, k, r: _file_bytes(a[0] if a else k["path"])),
    ("advrec.cli", "cmd_preprocess", "cli.preprocess", None, None),
    ("advrec.cli", "cmd_attack", "cli.attack", None, None),
    ("advrec.cli", "cmd_eval", "cli.eval", None, None),
    ("advrec.cli", "cmd_grid", "cli.grid", None, None),
    ("advrec.cli", "cmd_export_embeddings", "cli.export-embeddings", None, None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [id, parent, name, start, end, counter, value]
        self.stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, counter: str | None, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span[5], span[6] = counter, count(args, kwargs, result)
            return result

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open("gc")
        elif self.stack and self.spans[self.stack[-1]][2] == "gc":
            self.close(self.spans[self.stack[-1]])

    def flush(self) -> None:
        """Write the recorded spans to ``spans-<pid>.json``."""
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.json"), "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(out_dir: str) -> Tracer:
    """Wrap every target in the loaded ``advrec`` modules; returns the tracer."""
    import advrec.cli  # noqa: F401  (loads every module that holds a target)

    tracer = Tracer(out_dir)
    modules = [m for name, m in sys.modules.items() if name == "advrec" or name.startswith("advrec.")]
    for module_name, qualname, span_name, counter, count in TARGETS:
        owner = sys.modules[module_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span_name, counter, count)
        setattr(owner, attr, wrapped)
        if not path:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    gc.callbacks.append(tracer.on_gc)
    return tracer


def load_spans(out_dir: str) -> list[list]:
    """Every span file under ``out_dir``, tagged with the file it came from."""
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                spans.extend([name] + span for span in json.load(fh))
    return spans


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds and counter values.

    A span's self time is its duration minus the durations of its direct
    children. Children never overlap, because each process records one
    call stack.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for source, _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[(source, parent)] += end - start
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for source, sid, _, name, start, end, counter, value in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[(source, sid)]
        if counter is not None:
            entry[counter] += value
            entry[counter + "_max"] = max(entry[counter + "_max"], value)
    return out
