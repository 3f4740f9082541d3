"""Command-line entry point: preprocess, train, attack, eval, grid, export.

``attack`` stores the test users' latent means beside its attackers'
predictions in ``attack_scores.bin``. ``export-embeddings`` formats that
record, so it writes what the attack measured and loads no model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import adversarial as adv
from . import config as cf
from . import data as dp
from . import evaluation as ev
from . import training as tr
from .container import atomic_open, load_container, make_dirs, save_container
from .errors import AdvrecError, ConfigError, DataError

log = logging.getLogger("advrec")


def write_json(path: str, obj: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# The environment variables that set the BLAS thread count; with it, the last
# bits of large matrix products change.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def write_manifest(directory: str, config: dict, **extra) -> None:
    """``manifest.json`` in ``directory``: the config, the seeds, the dataset's
    hash and the environment that fixes a run's bits, then ``extra``."""
    manifest = {
        "artifact_version": __version__,
        "environment": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "config": {key: value for key, value in config.items() if value is not None},
        "seeds": {
            "model": config["train.model_seed"],
            "data": config["train.data_seed"],
            "adversary": config["train.adversary_seed"],
        },
    }
    cache = config.get("data.cache")
    if cache and os.path.exists(cache):
        manifest["dataset_sha256"] = file_sha256(cache)
    manifest.update(extra)
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_dataset(config: dict):
    cache = cf.require(config, "data.cache")
    if not os.path.exists(cache):
        raise DataError(f"dataset cache {cache!r} not found; run the preprocess command first")
    dataset, attrs, _ = dp.load_cache(cache)
    return dataset, attrs


@dataclass
class FoldRun:
    """What train, attack, eval and export-embeddings share: the cached data,
    the configured fold, the train settings and the run's output directory."""

    config: dict
    dataset: dp.InteractionDataset
    attrs: dp.UserAttributes
    fold: dp.FoldData
    train: tr.TrainConfig
    label: str
    out_dir: str

    @classmethod
    def of(cls, config: dict) -> "FoldRun":
        train = cf.train_config(config)  # checks the seeds before make_folds uses one
        n_folds, fold_index = cf.fold_count(config), config["train.fold"]
        if not 0 <= fold_index < n_folds:
            raise ConfigError(f"train.fold={fold_index} outside 0..{n_folds - 1}")
        dataset, attrs = load_dataset(config)
        splits = dp.make_folds(dataset.n_users, train.data_seed, n_folds)
        fold = dp.prepare_fold(dataset, splits[fold_index], dp.HOLDOUT_RATIO, train.data_seed)
        label = tr.model_label(train.lambdas)
        return cls(config, dataset, attrs, fold, train, label,
                   os.path.join(config["out.dir"], label, f"fold{fold_index}"))

    def model(self) -> adv.Params:
        """The run's checkpoint, once it fits the dataset's catalog and was
        trained with the run's lambdas on the run's data seed, which fixes
        the test users. The attack's own settings may differ from training's."""
        path = os.path.join(self.out_dir, "checkpoint.bin")
        if not os.path.exists(path):
            raise DataError(f"no checkpoint at {path!r}; run the train command first")
        model, trained = adv.load_checkpoint(path)
        if model["enc.hidden_w"].shape[0] != self.dataset.n_items:
            raise DataError(
                f"checkpoint expects {model['enc.hidden_w'].shape[0]} items, dataset has {self.dataset.n_items}"
            )
        wanted = self.train.to_meta()
        for key in ("lambdas", "data_seed"):
            if trained.get(key) != wanted[key]:
                raise DataError(f"{path} was trained with {key} {trained.get(key)}, this run has {wanted[key]}; "
                                "run the train command with this run's settings")
        return model

    def write_result(self, name: str, metrics: dict) -> dict:
        """Write the one-row results CSV ``name`` and return its row."""
        row = tr.result_row(self.config["data.name"], self.train.lambdas, self.fold.index, metrics)
        ev.write_rows_csv(os.path.join(self.out_dir, name), [row])
        return row


def cmd_preprocess(config: dict) -> int:
    interactions = cf.require(config, "data.interactions")
    demographics = cf.require(config, "data.demographics")
    cache_path = cf.require(config, "data.cache")
    # each bound is written as "in range" and negated, so that NaN fails it too
    for key, ok, bound in [
        ("data.k_core", config["data.k_core"] >= 1, ">= 1"),
        ("data.item_subsample", config["data.item_subsample"] >= 0, ">= 0"),
        ("data.age_cap", 0.0 < config["data.age_cap"] < float("inf"), "finite and > 0"),
    ]:
        if not ok:
            raise ConfigError(f"{key} must be {bound}, got {config[key]}")
    for path in (interactions, demographics):
        if not os.path.exists(path):
            raise DataError(f"input file {path!r} does not exist")
    dataset, attrs, ingest = dp.load_interactions(interactions, demographics, config["data.age_cap"])
    steps = {"k_core": config["data.k_core"]}
    if config["data.item_subsample"]:
        dataset, keep_users, _ = dp.item_subsample(dataset, config["data.item_subsample"], dp.SUBSAMPLE_SEED)
        attrs = attrs.subset(keep_users)
        steps["item_subsample"] = config["data.item_subsample"]
    n_users, n_items = dataset.n_users, dataset.n_items
    dataset, keep_users, _ = dp.k_core_filter(dataset, config["data.k_core"])
    attrs = attrs.subset(keep_users)
    ingest["k_core_removed_users"] = n_users - dataset.n_users
    ingest["k_core_removed_items"] = n_items - dataset.n_items
    if dataset.n_users == 0:
        raise DataError("k-core filtering removed every user; nothing to cache")
    dp.save_cache(cache_path, dataset, attrs, extra_meta={"preprocess": steps})
    stats = dp.dataset_stats(dataset, attrs)
    stats["ingest"] = ingest
    write_json(cache_path + ".stats.json", stats)
    print(f"dataset: {config['data.name']}")
    print(f"  users          {stats['users']}")
    print(f"  items          {stats['items']}")
    print(f"  interactions   {stats['interactions']}")
    print(f"  density        {stats['density']:.4f}")
    gender = ", ".join(f"{label}: {count}" for label, count in zip(stats["gender_labels"], stats["gender_counts"]))
    print(f"  gender         {gender}")
    print(f"  age mean/std/median  {stats['age_mean']}/{stats['age_std']}/{stats['age_median']}")
    print(f"  ingest         {', '.join(f'{key}: {count}' for key, count in ingest.items())}")
    print(f"cache written to {cache_path}")
    return 0


def cmd_train(config: dict) -> int:
    run = FoldRun.of(config)
    make_dirs(run.out_dir)  # an unusable output path fails before training
    log.info("training %s on fold %d (%d train users)", run.label, run.fold.index, len(run.fold.split.train))
    result = tr.train_adversarial_phase(run.dataset, run.attrs, run.fold, run.train)
    adv.save_checkpoint(os.path.join(run.out_dir, "checkpoint.bin"), result.params, run.train.to_meta())
    ev.write_rows_csv(os.path.join(run.out_dir, "train_log.csv"), result.log)
    write_manifest(run.out_dir, config, command="train", model=run.label, fold=run.fold.index,
                   best_epoch=result.best_epoch, best_val_ndcg=result.best_val_ndcg)
    print(f"{run.label} fold {run.fold.index}: checkpoint + log in {run.out_dir}")
    return 0


def cmd_attack(config: dict) -> int:
    run = FoldRun.of(config)
    result = tr.train_attack_phase(run.model(), run.dataset, run.attrs, run.fold, run.train)
    save_container(
        os.path.join(run.out_dir, "attack_scores.bin"), {**result.per_user, "mu": result.latents},
        {"kind": "attack-scores", "model": run.label, "fold": run.fold.index, "n_items": run.dataset.n_items},
    )
    run.write_result("attack_metrics.csv", result.metrics)
    printable = ", ".join(f"{k}={ev.as_percent(v):.2f}" for k, v in result.metrics.items())
    print(f"{run.label} fold {run.fold.index}: {printable}")
    return 0


def cmd_eval(config: dict) -> int:
    run = FoldRun.of(config)
    metrics, per_user = tr.rank_test_fold(run.model(), run.dataset, run.fold)
    save_container(
        os.path.join(run.out_dir, "eval_scores.bin"), per_user,
        {"kind": "eval-scores", "model": run.label, "fold": run.fold.index},
    )
    row = run.write_result("metrics.csv", metrics)
    print(f"{run.label} fold {run.fold.index}: ndcg@10={row['ndcg@10']:.2f} recall@10={row['recall@10']:.2f}")
    return 0


def cmd_grid(config: dict, workers: int) -> int:
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    # every unit's settings and the fold count are checked before the data is read
    units, n_folds = cf.grid_configs(config), cf.fold_count(config)
    train_config = units[0]  # the units differ only in their lambdas
    dataset, attrs = load_dataset(config)
    splits = dp.make_folds(dataset.n_users, train_config.data_seed, n_folds)
    folds = [dp.prepare_fold(dataset, split, dp.HOLDOUT_RATIO, train_config.data_seed) for split in splits]
    grid_dir = os.path.join(config["out.dir"], "grid")
    make_dirs(grid_dir)  # an unusable output path fails before the first unit trains
    log.info("grid: %d combinations x %d folds, %d workers", len(units), len(folds), workers)
    outcome = tr.grid_search(
        dataset, attrs, units, folds, dataset_name=config["data.name"], workers=workers
    )
    if outcome.records:
        ev.write_rows_csv(os.path.join(grid_dir, "results.csv"), [r.result_row() for r in outcome.records])
    for record in outcome.records:
        path = os.path.join(grid_dir, tr.combo_label(record.lambdas), f"fold{record.fold}", "user_scores.bin")
        save_container(
            path, record.per_user,
            {"kind": "user-scores", "model": tr.model_label(record.lambdas), "fold": record.fold,
             "lambdas": {k: float(v) for k, v in record.lambdas.items()}},
        )
    summary = tr.grid_summary(outcome.records)
    if summary:
        ev.write_rows_csv(os.path.join(grid_dir, "summary.csv"), summary)
    write_manifest(grid_dir, config, command="grid",
                   combinations=len(units), folds=len(folds),
                   failures=[{"lambdas": lam, "fold": fold} for lam, fold, _ in outcome.failures])
    for lambdas, fold_index, message in outcome.failures:
        log.error("combination %s fold %d failed:\n%s", lambdas, fold_index, message)
    print(f"grid: {len(outcome.records)} runs completed, {len(outcome.failures)} failed; results in {grid_dir}")
    return 1 if outcome.failures else 0


def cmd_export_embeddings(config: dict) -> int:
    run = FoldRun.of(config)
    names = list(run.train.lambdas)  # the attributes, in the order of the lambda map
    path = os.path.join(run.out_dir, "attack_scores.bin")
    if not os.path.exists(path):
        raise DataError(f"no attack scores at {path!r}; run the attack command first")
    # the attack's own record: the latent means its attackers were scored on, and their predictions
    scores, meta = load_container(path)
    test_users = run.fold.split.test
    if "mu" not in scores or meta.get("n_items") != run.dataset.n_items:
        raise DataError(f"{path}: the attacked checkpoint expects {meta.get('n_items')} items, dataset has "
                        f"{run.dataset.n_items}, or the file predates latent means; run the attack command again")
    if not np.array_equal(scores.get("test_users"), test_users):
        raise DataError(f"{path} holds the attack on other test users; run the attack command again")
    for attr in names:
        if f"pred_{attr}" not in scores:
            raise DataError(f"{path} has no attacker for attribute {attr!r}; run the attack command for it")
    for name, ndim in [("mu", 2), *((f"pred_{attr}", 1) for attr in names)]:  # one row per test user
        if scores[name].ndim != ndim or len(scores[name]) != len(test_users):
            raise DataError(f"{path}: {name} has shape {scores[name].shape} for {len(test_users)} test users; "
                            "run the attack command again")
    targets = run.attrs.targets()

    def cell(attr, value) -> str:
        return str(int(value)) if tr.ATTRIBUTES[attr] == adv.CATEGORICAL else f"{value:.17g}"

    d_latent = scores["mu"].shape[1]
    header = ["user_id"] + [f"z{i}" for i in range(d_latent)]
    header += [f"pred_{attr}" for attr in names] + [f"true_{attr}" for attr in names]
    lines = ["\t".join(header)]
    mu_format = "\t".join(["%.17g"] * d_latent)
    for i, (user, mu) in enumerate(zip(test_users, scores["mu"].tolist(), strict=True)):
        parts = [run.dataset.user_ids[user], mu_format % tuple(mu)]
        parts += [cell(attr, scores[f"pred_{attr}"][i]) for attr in names]
        parts += [cell(attr, targets[attr][user]) for attr in names]
        lines.append("\t".join(parts))
    out_path = os.path.join(run.out_dir, "embeddings.tsv")
    with atomic_open(out_path) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(test_users)} rows to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advrec",
        description="Train a VAE recommender while adversarially removing protected user attributes.",
    )
    parser.add_argument("--version", action="version", version=f"advrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("preprocess", "ingest raw TSVs, filter, and cache the dataset"),
        ("train", "run the adversarial removal phase on one fold"),
        ("attack", "train attackers against a frozen checkpoint"),
        ("eval", "compute ranking metrics for a checkpoint"),
        ("grid", "sweep lambda combinations across all folds"),
        ("export-embeddings", "write the attack's test-user latents and predictions as TSV"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides out.dir)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="master seed; sets the model/data/adversary streams to N, N+1, N+2")
        p.add_argument("--lambda", dest="lambdas", action="append", default=[],
                       metavar="ATTR=VALUE", help="removal strength override (repeatable)")
        if name == "grid":
            p.add_argument("--workers", type=int, default=1, metavar="N",
                           help="concurrent runs; workers keep the environment's BLAS thread count, "
                                "and results repeat bit for bit only at a fixed thread count")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = cf.load_config(args.config)
        if args.out:
            config["out.dir"] = args.out
        if args.seed is not None:
            cf.apply_seed(config, args.seed)
        cf.apply_lambda_flags(config, args.lambdas)
        if args.command == "grid":
            return cmd_grid(config, args.workers)
        command = {"preprocess": cmd_preprocess, "train": cmd_train, "attack": cmd_attack, "eval": cmd_eval,
                   "export-embeddings": cmd_export_embeddings}[args.command]
        return command(config)
    except AdvrecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
