"""Command-line entry point: preprocess, train, attack, eval, grid, export."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass

from . import __version__
from . import adversarial as adv
from . import data as dp
from . import evaluation as ev
from . import training as tr
from .config import RunConfig, apply_lambda_flags, apply_seed, load_config
from .container import atomic_open, save_container
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


def write_manifest(directory: str, config: RunConfig, **extra) -> None:
    manifest = {
        "artifact_version": __version__,
        "config": config.manifest_dict(),
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


def load_dataset(config: RunConfig):
    cache = config.require("data.cache")
    if not os.path.exists(cache):
        raise DataError(f"dataset cache {cache!r} not found; run the preprocess command first")
    dataset, attrs, _ = dp.load_cache(cache)
    return dataset, attrs


@dataclass
class FoldRun:
    """What train, attack, eval and export-embeddings share: the cached data,
    the configured fold, the train settings and the run's output directory."""

    config: RunConfig
    dataset: dp.InteractionDataset
    attrs: dp.UserAttributes
    fold: dp.FoldData
    train: tr.TrainConfig
    label: str
    out_dir: str

    @classmethod
    def of(cls, config: RunConfig) -> "FoldRun":
        train = config.train_config()  # checks the seeds before make_folds uses one
        dataset, attrs = load_dataset(config)
        splits = dp.make_folds(dataset.n_users, train.data_seed, config["train.n_folds"])
        fold_index = config["train.fold"]
        if not 0 <= fold_index < len(splits):
            raise ConfigError(f"train.fold={fold_index} outside 0..{len(splits) - 1}")
        fold = dp.prepare_fold(dataset, splits[fold_index], train.holdout_ratio, train.data_seed)
        label = tr.model_label(train.lambdas)
        return cls(config, dataset, attrs, fold, train, label,
                   os.path.join(config["out.dir"], label, f"fold{fold_index}"))

    def specs(self) -> list[adv.AttributeSpec]:
        return tr.build_specs(self.attrs, self.train.lambdas, self.fold.split.train, self.train.continuous_head)

    def model(self) -> adv.Params:
        """The run's checkpoint, once it fits the dataset's catalog."""
        path = os.path.join(self.out_dir, "checkpoint.bin")
        if not os.path.exists(path):
            raise DataError(f"no checkpoint at {path!r}; run the train command first")
        model, _ = adv.load_checkpoint(path)
        if model["enc.hidden_w"].shape[0] != self.dataset.n_items:
            raise DataError(
                f"checkpoint expects {model['enc.hidden_w'].shape[0]} items, dataset has {self.dataset.n_items}"
            )
        return model

    def write_result(self, name: str, metrics: dict) -> dict:
        """Write the one-row results CSV ``name`` and return its row."""
        row = tr.result_row(self.config["data.name"], self.train.lambdas, self.fold.index, metrics)
        ev.write_rows_csv(os.path.join(self.out_dir, name), [row])
        return row


def cmd_preprocess(config: RunConfig) -> int:
    interactions = config.require("data.interactions")
    demographics = config.require("data.demographics")
    cache_path = config.require("data.cache")
    # each bound is written as "in range" and negated, so that NaN fails it too
    for key, ok, bound in [
        ("data.k_core", config["data.k_core"] >= 1, ">= 1"),
        ("data.item_subsample", config["data.item_subsample"] >= 0, ">= 0"),
        ("data.subsample_seed", config["data.subsample_seed"] >= 0, ">= 0"),
        ("data.age_cap", 0.0 < config["data.age_cap"] < float("inf"), "finite and > 0"),
    ]:
        if not ok:
            raise ConfigError(f"{key} must be {bound}, got {config[key]}")
    for path in (interactions, demographics):
        if not os.path.exists(path):
            raise DataError(f"input file {path!r} does not exist")
    dataset, attrs = dp.load_interactions(interactions, demographics, config["data.age_cap"])
    steps = {"k_core": config["data.k_core"]}
    if config["data.item_subsample"]:
        dataset, keep_users, _ = dp.item_subsample(
            dataset, config["data.item_subsample"], config["data.subsample_seed"]
        )
        attrs = attrs.subset(keep_users)
        steps["item_subsample"] = config["data.item_subsample"]
    dataset, keep_users, _ = dp.k_core_filter(dataset, config["data.k_core"])
    attrs = attrs.subset(keep_users)
    if dataset.n_users == 0:
        raise DataError("k-core filtering removed every user; nothing to cache")
    dp.save_cache(cache_path, dataset, attrs, extra_meta={"preprocess": steps})
    stats = dp.dataset_stats(dataset, attrs)
    write_json(cache_path + ".stats.json", stats)
    print(f"dataset: {config['data.name']}")
    print(f"  users          {stats['users']}")
    print(f"  items          {stats['items']}")
    print(f"  interactions   {stats['interactions']}")
    print(f"  density        {stats['density']:.4f}")
    gender = ", ".join(f"{label}: {count}" for label, count in zip(stats["gender_labels"], stats["gender_counts"]))
    print(f"  gender         {gender}")
    print(f"  age mean/std/median  {stats['age_mean']}/{stats['age_std']}/{stats['age_median']}")
    print(f"cache written to {cache_path}")
    return 0


def cmd_train(config: RunConfig) -> int:
    run = FoldRun.of(config)
    log.info("training %s on fold %d (%d train users)", run.label, run.fold.index, len(run.fold.split.train))
    result = tr.train_adversarial_phase(run.dataset, run.attrs, run.specs(), run.fold, run.train)
    adv.save_checkpoint(os.path.join(run.out_dir, "checkpoint.bin"), result.params, run.train.to_meta())
    ev.write_rows_csv(os.path.join(run.out_dir, "train_log.csv"), result.log)
    write_manifest(run.out_dir, config, command="train", model=run.label, fold=run.fold.index,
                   best_epoch=result.best_epoch, best_val_ndcg=result.best_val_ndcg)
    print(f"{run.label} fold {run.fold.index}: checkpoint + log in {run.out_dir}")
    return 0


def cmd_attack(config: RunConfig) -> int:
    run = FoldRun.of(config)
    model = run.model()
    specs = run.specs()
    result = tr.train_attack_phase(model, run.dataset, run.attrs, specs, run.fold, run.train)
    adv.save_attacker(
        os.path.join(run.out_dir, "attacker.bin"),
        result.heads,
        {"model": run.label, "fold": run.fold.index, "attributes": json.loads(adv.specs_meta(specs))},
    )
    save_container(
        os.path.join(run.out_dir, "attack_scores.bin"), result.per_user,
        {"kind": "attack-scores", "model": run.label, "fold": run.fold.index},
    )
    run.write_result("attack_metrics.csv", result.metrics)
    printable = ", ".join(f"{k}={ev.as_percent(v):.2f}" for k, v in result.metrics.items())
    print(f"{run.label} fold {run.fold.index}: {printable}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    run = FoldRun.of(config)
    metrics, per_user = tr.rank_test_fold(run.model(), run.dataset, run.fold)
    save_container(
        os.path.join(run.out_dir, "eval_scores.bin"), per_user,
        {"kind": "eval-scores", "model": run.label, "fold": run.fold.index},
    )
    row = run.write_result("metrics.csv", metrics)
    print(f"{run.label} fold {run.fold.index}: ndcg@10={row['ndcg@10']:.2f} recall@10={row['recall@10']:.2f}")
    return 0


def cmd_grid(config: RunConfig, workers: int) -> int:
    grid = config.grid()
    if not grid:
        raise ConfigError("grid command needs at least one grid.<attribute> key")
    train_config = config.train_config()  # checks every setting before the data is read
    dataset, attrs = load_dataset(config)
    splits = dp.make_folds(dataset.n_users, train_config.data_seed, config["train.n_folds"])
    folds = [
        dp.prepare_fold(dataset, split, train_config.holdout_ratio, train_config.data_seed)
        for split in splits
    ]
    combos = tr.lambda_combinations(grid)
    log.info("grid: %d combinations x %d folds, %d workers", len(combos), len(folds), workers)
    outcome = tr.grid_search(
        dataset, attrs, grid, folds, train_config, dataset_name=config["data.name"], workers=workers
    )
    grid_dir = os.path.join(config["out.dir"], "grid")
    if outcome.records:
        ev.write_rows_csv(os.path.join(grid_dir, "results.csv"), [r.result_row() for r in outcome.records])
    for record in outcome.records:
        combo_label = "_".join(f"{name}{lam:g}" for name, lam in record.lambdas.items())
        save_container(
            os.path.join(grid_dir, combo_label, f"fold{record.fold}", "user_scores.bin"), record.per_user,
            {"kind": "user-scores", "model": record.model, "fold": record.fold,
             "lambdas": {k: float(v) for k, v in record.lambdas.items()}},
        )
    summary = tr.grid_summary(outcome.records)
    if summary:
        ev.write_rows_csv(os.path.join(grid_dir, "summary.csv"), summary)
    write_manifest(grid_dir, config, command="grid",
                   combinations=len(combos), folds=len(folds),
                   failures=[{"lambdas": lam, "fold": fold} for lam, fold, _ in outcome.failures])
    for lambdas, fold_index, message in outcome.failures:
        log.error("combination %s fold %d failed:\n%s", lambdas, fold_index, message)
    print(f"grid: {len(outcome.records)} runs completed, {len(outcome.failures)} failed; results in {grid_dir}")
    return 1 if outcome.failures else 0


def cmd_export_embeddings(config: RunConfig) -> int:
    run = FoldRun.of(config)
    model = run.model()
    attacker_path = os.path.join(run.out_dir, "attacker.bin")
    if not os.path.exists(attacker_path):
        raise DataError(f"no attacker at {attacker_path!r}; run the attack command first")
    heads, _ = adv.load_attacker(attacker_path)
    specs = run.specs()
    test_users = run.fold.split.test
    latents = tr.encode_users(run.dataset, test_users, model)
    predictions = adv.attacker_predictions(latents, heads, specs)
    targets = run.attrs.targets()

    def cell(spec, value) -> str:
        return str(int(value)) if spec.kind == adv.CATEGORICAL else f"{value:.17g}"

    header = ["user_id"] + [f"z{i}" for i in range(latents.shape[1])]
    header += [f"pred_{spec.name}" for spec in specs] + [f"true_{spec.name}" for spec in specs]
    lines = ["\t".join(header)]
    for i, user in enumerate(test_users):
        parts = [run.dataset.user_ids[user]] + [f"{value:.17g}" for value in latents[i]]
        parts += [cell(spec, predictions[spec.name][i]) for spec in specs]
        parts += [cell(spec, targets[spec.name][user]) for spec in specs]
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
        ("export-embeddings", "dump test-user latents with attacker predictions"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides out.dir)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="master seed; sets the model/data/adversary streams to N, N+1, N+2")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="concurrent runs for the grid command; workers keep the environment's BLAS "
                            "thread count, and results repeat bit for bit only at a fixed thread count")
        p.add_argument("--lambda", dest="lambdas", action="append", default=[],
                       metavar="ATTR=VALUE", help="removal strength override (repeatable)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out:
            config.values["out.dir"] = args.out
        if args.seed is not None:
            apply_seed(config, args.seed)
        apply_lambda_flags(config, args.lambdas)
        if args.command == "grid":
            return cmd_grid(config, max(1, args.workers))
        command = {"preprocess": cmd_preprocess, "train": cmd_train, "attack": cmd_attack, "eval": cmd_eval,
                   "export-embeddings": cmd_export_embeddings}[args.command]
        return command(config)
    except AdvrecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
