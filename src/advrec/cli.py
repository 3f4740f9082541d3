"""Command-line entry point: preprocess, train, attack, eval, grid, export."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import adversarial as adv
from . import data as dp
from . import evaluation as ev
from . import training as tr
from .config import RunConfig, apply_lambda_flags, apply_seed, load_config
from .container import save_container
from .errors import AdvrecError, ConfigError, DataError

log = logging.getLogger("advrec")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    atomic_write_text(os.path.join(directory, "manifest.json"), json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def load_dataset(config: RunConfig):
    cache = config.require("data.cache")
    if not os.path.exists(cache):
        raise DataError(f"dataset cache {cache!r} not found; run the preprocess command first")
    dataset, attrs, _ = dp.load_cache(cache)
    return dataset, attrs


def fold_for(config: RunConfig, dataset) -> dp.FoldData:
    splits = dp.make_folds(dataset.n_users, config["train.data_seed"], config["train.n_folds"])
    fold_index = config["train.fold"]
    if not 0 <= fold_index < len(splits):
        raise ConfigError(f"train.fold={fold_index} outside 0..{len(splits) - 1}")
    return dp.prepare_fold(dataset, splits[fold_index], config["train.holdout_ratio"], config["train.data_seed"])


def run_directory(config: RunConfig, lambdas: dict, fold_index: int) -> str:
    return os.path.join(config["out.dir"], tr.model_label(lambdas), f"fold{fold_index}")


def lambda_columns(lambdas: dict) -> dict:
    return {f"lambda_{name}": float(lam) for name, lam in lambdas.items()}


def cmd_preprocess(config: RunConfig) -> int:
    interactions = config.require("data.interactions")
    demographics = config.require("data.demographics")
    cache_path = config.require("data.cache")
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
    atomic_write_text(cache_path + ".stats.json", json.dumps(stats, sort_keys=True, indent=2) + "\n")
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
    dataset, attrs = load_dataset(config)
    fold = fold_for(config, dataset)
    train_config = config.train_config()
    specs = tr.build_specs(attrs, train_config.lambdas, fold.split.train, train_config.continuous_head)
    label = tr.model_label(train_config.lambdas)
    out_dir = run_directory(config, train_config.lambdas, fold.index)
    log.info("training %s on fold %d (%d train users)", label, fold.index, len(fold.split.train))
    result = tr.train_adversarial_phase(dataset, attrs, specs, fold, train_config)
    selected = result.selected(train_config.selection)
    os.makedirs(out_dir, exist_ok=True)
    adv.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), selected, train_config.to_meta())
    fieldnames = list(result.log[0].keys()) if result.log else ["epoch"]
    ev.write_rows_csv(os.path.join(out_dir, "train_log.csv"), fieldnames, result.log)
    write_manifest(out_dir, config, command="train", model=label, fold=fold.index,
                   best_epoch=result.best_epoch, best_val_ndcg=result.best_val_ndcg)
    print(f"{label} fold {fold.index}: checkpoint + log in {out_dir}")
    return 0


def _require_checkpoint(out_dir: str) -> str:
    path = os.path.join(out_dir, "checkpoint.bin")
    if not os.path.exists(path):
        raise DataError(f"no checkpoint at {path!r}; run the train command first")
    return path


def cmd_attack(config: RunConfig) -> int:
    dataset, attrs = load_dataset(config)
    fold = fold_for(config, dataset)
    train_config = config.train_config()
    label = tr.model_label(train_config.lambdas)
    out_dir = run_directory(config, train_config.lambdas, fold.index)
    model, _ = adv.load_checkpoint(_require_checkpoint(out_dir))
    specs = tr.build_specs(attrs, train_config.lambdas, fold.split.train, train_config.continuous_head)
    result = tr.train_attack_phase(model, dataset, attrs, specs, fold, train_config)
    adv.save_attacker(
        os.path.join(out_dir, "attacker.bin"),
        result.heads,
        {"model": label, "fold": fold.index, "attributes": json.loads(adv.specs_meta(specs))},
    )
    score_arrays = {k: np.asarray(v) for k, v in result.per_user.items()}
    save_container(
        os.path.join(out_dir, "attack_scores.bin"), score_arrays,
        {"kind": "attack-scores", "model": label, "fold": fold.index},
    )
    row = {"dataset": config["data.name"], "model": label, **lambda_columns(train_config.lambdas),
           "fold": fold.index}
    row.update({key: ev.as_percent(value) for key, value in result.metrics.items()})
    ev.write_rows_csv(os.path.join(out_dir, "attack_metrics.csv"), list(row.keys()), [row])
    printable = ", ".join(f"{k}={ev.as_percent(v):.2f}" for k, v in result.metrics.items())
    print(f"{label} fold {fold.index}: {printable}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    dataset, attrs = load_dataset(config)
    fold = fold_for(config, dataset)
    train_config = config.train_config()
    label = tr.model_label(train_config.lambdas)
    out_dir = run_directory(config, train_config.lambdas, fold.index)
    model, _ = adv.load_checkpoint(_require_checkpoint(out_dir))
    ndcg, recall, evaluated = tr.evaluate_ranking(
        model, dataset, fold.test_foldin, fold.test_holdout, train_config
    )
    save_container(
        os.path.join(out_dir, "eval_scores.bin"),
        {"test_users": fold.split.test, "ndcg": ndcg, "recall": recall, "evaluated": evaluated},
        {"kind": "eval-scores", "model": label, "fold": fold.index},
    )
    row = {
        "dataset": config["data.name"], "model": label, **lambda_columns(train_config.lambdas),
        "fold": fold.index,
        "ndcg@10": ev.as_percent(float(ndcg[evaluated].mean())) if evaluated.any() else 0.0,
        "recall@10": ev.as_percent(float(recall[evaluated].mean())) if evaluated.any() else 0.0,
    }
    ev.write_rows_csv(os.path.join(out_dir, "metrics.csv"), list(row.keys()), [row])
    print(f"{label} fold {fold.index}: ndcg@10={row['ndcg@10']:.2f} recall@10={row['recall@10']:.2f}")
    return 0


def cmd_grid(config: RunConfig, workers: int) -> int:
    dataset, attrs = load_dataset(config)
    grid = config.grid()
    if not grid:
        raise ConfigError("grid command needs at least one grid.<attribute> key")
    train_config = config.train_config()
    splits = dp.make_folds(dataset.n_users, config["train.data_seed"], config["train.n_folds"])
    folds = [
        dp.prepare_fold(dataset, split, config["train.holdout_ratio"], config["train.data_seed"])
        for split in splits
    ]
    combos = tr.lambda_combinations(grid)
    log.info("grid: %d combinations x %d folds, %d workers", len(combos), len(folds), workers)
    outcome = tr.grid_search(
        dataset, attrs, grid, folds, train_config, dataset_name=config["data.name"], workers=workers
    )
    grid_dir = os.path.join(config["out.dir"], "grid")
    os.makedirs(grid_dir, exist_ok=True)
    rows = [record.result_row() for record in outcome.records]
    if rows:
        ev.write_rows_csv(os.path.join(grid_dir, "results.csv"), list(rows[0].keys()), rows)
    for record in outcome.records:
        combo_label = "_".join(f"{name}{lam:g}" for name, lam in record.lambdas.items())
        run_dir = os.path.join(grid_dir, combo_label, f"fold{record.fold}")
        save_container(
            os.path.join(run_dir, "user_scores.bin"),
            {k: np.asarray(v) for k, v in record.per_user.items()},
            {"kind": "user-scores", "model": record.model, "fold": record.fold,
             "lambdas": {k: float(v) for k, v in record.lambdas.items()}},
        )
    summary = tr.grid_summary(outcome.records)
    if summary:
        fieldnames: list[str] = []
        for row in summary:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        ev.write_rows_csv(os.path.join(grid_dir, "summary.csv"), fieldnames, summary)
    write_manifest(grid_dir, config, command="grid",
                   combinations=len(combos), folds=len(folds),
                   failures=[{"lambdas": lam, "fold": fold} for lam, fold, _ in outcome.failures])
    for lambdas, fold_index, message in outcome.failures:
        log.error("combination %s fold %d failed:\n%s", lambdas, fold_index, message)
    print(f"grid: {len(outcome.records)} runs completed, {len(outcome.failures)} failed; results in {grid_dir}")
    return 1 if outcome.failures else 0


def cmd_export_embeddings(config: RunConfig) -> int:
    dataset, attrs = load_dataset(config)
    fold = fold_for(config, dataset)
    train_config = config.train_config()
    out_dir = run_directory(config, train_config.lambdas, fold.index)
    model, _ = adv.load_checkpoint(_require_checkpoint(out_dir))
    attacker_path = os.path.join(out_dir, "attacker.bin")
    if not os.path.exists(attacker_path):
        raise DataError(f"no attacker at {attacker_path!r}; run the attack command first")
    heads, _ = adv.load_attacker(attacker_path)
    specs = tr.build_specs(attrs, train_config.lambdas, fold.split.train, train_config.continuous_head)
    if model["enc.hidden_w"].shape[0] != dataset.n_items:
        raise DataError(
            f"checkpoint expects {model['enc.hidden_w'].shape[0]} items, dataset has {dataset.n_items}"
        )

    test_users = fold.split.test
    latents = tr.encode_users(dataset, test_users, model, train_config.activation)
    predictions = {}
    for spec in specs:
        raw = adv.attacker_forward_eval(latents, heads, spec)
        predictions[spec.name] = raw.argmax(axis=1) if spec.kind == adv.CATEGORICAL else raw.reshape(-1)

    truths = {name: values[test_users] for name, values in attrs.targets().items() if name in predictions}
    d_latent = latents.shape[1]
    header = ["user_id"] + [f"z{i}" for i in range(d_latent)]
    header += [f"pred_{spec.name}" for spec in specs] + [f"true_{spec.name}" for spec in specs]
    lines = ["\t".join(header)]
    for i, user in enumerate(test_users):
        parts = [dataset.user_ids[user]]
        parts += [f"{value:.17g}" for value in latents[i]]
        for spec in specs:
            value = predictions[spec.name][i]
            parts.append(str(int(value)) if spec.kind == adv.CATEGORICAL else f"{value:.17g}")
        for spec in specs:
            value = truths[spec.name][i]
            parts.append(str(int(value)) if spec.kind == adv.CATEGORICAL else f"{value:.17g}")
        lines.append("\t".join(parts))
    out_path = os.path.join(out_dir, "embeddings.tsv")
    atomic_write_text(out_path, "\n".join(lines) + "\n")
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
                       help="concurrent runs for the grid command")
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
        if args.command == "preprocess":
            return cmd_preprocess(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "attack":
            return cmd_attack(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "grid":
            return cmd_grid(config, max(1, args.workers))
        if args.command == "export-embeddings":
            return cmd_export_embeddings(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except AdvrecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
