"""Optimization and the two-phase protocol: removal training, then attack.

Three independent RNG streams (model, data, adversary) keep runs
reproducible and make zero-scale adversarial runs bit-identical to plain
recommender training: head initialization and any adversary-side draws
never touch the model stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import adversarial as adv
from . import evaluation as ev
from . import multvae as mv
from .data import FoldData, InteractionDataset, UserAttributes, class_weights
from .errors import ConfigError, TrainingDiverged


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> adv.Params:
    """One bias-corrected Adam update; returns the next store, in fresh
    arrays, and leaves ``params`` as it was."""
    state.step += 1
    t = state.step
    corr1 = 1.0 - state.beta1**t
    corr2 = 1.0 - state.beta2**t
    updated = adv.Params()
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / corr1
        v_hat = v / corr2
        updated[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return updated


@dataclass
class TrainConfig:
    """All knobs for one training run; defaults follow the reference protocol."""

    epochs_adversarial: int = 200
    epochs_attack: int = 50
    batch_size: int = 64
    beta_max: float = 0.4
    anneal_steps: int = 10_000
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    d_hidden: int = 600
    d_latent: int = 200
    d_adv_hidden: int = 128
    dropout_keep: float = 0.5
    activation: str = "tanh"
    clip_grad: float = 0.0  # 0 disables clipping
    continuous_head: str = "sigmoid"  # "sigmoid" or "linear" output for continuous heads
    holdout_ratio: float = 0.2
    val_every: int = 1
    selection: str = "best"  # "best" (validation NDCG@10) or "final"
    model_seed: int = 0
    data_seed: int = 1
    adversary_seed: int = 2
    lambdas: dict = field(default_factory=dict)

    def validate(self) -> None:
        # each bound is written as "in range" and negated, so that NaN fails it too
        for name, ok, bound in [
            ("epochs_adversarial", self.epochs_adversarial >= 1, ">= 1"),
            ("epochs_attack", self.epochs_attack >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("beta_max", 0.0 <= self.beta_max < np.inf, "finite and >= 0"),
            ("lr", 0.0 < self.lr < np.inf, "finite and > 0"),
            ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
            ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
            ("adam_epsilon", self.adam_epsilon > 0.0, "> 0"),
            ("d_adv_hidden", self.d_adv_hidden >= 1, ">= 1"),
            ("anneal_steps", self.anneal_steps >= 0, ">= 0"),
            ("val_every", self.val_every >= 0, ">= 0"),
            ("clip_grad", self.clip_grad >= 0, ">= 0"),
        ]:
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)}")
        if self.selection not in ("best", "final"):
            raise ConfigError(f"unknown selection mode {self.selection!r}")
        if self.activation not in mv.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.continuous_head not in ("sigmoid", "linear"):
            raise ConfigError(f"unknown continuous_head {self.continuous_head!r}")
        for name, lam in self.lambdas.items():
            if not 0.0 <= lam < np.inf:
                raise ConfigError(f"lambda for {name!r} must be finite and >= 0, got {lam}")

    def to_meta(self) -> dict:
        meta = dataclasses.asdict(self)
        meta["lambdas"] = {k: float(v) for k, v in self.lambdas.items()}
        return meta


def model_label(lambdas: dict) -> str:
    """Output naming convention: suffix per actively removed attribute."""
    active = [name for name, lam in lambdas.items() if lam > 0]
    if not active:
        return "MultVAE"
    if len(active) == 1:
        return f"AdvMultVAE-{active[0][:1].upper()}"
    return "AdvXMultVAE"


def build_specs(
    attrs: UserAttributes,
    lambdas: dict,
    train_users: np.ndarray,
    continuous_head: str = "sigmoid",
) -> list[adv.AttributeSpec]:
    """Attribute specs for every entry of the lambda map, in declared order.

    Categorical attributes get inverse-frequency class weights computed on
    the training users.
    """
    available = {"gender", "age"}
    squash = continuous_head == "sigmoid"
    specs = []
    for name, lam in lambdas.items():
        if name not in available:
            raise ConfigError(f"unknown attribute {name!r}; expected one of {sorted(available)}")
        if name == "gender":
            n_classes = len(attrs.gender_labels)
            weights = class_weights(attrs.gender[train_users], n_classes)
            specs.append(
                adv.AttributeSpec(name=name, kind=adv.CATEGORICAL, n_classes=n_classes,
                                  class_weights=weights, lam=float(lam))
            )
        else:
            specs.append(adv.AttributeSpec(name=name, kind=adv.CONTINUOUS, lam=float(lam), squash=squash))
    return specs


def params_hash(named_iter) -> str:
    digest = hashlib.sha256()
    for name, arr in sorted(named_iter):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def clip_gradients(grads: dict, max_norm: float) -> dict:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


EVAL_CHUNK = 1024  # users per dense matrix at evaluation, which bounds its memory


def encode_users(dataset: InteractionDataset, users, params: dict, activation: str) -> np.ndarray:
    """Latent means of ``users``, densified and encoded ``EVAL_CHUNK`` rows at a time."""
    latents = np.empty((len(users), params["enc.mu_b"].shape[0]))
    for start in range(0, len(users), EVAL_CHUNK):
        stop = start + EVAL_CHUNK
        latents[start:stop] = mv.encode_eval(dataset.batch_matrix(users[start:stop]), params, activation)
    return latents


def evaluate_ranking(
    model: dict,
    dataset: InteractionDataset,
    foldin_rows,
    holdout_rows,
    config: TrainConfig,
    k: int = 10,
):
    """NDCG@k and recall@k from fold-in rows against holdout rows."""
    n = len(foldin_rows)
    ndcg = np.zeros(n)
    recall = np.zeros(n)
    evaluated = np.zeros(n, dtype=bool)
    for start in range(0, n, EVAL_CHUNK):
        stop = min(n, start + EVAL_CHUNK)
        # the dense input is freed before ranking, which holds two more chunk-sized arrays
        scores = mv.scores_eval(dataset.rows_matrix(foldin_rows[start:stop]), model, config.activation)
        nd, rc, ok = ev.ranking_metrics(scores, foldin_rows[start:stop], holdout_rows[start:stop], k)
        ndcg[start:stop] = nd
        recall[start:stop] = rc
        evaluated[start:stop] = ok
    return ndcg, recall, evaluated


def rank_test_fold(model: dict, dataset: InteractionDataset, fold: FoldData, config: TrainConfig):
    """The test fold's NDCG@10 and recall@10 over its evaluated users, and
    the per-user values behind them (``test_users``, ``ndcg``, ``recall``,
    ``evaluated``)."""
    ndcg, recall, evaluated = evaluate_ranking(model, dataset, fold.test_foldin, fold.test_holdout, config)
    metrics = {"ndcg@10": ev.evaluated_mean(ndcg, evaluated), "recall@10": ev.evaluated_mean(recall, evaluated)}
    return metrics, {"test_users": fold.split.test.copy(), "ndcg": ndcg, "recall": recall, "evaluated": evaluated}


@dataclass
class TrainResult:
    final_params: adv.Params
    best_params: adv.Params
    best_epoch: int
    best_val_ndcg: float
    log: list

    def selected(self, selection: str) -> adv.Params:
        return self.best_params if selection == "best" else self.final_params


def init_model(
    dataset: InteractionDataset,
    specs: list[adv.AttributeSpec],
    config: TrainConfig,
    model_rng: np.random.Generator,
    adversary_rng: np.random.Generator,
) -> adv.Params:
    """Encoder and decoder from the model stream, removal heads from the adversary stream."""
    return adv.Params(
        **mv.init_encoder(dataset.n_items, config.d_hidden, config.d_latent, model_rng),
        **mv.init_decoder(dataset.n_items, config.d_hidden, config.d_latent, model_rng),
        **adv.init_heads("head", specs, config.d_latent, config.d_adv_hidden, adversary_rng),
    )


def train_adversarial_phase(
    dataset: InteractionDataset,
    attrs: UserAttributes,
    specs: list[adv.AttributeSpec],
    fold: FoldData,
    config: TrainConfig,
) -> TrainResult:
    """Joint minimization of the recommender loss and all reversed head losses."""
    config.validate()
    model_rng = np.random.default_rng(config.model_seed)
    data_rng = np.random.default_rng(config.data_seed)
    adversary_rng = np.random.default_rng(config.adversary_seed)

    model = init_model(dataset, specs, config, model_rng, adversary_rng)
    optimizer = AdamState(config.lr, config.adam_beta1, config.adam_beta2, config.adam_epsilon)
    targets_all = attrs.targets()

    train_users = fold.split.train
    best_ndcg = -np.inf
    best_params = model
    best_epoch = -1
    log = []
    global_step = 0

    for epoch in range(config.epochs_adversarial):
        order = data_rng.permutation(len(train_users))
        epoch_mult = 0.0
        epoch_nll = 0.0
        epoch_kl = 0.0
        epoch_adv = {spec.name: 0.0 for spec in specs}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch_users = train_users[order[start : start + config.batch_size]]
            x = dataset.batch_matrix(batch_users)
            batch_targets = {name: values[batch_users] for name, values in targets_all.items()}
            beta = config.beta_max * min(1.0, global_step / config.anneal_steps) if config.anneal_steps else config.beta_max
            parts, tape, leaves = adv.total_objective(
                x,
                batch_targets,
                model,
                specs,
                beta,
                model_rng,
                training=True,
                dropout_keep=config.dropout_keep,
                activation=config.activation,
            )
            if not np.isfinite(parts.loss.data):
                raise TrainingDiverged(f"loss became non-finite at epoch {epoch}, batch {n_batches}")
            grad_map = tape.backward(parts.loss)
            grads = {name: grad_map[leaf] for name, leaf in leaves.items()}
            if config.clip_grad > 0:
                grads = clip_gradients(grads, config.clip_grad)
            try:
                model = adam_step(model, grads, optimizer)
            except TrainingDiverged as err:
                raise TrainingDiverged(f"{err} (epoch {epoch}, batch {n_batches})") from None
            global_step += 1
            n_batches += 1
            epoch_mult += float(parts.mult.data)
            epoch_nll += float(parts.nll.data)
            epoch_kl += float(parts.kl.data)
            for name, tensor in parts.adv.items():
                epoch_adv[name] += float(tensor.data)

        entry = {
            "epoch": epoch,
            "mult": epoch_mult / max(1, n_batches),
            "nll": epoch_nll / max(1, n_batches),
            "kl": epoch_kl / max(1, n_batches),
        }
        for name in epoch_adv:
            entry[f"adv_{name}"] = epoch_adv[name] / max(1, n_batches)
        is_last = epoch == config.epochs_adversarial - 1
        if config.val_every and ((epoch + 1) % config.val_every == 0 or is_last):
            ndcg, _, evaluated = evaluate_ranking(
                model, dataset, fold.val_foldin, fold.val_holdout, config
            )
            val_ndcg = ev.evaluated_mean(ndcg, evaluated)
            entry["val_ndcg"] = val_ndcg
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_params = model  # adam_step never writes a store in place
                best_epoch = epoch
        log.append(entry)

    if best_epoch < 0:
        best_params = model
        best_epoch = config.epochs_adversarial - 1
        best_ndcg = 0.0
    return TrainResult(
        final_params=model,
        best_params=best_params,
        best_epoch=best_epoch,
        best_val_ndcg=best_ndcg,
        log=log,
    )


@dataclass
class AttackResult:
    heads: adv.Params
    metrics: dict
    per_user: dict
    log: list


def train_attack_phase(
    model: dict,
    dataset: InteractionDataset,
    attrs: UserAttributes,
    specs: list[adv.AttributeSpec],
    fold: FoldData,
    config: TrainConfig,
) -> AttackResult:
    """Train fresh attackers on the frozen encoder's latent means.

    One attacker per attribute, trained on training-fold users and scored
    on test-fold users (balanced accuracy for categorical attributes, mean
    absolute error for continuous ones). All attackers share one tape per
    batch and one optimizer; their losses are independent, so each learns
    as if alone.
    """
    config.validate()
    frozen = adv.frozen(model)
    head_rng = np.random.default_rng([config.adversary_seed, 1001])
    shuffle_rng = np.random.default_rng([config.data_seed, 1001])

    heads = adv.init_heads("attacker", specs, config.d_latent, config.d_adv_hidden, head_rng)
    optimizer = AdamState(config.lr, config.adam_beta1, config.adam_beta2, config.adam_epsilon)

    train_users = fold.split.train
    test_users = fold.split.test
    latents_train = encode_users(dataset, train_users, frozen, config.activation)
    latents_test = encode_users(dataset, test_users, frozen, config.activation)
    targets_all = attrs.targets()

    log = []
    for epoch in range(config.epochs_attack):
        order = shuffle_rng.permutation(len(train_users))
        epoch_losses = {spec.name: 0.0 for spec in specs}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            n_batches += 1
            if not specs:
                continue  # nothing to attack; the log still has its epochs
            idx = order[start : start + config.batch_size]
            targets = {spec.name: targets_all[spec.name][train_users[idx]] for spec in specs}
            loss, per_attr, tape, leaves = adv.attacker_loss_graph(latents_train[idx], heads, specs, targets)
            grad_map = tape.backward(loss)
            heads = adam_step(heads, {name: grad_map[leaf] for name, leaf in leaves.items()}, optimizer)
            for name, tensor in per_attr.items():
                epoch_losses[name] += float(tensor.data)
        log.append({"epoch": epoch, **{f"attacker_{k}": v / max(1, n_batches) for k, v in epoch_losses.items()}})

    metrics = {}
    per_user = {"test_users": test_users.copy()}
    predictions = adv.attacker_predictions(latents_test, heads, specs)
    for spec in specs:
        pred, truth = predictions[spec.name], targets_all[spec.name][test_users]
        per_user[f"pred_{spec.name}"] = pred
        if spec.kind == adv.CATEGORICAL:
            metrics[f"bacc_{spec.name}"] = ev.balanced_accuracy(pred, truth, spec.n_classes)
            per_user[f"correct_{spec.name}"] = pred == truth
        else:
            metrics[f"mae_{spec.name}"] = ev.mae_metric(pred, truth)
            per_user[f"abs_err_{spec.name}"] = np.abs(pred - truth)
    return AttackResult(heads=heads, metrics=metrics, per_user=per_user, log=log)


@dataclass
class RunRecord:
    dataset_name: str
    model: str
    lambdas: dict
    fold: int
    metrics: dict
    per_user: dict
    train_log: list
    attack_log: list
    best_epoch: int
    params: adv.Params
    attacker_heads: adv.Params

    def result_row(self) -> dict:
        return result_row(self.dataset_name, self.lambdas, self.fold, self.metrics)


def result_row(dataset_name: str, lambdas: dict, fold: int, metrics: dict) -> dict:
    """One row of a results table: the run's identity, then each metric in percent."""
    row = {"dataset": dataset_name, "model": model_label(lambdas)}
    row.update({f"lambda_{name}": float(lam) for name, lam in lambdas.items()})
    row["fold"] = fold
    row.update({key: ev.as_percent(value) for key, value in metrics.items()})
    return row


def run_single(
    dataset: InteractionDataset,
    attrs: UserAttributes,
    fold: FoldData,
    config: TrainConfig,
    dataset_name: str = "synthetic",
) -> RunRecord:
    """Full protocol for one lambda combination on one fold."""
    specs = build_specs(attrs, config.lambdas, fold.split.train, config.continuous_head)
    train_result = train_adversarial_phase(dataset, attrs, specs, fold, config)
    selected = train_result.selected(config.selection)
    attack = train_attack_phase(selected, dataset, attrs, specs, fold, config)
    ranking, ranking_per_user = rank_test_fold(selected, dataset, fold, config)
    return RunRecord(
        dataset_name=dataset_name,
        model=model_label(config.lambdas),
        lambdas=dict(config.lambdas),
        fold=fold.index,
        metrics={**ranking, **attack.metrics},
        per_user={**attack.per_user, **ranking_per_user},
        train_log=train_result.log,
        attack_log=attack.log,
        best_epoch=train_result.best_epoch,
        params=selected,
        attacker_heads=attack.heads,
    )


def lambda_combinations(grid: dict) -> list[dict]:
    names = list(grid)
    return [dict(zip(names, values)) for values in itertools.product(*(grid[n] for n in names))]


def _grid_unit(payload):
    dataset, attrs, fold, config, dataset_name = payload
    record = run_single(dataset, attrs, fold, config, dataset_name)
    return record


@dataclass
class GridOutcome:
    records: list
    failures: list  # (lambdas, fold_index, message)


def _combo_key(lambdas: dict) -> tuple:
    return tuple(sorted((name, float(lam)) for name, lam in lambdas.items()))


def _concatenated(records: list, field: str) -> np.ndarray:
    return np.concatenate([r.per_user[field] for r in sorted(records, key=lambda r: r.fold)])


def grid_summary(records: list) -> list[dict]:
    """Best-debiasing row per attribute, with significance against the
    all-zero baseline combination when it is part of the grid.

    Ranking scores enter a signed-rank test, categorical attacker
    correctness a McNemar test, and continuous attacker errors a paired
    t-test, each over the user-level values concatenated across folds.
    """
    if not records:
        return []
    by_combo: dict[tuple, list] = {}
    for record in records:
        by_combo.setdefault(_combo_key(record.lambdas), []).append(record)

    attr_kinds = {}
    for key in records[0].metrics:
        if key.startswith("bacc_"):
            attr_kinds[key[len("bacc_"):]] = "categorical"
        elif key.startswith("mae_"):
            attr_kinds[key[len("mae_"):]] = "continuous"

    baseline_key = _combo_key({name: 0.0 for name in records[0].lambdas})
    baseline = by_combo.get(baseline_key)

    def combo_mean(combo_records, metric):
        return float(np.mean([r.metrics[metric] for r in combo_records]))

    rows = []
    for attr, kind in attr_kinds.items():
        metric = f"bacc_{attr}" if kind == "categorical" else f"mae_{attr}"
        best_key = (
            min(by_combo, key=lambda key: combo_mean(by_combo[key], metric))
            if kind == "categorical"
            else max(by_combo, key=lambda key: combo_mean(by_combo[key], metric))
        )
        best = by_combo[best_key]
        row = {
            "attribute": attr,
            "selection_rule": f"{'min' if kind == 'categorical' else 'max'} {metric}",
            "model": best[0].model,
        }
        for name, lam in dict(best_key).items():
            row[f"lambda_{name}"] = lam
        for key in best[0].metrics:
            mean, std = ev.aggregate([r.metrics[key] for r in best])
            row[f"{key}_mean"] = mean
            row[f"{key}_std"] = std
        if baseline is not None and len(baseline) == len(best) and best_key != baseline_key:
            evaluated = _concatenated(best, "evaluated") & _concatenated(baseline, "evaluated")
            ndcg_test = ev.wilcoxon_signed_rank(
                _concatenated(best, "ndcg")[evaluated], _concatenated(baseline, "ndcg")[evaluated]
            )
            row["p_ndcg_vs_baseline"] = ndcg_test.p_value
            row["ndcg_significant"] = "*" if ndcg_test.significant else ""
            if kind == "categorical":
                attr_test = ev.mcnemar_test(
                    _concatenated(best, f"correct_{attr}"), _concatenated(baseline, f"correct_{attr}")
                )
                row["attr_test"] = "mcnemar"
            else:
                attr_test = ev.paired_t_test(
                    _concatenated(best, f"abs_err_{attr}"), _concatenated(baseline, f"abs_err_{attr}")
                )
                row["attr_test"] = "t-test"
            row["p_attr_vs_baseline"] = attr_test.p_value
            row["attr_significant"] = "*" if attr_test.significant else ""
            row["baseline"] = ",".join(f"{name}={lam:g}" for name, lam in baseline_key)
        rows.append(row)
    return rows


def grid_search(
    dataset: InteractionDataset,
    attrs: UserAttributes,
    grid: dict,
    folds: list[FoldData],
    config: TrainConfig,
    dataset_name: str = "synthetic",
    workers: int = 1,
) -> GridOutcome:
    """Every lambda combination crossed with every fold; failures recorded.

    Each unit derives its randomness from the seed triple and the fold index
    only, so results do not depend on execution order or worker count.
    Workers are spawned, not forked, because the parent's BLAS library may
    already run threads. They keep the BLAS thread count of the environment:
    a different count changes the last bits of large matrix products, and
    with them the results.
    """
    combos = lambda_combinations(grid)
    if not combos:
        raise ConfigError("grid has no lambda combinations")
    tasks = []
    for combo in combos:
        for fold in folds:
            unit_config = dataclasses.replace(config, lambdas=dict(combo))
            tasks.append((dataset, attrs, fold, unit_config, dataset_name))

    records: list = [None] * len(tasks)
    failures = []
    if workers <= 1:
        for i, payload in enumerate(tasks):
            try:
                records[i] = _grid_unit(payload)
            except Exception:
                failures.append((tasks[i][3].lambdas, tasks[i][2].index, traceback.format_exc(limit=3)))
    else:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {pool.submit(_grid_unit, payload): i for i, payload in enumerate(tasks)}
            for future, i in futures.items():
                try:
                    records[i] = future.result()
                except Exception:
                    failures.append((tasks[i][3].lambdas, tasks[i][2].index, traceback.format_exc(limit=3)))
    return GridOutcome(records=[r for r in records if r is not None], failures=failures)
