"""Optimization and the two-phase protocol: removal training, then attack.

Both phases are minibatch Adam through one loop, :func:`run_epoch`, with
each phase supplying the graph of a batch. Every step writes into the
arrays of the phase's one parameter store, in place, so a step allocates
no parameter-sized array. The removal phase trains its store in float32,
which halves the memory traffic of Adam and of the dense layers, and
returns the float64 upcast of the recommender (encoder and decoder) in the
one store that ``TrainConfig.selection`` picks; only ``"best"`` copies it,
at each validation improvement. The removal heads and their Adam moments
end with the phase. Everything that reads a trained model (validation,
test ranking, the attack phase and checkpoints) runs in float64.

The attack phase returns the test users' latent means with the
predictions its attackers made from them: the one record of what an
attack measured.

Three independent RNG streams (model, data, adversary) keep runs
reproducible and make zero-scale adversarial runs bit-identical to plain
recommender training: head initialization and any adversary-side draws
never touch the model stream.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import numbers
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import adversarial as adv
from . import evaluation as ev
from . import multvae as mv
from .data import FoldData, FoldSplit, InteractionDataset, UserAttributes, class_weights
from .errors import ConfigError, ContractError, TrainingDiverged


ADAM_BLOCK = 32_768  # elements per Adam block: two scratch rows of 128 KB in float32 (256 KB in float64) stay in L2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# The protected attributes and their kinds. This order fixes the order of the
# config's lambda.* keys and of every TrainConfig's lambda map, hence of the
# specs, and so the order in which the heads draw from the adversary stream.
ATTRIBUTES = {"gender": adv.CATEGORICAL, "age": adv.CONTINUOUS}


@dataclass
class AdamState:
    """Adam at rate ``lr`` with the fixed ``ADAM_BETA1``/``ADAM_BETA2``/``ADAM_EPSILON``:
    moment accumulators, the shared step counter and the scratch rows of
    one block, all allocated on the first step in the parameters' dtype."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: np.ndarray | None = None


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One bias-corrected Adam update, written into ``params`` in place;
    returns ``params``.

    The update runs in blocks of ``ADAM_BLOCK`` elements through two
    preallocated scratch rows, so a step allocates no parameter-sized
    array. Each block does the operations of the textbook formula in its
    order, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)``, so the result is the same
    to the bit, in float32 as in float64. Every gradient and parameter is
    checked before anything is written: a non-finite gradient raises
    ``TrainingDiverged``, and a missing gradient, one whose shape or dtype
    differs from its parameter's, or a parameter that cannot be written in
    place raises ``ContractError``, each naming the parameter and leaving
    the parameters, the moments and the step count as they were.
    """
    for name, p in params.items():
        g = grads.get(name)
        if g is None or g.shape != p.shape or g.dtype != p.dtype:
            found = "no gradient" if g is None else f"a gradient of shape {g.shape} and dtype {g.dtype}"
            raise ContractError(f"parameter {name!r} of shape {p.shape} and dtype {p.dtype} has {found}")
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        if not (p.flags.c_contiguous and p.flags.writeable):
            raise ContractError(f"parameter {name!r} must be a writeable C-contiguous array to be updated in place")
    state.step += 1
    corr1 = 1.0 - ADAM_BETA1**state.step
    corr2 = 1.0 - ADAM_BETA2**state.step
    for name, p in params.items():
        if state.scratch is None or state.scratch.dtype != p.dtype:
            state.scratch = np.empty((2, ADAM_BLOCK), p.dtype)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        flat = p.reshape(-1), grads[name].reshape(-1), state.m[name].reshape(-1), state.v[name].reshape(-1)
        for start in range(0, p.size, ADAM_BLOCK):
            p_b, g_b, m_b, v_b = (arr[start : start + ADAM_BLOCK] for arr in flat)
            a, b = state.scratch[:, : p_b.size]
            np.multiply(m_b, ADAM_BETA1, out=m_b)
            np.multiply(g_b, 1.0 - ADAM_BETA1, out=a)
            np.add(m_b, a, out=m_b)
            np.multiply(g_b, g_b, out=a)
            np.multiply(a, 1.0 - ADAM_BETA2, out=a)
            np.multiply(v_b, ADAM_BETA2, out=v_b)
            np.add(v_b, a, out=v_b)
            np.divide(v_b, corr2, out=a)
            np.sqrt(a, out=a)
            np.add(a, ADAM_EPSILON, out=a)
            np.divide(m_b, corr1, out=b)
            np.multiply(b, state.lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(p_b, b, out=p_b)
    return params


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class _ReadOnlyDict(dict):
    """A dict whose mutators raise ``TypeError``: the lambdas of a frozen config."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a TrainConfig's lambdas cannot change; build a new config with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # pickle would otherwise fill the copy through __setitem__
        return type(self), (dict(self),)


@dataclass(frozen=True)
class TrainConfig:
    """All knobs for one training run, checked when built; defaults follow the reference protocol."""

    epochs_adversarial: int = 200
    epochs_attack: int = 50
    batch_size: int = 64
    beta_max: float = 0.4
    anneal_steps: int = 10_000
    lr: float = 1e-3
    d_hidden: int = 600
    d_latent: int = 200
    d_adv_hidden: int = 128
    continuous_head: str = "sigmoid"  # the one continuous head; kept as a field because perfbench passes it
    val_every: int = 1
    selection: str = "best"  # "best" (validation NDCG@10) or "final"
    model_seed: int = 0
    data_seed: int = 1
    adversary_seed: int = 2
    lambdas: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        def integer(name, low):
            value = getattr(self, name)
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
            return name, ok, f"an integer >= {low}"

        # each bound is written as "in range" and negated, so that NaN fails it too
        for name, ok, bound in [
            integer("epochs_adversarial", 1),
            integer("epochs_attack", 1),
            integer("batch_size", 1),
            ("beta_max", _is_real(self.beta_max) and 0.0 <= self.beta_max < np.inf, "a finite number >= 0"),
            ("lr", _is_real(self.lr) and 0.0 < self.lr < np.inf, "a finite number > 0"),
            integer("d_hidden", 1),
            integer("d_latent", 1),
            integer("d_adv_hidden", 1),
            integer("anneal_steps", 0),
            integer("val_every", 0),
            integer("model_seed", 0),
            integer("data_seed", 0),
            integer("adversary_seed", 0),
            ("continuous_head", self.continuous_head == "sigmoid", "'sigmoid' (the linear head was removed)"),
        ]:
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)!r}")
        if self.selection not in ("best", "final"):
            raise ConfigError(f"unknown selection mode {self.selection!r}")
        if not isinstance(self.lambdas, dict):
            raise ConfigError(f"lambdas must be a dict from attribute to lambda, got {self.lambdas!r}")
        for name, lam in self.lambdas.items():
            if name not in ATTRIBUTES:
                raise ConfigError(f"unknown attribute {name!r} in lambdas; expected one of {list(ATTRIBUTES)}")
            if not (_is_real(lam) and 0.0 <= lam < np.inf):
                raise ConfigError(f"lambda for {name!r} must be a finite number >= 0, got {lam!r}")
        # in ATTRIBUTES order, which fixes the heads' draws and the labels, so equal configs train alike;
        # read-only, so the checks above hold
        ordered = _ReadOnlyDict((name, self.lambdas[name]) for name in ATTRIBUTES if name in self.lambdas)
        object.__setattr__(self, "lambdas", ordered)

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


def combo_label(lambdas: dict) -> str:
    """Output naming convention of a grid unit: each attribute with its lambda's ``:g`` text."""
    return "_".join(f"{name}{lam:g}" for name, lam in lambdas.items())


def build_specs(attrs: UserAttributes, lambdas: dict, train_users: np.ndarray) -> list[adv.AttributeSpec]:
    """Attribute specs for every entry of the lambda map, in declared order,
    each of the kind that ``ATTRIBUTES`` gives it.

    Categorical attributes get inverse-frequency class weights computed on
    the training users.
    """
    specs = []
    for name, lam in lambdas.items():
        if ATTRIBUTES[name] == adv.CATEGORICAL:
            n_classes = len(attrs.gender_labels)
            weights = class_weights(attrs.gender[train_users], n_classes)
            specs.append(
                adv.AttributeSpec(name=name, kind=adv.CATEGORICAL, n_classes=n_classes,
                                  class_weights=weights, lam=float(lam))
            )
        else:
            specs.append(adv.AttributeSpec(name=name, kind=adv.CONTINUOUS, lam=float(lam)))
    return specs


EVAL_CHUNK = 1024  # users per dense matrix at evaluation, which bounds its memory


def encode_users(dataset: InteractionDataset, users, params: dict) -> np.ndarray:
    """Latent means of ``users``, encoded from their item rows ``EVAL_CHUNK`` users at a time."""
    latents = np.empty((len(users), params["enc.mu_b"].shape[0]))
    for start in range(0, len(users), EVAL_CHUNK):
        stop = start + EVAL_CHUNK
        latents[start:stop] = mv.encode_eval([dataset.row(u) for u in users[start:stop]], params)
    return latents


def evaluate_ranking(model: dict, foldin_rows, holdout_rows):
    """Per-user NDCG@10 and recall@10 from fold-in rows against holdout rows,
    and whether each user was evaluated."""
    n = len(foldin_rows)
    ndcg = np.zeros(n)
    recall = np.zeros(n)
    evaluated = np.zeros(n, dtype=bool)
    for start in range(0, n, EVAL_CHUNK):
        stop = min(n, start + EVAL_CHUNK)
        # the dense input is freed before ranking, which holds two more chunk-sized arrays
        scores = mv.scores_eval(foldin_rows[start:stop], model)
        nd, rc, ok = ev.ranking_metrics(scores, foldin_rows[start:stop], holdout_rows[start:stop])
        ndcg[start:stop] = nd
        recall[start:stop] = rc
        evaluated[start:stop] = ok
    return ndcg, recall, evaluated


def rank_test_fold(model: dict, fold: FoldData):
    """The test fold's NDCG@10 and recall@10 over its evaluated users, and
    the per-user values behind them (``test_users``, ``ndcg``, ``recall``,
    ``evaluated``)."""
    ndcg, recall, evaluated = evaluate_ranking(model, fold.test_foldin, fold.test_holdout)
    metrics = {"ndcg@10": ev.evaluated_mean(ndcg, evaluated), "recall@10": ev.evaluated_mean(recall, evaluated)}
    return metrics, {"test_users": fold.split.test.copy(), "ndcg": ndcg, "recall": recall, "evaluated": evaluated}


@dataclass
class TrainResult:
    """``params`` is the float64 upcast of the recommender's arrays in the
    store that ``config.selection`` picks: a copy taken at ``best_epoch``
    under ``"best"``, else (or with no validation) the store as the last step
    left it. With no validation, ``best_epoch`` is the last epoch and
    ``best_val_ndcg`` 0.0."""

    params: adv.Params
    best_epoch: int
    best_val_ndcg: float
    log: list


def init_model(
    dataset: InteractionDataset,
    method: adv.Reversal,
    config: TrainConfig,
    model_rng: np.random.Generator,
    adversary_rng: np.random.Generator,
) -> adv.Params:
    """Encoder and decoder from the model stream, the removal method's
    parameters from the adversary stream, all drawn in float64 and then cast
    to the float32 store that the removal phase trains."""
    drawn = {
        **mv.init_encoder(dataset.n_items, config.d_hidden, config.d_latent, model_rng),
        **mv.init_decoder(dataset.n_items, config.d_hidden, config.d_latent, model_rng),
        **method.init(config.d_latent, config.d_adv_hidden, adversary_rng),
    }
    return adv.Params((name, arr.astype(np.float32)) for name, arr in drawn.items())


def run_epoch(params: dict, n_rows: int, rng: np.random.Generator, batch_size: int, graph,
              optimizer: AdamState, epoch: int) -> dict:
    """One epoch of minibatch Adam over ``n_rows`` rows, in an order drawn from ``rng``.

    ``graph(params, batch_rows, step)`` builds one batch's
    ``(loss, named_losses, tape, leaves)``; ``step`` counts the updates made
    before this one. Each step updates the arrays of ``params`` in place.
    Returns each named loss averaged over the batches.
    """
    order = rng.permutation(n_rows)
    starts = range(0, n_rows, batch_size)
    sums: dict = {}
    for batch, start in enumerate(starts):
        loss, named, tape, leaves = graph(params, order[start : start + batch_size], optimizer.step)
        where = f"epoch {epoch}, batch {batch}"
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"loss became non-finite at {where}")
        grad_map = tape.backward(loss)
        try:
            adam_step(params, {name: grad_map[leaf] for name, leaf in leaves.items()}, optimizer)
        except TrainingDiverged as err:
            raise TrainingDiverged(f"{err} ({where})") from None
        for name, tensor in named.items():
            sums[name] = sums.get(name, 0.0) + float(tensor.data)
    return {name: total / len(starts) for name, total in sums.items()}


def train_adversarial_phase(
    dataset: InteractionDataset, attrs: UserAttributes, fold: FoldData, config: TrainConfig
) -> TrainResult:
    """Joint minimization of the recommender loss and the reversed head losses of ``config.lambdas``."""
    method = adv.Reversal(build_specs(attrs, config.lambdas, fold.split.train))
    model_rng = np.random.default_rng(config.model_seed)
    data_rng = np.random.default_rng(config.data_seed)
    adversary_rng = np.random.default_rng(config.adversary_seed)

    model = init_model(dataset, method, config, model_rng, adversary_rng)
    optimizer = AdamState(config.lr)
    targets_all = attrs.targets()
    train_users = fold.split.train

    def graph(params, rows, step):
        batch_users = train_users[rows]
        beta = config.beta_max * min(1.0, step / config.anneal_steps) if config.anneal_steps else config.beta_max
        targets = {name: values[batch_users] for name, values in targets_all.items()}
        parts, tape, leaves = adv.total_objective([dataset.row(u) for u in batch_users], targets, params, method,
                                                  beta, model_rng)
        named = {"mult": parts.mult, "nll": parts.nll, "kl": parts.kl}
        named.update({f"adv_{name}": tensor for name, tensor in parts.adv.items()})
        return parts.loss, named, tape, leaves

    def recommender(store):
        return adv.Params((name, arr.astype(np.float64)) for name, arr in store.items()
                          if name.startswith(("enc.", "dec.")))

    best_ndcg = -np.inf
    best_epoch = -1
    snapshot = None
    log = []
    for epoch in range(config.epochs_adversarial):
        entry = {"epoch": epoch}
        entry.update(run_epoch(model, len(train_users), data_rng, config.batch_size, graph, optimizer, epoch))
        is_last = epoch == config.epochs_adversarial - 1
        if config.val_every and ((epoch + 1) % config.val_every == 0 or is_last):
            # the upcast is a copy, which steps that write the model's arrays in place leave alone
            current = recommender(model)
            ndcg, _, evaluated = evaluate_ranking(current, fold.val_foldin, fold.val_holdout)
            val_ndcg = ev.evaluated_mean(ndcg, evaluated)
            entry["val_ndcg"] = val_ndcg
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_epoch = epoch
                if config.selection == "best":
                    snapshot = current
        log.append(entry)

    if best_epoch < 0:
        best_epoch = config.epochs_adversarial - 1
        best_ndcg = 0.0
    return TrainResult(params=recommender(model) if snapshot is None else snapshot, best_epoch=best_epoch,
                       best_val_ndcg=best_ndcg, log=log)


@dataclass
class AttackResult:
    metrics: dict
    per_user: dict
    log: list
    latents: np.ndarray  # the test users' latent means, in ``per_user["test_users"]`` order


def train_attack_phase(
    model: dict, dataset: InteractionDataset, attrs: UserAttributes, split: FoldSplit, config: TrainConfig
) -> AttackResult:
    """Train fresh attackers on the frozen encoder's latent means.

    One attacker per attribute of ``config.lambdas``, trained on the users
    of ``split.train`` and scored on those of ``split.test`` (balanced
    accuracy for categorical attributes, mean absolute error for continuous
    ones).
    All attackers share one tape per batch and one optimizer; their losses
    are independent, so each learns as if alone.
    """
    specs = build_specs(attrs, config.lambdas, split.train)
    head_rng = np.random.default_rng([config.adversary_seed, 1001])
    shuffle_rng = np.random.default_rng([config.data_seed, 1001])

    # the model's latent width, as encode_users reads it; config.d_latent may differ from the checkpoint's
    heads = adv.init_heads(specs, model["enc.mu_b"].shape[0], config.d_adv_hidden, head_rng)
    optimizer = AdamState(config.lr)

    train_users = split.train
    test_users = split.test
    latents_train = encode_users(dataset, train_users, model)
    latents_test = encode_users(dataset, test_users, model)
    targets_all = attrs.targets()

    def graph(params, rows, step):
        targets = {spec.name: targets_all[spec.name][train_users[rows]] for spec in specs}
        loss, per_attr, tape, leaves = adv.attacker_loss_graph(latents_train[rows], params, specs, targets)
        return loss, {f"attacker_{name}": tensor for name, tensor in per_attr.items()}, tape, leaves

    log = []
    for epoch in range(config.epochs_attack):
        losses = {}  # with nothing to attack, the log still has its epochs
        if specs:
            losses = run_epoch(heads, len(train_users), shuffle_rng, config.batch_size, graph, optimizer, epoch)
        log.append({"epoch": epoch, **losses})

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
    return AttackResult(metrics=metrics, per_user=per_user, log=log, latents=latents_test)


@dataclass
class RunRecord:
    dataset_name: str
    lambdas: dict
    fold: int
    metrics: dict
    per_user: dict
    train_log: list
    attack_log: list
    params: adv.Params | None  # None in grid records: the grid writes no checkpoint, so it keeps no store

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
    train_result = train_adversarial_phase(dataset, attrs, fold, config)
    attack = train_attack_phase(train_result.params, dataset, attrs, fold.split, config)
    ranking, ranking_per_user = rank_test_fold(train_result.params, fold)
    return RunRecord(
        dataset_name=dataset_name,
        lambdas=dict(config.lambdas),
        fold=fold.index,
        metrics={**ranking, **attack.metrics},
        per_user={**attack.per_user, **ranking_per_user},
        train_log=train_result.log,
        attack_log=attack.log,
        params=train_result.params,
    )


def _grid_unit(payload):
    """One grid unit's record, without the parameter store that no grid output reads."""
    dataset, attrs, fold, config, dataset_name = payload
    return dataclasses.replace(run_single(dataset, attrs, fold, config, dataset_name), params=None)


@dataclass
class GridOutcome:
    records: list
    failures: list  # (lambdas, fold_index, message)


def _combo_key(lambdas: dict) -> tuple:
    return tuple(sorted((name, float(lam)) for name, lam in lambdas.items()))


def _concatenated(records: list, field: str, folds: set) -> np.ndarray:
    """``field`` of the records on ``folds``, concatenated in fold order."""
    return np.concatenate([r.per_user[field] for r in sorted(records, key=lambda r: r.fold) if r.fold in folds])


def grid_summary(records: list) -> list[dict]:
    """Best-debiasing row per attribute of the lambda map, in its order and of
    the kind that ``ATTRIBUTES`` gives it, with significance against the
    all-zero baseline combination when it is part of the grid.

    Ranking scores enter a signed-rank test, categorical attacker
    correctness a McNemar test, and continuous attacker errors a paired
    t-test, each over the user-level values concatenated across the folds
    that both combinations completed. With no such fold, the row has no
    tests.
    """
    if not records:
        return []
    by_combo: dict[tuple, list] = {}
    for record in records:
        by_combo.setdefault(_combo_key(record.lambdas), []).append(record)

    baseline_key = _combo_key({name: 0.0 for name in records[0].lambdas})
    baseline = by_combo.get(baseline_key)

    def combo_mean(combo_records, metric):
        return float(np.mean([r.metrics[metric] for r in combo_records]))

    rows = []
    for attr in records[0].lambdas:
        categorical = ATTRIBUTES[attr] == adv.CATEGORICAL
        metric = f"bacc_{attr}" if categorical else f"mae_{attr}"
        best_key = (
            min(by_combo, key=lambda key: combo_mean(by_combo[key], metric))
            if categorical
            else max(by_combo, key=lambda key: combo_mean(by_combo[key], metric))
        )
        best = by_combo[best_key]
        row = {
            "attribute": attr,
            "selection_rule": f"{'min' if categorical else 'max'} {metric}",
            "model": model_label(best[0].lambdas),
        }
        for name, lam in dict(best_key).items():
            row[f"lambda_{name}"] = lam
        for key in best[0].metrics:
            mean, std = ev.aggregate([r.metrics[key] for r in best])
            row[f"{key}_mean"] = mean
            row[f"{key}_std"] = std
        # users pair up only within a fold, so the tests see the folds both completed
        shared = {r.fold for r in best} & {r.fold for r in baseline or []}
        if shared and best_key != baseline_key:
            def paired(field):
                return _concatenated(best, field, shared), _concatenated(baseline, field, shared)

            evaluated = np.logical_and(*paired("evaluated"))
            ndcg_best, ndcg_baseline = paired("ndcg")
            ndcg_test = ev.wilcoxon_signed_rank(ndcg_best[evaluated], ndcg_baseline[evaluated])
            row["p_ndcg_vs_baseline"] = ndcg_test.p_value
            row["ndcg_significant"] = "*" if ndcg_test.significant else ""
            if categorical:
                attr_test = ev.mcnemar_test(*paired(f"correct_{attr}"))
                row["attr_test"] = "mcnemar"
            else:
                attr_test = ev.paired_t_test(*paired(f"abs_err_{attr}"))
                row["attr_test"] = "t-test"
            row["p_attr_vs_baseline"] = attr_test.p_value
            row["attr_significant"] = "*" if attr_test.significant else ""
            row["baseline"] = ",".join(f"{name}={lam:g}" for name, lam in baseline_key)
        rows.append(row)
    return rows


def grid_search(
    dataset: InteractionDataset,
    attrs: UserAttributes,
    configs: list[TrainConfig],
    folds: list[FoldData],
    dataset_name: str = "synthetic",
    workers: int = 1,
) -> GridOutcome:
    """Every unit config crossed with every fold, in that order; failures recorded.

    ``config.grid_configs`` builds the unit configs of a configured grid.
    Each unit derives its randomness from its seed triple and the fold index
    only, so results do not depend on execution order or worker count.
    With ``workers > 1`` the units run in a pool of spawned, not forked,
    workers, because the parent's BLAS library may already run threads.
    They keep the BLAS thread count of the environment: a different count
    changes the last bits of large matrix products, and with them the
    results. Otherwise each unit runs in this process when its turn comes.
    """
    payloads = [(dataset, attrs, fold, config, dataset_name) for config in configs for fold in folds]
    if not payloads:
        raise ConfigError(f"grid has no unit to run: {len(configs)} configs x {len(folds)} folds")
    records, failures = [], []
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) if workers > 1 else None
    with pool or contextlib.nullcontext():
        # one call per unit that returns its record or raises its failure
        if pool is None:
            calls = [functools.partial(_grid_unit, payload) for payload in payloads]
        else:
            calls = [pool.submit(_grid_unit, payload).result for payload in payloads]
        for (_, _, fold, config, _), call in zip(payloads, calls):
            try:
                records.append(call())
            except Exception:
                failures.append((config.lambdas, fold.index, traceback.format_exc(limit=3)))
    return GridOutcome(records=records, failures=failures)
