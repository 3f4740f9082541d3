"""Adversarial heads for attribute removal and the standalone attacker.

Each protected attribute gets its own prediction head reading the latent
vector. During the removal phase the head sits behind a gradient reversal
layer, so minimizing the joint objective scrubs the attribute from the
encoder while the head itself keeps learning to predict it. The attack
phase reuses the same architecture, freshly initialized, on the frozen
encoder's latent means.

A model's parameters live in a :class:`Params` store: ``enc.<field>`` and
``dec.<field>`` for the recommender, ``head.<attr>.<field>`` for its removal
heads, with fields as ``multvae.ENCODER``, ``multvae.DECODER`` and ``HEAD``
lay them out. The removal heads live only in the removal phase's store:
what the phase hands on, and what a checkpoint holds, is the recommender
alone. The attack phase keeps its heads, named alike, in a store of its
own. This module owns those names and the checkpoint files. As in
:mod:`multvae`, the joint objective trains given an ``rng`` and evaluates
without one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import multvae as mv
from .autodiff import Array, Tape, Tensor
from .container import load_container, save_container
from .errors import ConfigError, DataError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


@dataclass
class AttributeSpec:
    """One protected attribute: its type, loss weighting and removal strength."""

    name: str
    kind: str
    n_classes: int = 0
    class_weights: Array | None = None
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ConfigError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if not 0.0 <= self.lam < np.inf:  # negated, so that NaN fails it too
            raise ConfigError(f"attribute {self.name!r}: lambda must be finite and >= 0, got {self.lam}")
        if self.kind == CATEGORICAL:
            if self.n_classes < 2:
                raise ConfigError(f"attribute {self.name!r}: needs >= 2 classes, got {self.n_classes}")
            if self.class_weights is None:
                self.class_weights = np.ones(self.n_classes)
            self.class_weights = ad.as_f64(self.class_weights)
            if self.class_weights.shape != (self.n_classes,):
                raise ConfigError(
                    f"attribute {self.name!r}: {self.class_weights.shape[0]} class weights "
                    f"for {self.n_classes} classes"
                )
            if np.any(self.class_weights <= 0):
                raise ConfigError(f"attribute {self.name!r}: class weights must be positive")

    @property
    def out_dim(self) -> int:
        return self.n_classes if self.kind == CATEGORICAL else 1


class Params(dict):
    """The parameter store: one flat, ordered dict from name to array."""

    named = dict.items


# One-intermediate-layer MLP from the latent space to a prediction,
# laid out as in multvae.
HEAD = {
    "hidden_w": ("latent", "hidden"),
    "hidden_b": ("hidden",),
    "out_w": ("hidden", "out"),
    "out_b": ("out",),
}


def init_heads(specs: list[AttributeSpec], d_latent: int, d_adv_hidden: int, rng: np.random.Generator) -> Params:
    """One head per spec, named ``head.<attr>.<field>``, drawn in spec order."""
    params = Params()
    for spec in specs:
        sizes = {"latent": d_latent, "hidden": d_adv_hidden, "out": spec.out_dim}
        params.update(mv.init_layout(f"head.{spec.name}", HEAD, sizes, rng))
    return params


def adv_forward(z: Tensor, params: dict[str, Tensor], spec: AttributeSpec) -> Tensor:
    """Predict an attribute from ``z`` with the ``head.<attr>.*`` tensors.

    ``z`` passes through gradient reversal at the attribute's scale first.
    Reversal acts only on gradients, so on a constant ``z``, as the attacker
    reads its latents, it records nothing and the forward is the plain one.
    Categorical heads emit logits; continuous heads one value per row,
    squashed into (0, 1) by a sigmoid.
    """
    prefix = f"head.{spec.name}"
    h = ad.tanh(ad.dense(ad.grl(z, spec.lam), params[f"{prefix}.hidden_w"], params[f"{prefix}.hidden_b"]))
    out = ad.dense(h, params[f"{prefix}.out_w"], params[f"{prefix}.out_b"])
    return ad.sigmoid(out) if spec.kind == CONTINUOUS else out


def weighted_ce(logits: Tensor, labels: Array, weights: Array) -> Tensor:
    """Class-weighted cross entropy: weighted mean of per-sample NLL."""
    labels = np.asarray(labels)
    weights = ad.as_dtype_of(weights, logits)
    n_classes = logits.data.shape[1]
    if np.any(weights <= 0):
        raise ConfigError("class weights must be positive")
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise DataError(f"label {labels[bad[0]]} out of range [0, {n_classes}) at row {bad[0]}")
    batch = labels.shape[0]
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    log_softmax = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    sample_w = weights[labels]
    total_w = float(sample_w.sum())
    value = -float((sample_w * log_softmax[np.arange(batch), labels]).sum()) / total_w
    softmax = np.exp(log_softmax)

    def grad_fn(g: Array) -> None:
        grad = softmax.copy()
        grad[np.arange(batch), labels] -= 1.0
        ad.accumulate(logits, (float(g) / total_w) * sample_w[:, None] * grad)

    return ad.result_of((logits,), ad.as_dtype_of(value, logits), grad_fn, name="weighted_ce")


def mse(pred: Tensor, target: Array) -> Tensor:
    """Mean squared error against a constant target vector."""
    target = ad.as_dtype_of(target, pred).reshape(pred.data.shape)
    diff = pred.data - target
    n = max(1, diff.size)
    value = float((diff * diff).sum()) / n

    def grad_fn(g: Array) -> None:
        ad.accumulate(pred, (float(g) * 2.0 / n) * diff)

    return ad.result_of((pred,), ad.as_dtype_of(value, pred), grad_fn, name="mse")


def attribute_loss(pred: Tensor, spec: AttributeSpec, target: Array) -> Tensor:
    if spec.kind == CATEGORICAL:
        return weighted_ce(pred, target, spec.class_weights)
    target = ad.as_f64(target)
    if target.size and (target.min() < 0.0 or target.max() > 1.0):
        raise DataError(f"attribute {spec.name!r}: continuous targets must lie in [0, 1]")
    return mse(pred, target)


def advx_loss(
    z: Tensor,
    params: dict[str, Tensor],
    specs: list[AttributeSpec],
    targets: dict[str, Array],
) -> tuple[Tensor, dict[str, Tensor]]:
    """Sum of per-attribute head losses, each behind its own reversal scale."""
    if not specs:
        raise ConfigError("advx_loss needs at least one attribute head")
    per_attr: dict[str, Tensor] = {}
    total: Tensor | None = None
    for spec in specs:
        if spec.name not in targets:
            raise DataError(f"no target column for attribute {spec.name!r}")
        pred = adv_forward(z, params, spec)
        loss_k = attribute_loss(pred, spec, targets[spec.name])
        per_attr[spec.name] = loss_k
        total = loss_k if total is None else ad.add(total, loss_k)
    return total, per_attr


@dataclass
class Reversal:
    """The removal method: one reversed head per spec on the sampled ``z``.
    It owns the parameters it draws from the adversary stream and its loss
    on a batch, so the removal phase and :func:`total_objective` know neither."""

    specs: list[AttributeSpec]

    def init(self, d_latent: int, d_adv_hidden: int, rng: np.random.Generator) -> Params:
        return init_heads(self.specs, d_latent, d_adv_hidden, rng)

    def loss(self, parts: mv.LossParts, leaves: dict[str, Tensor],
             targets: dict[str, Array]) -> tuple[Tensor | None, dict[str, Tensor]]:
        """The summed head losses (None with no spec) and each attribute's."""
        return advx_loss(parts.z, leaves, self.specs, targets) if self.specs else (None, {})


@dataclass
class ObjectiveParts:
    loss: Tensor
    mult: Tensor
    nll: Tensor
    kl: Tensor
    adv: dict[str, Tensor]


def total_objective(
    rows,
    targets: dict[str, Array],
    model: dict[str, Array],
    method: Reversal,
    beta: float,
    rng: np.random.Generator | None,
) -> tuple[ObjectiveParts, Tape, dict[str, Tensor]]:
    """Joint objective on a batch of item-index ``rows``: recommender loss
    plus the loss of the removal ``method``.

    Returns the graph parts, the tape, and the leaves by parameter name,
    which map the backward results onto the store.
    """
    tape = Tape()
    leaves = {name: tape.leaf(arr, name=name) for name, arr in model.items()}
    mult, parts = mv.multvae_loss(rows, leaves, beta, rng)
    removal, adv_each = method.loss(parts, leaves, targets)
    loss = mult if removal is None else ad.add(mult, removal)
    return ObjectiveParts(loss=loss, mult=mult, nll=parts.nll, kl=parts.kl, adv=adv_each), tape, leaves


def attacker_predictions(
    latents: Array, attackers: dict[str, Array], specs: list[AttributeSpec]
) -> dict[str, Array]:
    """Each spec's attacker prediction from latent means, by attribute name:
    the argmax class of a categorical attribute, the value of a continuous
    one. :func:`adv_forward` on constants."""
    tape = Tape()
    constants = {name: tape.constant(arr, name=name) for name, arr in attackers.items()}
    z = tape.constant(latents, name="latents")
    predictions = {}
    for spec in specs:
        out = adv_forward(z, constants, spec).data
        predictions[spec.name] = out.argmax(axis=1) if spec.kind == CATEGORICAL else out.reshape(-1)
    return predictions


def attacker_loss_graph(
    latents: Array, attackers: dict[str, Array], specs: list[AttributeSpec], targets: dict[str, Array]
) -> tuple[Tensor, dict[str, Tensor], Tape, dict[str, Tensor]]:
    """Tape for one update of every attacker: constant latents, trainable heads.

    Returns the summed loss, the loss of each attribute, the tape and the
    leaves by parameter name.
    """
    tape = Tape()
    leaves = {name: tape.leaf(arr, name=name) for name, arr in attackers.items()}
    z = tape.constant(latents, name="latents")
    total, per_attr = advx_loss(z, leaves, specs, targets)
    return total, per_attr, tape, leaves


# Widths where the parameter groups meet; every other width is its group's own.
SHARED_DIMS = ("items", "latent")


def checked_params(path: str, arrays: dict[str, Array]) -> Params:
    """``arrays`` as a store, once they are exactly the recommender's
    ``enc.<field>`` and ``dec.<field>`` arrays, all float64, with shapes
    that fit together."""
    layouts = {"enc": mv.ENCODER, "dec": mv.DECODER}
    expected = [f"{prefix}.{field}" for prefix, layout in layouts.items() for field in layout]
    missing = sorted(set(expected) - set(arrays))
    unexpected = sorted(set(arrays) - set(expected))
    if missing or unexpected:
        raise DataError(f"{path}: missing arrays {missing}, unexpected arrays {unexpected}")
    sizes: dict = {}
    for prefix, layout in layouts.items():
        for field, dims in layout.items():
            name = f"{prefix}.{field}"
            if arrays[name].dtype != np.float64:
                raise DataError(f"{path}: array {name!r} has dtype {arrays[name].dtype.str}, not float64")
            shape = arrays[name].shape
            keys = [dim if dim in SHARED_DIMS else (prefix, dim) for dim in dims]
            fits = len(shape) == len(dims) and shape == tuple(sizes.setdefault(k, n) for k, n in zip(keys, shape))
            if not fits:
                raise DataError(f"{path}: array {name!r} of shape {shape} does not fit {dims} with the others")
    return Params((name, arrays[name]) for name in expected)


CHECKPOINT_KIND = "model-checkpoint"


def save_checkpoint(path: str, model: dict[str, Array], config_meta: dict) -> None:
    save_container(path, {name: np.asarray(arr) for name, arr in model.items()},
                   {"kind": CHECKPOINT_KIND, "config": config_meta})


def load_checkpoint(path: str) -> tuple[Params, dict]:
    arrays, meta = load_container(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise DataError(f"{path}: not a model checkpoint")
    config = meta.get("config", {})
    if not isinstance(config, dict):
        raise DataError(f"{path}: checkpoint header needs a 'config' object")
    return checked_params(path, arrays), config
