"""Adversarial heads for attribute removal and the standalone attacker.

Each protected attribute gets its own prediction head reading the latent
vector. During the removal phase the head sits behind a gradient reversal
layer, so minimizing the joint objective scrubs the attribute from the
encoder while the head itself keeps learning to predict it. The attack
phase reuses the same architecture, freshly initialized, on the frozen
encoder's latent means.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import multvae as mv
from .autodiff import Array, Tape, Tensor
from .container import load_container, save_container
from .errors import ConfigError, DataError, DimensionError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


@dataclass
class AttributeSpec:
    """One protected attribute: its type, loss weighting and removal strength.

    ``squash`` bounds a continuous head's output to (0, 1) through a sigmoid;
    turning it off leaves the output linear, which strengthens the reversed
    MSE gradient (the sigmoid derivative shrinks it several-fold).
    """

    name: str
    kind: str
    n_classes: int = 0
    class_weights: Array | None = None
    lam: float = 0.0
    squash: bool = True

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ConfigError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.lam < 0:
            raise ConfigError(f"attribute {self.name!r}: lambda must be >= 0, got {self.lam}")
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


@dataclass
class AdvHeadParams:
    """One-intermediate-layer MLP head from the latent space to a prediction."""

    hidden_w: object
    hidden_b: object
    out_w: object
    out_b: object


def _grouped(arrays, prefix: str, kind):
    """Parameter dataclass ``kind`` from the ``<prefix>.<field>`` entries of ``arrays``."""
    return kind(**{f.name: arrays[f"{prefix}.{f.name}"] for f in dataclasses.fields(kind)})


@dataclass
class ModelParams:
    """Everything the recommender learns: encoder, decoder and removal heads.

    Flat names are ``enc.<field>``, ``dec.<field>`` and
    ``head.<attr>.<field>``, as :meth:`named` yields them and
    :meth:`from_named` reads them.
    """

    encoder: mv.EncoderParams
    decoder: mv.DecoderParams
    heads: dict[str, AdvHeadParams] = field(default_factory=dict)

    def named(self):
        yield from mv.named_arrays(self.encoder, "enc")
        yield from mv.named_arrays(self.decoder, "dec")
        for attr_name, head in self.heads.items():
            yield from mv.named_arrays(head, f"head.{attr_name}")

    @classmethod
    def from_named(cls, arrays, head_names) -> "ModelParams":
        """Inverse of :meth:`named`, with heads in ``head_names`` order."""
        return cls(
            encoder=_grouped(arrays, "enc", mv.EncoderParams),
            decoder=_grouped(arrays, "dec", mv.DecoderParams),
            heads={name: _grouped(arrays, f"head.{name}", AdvHeadParams) for name in head_names},
        )

    def copy(self) -> "ModelParams":
        return ModelParams.from_named({name: arr.copy() for name, arr in self.named()}, self.heads)

    def frozen_copy(self) -> "ModelParams":
        out = self.copy()
        for _, arr in out.named():
            arr.setflags(write=False)
        return out


def init_head(d_latent: int, d_adv_hidden: int, out_dim: int, rng: np.random.Generator) -> AdvHeadParams:
    return AdvHeadParams(
        hidden_w=mv.uniform_init(rng, d_latent, (d_latent, d_adv_hidden)),
        hidden_b=np.zeros(d_adv_hidden),
        out_w=mv.uniform_init(rng, d_adv_hidden, (d_adv_hidden, out_dim)),
        out_b=np.zeros(out_dim),
    )


def adv_forward(z: Tensor, head: AdvHeadParams, spec: AttributeSpec, reversed: bool) -> Tensor:
    """Predict an attribute from ``z``.

    ``reversed=True`` routes ``z`` through gradient reversal at the
    attribute's scale first (removal phase); ``reversed=False`` is the plain
    forward used by the attacker. Categorical heads emit logits, continuous
    heads a single sigmoid-squashed value per row.
    """
    if z.data.ndim != 2 or z.data.shape[1] != head.hidden_w.data.shape[0]:
        raise DimensionError(
            f"latent width {z.data.shape} does not match head input {head.hidden_w.data.shape}"
        )
    zin = ad.grl(z, spec.lam) if reversed else z
    h = ad.tanh(ad.dense(zin, head.hidden_w, head.hidden_b))
    out = ad.dense(h, head.out_w, head.out_b)
    if spec.kind == CONTINUOUS and spec.squash:
        out = ad.sigmoid(out)
    return out


def weighted_ce(logits: Tensor, labels: Array, weights: Array) -> Tensor:
    """Class-weighted cross entropy: weighted mean of per-sample NLL."""
    labels = np.asarray(labels)
    weights = ad.as_f64(weights)
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
    total_w = sample_w.sum()
    value = -(sample_w * log_softmax[np.arange(batch), labels]).sum() / total_w
    softmax = np.exp(log_softmax)

    def grad_fn(g: Array) -> None:
        grad = softmax.copy()
        grad[np.arange(batch), labels] -= 1.0
        ad.accumulate(logits, (float(g) / total_w) * sample_w[:, None] * grad)

    return ad.result_of((logits,), np.asarray(value), grad_fn, name="weighted_ce")


def mse(pred: Tensor, target: Array) -> Tensor:
    """Mean squared error against a constant target vector."""
    target = ad.as_f64(target).reshape(pred.data.shape)
    diff = pred.data - target
    n = max(1, diff.size)
    value = (diff * diff).sum() / n

    def grad_fn(g: Array) -> None:
        ad.accumulate(pred, (float(g) * 2.0 / n) * diff)

    return ad.result_of((pred,), np.asarray(value), grad_fn, name="mse")


def attribute_loss(pred: Tensor, spec: AttributeSpec, target: Array) -> Tensor:
    if spec.kind == CATEGORICAL:
        return weighted_ce(pred, target, spec.class_weights)
    target = ad.as_f64(target)
    if target.size and (target.min() < 0.0 or target.max() > 1.0):
        raise DataError(f"attribute {spec.name!r}: continuous targets must lie in [0, 1]")
    return mse(pred, target)


def advx_loss(
    z: Tensor,
    heads: list[tuple[AdvHeadParams, AttributeSpec]],
    targets: dict[str, Array],
    reversed: bool = True,
) -> tuple[Tensor, dict[str, Tensor]]:
    """Sum of per-attribute head losses, each behind its own reversal scale."""
    if not heads:
        raise ConfigError("advx_loss needs at least one attribute head")
    per_attr: dict[str, Tensor] = {}
    total: Tensor | None = None
    for head, spec in heads:
        if spec.name not in targets:
            raise DataError(f"no target column for attribute {spec.name!r}")
        pred = adv_forward(z, head, spec, reversed=reversed)
        loss_k = attribute_loss(pred, spec, targets[spec.name])
        per_attr[spec.name] = loss_k
        total = loss_k if total is None else ad.add(total, loss_k)
    return total, per_attr


@dataclass
class ObjectiveParts:
    loss: Tensor
    mult: Tensor
    nll: Tensor
    kl: Tensor
    adv: dict[str, Tensor]
    state: mv.LatentState


def total_objective(
    x: Array,
    targets: dict[str, Array],
    model: ModelParams,
    specs: list[AttributeSpec],
    beta: float,
    rng: np.random.Generator,
    training: bool = True,
    dropout_keep: float = 0.5,
    activation: str = "tanh",
) -> tuple[ObjectiveParts, Tape, dict[str, Tensor]]:
    """Joint objective: recommender loss plus all reversed head losses.

    Returns the graph parts, the tape, and a name-to-leaf registry so the
    caller can map backward results onto named parameters.
    """
    tape = Tape()
    leaves = ModelParams(
        encoder=mv.leaves_like(tape, model.encoder, "enc"),
        decoder=mv.leaves_like(tape, model.decoder, "dec"),
        heads={
            spec.name: mv.leaves_like(tape, model.heads[spec.name], f"head.{spec.name}") for spec in specs
        },
    )
    registry = dict(leaves.named())
    head_leaves = [(leaves.heads[spec.name], spec) for spec in specs]

    mult, parts = mv.multvae_loss(
        x, leaves.encoder, leaves.decoder, beta, rng,
        training=training, dropout_keep=dropout_keep, activation=activation,
    )
    if head_leaves:
        adv_total, adv_each = advx_loss(parts.state.z, head_leaves, targets, reversed=True)
        loss = ad.add(mult, adv_total)
    else:
        adv_each = {}
        loss = mult
    return (
        ObjectiveParts(loss=loss, mult=mult, nll=parts.nll, kl=parts.kl, adv=adv_each, state=parts.state),
        tape,
        registry,
    )


def attacker_forward_eval(latents: Array, head: AdvHeadParams, spec: AttributeSpec) -> Array:
    """Attacker prediction from latent means: :func:`adv_forward` on constants."""
    tape = Tape()
    head_t = mv.leaves_like(tape, head, f"attacker.{spec.name}", trainable=False)
    return adv_forward(tape.constant(latents, name="latents"), head_t, spec, reversed=False).data


def attacker_arrays(heads: dict[str, AdvHeadParams]) -> dict[str, Array]:
    """Attacker heads by flat ``attacker.<attr>.<field>`` name."""
    return {
        name: arr for attr, head in heads.items() for name, arr in mv.named_arrays(head, f"attacker.{attr}")
    }


def attackers_from_arrays(arrays: dict[str, Array]) -> dict[str, AdvHeadParams]:
    """Inverse of :func:`attacker_arrays`."""
    attrs = dict.fromkeys(name.split(".")[1] for name in arrays)
    return {attr: _grouped(arrays, f"attacker.{attr}", AdvHeadParams) for attr in attrs}


def attacker_loss_graph(
    latents: Array, head: AdvHeadParams, spec: AttributeSpec, target: Array
) -> tuple[Tensor, Tape, dict[str, Tensor]]:
    """Tape for one attacker update: constant latents, trainable head only."""
    tape = Tape()
    head_t = mv.leaves_like(tape, head, f"attacker.{spec.name}")
    registry = attacker_arrays({spec.name: head_t})
    z = tape.constant(latents, name="latents")
    pred = adv_forward(z, head_t, spec, reversed=False)
    loss = attribute_loss(pred, spec, target)
    return loss, tape, registry


CHECKPOINT_KIND = "model-checkpoint"


def save_checkpoint(path: str, model: ModelParams, config_meta: dict) -> None:
    arrays = {name: np.asarray(arr) for name, arr in model.named()}
    meta = {
        "kind": CHECKPOINT_KIND,
        "config": config_meta,
        "head_names": sorted(model.heads),
    }
    save_container(path, arrays, meta)


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    arrays, meta = load_container(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise DataError(f"{path}: not a model checkpoint")
    return ModelParams.from_named(arrays, meta.get("head_names", [])), meta.get("config", {})


ATTACKER_KIND = "attacker"


def save_attacker(path: str, heads: dict[str, AdvHeadParams], meta: dict) -> None:
    save_container(path, {name: np.asarray(arr) for name, arr in attacker_arrays(heads).items()},
                   {"kind": ATTACKER_KIND, **meta})


def load_attacker(path: str) -> tuple[dict[str, AdvHeadParams], dict]:
    arrays, meta = load_container(path)
    if meta.get("kind") != ATTACKER_KIND:
        raise DataError(f"{path}: not an attacker file")
    return attackers_from_arrays(arrays), meta


def specs_meta(specs: list[AttributeSpec]) -> str:
    """JSON description of attribute specs for manifests."""
    return json.dumps(
        [
            {
                "name": s.name,
                "kind": s.kind,
                "n_classes": s.n_classes,
                "lambda": s.lam,
                "squash": s.squash,
                "class_weights": None if s.class_weights is None else list(map(float, s.class_weights)),
            }
            for s in specs
        ],
        sort_keys=True,
    )
