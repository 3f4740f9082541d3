"""Variational autoencoder recommender over implicit feedback (MultVAE).

The architecture is fixed: the encoder maps a user's L2-normalized binary
interaction vector through one tanh hidden layer to the Gaussian latent
parameters ``mu`` and ``logsigma``; the decoder maps a latent sample
through one tanh hidden layer to item logits. The loss is multinomial
negative log-likelihood plus a scaled Gaussian KL term.

Parameters live in one flat dict: ``enc.<field>`` and ``dec.<field>``
arrays, with fields and shapes as ``ENCODER`` and ``DECODER`` lay them out.
The forward functions read tensors from such a dict lifted onto a tape:
``tape.leaf`` for each array to train it, ``tape.constant`` to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor
from .errors import ConfigError, ContractError, DimensionError

# Parameter layouts: field -> dimension names. A weight is (fan-in, fan-out).
ENCODER = {
    "hidden_w": ("items", "hidden"),
    "hidden_b": ("hidden",),
    "mu_w": ("hidden", "latent"),
    "mu_b": ("latent",),
    "logsigma_w": ("hidden", "latent"),
    "logsigma_b": ("latent",),
}
DECODER = {
    "hidden_w": ("latent", "hidden"),
    "hidden_b": ("hidden",),
    "out_w": ("hidden", "items"),
    "out_b": ("items",),
}


@dataclass
class LatentState:
    mu: Tensor
    logsigma: Tensor


def init_layout(prefix: str, layout: dict, sizes: dict, rng: np.random.Generator) -> dict[str, Array]:
    """``<prefix>.<field>`` arrays for ``layout``, drawn in layout order:
    weights (``*_w``) uniform in +-1/sqrt(fan-in), biases zero."""
    params = {}
    for field, dims in layout.items():
        shape = tuple(sizes[dim] for dim in dims)
        limit = 1.0 / np.sqrt(shape[0])
        params[f"{prefix}.{field}"] = rng.uniform(-limit, limit, shape) if field.endswith("_w") else np.zeros(shape)
    return params


def init_encoder(n_items: int, d_hidden: int, d_latent: int, rng: np.random.Generator) -> dict[str, Array]:
    if d_hidden <= 0 or d_latent <= 0:
        raise ConfigError(f"hidden and latent widths must be positive, got {d_hidden}, {d_latent}")
    return init_layout("enc", ENCODER, {"items": n_items, "hidden": d_hidden, "latent": d_latent}, rng)


def init_decoder(n_items: int, d_hidden: int, d_latent: int, rng: np.random.Generator) -> dict[str, Array]:
    return init_layout("dec", DECODER, {"items": n_items, "hidden": d_hidden, "latent": d_latent}, rng)


def check_binary(x: Array) -> None:
    if x.size and not np.all((x == 0.0) | (x == 1.0)):
        raise ContractError("interaction matrix must be binary (entries in {0, 1})")


def l2_normalize_rows(x: Array) -> Array:
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe


def encode(
    x: Array,
    params: dict[str, Tensor],
    dropout_keep: float,
    rng: np.random.Generator | None,
    training: bool,
) -> LatentState:
    """Map interaction rows to latent Gaussian parameters.

    The input is L2-normalized per row and, during training, masked by
    inverted dropout drawn from ``rng``. ``params`` maps the ``enc.*``
    names to tensors on one tape.
    """
    if not 0.0 < dropout_keep <= 1.0:
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {dropout_keep}")
    x = ad.as_f64(x)
    check_binary(x)
    xn = l2_normalize_rows(x)
    if training and dropout_keep < 1.0:
        mask = rng.random(x.shape) < dropout_keep
        xn = xn * mask / dropout_keep
    x_in = params["enc.hidden_w"].tape.constant(xn, name="x")
    h = ad.tanh(ad.dense(x_in, params["enc.hidden_w"], params["enc.hidden_b"]))
    mu = ad.dense(h, params["enc.mu_w"], params["enc.mu_b"])
    logsigma = ad.dense(h, params["enc.logsigma_w"], params["enc.logsigma_b"])
    return LatentState(mu=mu, logsigma=logsigma)


def reparameterize(state: LatentState, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Draw ``z = mu + exp(logsigma) * eps`` during training, ``z = mu`` otherwise."""
    if state.mu.data.shape != state.logsigma.data.shape:
        raise DimensionError(
            f"mu shape {state.mu.data.shape} differs from logsigma shape {state.logsigma.data.shape}"
        )
    if not training:
        return state.mu
    eps = rng.standard_normal(state.mu.data.shape)
    return ad.add(state.mu, ad.mul_const(ad.exp(state.logsigma), eps))


def decode(z: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Latent sample to item logits (softmax is folded into the loss), from
    the ``dec.*`` tensors of ``params``."""
    h = ad.tanh(ad.dense(z, params["dec.hidden_w"], params["dec.hidden_b"]))
    return ad.dense(h, params["dec.out_w"], params["dec.out_b"])


def multinomial_nll(logits: Tensor, x: Array) -> Tensor:
    """Mean over rows of ``-sum_i x_i * log_softmax(logits)_i``."""
    x = ad.as_f64(x)
    check_binary(x)
    if logits.data.shape != x.shape:
        raise DimensionError(f"logits shape {logits.data.shape} does not match x shape {x.shape}")
    batch = x.shape[0]
    if batch == 0:
        return logits.tape.constant(np.asarray(0.0), name="nll")
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    sumexp = np.exp(shift).sum(axis=1, keepdims=True)
    log_softmax = shift - np.log(sumexp)
    value = -(x * log_softmax).sum() / batch
    softmax = np.exp(log_softmax)
    row_counts = x.sum(axis=1, keepdims=True)

    def grad_fn(g: Array) -> None:
        ad.accumulate(logits, (float(g) / batch) * (row_counts * softmax - x))

    return ad.result_of((logits,), np.asarray(value), grad_fn, name="nll")


def kl_gaussian(mu: Tensor, logsigma: Tensor) -> Tensor:
    """Mean over rows of KL(N(mu, exp(logsigma)) || N(0, I))."""
    if mu.data.shape != logsigma.data.shape:
        raise DimensionError(
            f"mu shape {mu.data.shape} does not match logsigma shape {logsigma.data.shape}"
        )
    batch = mu.data.shape[0]
    if batch == 0:
        return mu.tape.constant(np.asarray(0.0), name="kl")
    e2ls = np.exp(2.0 * logsigma.data)
    value = 0.5 * (e2ls + mu.data**2 - 1.0 - 2.0 * logsigma.data).sum() / batch

    def grad_fn(g: Array) -> None:
        ad.accumulate(mu, (float(g) / batch) * mu.data)
        ad.accumulate(logsigma, (float(g) / batch) * (e2ls - 1.0))

    return ad.result_of((mu, logsigma), np.asarray(value), grad_fn, name="kl")


@dataclass
class LossParts:
    nll: Tensor
    kl: Tensor
    mu: Tensor
    z: Tensor


def multvae_loss(
    x: Array,
    params: dict[str, Tensor],
    beta: float,
    rng: np.random.Generator | None,
    training: bool = True,
    dropout_keep: float = 0.5,
) -> tuple[Tensor, LossParts]:
    """Reconstruction NLL plus ``beta`` times the KL term, to be minimized."""
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    state = encode(x, params, dropout_keep, rng, training)
    z = reparameterize(state, rng, training)
    logits = decode(z, params)
    nll = multinomial_nll(logits, x)
    kl = kl_gaussian(state.mu, state.logsigma)
    loss = ad.add(nll, ad.mul_const(kl, beta))
    return loss, LossParts(nll=nll, kl=kl, mu=state.mu, z=z)


def encode_eval(x: Array, params: dict[str, Array]) -> Array:
    """Latent mean of interaction rows: :func:`encode` without dropout, on
    constant parameters, so nothing is recorded for a backward pass."""
    tape = Tape()
    constants = {name: tape.constant(arr, name=name) for name, arr in params.items()}
    return encode(x, constants, 1.0, None, False).mu.data


def scores_eval(x: Array, params: dict[str, Array]) -> Array:
    """Item logits for ranking, using the latent mean (no sampling, no dropout)."""
    tape = Tape()
    mu = tape.constant(encode_eval(x, params), name="mu")
    return decode(mu, {name: tape.constant(arr, name=name) for name, arr in params.items()}).data
