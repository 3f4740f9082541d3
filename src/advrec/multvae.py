"""Variational autoencoder recommender over implicit feedback.

Encoder maps a user's (row-normalized) binary interaction vector to
Gaussian latent parameters, the decoder maps a latent sample back to item
logits, and the loss is multinomial negative log-likelihood plus a scaled
Gaussian KL term.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor
from .errors import ConfigError, ContractError, DimensionError

ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid}


@dataclass
class EncoderParams:
    """Weights of the encoder: one hidden layer, then linear mu and logsigma heads."""

    hidden_w: object
    hidden_b: object
    mu_w: object
    mu_b: object
    logsigma_w: object
    logsigma_b: object


@dataclass
class DecoderParams:
    """Weights of the decoder: one hidden layer, then linear item logits."""

    hidden_w: object
    hidden_b: object
    out_w: object
    out_b: object


@dataclass
class LatentState:
    mu: Tensor
    logsigma: Tensor
    z: Tensor | None = None


def named_arrays(params, prefix: str):
    """Yield ``(name, value)`` pairs for a parameter dataclass."""
    for field in dataclasses.fields(params):
        yield f"{prefix}.{field.name}", getattr(params, field.name)


def leaves_like(tape: Tape, params, prefix: str, trainable: bool = True):
    """Copy of a parameter dataclass whose fields are tensors on ``tape``:
    differentiable leaves, or constants when ``trainable`` is False."""
    wrap = tape.leaf if trainable else tape.constant
    replacements = {
        field.name: wrap(getattr(params, field.name), name=f"{prefix}.{field.name}")
        for field in dataclasses.fields(params)
    }
    return dataclasses.replace(params, **replacements)


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Array:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_encoder(n_items: int, d_hidden: int, d_latent: int, rng: np.random.Generator) -> EncoderParams:
    if d_hidden <= 0 or d_latent <= 0:
        raise ConfigError(f"hidden and latent widths must be positive, got {d_hidden}, {d_latent}")
    return EncoderParams(
        hidden_w=uniform_init(rng, n_items, (n_items, d_hidden)),
        hidden_b=np.zeros(d_hidden),
        mu_w=uniform_init(rng, d_hidden, (d_hidden, d_latent)),
        mu_b=np.zeros(d_latent),
        logsigma_w=uniform_init(rng, d_hidden, (d_hidden, d_latent)),
        logsigma_b=np.zeros(d_latent),
    )


def init_decoder(n_items: int, d_hidden: int, d_latent: int, rng: np.random.Generator) -> DecoderParams:
    return DecoderParams(
        hidden_w=uniform_init(rng, d_latent, (d_latent, d_hidden)),
        hidden_b=np.zeros(d_hidden),
        out_w=uniform_init(rng, d_hidden, (d_hidden, n_items)),
        out_b=np.zeros(n_items),
    )


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
    enc: EncoderParams,
    dropout_keep: float,
    rng: np.random.Generator | None,
    training: bool,
    activation: str = "tanh",
) -> LatentState:
    """Map interaction rows to latent Gaussian parameters.

    The input is L2-normalized per row and, during training, masked by
    inverted dropout drawn from ``rng``. ``enc`` fields must be tensors on
    one tape: leaves to train them, constants to evaluate.
    """
    if not 0.0 < dropout_keep <= 1.0:
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {dropout_keep}")
    x = ad.as_f64(x)
    check_binary(x)
    xn = l2_normalize_rows(x)
    if training and dropout_keep < 1.0:
        mask = rng.random(x.shape) < dropout_keep
        xn = xn * mask / dropout_keep
    tape = enc.hidden_w.tape
    act = ACTIVATIONS[activation]
    x_in = tape.constant(xn, name="x")
    h = act(ad.dense(x_in, enc.hidden_w, enc.hidden_b))
    mu = ad.dense(h, enc.mu_w, enc.mu_b)
    logsigma = ad.dense(h, enc.logsigma_w, enc.logsigma_b)
    return LatentState(mu=mu, logsigma=logsigma)


def reparameterize(state: LatentState, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Draw ``z = mu + exp(logsigma) * eps`` during training, ``z = mu`` otherwise."""
    if state.mu.data.shape != state.logsigma.data.shape:
        raise DimensionError(
            f"mu shape {state.mu.data.shape} differs from logsigma shape {state.logsigma.data.shape}"
        )
    if not training:
        state.z = state.mu
        return state.mu
    eps = rng.standard_normal(state.mu.data.shape)
    z = ad.add(state.mu, ad.mul_const(ad.exp(state.logsigma), eps))
    state.z = z
    return z


def decode(z: Tensor, dec: DecoderParams, activation: str = "tanh") -> Tensor:
    """Latent sample to item logits (softmax is folded into the loss)."""
    act = ACTIVATIONS[activation]
    h = act(ad.dense(z, dec.hidden_w, dec.hidden_b))
    return ad.dense(h, dec.out_w, dec.out_b)


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
    state: LatentState


def multvae_loss(
    x: Array,
    enc: EncoderParams,
    dec: DecoderParams,
    beta: float,
    rng: np.random.Generator | None,
    training: bool = True,
    dropout_keep: float = 0.5,
    activation: str = "tanh",
) -> tuple[Tensor, LossParts]:
    """Reconstruction NLL plus ``beta`` times the KL term, to be minimized."""
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    state = encode(x, enc, dropout_keep, rng, training, activation)
    z = reparameterize(state, rng, training)
    logits = decode(z, dec, activation)
    nll = multinomial_nll(logits, x)
    kl = kl_gaussian(state.mu, state.logsigma)
    loss = ad.add(nll, ad.mul_const(kl, beta))
    return loss, LossParts(nll=nll, kl=kl, state=state)


def encode_eval(x: Array, enc: EncoderParams, activation: str = "tanh") -> Array:
    """Latent mean of interaction rows: :func:`encode` without dropout, on
    constant parameters, so nothing is recorded for a backward pass."""
    tape = Tape()
    state = encode(x, leaves_like(tape, enc, "enc", trainable=False), 1.0, None, False, activation)
    return state.mu.data


def scores_eval(x: Array, enc: EncoderParams, dec: DecoderParams, activation: str = "tanh") -> Array:
    """Item logits for ranking, using the latent mean (no sampling, no dropout)."""
    tape = Tape()
    mu = tape.constant(encode_eval(x, enc, activation), name="mu")
    return decode(mu, leaves_like(tape, dec, "dec", trainable=False), activation).data
