"""Variational autoencoder recommender over implicit feedback (MultVAE).

The architecture is fixed: the encoder maps a user's L2-normalized binary
interaction vector through one tanh hidden layer to the Gaussian latent
parameters ``mu`` and ``logsigma``; the decoder maps a latent sample
through one tanh hidden layer to item logits. The loss is multinomial
negative log-likelihood plus a scaled Gaussian KL term.

The model reads a batch as ``rows``: one 1-d array of item indices per
user, strictly increasing, as ``InteractionDataset.row`` and ``FoldData``
hold them. :func:`row_matrix` checks them once and builds the dense input
with one scatter: ``1/sqrt(n)`` at each of a user's n items, which is the
L2-normalized 0/1 vector to the bit. No path builds the 0/1 matrix first.

Parameters live in one flat dict: ``enc.<field>`` and ``dec.<field>``
arrays, with fields and shapes as ``ENCODER`` and ``DECODER`` lay them out.
The forward functions read tensors from such a dict lifted onto a tape:
``tape.leaf`` for each array to train it, ``tape.constant`` to evaluate.

The forward has two modes, chosen by its ``rng`` alone. Given an rng, it
trains: the input is masked by inverted dropout at ``DROPOUT_KEEP`` and
``z`` is sampled (Liang et al., WWW 2018). Given ``None``, it evaluates:
no mask, and ``z`` is the mean ``mu``. :func:`encode_eval` and
:func:`scores_eval` compute ``mu`` alone, through the same layers, since
no evaluation reads ``logsigma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor
from .data import row_codes
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

DROPOUT_KEEP = 0.5  # training keeps each input entry with this probability (Liang et al., WWW 2018)


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


def row_matrix(rows, n_items: int, normalized: bool) -> Array:
    """Dense float64 matrix with one row per item-index array: ``1/sqrt(n)``
    at each of a row's n items when ``normalized``, else 1, built with one
    scatter into zeros. An empty row stays zero.

    Raises ``ContractError`` naming the first row that holds a non-integer
    dtype, an index outside ``[0, n_items)`` or items that are not strictly
    increasing.
    """
    lengths, row_of, codes = row_codes(rows, n_items)
    items = codes - row_of * n_items
    outside = (items < 0) | (items >= n_items)
    # with every index in range, codes rise across a row boundary, so a fall or a repeat lies within one row
    bad = np.flatnonzero(outside | np.concatenate([[False], codes[1:] <= codes[:-1]]))
    if bad.size:
        i = bad[0]
        problem = f"item {items[i]} outside [0, {n_items})" if outside[i] else "items not strictly increasing"
        raise ContractError(f"row {row_of[i]} has {problem}")
    x = np.zeros((len(rows), n_items))
    # 1 / sqrt(n) is the bits of x / sqrt(sum(x * x)) for a 0/1 row x of n ones
    x.reshape(-1)[codes] = 1.0 / np.sqrt(lengths)[row_of] if normalized else 1.0
    return x


def _hidden_and_mean(rows, params: dict[str, Tensor], rng: np.random.Generator | None) -> tuple[Tensor, Tensor]:
    """The encoder's hidden layer and latent mean, which training and evaluation share."""
    w = params["enc.hidden_w"]
    xn = row_matrix(rows, w.data.shape[0], normalized=True)
    if rng is not None:
        mask = rng.random(xn.shape) < DROPOUT_KEEP
        xn = xn * mask / DROPOUT_KEEP
    x_in = w.tape.constant(ad.as_dtype_of(xn, w), name="x")
    h = ad.tanh(ad.dense(x_in, w, params["enc.hidden_b"]))
    return h, ad.dense(h, params["enc.mu_w"], params["enc.mu_b"])


def encode(rows, params: dict[str, Tensor], rng: np.random.Generator | None) -> LatentState:
    """Map item-index rows to latent Gaussian parameters.

    The input is L2-normalized per row and, given an ``rng``, masked by
    inverted dropout drawn from it. ``params`` maps the ``enc.*`` names to
    tensors on one tape.
    """
    h, mu = _hidden_and_mean(rows, params, rng)
    logsigma = ad.dense(h, params["enc.logsigma_w"], params["enc.logsigma_b"])
    return LatentState(mu=mu, logsigma=logsigma)


def reparameterize(state: LatentState, rng: np.random.Generator | None) -> Tensor:
    """Draw ``z = mu + exp(logsigma) * eps`` from ``rng``; ``z = mu`` with no rng."""
    if state.mu.data.shape != state.logsigma.data.shape:
        raise DimensionError(
            f"mu shape {state.mu.data.shape} differs from logsigma shape {state.logsigma.data.shape}"
        )
    if rng is None:
        return state.mu
    eps = rng.standard_normal(state.mu.data.shape)
    return ad.add(state.mu, ad.mul_const(ad.exp(state.logsigma), eps))


def decode(z: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Latent sample to item logits (softmax is folded into the loss), from
    the ``dec.*`` tensors of ``params``."""
    h = ad.tanh(ad.dense(z, params["dec.hidden_w"], params["dec.hidden_b"]))
    return ad.dense(h, params["dec.out_w"], params["dec.out_b"])


def multinomial_nll(logits: Tensor, rows) -> Tensor:
    """Mean over rows of ``-sum_i x_i * log_softmax(logits)_i``, where ``x``
    is the 0/1 matrix of the item-index ``rows``."""
    if len(rows) != logits.data.shape[0]:
        raise DimensionError(f"logits shape {logits.data.shape} does not match {len(rows)} rows")
    x = row_matrix(rows, logits.data.shape[1], normalized=False)
    batch = x.shape[0]
    if batch == 0:
        return logits.tape.constant(ad.as_dtype_of(0.0, logits), name="nll")
    x = ad.as_dtype_of(x, logits)
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    sumexp = np.exp(shift).sum(axis=1, keepdims=True)
    log_softmax = shift - np.log(sumexp)
    value = -float((x * log_softmax).sum()) / batch
    softmax = np.exp(log_softmax)
    row_counts = x.sum(axis=1, keepdims=True)

    def grad_fn(g: Array) -> None:
        ad.accumulate(logits, (float(g) / batch) * (row_counts * softmax - x))

    return ad.result_of((logits,), ad.as_dtype_of(value, logits), grad_fn, name="nll")


def kl_gaussian(mu: Tensor, logsigma: Tensor) -> Tensor:
    """Mean over rows of KL(N(mu, exp(logsigma)) || N(0, I))."""
    if mu.data.shape != logsigma.data.shape:
        raise DimensionError(
            f"mu shape {mu.data.shape} does not match logsigma shape {logsigma.data.shape}"
        )
    batch = mu.data.shape[0]
    if batch == 0:
        return mu.tape.constant(ad.as_dtype_of(0.0, mu), name="kl")
    e2ls = np.exp(2.0 * logsigma.data)
    value = 0.5 * float((e2ls + mu.data**2 - 1.0 - 2.0 * logsigma.data).sum()) / batch

    def grad_fn(g: Array) -> None:
        ad.accumulate(mu, (float(g) / batch) * mu.data)
        ad.accumulate(logsigma, (float(g) / batch) * (e2ls - 1.0))

    return ad.result_of((mu, logsigma), ad.as_dtype_of(value, mu), grad_fn, name="kl")


@dataclass
class LossParts:
    nll: Tensor
    kl: Tensor
    mu: Tensor
    z: Tensor


def multvae_loss(
    rows, params: dict[str, Tensor], beta: float, rng: np.random.Generator | None
) -> tuple[Tensor, LossParts]:
    """Reconstruction NLL plus ``beta`` times the KL term, to be minimized."""
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    state = encode(rows, params, rng)
    z = reparameterize(state, rng)
    logits = decode(z, params)
    nll = multinomial_nll(logits, rows)
    kl = kl_gaussian(state.mu, state.logsigma)
    loss = ad.add(nll, ad.mul_const(kl, beta))
    return loss, LossParts(nll=nll, kl=kl, mu=state.mu, z=z)


def _constants(params: dict[str, Array], prefixes: tuple[str, ...]) -> dict[str, Tensor]:
    """The arrays of ``params`` under ``prefixes``, each lifted once onto a new
    tape as a float64 constant: evaluation runs in float64 whatever the
    store's dtype, so a model trained in float32 ranks as its float64 upcast."""
    tape = Tape()
    return {name: tape.constant(ad.as_f64(arr), name=name)
            for name, arr in params.items() if name.startswith(prefixes)}


def encode_eval(rows, params: dict[str, Array]) -> Array:
    """Latent mean of item-index rows: :func:`encode` in evaluation mode,
    without the ``logsigma`` layer, on constant parameters, so nothing is
    recorded for a backward pass."""
    return _hidden_and_mean(rows, _constants(params, ("enc.hidden_", "enc.mu_")), None)[1].data


def scores_eval(rows, params: dict[str, Array]) -> Array:
    """Item logits for ranking, decoded from the latent mean (no sampling, no dropout)."""
    constants = _constants(params, ("enc.hidden_", "enc.mu_", "dec."))
    return decode(_hidden_and_mean(rows, constants, None)[1], constants).data
