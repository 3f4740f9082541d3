"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

A small define-by-run tape, sufficient for MLP encoders, decoders and
prediction heads, including the gradient reversal trick used for
adversarial attribute removal. Every primitive records a closure with its
local gradient rule; ``Tape.backward`` replays the entries once, in
reverse execution order, accumulating gradients additively at fan-out
points.

A graph runs in its leaves' dtype. A float32 array stays float32 on the
tape and any other value becomes float64; a constant that an operation
builds takes the dtype of the tensor it meets (:func:`as_dtype_of`). Each
cast is written out, so that no result depends on numpy's promotion rules.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, GradientCheckError

Array = np.ndarray


def as_f64(values) -> Array:
    """Return ``values`` as a row-major float64 array (no copy when possible)."""
    return np.asarray(values, dtype=np.float64, order="C")


class Tensor:
    """A value on a :class:`Tape`: float32 or float64 data plus an
    accumulated gradient of the same dtype.

    ``requires_grad`` is True for parameters and anything derived from one;
    constants (inputs, noise draws) carry False and are skipped during the
    backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape", "name")

    def __init__(self, data, tape: "Tape", requires_grad: bool, name: str | None = None):
        data = np.asarray(data, order="C")
        self.data = data if data.dtype == np.float32 else as_f64(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.tape = tape
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor({self.name or 'anon'}, shape={self.data.shape})"


def as_dtype_of(values, t: Tensor) -> Array:
    """``values`` as a row-major array of ``t``'s dtype (no copy when possible):
    a constant takes the precision of the graph it meets."""
    return np.asarray(values, dtype=t.data.dtype, order="C")


class Tape:
    """Execution-ordered record of primitive operations.

    A tape lives for one forward/backward pass and is rebuilt per batch.
    Entries are appended in execution order, which is automatically a
    topological order, so the backward pass is a single reverse sweep that
    touches each entry exactly once (``backward_visits`` counts them).
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[Array], None]]] | None = []
        self._leaves: list[Tensor] = []
        self._recorded = 0
        self.backward_visits = 0

    def __len__(self) -> int:
        """Number of entries recorded, also after ``backward`` has dropped them."""
        return self._recorded

    def leaf(self, data, name: str | None = None) -> Tensor:
        """Register a differentiable leaf (a parameter)."""
        t = Tensor(data, self, requires_grad=True, name=name)
        self._leaves.append(t)
        return t

    def constant(self, data, name: str | None = None) -> Tensor:
        """Wrap an input that needs no gradient."""
        return Tensor(data, self, requires_grad=False, name=name)

    def record(self, out: Tensor, grad_fn: Callable[[Array], None]) -> Tensor:
        self._entries.append((out, grad_fn))
        self._recorded += 1
        return out

    def backward(self, loss: Tensor) -> dict[Tensor, Array]:
        """Gradient of ``loss`` with respect to every leaf.

        Unused leaves map to zero arrays. Raises ``ContractError`` when the
        loss is not scalar, or when this tape has already run backward.

        The sweep drops the tape's references to its entries and leaves, so
        the graph is freed by reference counting once the caller lets go of
        its tensors; the tensors refer to the tape, and a live tape would
        otherwise keep the whole graph in a reference cycle.
        """
        if self._entries is None:
            raise ContractError("backward already ran on this tape; a tape serves one pass")
        if loss.tape is not self:
            raise ContractError("loss tensor was recorded on a different tape")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, grad_fn in reversed(self._entries):
            self.backward_visits += 1
            if out.grad is not None:
                grad_fn(out.grad)
        grads = {
            leaf: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
            for leaf in self._leaves
        }
        self._entries = None
        self._leaves = []
        return grads


def accumulate(t: Tensor, grad: Array) -> None:
    """Add ``grad`` to ``t``'s gradient (no-op for constants).

    The first gradient is kept by reference and each later one is added out
    of place. No gradient array is ever written in place, so one array may
    serve several tensors, as when ``add`` passes its ``g`` to both inputs.
    """
    if t.requires_grad:
        t.grad = grad if t.grad is None else t.grad + grad


def result_of(inputs: Sequence[Tensor], data, grad_fn, name: str | None = None) -> Tensor:
    """Create an op output and record its gradient rule on the shared tape."""
    tape = inputs[0].tape
    for t in inputs[1:]:
        if t.tape is not tape:
            raise ContractError("operands were recorded on different tapes")
    out = Tensor(data, tape, requires_grad=any(t.requires_grad for t in inputs), name=name)
    if out.requires_grad:
        tape.record(out, grad_fn)
    return out


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` with the bias broadcast per row."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(
            f"dense expects 2-d input and weights, got {x.data.shape} and {w.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(
            f"dense: input shape {x.data.shape} does not match weights shape {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise DimensionError(
            f"dense: bias shape {b.data.shape} does not match weights shape {w.data.shape}"
        )
    out_data = x.data @ w.data + b.data

    def grad_fn(g: Array) -> None:
        if x.requires_grad:
            accumulate(x, g @ w.data.T)
        if w.requires_grad:
            accumulate(w, x.data.T @ g)
        if b.requires_grad:
            accumulate(b, g.sum(axis=0))

    return result_of((x, w, b), out_data, grad_fn, name="dense")


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def grad_fn(g: Array) -> None:
        accumulate(x, (1.0 - y * y) * g)

    return result_of((x,), y, grad_fn, name="tanh")


def _expit(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # v below about -709.78: exp(-v) is inf, and 1 / inf is 0
        return 0.0


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function: bit-identical to ``scipy.special.expit`` on float64
    input, and on float32 input that float64 value rounded once to float32.

    Each element is ``1 / (1 + exp(-v))`` in float64 with libm's ``exp``, as
    ``expit`` computes it; numpy's SIMD ``np.exp`` rounds some inputs
    differently. The loop is in Python, which is cheap for its callers: the
    continuous heads' (rows, 1) outputs.
    """
    y = np.fromiter(map(_expit, x.data.ravel().tolist()), x.data.dtype, x.data.size).reshape(x.data.shape)

    def grad_fn(g: Array) -> None:
        accumulate(x, y * (1.0 - y) * g)

    return result_of((x,), y, grad_fn, name="sigmoid")


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def grad_fn(g: Array) -> None:
        accumulate(x, y * g)

    return result_of((x,), y, grad_fn, name="exp")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def grad_fn(g: Array) -> None:
        accumulate(a, g)
        accumulate(b, g)

    return result_of((a, b), a.data + b.data, grad_fn, name="add")


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise product with a constant scalar or same-shaped array."""
    c = as_dtype_of(c, x)
    if c.ndim != 0 and c.shape != x.data.shape:
        raise DimensionError(f"mul_const: factor shape {c.shape} does not match {x.data.shape}")

    def grad_fn(g: Array) -> None:
        accumulate(x, c * g)

    return result_of((x,), x.data * c, grad_fn, name="mul_const")


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g: Array) -> None:
        accumulate(x, np.full_like(x.data, float(g)))

    return result_of((x,), np.asarray(x.data.sum()), grad_fn, name="sum")


def grl(x: Tensor, lam: float) -> Tensor:
    """Gradient reversal: identity forward, ``-lam * g`` backward.

    With ``lam == 0`` the layer contributes exactly nothing to upstream
    gradients (the accumulation is skipped, not multiplied out), which keeps
    zero-scale adversarial runs bit-identical to runs without heads.
    """
    lam = float(lam)
    if not 0.0 <= lam < np.inf:  # written as "in range" and negated, so that NaN fails it too
        raise ConfigError(f"gradient reversal scale must be finite and >= 0, got {lam}")

    def grad_fn(g: Array) -> None:
        if lam != 0.0:
            accumulate(x, (-lam) * g)

    return result_of((x,), x.data, grad_fn, name="grl")


def finite_difference_check(f, params: Sequence[Array], grads: Sequence[Array], eps: float = 1e-5) -> float:
    """Validate tape gradients against central finite differences of ``f``.

    ``f`` evaluates the scalar objective at a list of parameter arrays and
    must be deterministic (fix any internal randomness). ``grads`` are the
    tape gradients under test, one per parameter array. Returns the maximum
    over all coordinates of ``|fd - grad| / max(1e-8, |fd| + |grad|)``.
    """
    if eps <= 0:
        raise ConfigError(f"finite difference step must be positive, got {eps}")
    work = [np.array(p, dtype=np.float64) for p in params]
    if len(work) != len(grads):
        raise ContractError(f"{len(work)} parameter arrays but {len(grads)} gradient arrays")
    worst = 0.0
    for pi, p in enumerate(work):
        flat = p.reshape(-1)
        gflat = as_f64(grads[pi]).reshape(-1)
        if gflat.size != flat.size:
            raise ContractError(f"gradient {pi} has {gflat.size} entries, parameter has {flat.size}")
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + eps
            f_plus = float(f(work))
            flat[ci] = orig - eps
            f_minus = float(f(work))
            flat[ci] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradientCheckError(
                    f"objective non-finite at parameter {pi}, coordinate {ci}"
                )
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(fd - gflat[ci]) / max(1e-8, abs(fd) + abs(gflat[ci]))
            worst = max(worst, err)
    return worst
