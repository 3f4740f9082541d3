"""Ranking metrics, debiasing metrics and paired significance tests.

Ranking works per chunk of users: :func:`ranking_metrics` masks, selects,
sorts and scores a whole score matrix at once, with no loop over users.
Each paired test calls its result significant at ``p <= ALPHA``.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .container import atomic_open
from .errors import ConfigError, ContractError, DataError


def _dcg(positions) -> float:
    """Binary-relevance DCG of hits at 0-based rank ``positions``, added in
    rank order by Python's ``sum`` (compensated from Python 3.12 on)."""
    return sum(1.0 / math.log2(pos + 2) for pos in positions)


def _codes(rows, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths, and ``row * n_items + item`` for every item of every row."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    items = np.concatenate([np.zeros(0, np.int64), *rows]).astype(np.int64, copy=False)
    return lengths, np.repeat(np.arange(len(rows)), lengths) * n_items + items


def ranking_metrics(scores: np.ndarray, foldin_rows, holdout_rows, k: int = 10):
    """Per-user NDCG@k and recall@k of one chunk of users, ranked at once.

    Each row of ``scores`` ranks the items outside that user's fold-in set:
    ``np.argpartition`` picks the top k, and a stable sort orders them. A
    user with fewer than k rankable items gets fold-in items at the tail of
    its top k, and they never count as hits. Users with an empty holdout are
    skipped. Returns ``(ndcg, recall, evaluated_mask)`` arrays over the users.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n, n_items = scores.shape
    ndcg = np.zeros(n)
    recall = np.zeros(n)
    holdout_len, holdout_codes = _codes(holdout_rows, n_items)
    evaluated = holdout_len > 0
    if not evaluated.any():
        return ndcg, recall, evaluated
    if not np.all(np.isfinite(scores)):
        raise ContractError("ranking scores contain non-finite values")
    neg = -np.asarray(scores, dtype=np.float64)  # the one chunk-sized copy
    neg.reshape(-1)[_codes(foldin_rows, n_items)[1]] = np.inf
    if k < n_items:
        top = np.argpartition(neg, k, axis=1)[:, :k]
    else:
        top = np.broadcast_to(np.arange(n_items), neg.shape)
    order = np.argsort(np.take_along_axis(neg, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)[evaluated]
    rows = np.flatnonzero(evaluated)[:, None]
    hits = np.isin(rows * n_items + top, holdout_codes) & (neg[rows, top] < np.inf)

    patterns, pattern_of = np.unique(hits, axis=0, return_inverse=True)
    dcg = np.array([_dcg(np.flatnonzero(p).tolist()) for p in patterns], dtype=np.float64)
    cutoff = np.minimum(k, holdout_len[evaluated])
    cutoffs, cutoff_of = np.unique(cutoff, return_inverse=True)
    ideal = np.array([_dcg(range(m)) for m in cutoffs.tolist()])
    ndcg[evaluated] = dcg[pattern_of.reshape(-1)] / ideal[cutoff_of]
    recall[evaluated] = hits.sum(axis=1) / cutoff
    return ndcg, recall, evaluated


def evaluated_mean(values: np.ndarray, evaluated: np.ndarray) -> float:
    """Mean of ``values`` over the evaluated users; 0.0 when there are none."""
    return float(values[evaluated].mean()) if evaluated.any() else 0.0


def balanced_accuracy(predictions, labels, n_classes: int) -> float:
    """Mean of per-class recalls."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    recalls = []
    for c in range(n_classes):
        mask = labels == c
        if not mask.any():
            raise DataError(f"class {c} absent from labels; balanced accuracy undefined")
        recalls.append(float((predictions[mask] == c).mean()))
    return float(np.mean(recalls))


def mae_metric(predictions, targets) -> float:
    """Mean absolute error between predictions and targets in [0, 1]."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ConfigError(f"prediction shape {predictions.shape} != target shape {targets.shape}")
    return float(np.abs(predictions - targets).mean())


ALPHA = 0.05  # significance level of every paired test


@dataclass
class TestResult:
    statistic: float
    p_value: float
    significant: bool
    degenerate: bool = False


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _chi2_sf_1dof(x: float) -> float:
    return math.erfc(math.sqrt(x / 2.0))


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks of |values| plus the tie correction term sum(t^3 - t).

    A run of ``t`` tied values ending at 1-based rank ``e`` has average rank
    ``e - (t - 1) / 2``; every such rank is a half-integer, so it is exact.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    average = np.cumsum(counts) - (counts - 1) / 2.0
    return average[group], float((counts**3 - counts).sum())


_WILCOXON_EXACT_MAX_N = 16


def _wilcoxon_exact_p(ranks: np.ndarray, statistic: float) -> float:
    """P(min(W+, W-) <= statistic) by enumerating all sign assignments."""
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    total = ranks.sum()
    mins = np.minimum(sums, total - sums)
    return float(np.mean(mins <= statistic + 1e-9))


def _paired_samples(sample_a, sample_b) -> tuple[np.ndarray, np.ndarray]:
    """The two samples of a paired test as float64 arrays of one shape and
    finite values; a NaN would otherwise pass silently into the statistic."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("paired samples contain non-finite values")
    return a, b


def wilcoxon_signed_rank(scores_a, scores_b) -> TestResult:
    """Two-sided signed-rank test on paired scores.

    Zero differences are dropped and |differences| ranked with average ranks
    for ties. Small samples (n <= 16) get the exact sign-enumeration p;
    larger samples the tie-corrected, continuity-corrected normal
    approximation, whose center-of-distribution error at tiny n would
    otherwise exceed the accuracy the exact computation provides.
    """
    a, b = _paired_samples(scores_a, scores_b)
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return TestResult(statistic=0.0, p_value=1.0, significant=False, degenerate=True)
    if n < 10:
        raise DataError(f"need >= 10 nonzero differences, got {n}")
    ranks, tie_term = _rank_with_ties(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    statistic = min(w_plus, w_minus)
    if n <= _WILCOXON_EXACT_MAX_N:
        p = _wilcoxon_exact_p(ranks, statistic)
        return TestResult(statistic=float(statistic), p_value=p, significant=p <= ALPHA)
    mean = n * (n + 1) / 4.0
    # the tie term is at most n^3 - n (every |difference| tied), so var >= n(n+1)^2/16 > 0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (statistic - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_cdf(z))
    return TestResult(statistic=float(statistic), p_value=p, significant=p <= ALPHA)


def mcnemar_test(correct_a, correct_b) -> TestResult:
    """Continuity-corrected McNemar test on paired correctness indicators."""
    a, b = (sample.astype(bool) for sample in _paired_samples(correct_a, correct_b))
    only_a = int(np.sum(a & ~b))
    only_b = int(np.sum(~a & b))
    discordant = only_a + only_b
    if discordant == 0:
        return TestResult(statistic=0.0, p_value=1.0, significant=False, degenerate=True)
    statistic = (abs(only_a - only_b) - 1.0) ** 2 / discordant
    p = _chi2_sf_1dof(statistic)
    return TestResult(statistic=float(statistic), p_value=p, significant=p <= ALPHA)


def _off_zero(v: float) -> float:
    """``v``, or a tiny positive stand-in where Lentz's method would divide by about 0."""
    return v if abs(v) > 1e-300 else 1e-300


def _t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided p of Student's ``t`` with ``dof`` degrees of freedom: the
    regularized incomplete beta I_x(dof/2, 1/2) at x = dof / (dof + t^2).

    The beta's continued fraction is summed by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4). It converges quickly below
    x = (a+1)/(a+b+2); above, I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    x = dof / (dof + t * t)
    if x == 1.0 or x == 0.0:  # t^2 too small to change dof + t^2, or too large for a float
        return x
    a, b = dof / 2.0, 0.5
    log_x, log_y = math.log(x), math.log1p(-x)
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, log_x, log_y = b, a, 1.0 - x, log_y, log_x
    c, d = 1.0, 1.0 / _off_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):  # a few dozen terms for any dof up to 10^7
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / _off_zero(1.0 + term * d)
            c = _off_zero(1.0 + term / c)
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            break
    else:
        raise ContractError(f"t-test p did not converge at t={t}, dof={dof}")
    value = math.exp(a * log_x + b * log_y + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) * h / a
    return 1.0 - value if flip else value


def paired_t_test(errors_a, errors_b) -> TestResult:
    """Two-sided paired t-test; p from :func:`_t_two_sided_p`."""
    a, b = _paired_samples(errors_a, errors_b)
    n = len(a)
    if n < 2:
        raise DataError(f"need at least 2 pairs, got {n}")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        p = 1.0 if d.mean() == 0.0 else 0.0
        return TestResult(statistic=0.0 if d.mean() == 0.0 else math.inf, p_value=p,
                          significant=p <= ALPHA, degenerate=True)
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = _t_two_sided_p(t, n - 1)
    return TestResult(statistic=t, p_value=p, significant=p <= ALPHA)


def as_percent(value: float) -> float:
    return 100.0 * value


def aggregate(values) -> tuple[float, float]:
    """Mean and standard deviation across folds, in percent."""
    arr = np.asarray(values, dtype=np.float64)
    return as_percent(float(arr.mean())), as_percent(float(arr.std()))


def write_rows_csv(path: str, rows: list[dict]) -> None:
    """Atomically write dict rows as CSV (floats rendered with 6 decimals).

    The columns are every key of the rows, in order of first appearance; a
    row without a column leaves its cell empty.
    """
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    with atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: f"{value:.6f}" if isinstance(value, float) else value
                             for key, value in row.items()})
