import collections
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import rankdata, ttest_rel

from advrec import evaluation as ev
from advrec.errors import ConfigError, ContractError, DataError


def oracle_ndcg(ranking, holdout, k):
    dcg = sum(1.0 / math.log2(pos + 2) for pos, item in enumerate(ranking[:k]) if item in holdout)
    idcg = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(holdout))))
    return dcg / idcg


def oracle_recall(ranking, holdout, k):
    hits = len(set(ranking[:k]) & holdout)
    return hits / min(k, len(holdout))


def scores_ranking(ranking, rows=1):
    """Scores that rank the catalog ``range(len(ranking))`` in ``ranking`` order."""
    scores = np.empty(len(ranking))
    scores[list(ranking)] = np.arange(len(ranking), 0, -1)
    return np.tile(scores, (rows, 1))


def metrics_of(ranking, holdout, k=10, foldin=()):
    """NDCG and recall of one user whose scores induce ``ranking``."""
    ndcg, recall, evaluated = ev.ranking_metrics(
        scores_ranking(ranking), [np.array(foldin, dtype=np.int64)], [np.array(sorted(holdout))], k
    )
    assert evaluated[0]
    return ndcg[0], recall[0]


def test_ndcg_examples():
    assert metrics_of([7, 0, 1, 2, 3, 4, 5, 6], {7})[0] == 1.0
    # relevant at positions 1 and 3 with two holdout items
    value = metrics_of([5, 1, 6, 2, 0, 3, 4], {5, 6})[0]
    expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.9197) < 5e-4
    assert metrics_of([1, 2, 3, 0, 4, 5, 6, 7, 8, 10, 11, 9], {9})[0] == 0.0


def test_recall_examples():
    assert metrics_of([1, 2, 3, 0], {1, 2})[1] == 1.0
    assert metrics_of([1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 2, 3, 4], {1, 2})[1] == 0.5
    assert metrics_of([3, 4, 0, 5, 6, 7, 8, 9, 10, 11, 1, 2], {1, 2})[1] == 0.0


def assert_chunk_matches_oracle(ranking, k):
    """Every holdout set over the catalog, one chunk row each, against the oracles."""
    holdouts = [set(h) for r in range(1, len(ranking) + 1) for h in itertools.combinations(ranking, r)]
    ndcg, recall, evaluated = ev.ranking_metrics(
        scores_ranking(ranking, len(holdouts)), [np.zeros(0, dtype=np.int64)] * len(holdouts),
        [np.array(sorted(h)) for h in holdouts], k,
    )
    assert evaluated.all()
    for i, holdout in enumerate(holdouts):
        assert ndcg[i] == oracle_ndcg(ranking, holdout, k)
        assert recall[i] == oracle_recall(ranking, holdout, k)


def test_ranking_metrics_match_brute_force_on_all_small_rankings():
    for n_items in range(1, 6):
        for ranking in itertools.permutations(range(n_items)):
            for k in (1, 3, 10):
                assert_chunk_matches_oracle(ranking, k)
    # full length-6 sweep at the reporting cutoff
    for ranking in itertools.permutations(range(6)):
        assert_chunk_matches_oracle(ranking, 10)


def test_users_with_fewer_than_k_rankable_items_are_scored():
    # three of five items are fold-in: the top 10 holds 2 rankable items, then the masked ones
    ndcg, recall = metrics_of([0, 1, 2, 4, 3], {3}, k=10, foldin=(0, 1, 2))
    assert recall == 1.0
    assert ndcg == 1.0 / math.log2(3)


def test_ranking_never_credits_a_foldin_item():
    # an item listed as both fold-in and holdout is masked, so it is never a hit
    ndcg, recall = metrics_of([0, 1, 2, 3], {0, 3}, k=10, foldin=(0,))
    assert recall == 0.5
    assert ndcg == (1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ranking_rejects_non_finite_scores(bad):
    scores = scores_ranking([0, 1, 2, 3], rows=2)
    scores[1, 2] = bad
    with pytest.raises(ContractError):
        ev.ranking_metrics(scores, [np.zeros(0, dtype=np.int64)] * 2, [np.array([1]), np.array([2])], 3)


def test_ranking_masks_foldin():
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
    ndcg, recall, _ = ev.ranking_metrics(scores, [np.array([0, 1])], [np.array([4])], k=3)
    # item 4 is third once items 0 and 1 are masked
    assert recall[0] == 1.0
    assert ndcg[0] == 1.0 / math.log2(4)


def oracle_user(scores, foldin, holdout, k):
    """Sort one user's rankable items by hand; scores tie only within the holdout or outside it."""
    rankable = [i for i in range(len(scores)) if i not in foldin]
    top = sorted(rankable, key=lambda i: -scores[i])[:k]
    dcg = sum(1.0 / math.log2(pos + 2) for pos, item in enumerate(top) if item in holdout)
    ideal = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(holdout))))
    return dcg / ideal, sum(item in holdout for item in top) / min(k, len(holdout))


@pytest.mark.parametrize("seed", range(6))
def test_random_chunks_match_a_per_user_oracle(seed):
    rng = np.random.default_rng(seed)
    # k >= n_items in the first three; the second is an empty chunk
    for n, n_items, k in [(5, 1, 1), (0, 7, 10), (30, 8, 8), (40, 30, 3), (25, 60, 10), (40, 200, 20)]:
        foldin, holdout = [], []
        scores = np.empty((n, n_items))
        for u in range(n):
            part = rng.integers(0, 3, size=n_items)  # 0 fold-in, 1 holdout, 2 neither
            foldin.append(np.flatnonzero(part == 0))
            holdout.append(np.flatnonzero(part == 1))
            # few distinct values: ties, but never between a holdout item and another item
            scores[u] = 2 * rng.integers(0, 4, size=n_items) + (part == 1)
        ndcg, recall, evaluated = ev.ranking_metrics(scores, foldin, holdout, k)
        assert ndcg.shape == recall.shape == evaluated.shape == (n,)
        for u in range(n):
            assert evaluated[u] == (len(holdout[u]) > 0)
            if not evaluated[u]:
                assert ndcg[u] == recall[u] == 0.0
                continue
            want = oracle_user(scores[u], set(foldin[u].tolist()), set(holdout[u].tolist()), k)
            assert (ndcg[u], recall[u]) == want


def test_ranking_rejects_k_below_one():
    with pytest.raises(ConfigError):
        ev.ranking_metrics(np.zeros((1, 3)), [np.array([0])], [np.array([1])], k=0)


def test_evaluated_mean_of_no_users_is_zero():
    assert ev.evaluated_mean(np.array([0.5]), np.array([False])) == 0.0


def test_balanced_accuracy_examples():
    assert ev.balanced_accuracy([0, 1, 0, 1], [0, 1, 0, 1], 2) == 1.0
    # recalls 0.8 and 0.6
    labels = np.array([0] * 10 + [1] * 10)
    preds = np.array([0] * 8 + [1] * 2 + [1] * 6 + [0] * 4)
    assert abs(ev.balanced_accuracy(preds, labels, 2) - 0.7) < 1e-12


def test_balanced_accuracy_constant_predictor_is_half():
    labels = np.array([0] * 97 + [1] * 3)
    preds = np.zeros(100, dtype=int)
    assert ev.balanced_accuracy(preds, labels, 2) == 0.5


def test_balanced_accuracy_random_predictor_near_half():
    rng = np.random.default_rng(0)
    labels = np.tile([0, 1], 5000)
    preds = rng.integers(0, 2, size=10_000)
    assert 0.47 <= ev.balanced_accuracy(preds, labels, 2) <= 0.53


def test_balanced_accuracy_missing_class_errors():
    with pytest.raises(DataError) as err:
        ev.balanced_accuracy([0, 0], [0, 0], 2)
    assert "class 1" in str(err.value)


def test_mae_examples():
    assert ev.mae_metric([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(ev.mae_metric([0.5, 0.5], [0.3, 0.7]) - 0.2) < 1e-15
    assert abs(ev.as_percent(ev.mae_metric([0.5, 0.5], [0.3, 0.7])) - 20.0) < 1e-12


def test_mae_of_mean_predictor_equals_mean_absolute_deviation():
    rng = np.random.default_rng(1)
    targets = rng.random(500)
    mean_pred = np.full_like(targets, targets.mean())
    mad = float(np.abs(targets - targets.mean()).mean())
    assert abs(ev.mae_metric(mean_pred, targets) - mad) < 1e-15


def test_tie_ranks_and_tie_term_match_scipy_on_tied_data():
    rng = np.random.default_rng(7)
    for n in (1, 2, 11, 300):
        values = rng.integers(0, max(2, n // 4), n) * 0.25  # many ties at every length
        ranks, tie_term = ev._rank_with_ties(values)
        assert np.array_equal(ranks, rankdata(values))
        assert tie_term == float(sum(t**3 - t for t in collections.Counter(values.tolist()).values()))


def exact_wilcoxon_p(diffs):
    """Enumerate every sign assignment of the ranked |differences|."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    n = len(diffs)
    total = ranks.sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w_plus = sum(r for r, s in zip(ranks, signs) if s)
        if min(w_plus, total - w_plus) <= w_obs + 1e-9:
            hits += 1
    return hits / 2.0**n


def test_wilcoxon_degenerate_when_equal():
    a = np.arange(12.0)
    result = ev.wilcoxon_signed_rank(a, a)
    assert result.degenerate and result.p_value == 1.0 and not result.significant


def test_wilcoxon_textbook_sample_against_enumeration():
    diffs = np.array([1.5, 0.5, -1.0, 2.0, 3.0, -0.5, 1.0, 4.0, 2.5, 5.0])
    b = np.zeros_like(diffs)
    result = ev.wilcoxon_signed_rank(diffs, b)
    assert result.statistic == 5.0  # W- = 3.5 + 1.5
    assert abs(result.p_value - exact_wilcoxon_p(diffs)) < 0.01


def test_wilcoxon_large_separation():
    rng = np.random.default_rng(2)
    b = rng.random(20)
    a = b + 5.0
    result = ev.wilcoxon_signed_rank(a, b)
    assert result.p_value < 0.001 and result.significant


@pytest.mark.parametrize("seed", range(12))
def test_wilcoxon_matches_enumeration_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 13))
    # one decimal place forces ties between |differences|
    diffs = np.round(rng.standard_normal(n) * 2, 1)
    diffs[diffs == 0.0] = 0.1
    result = ev.wilcoxon_signed_rank(diffs, np.zeros(n))
    assert abs(result.p_value - exact_wilcoxon_p(diffs)) < 0.01


def test_wilcoxon_approximation_path_tracks_enumeration():
    # above the exact-enumeration cutoff the normal approximation takes over;
    # it should stay close to enumeration away from the distribution center
    rng = np.random.default_rng(42)
    n = 18
    diffs = rng.standard_normal(n) + 0.8
    approx = ev.wilcoxon_signed_rank(diffs, np.zeros(n))
    assert abs(approx.p_value - exact_wilcoxon_p(diffs)) < 0.01


def test_mcnemar_hand_value():
    # 5 pairs correct only under A, 15 only under B
    a = np.array([1] * 5 + [0] * 15 + [1] * 30, dtype=bool)
    b = np.array([0] * 5 + [1] * 15 + [1] * 30, dtype=bool)
    result = ev.mcnemar_test(a, b)
    assert result.statistic == (abs(5 - 15) - 1) ** 2 / 20
    assert result.statistic == 4.05


def test_mcnemar_symmetric_not_significant():
    a = np.array([1] * 8 + [0] * 8 + [1] * 4, dtype=bool)
    b = np.array([0] * 8 + [1] * 8 + [1] * 4, dtype=bool)
    result = ev.mcnemar_test(a, b)
    assert result.statistic <= 1.0 / 16
    assert not result.significant


def test_mcnemar_identical_classifiers_degenerate():
    a = np.array([1, 0, 1, 1], dtype=bool)
    result = ev.mcnemar_test(a, a)
    assert result.degenerate and result.p_value == 1.0


def test_t_test_equal_samples():
    a = np.array([1.0, 2.0, 3.0])
    result = ev.paired_t_test(a, a)
    assert result.statistic == 0.0 and result.p_value == 1.0


def test_t_test_hand_value():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.zeros(5)
    result = ev.paired_t_test(a, b)
    assert abs(result.statistic - math.sqrt(5) * 3 / math.sqrt(2.5)) < 1e-12
    assert abs(result.statistic - 4.2426) < 1e-4
    assert abs(result.p_value - 0.0132) < 0.002
    assert result.significant


def test_paired_t_test_p_matches_scipy_betainc():
    magnitudes = np.logspace(-9, 3, 97)
    ts = np.concatenate([-magnitudes, [0.0], magnitudes])
    for dof in [*range(1, 61), 799, 6039, 20_000, 100_000]:
        want = betainc(dof / 2.0, 0.5, dof / (dof + ts * ts))
        got = np.array([ev._t_two_sided_p(t, dof) for t in ts.tolist()])
        # below the smallest normal float no relative bound holds, and betainc's own underflow to 0 starts there
        bad = np.abs(got - want) > 1e-9 * want + sys.float_info.min
        assert not bad.any(), (dof, ts[bad], got[bad], want[bad])
        assert got[len(magnitudes)] == 1.0  # t = 0
    rng = np.random.default_rng(4)
    a, b = rng.random(800), rng.random(800) + 0.05
    assert ev.paired_t_test(a, b).p_value == pytest.approx(ttest_rel(a, b).pvalue, rel=1e-9)


def test_t_test_swap_symmetry():
    rng = np.random.default_rng(3)
    a, b = rng.random(15), rng.random(15)
    fwd = ev.paired_t_test(a, b)
    rev = ev.paired_t_test(b, a)
    assert abs(fwd.statistic + rev.statistic) < 1e-12
    assert abs(fwd.p_value - rev.p_value) < 1e-12


@pytest.mark.parametrize("test", [ev.wilcoxon_signed_rank, ev.mcnemar_test, ev.paired_t_test],
                         ids=lambda test: test.__name__)
def test_paired_tests_reject_non_finite_values(test):
    a = np.arange(20.0) % 2
    b = 1.0 - a  # every pair differs, so each test has a statistic to compute
    for bad in (np.nan, np.inf):
        corrupt = b.copy()
        corrupt[3] = bad
        with pytest.raises(DataError, match="non-finite"):
            test(a, corrupt)
        with pytest.raises(DataError, match="non-finite"):
            test(corrupt, a)
    with pytest.raises(ConfigError, match="differ in length"):
        test(a, b[:-1])


def test_percent_scaling_is_exact():
    values = [0.0, 0.25, 0.5, 1.0, 0.123456]
    for v in values:
        assert ev.as_percent(v) == 100.0 * v
    mean, std = ev.aggregate([0.5, 0.5, 0.5])
    assert mean == 50.0 and std == 0.0


def test_write_rows_csv_atomic(tmp_path):
    path = tmp_path / "out" / "metrics.csv"
    rows = [{"dataset": "d", "fold": 0, "ndcg@10": 12.345678912}]
    ev.write_rows_csv(str(path), rows)
    text = path.read_text()
    assert text.splitlines()[0] == "dataset,fold,ndcg@10"
    assert "12.345679" in text
    assert not list(path.parent.glob("*.tmp"))


def test_write_rows_csv_takes_every_column_in_order_of_first_appearance(tmp_path):
    path = tmp_path / "log.csv"
    ev.write_rows_csv(str(path), [{"epoch": 0, "mult": 1.5}, {"epoch": 1, "mult": 0.5, "val_ndcg": 0.25}])
    assert path.read_text().splitlines() == ["epoch,mult,val_ndcg", "0,1.500000,", "1,0.500000,0.250000"]
