"""The three paired significance tests on synthetic per-user scores."""

import numpy as np

from advrec import evaluation as ev

rng = np.random.default_rng(7)
n = 400

print("== signed-rank test on per-user ranking scores ==")
scores_a = rng.beta(2, 5, size=n)
scores_b = np.clip(scores_a + 0.02 + 0.05 * rng.standard_normal(n), 0, 1)
result = ev.wilcoxon_signed_rank(scores_b, scores_a)
print(f"model B vs A: W={result.statistic:.1f}, p={result.p_value:.2e}, "
      f"significant at {ev.ALPHA}: {result.significant}")

same = ev.wilcoxon_signed_rank(scores_a, scores_a)
print(f"model A vs itself: degenerate={same.degenerate}, p={same.p_value}")

print("\n== McNemar test on attacker correctness ==")
truth = rng.integers(0, 2, size=n)
correct_strong = rng.random(n) < 0.85
correct_weak = rng.random(n) < 0.60
result = ev.mcnemar_test(correct_strong, correct_weak)
print(f"strong vs weak attacker: chi2={result.statistic:.2f}, p={result.p_value:.2e}, "
      f"significant: {result.significant}")

print("\n== paired t-test on attacker absolute errors ==")
errors_a = np.abs(rng.normal(0.10, 0.05, size=n))
errors_b = np.abs(rng.normal(0.16, 0.05, size=n))
result = ev.paired_t_test(errors_b, errors_a)
print(f"after removal vs before: t={result.statistic:.2f}, p={result.p_value:.2e}, "
      f"significant: {result.significant}")
