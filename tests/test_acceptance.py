"""Acceptance suite: one test per gating criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
synthetic debiasing reproduction (criterion 4) is the long one; its
thresholds were calibrated once on the finished system and frozen here.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from advrec import adversarial as adv
from advrec import autodiff as ad
from advrec import evaluation as ev
from advrec import multvae as mv
from advrec import training as tr
from advrec.data import load_interactions, k_core_filter, make_folds, prepare_fold, dataset_stats
from advrec.synthetic import planted_dataset


def report(criterion: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    return passed


# --- criterion 1: gradient correctness of the full joint objective ---------

def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(1234)
    x = (rng.random((5, 8)) < 0.4).astype(np.float64)
    x[x.sum(axis=1) == 0, 0] = 1.0
    targets = {"gender": rng.integers(0, 2, size=5), "age": rng.random(5)}
    lam = {"gender": 1.0, "age": 1.0}

    specs = [
        adv.AttributeSpec(name="gender", kind=adv.CATEGORICAL, n_classes=2, lam=1.0),
        adv.AttributeSpec(name="age", kind=adv.CONTINUOUS, lam=1.0),
    ]
    r = np.random.default_rng(7)
    heads = adv.init_heads(specs, 4, 5, r)
    template = {**mv.init_encoder(8, 6, 4, r), **mv.init_decoder(8, 6, 4, r), **heads}
    names = list(template)
    arrays = [np.array(arr) for arr in template.values()]

    def rebuild(arrs):
        return adv.total_objective(
            [np.flatnonzero(row) for row in x], targets, dict(zip(names, arrs)), adv.Reversal(specs), beta=0.5,
            rng=np.random.default_rng(99),
        )

    parts, tape, leaves = rebuild(arrays)
    grad_map = tape.backward(parts.loss)
    grads = {name: grad_map[leaf] for name, leaf in leaves.items()}

    # the reversal layer redefines what the encoder minimizes: its tape
    # gradient equals the gradient of (recommender loss - sum_k lam_k * head_k)
    def value_total(arrs):
        p, _, _ = rebuild(arrs)
        return float(p.loss.data)

    def value_encoder(arrs):
        p, _, _ = rebuild(arrs)
        return float(p.mult.data) - sum(lam[a] * float(t.data) for a, t in p.adv.items())

    worst = 0.0
    for i, name in enumerate(names):
        fn = value_encoder if name.startswith("enc.") else value_total

        def one(arrs, i=i, fn=fn):
            full = list(arrays)
            full[i] = arrs[0]
            return fn(full)

        worst = max(worst, ad.finite_difference_check(one, [arrays[i]], [grads[name]]))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 10.0
    assert report("1 (gradient correctness)", ok,
                  f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: gradient reversal contract -------------------------------

def test_criterion_2_grl_contract():
    rng = np.random.default_rng(5)
    ok = True
    for lam in (0.0, 1.0, 200.0, 800.0):
        values = rng.standard_normal((4, 3))
        tape = ad.Tape()
        x = tape.leaf(values)
        out = ad.grl(x, lam)
        ok &= out.data.tobytes() == x.data.tobytes()
        grad_in = rng.standard_normal((4, 3))
        loss = ad.sum_all(ad.mul_const(out, grad_in))  # upstream grad equals grad_in
        grads = tape.backward(loss)
        ok &= np.array_equal(grads[x], -lam * grad_in)
    assert report("2 (gradient reversal contract)", ok)


# --- criterion 3: zero-lambda equivalence ----------------------------------

def test_criterion_3_zero_lambda_equivalence():
    start = time.time()
    dataset, attrs = planted_dataset(500, 300, seed=3, items_low=10, items_high=30)
    config = tr.TrainConfig(
        epochs_adversarial=10, epochs_attack=1, batch_size=64,
        d_hidden=100, d_latent=32, d_adv_hidden=16, anneal_steps=500,
        val_every=0, selection="final",
        lambdas={"gender": 0.0, "age": 0.0},
    )
    fold = prepare_fold(dataset, make_folds(500, seed=9)[0], 0.2, config.data_seed)
    with_heads = tr.train_adversarial_phase(dataset, attrs, fold, config)

    import dataclasses
    plain = tr.train_adversarial_phase(
        dataset, attrs, fold, dataclasses.replace(config, lambdas={})
    )
    identical = True
    for (name_a, arr_a), (name_b, arr_b) in zip(
        with_heads.params.items(), plain.params.items()
    ):
        if not name_a.startswith(("enc.", "dec.")):
            continue
        identical &= name_a == name_b and arr_a.tobytes() == arr_b.tobytes()
    elapsed = time.time() - start
    ok = identical and elapsed < 120.0
    assert report("3 (zero-lambda equivalence)", ok, f"{elapsed:.1f}s for both runs")


# --- criterion 4: synthetic debiasing reproduction -------------------------

# Frozen after a calibration pilot of the finished system (see the run
# protocol in README); five seeds, four lambda settings each.
C4_SEEDS = [0, 1, 2, 3, 4]
C4_GEN = dict(marker_fraction=0.04, binary_weight=1.2, continuous_weight=1.2)
C4_EPOCHS_ADVERSARIAL = 50
C4_EPOCHS_ATTACK = 25
C4_BETA_MAX = 0.4
C4_CONTINUOUS_HEAD = "sigmoid"


def _c4_run(seed: int, lam_g: float, lam_a: float) -> dict:
    dataset, attrs = planted_dataset(2000, 500, seed=seed, **C4_GEN)
    config = tr.TrainConfig(
        epochs_adversarial=C4_EPOCHS_ADVERSARIAL,
        epochs_attack=C4_EPOCHS_ATTACK,
        batch_size=64, d_hidden=600, d_latent=200, d_adv_hidden=128,
        anneal_steps=1000, beta_max=C4_BETA_MAX,
        val_every=0, selection="final", continuous_head=C4_CONTINUOUS_HEAD,
        model_seed=seed * 3, data_seed=seed * 3 + 1, adversary_seed=seed * 3 + 2,
        lambdas={"gender": lam_g, "age": lam_a},
    )
    fold = prepare_fold(dataset, make_folds(2000, seed=77)[0], 0.2, config.data_seed)
    record = tr.run_single(dataset, attrs, fold, config, dataset_name="planted")
    return record.metrics


@pytest.mark.slow
def test_criterion_4_synthetic_debiasing():
    start = time.time()
    settings = {"base": (0.0, 0.0), "g": (400.0, 0.0), "a": (0.0, 400.0), "joint": (400.0, 400.0)}
    means = {}
    for tag, (lg, la) in settings.items():
        runs = [_c4_run(seed, lg, la) for seed in C4_SEEDS]
        means[tag] = {key: float(np.mean([r[key] for r in runs])) for key in runs[0]}
        print(f"  criterion 4 [{tag}]: " + ", ".join(f"{k}={v:.3f}" for k, v in means[tag].items()))

    base, g, a, joint = means["base"], means["g"], means["a"], means["joint"]
    checks = {
        "(a) baseline BAcc >= 0.75": base["bacc_gender"] >= 0.75,
        "(b) gender removal drops BAcc >= 0.15": base["bacc_gender"] - g["bacc_gender"] >= 0.15,
        "(c) age removal raises MAE >= 20%": a["mae_age"] >= 1.2 * base["mae_age"],
        "(d) joint matches single runs": (
            joint["bacc_gender"] <= g["bacc_gender"] + 0.05
            and joint["mae_age"] >= a["mae_age"] - 0.05
        ),
        "(e) NDCG drop <= 10% for the joint run": joint["ndcg@10"] >= 0.9 * base["ndcg@10"],
    }
    elapsed = time.time() - start
    all_ok = all(checks.values()) and elapsed < 1800.0
    detail = "; ".join(f"{name}: {'ok' if ok else 'FAILED'}" for name, ok in checks.items())
    assert report("4 (synthetic debiasing)", all_ok, f"{detail}; {elapsed / 60:.1f} min")


# --- criterion 5: metric oracles --------------------------------------------

def _oracle_ndcg(ranking, holdout, k=10):
    dcg = sum(1.0 / math.log2(p + 2) for p, item in enumerate(ranking[:k]) if item in holdout)
    idcg = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(holdout))))
    return dcg / idcg


def _oracle_recall(ranking, holdout, k=10):
    return len(set(ranking[:k]) & holdout) / min(k, len(holdout))


def _exact_wilcoxon(diffs):
    diffs = np.asarray(diffs, float)
    diffs = diffs[diffs != 0]
    ranks = rankdata(np.abs(diffs))
    w = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    total = ranks.sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if min(wp, total - wp) <= w + 1e-9:
            hits += 1
    return hits / 2.0 ** len(diffs)


def test_criterion_5_metric_oracles():
    ranking_exact = True
    for n in range(1, 7):
        items = list(range(n))
        for ranking in itertools.permutations(items):
            holdouts = [set(h) for r in range(1, n + 1) for h in itertools.combinations(items, r)]
            # one chunk row per holdout set, with scores that induce the ranking
            scores = np.empty(n)
            scores[list(ranking)] = np.arange(n, 0, -1)
            ndcg, recall, _ = ev.ranking_metrics(
                np.tile(scores, (len(holdouts), 1)), [np.zeros(0, dtype=np.int64)] * len(holdouts),
                [np.array(sorted(h)) for h in holdouts], 10,
            )
            for i, holdout in enumerate(holdouts):
                ranking_exact &= ndcg[i] == _oracle_ndcg(ranking, holdout)
                ranking_exact &= recall[i] == _oracle_recall(ranking, holdout)

    constant_bacc = ev.balanced_accuracy(np.zeros(100, dtype=int),
                                         np.array([0] * 93 + [1] * 7), 2) == 0.5

    wilcoxon_ok = True
    rng = np.random.default_rng(0)
    for trial in range(8):
        n = int(rng.integers(10, 13))
        diffs = np.round(rng.standard_normal(n) * 2, 1)
        diffs[diffs == 0.0] = 0.1
        result = ev.wilcoxon_signed_rank(diffs, np.zeros(n))
        wilcoxon_ok &= abs(result.p_value - _exact_wilcoxon(diffs)) < 0.01

    a = np.array([1] * 5 + [0] * 15 + [1] * 30, dtype=bool)
    b = np.array([0] * 5 + [1] * 15 + [1] * 30, dtype=bool)
    mcnemar_ok = ev.mcnemar_test(a, b).statistic == 4.05

    t_result = ev.paired_t_test(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros(5))
    t_ok = abs(t_result.statistic - 4.2426) < 1e-3 and abs(t_result.p_value - 0.013) < 0.002

    ok = ranking_exact and constant_bacc and wilcoxon_ok and mcnemar_ok and t_ok
    assert report("5 (metric oracles)", ok)


# --- criterion 6: preprocessing fidelity on the movie dataset ---------------

ML1M_ENV = "ADVREC_ML1M_DIR"


def _convert_ml1m(raw_dir: str, tmp_path):
    """ratings.dat / users.dat (:: separated) to the package's TSV inputs."""
    interactions = tmp_path / "interactions.tsv"
    demographics = tmp_path / "demographics.tsv"
    with open(os.path.join(raw_dir, "ratings.dat"), encoding="latin-1") as fh, \
            open(interactions, "w") as out:
        out.write("user_id\titem_id\n")
        for line in fh:
            user, item, _rest = line.split("::", 2)
            out.write(f"{user}\t{item}\n")
    with open(os.path.join(raw_dir, "users.dat"), encoding="latin-1") as fh, \
            open(demographics, "w") as out:
        out.write("user_id\tgender\tage\n")
        for line in fh:
            user, gender, age, _rest = line.split("::", 3)
            out.write(f"{user}\t{gender}\t{age}\n")
    return str(interactions), str(demographics)


@pytest.mark.skipif(ML1M_ENV not in os.environ,
                    reason=f"set {ML1M_ENV} to the directory holding ratings.dat/users.dat")
def test_criterion_6_preprocessing_fidelity(tmp_path):
    interactions, demographics = _convert_ml1m(os.environ[ML1M_ENV], tmp_path)
    dataset, attrs, _ = load_interactions(interactions, demographics, age_cap=60.0)
    dataset, keep_users, _ = k_core_filter(dataset, 5)
    attrs = attrs.subset(keep_users)
    stats = dataset_stats(dataset, attrs)
    checks = {
        "users": stats["users"] == 6040,
        "items": stats["items"] == 3416,
        "interactions": stats["interactions"] == 999_611,
        "density": abs(stats["density"] - 0.0484) < 1e-4,
        "gender": sorted(stats["gender_counts"]) == [1709, 4331],
        "age_mean": abs(stats["age_mean"] - 30.6) < 0.05,
        "age_std": abs(stats["age_std"] - 12.9) < 0.05,
        "age_median": stats["age_median"] == 25.0,
    }
    ok = all(checks.values())
    assert report("6 (preprocessing fidelity)", ok,
                  "; ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in checks.items()))


# --- criterion 7: full-scale reproduction (optional, not gating) ------------

@pytest.mark.skipif("ADVREC_FULL_REPRO" not in os.environ,
                    reason="multi-hour full-scale run; set ADVREC_FULL_REPRO=1 and "
                           f"{ML1M_ENV} to attempt it")
def test_criterion_7_full_scale_reproduction(tmp_path):
    pytest.importorskip("advrec")
    interactions, demographics = _convert_ml1m(os.environ[ML1M_ENV], tmp_path)
    dataset, attrs, _ = load_interactions(interactions, demographics, age_cap=60.0)
    dataset, keep_users, _ = k_core_filter(dataset, 5)
    attrs = attrs.subset(keep_users)
    config = tr.TrainConfig(lambdas={"gender": 0.0, "age": 0.0})
    folds = [prepare_fold(dataset, split, 0.2, config.data_seed)
             for split in make_folds(dataset.n_users, config.data_seed)]
    metrics = []
    for fold in folds:
        record = tr.run_single(dataset, attrs, fold, config, dataset_name="movies-1m")
        metrics.append(record.metrics)
        print(f"  fold {fold.index}: " + ", ".join(f"{k}={v:.4f}" for k, v in record.metrics.items()))
    ndcg = 100 * float(np.mean([m["ndcg@10"] for m in metrics]))
    bacc = 100 * float(np.mean([m["bacc_gender"] for m in metrics]))
    ok = abs(ndcg - 62.72) <= 3.0 and abs(bacc - 69.81) <= 4.0
    assert report("7 (full-scale reproduction, optional)", ok,
                  f"ndcg@10 {ndcg:.2f} (target 62.72 +/- 3), bacc {bacc:.2f} (target 69.81 +/- 4)")
