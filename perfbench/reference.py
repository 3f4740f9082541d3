"""Reference computations written apart from the program, and the checks
that hold each workload's outputs against them.

Each ``check_*`` returns a list of failure messages (empty when every
check holds) and a dict of figures worth printing.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy import stats

K = 10
TOL = 1e-9
CSV_TOL = 1e-6  # the program writes CSV floats with 6 decimals


# --- the program's file formats, read without the program ---------------

def read_container(path: str) -> tuple[dict, dict]:
    """Arrays and metadata of a container file (magic, header length, JSON, raw arrays)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"ADVREC1\n":
        raise ValueError(f"{path}: not a container")
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    base = 16 + n
    arrays = {
        e["name"]: np.frombuffer(blob, dtype=e["dtype"], count=int(np.prod(e["shape"], dtype=np.int64)),
                                 offset=base + e["offset"]).reshape(e["shape"])
        for e in header["arrays"]
    }
    return arrays, header["meta"]


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dense_rows(rows, n_items: int) -> np.ndarray:
    x = np.zeros((len(rows), n_items))
    for i, r in enumerate(rows):
        x[i, r] = 1.0
    return x


def csr_rows(indptr, indices) -> list[np.ndarray]:
    return [indices[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


# --- model forward, ranking and attribute metrics -------------------------

def latent_mean(x: np.ndarray, p: dict) -> np.ndarray:
    """mu of the MultVAE encoder (tanh hidden layer on L2-normalized rows)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    xn = x / np.where(norms > 0, norms, 1.0)
    h = np.tanh(xn @ p["enc.hidden_w"] + p["enc.hidden_b"])
    return h @ p["enc.mu_w"] + p["enc.mu_b"]


def item_scores(x: np.ndarray, p: dict) -> np.ndarray:
    h = np.tanh(latent_mean(x, p) @ p["dec.hidden_w"] + p["dec.hidden_b"])
    return h @ p["dec.out_w"] + p["dec.out_b"]


def ranking(scores: np.ndarray, foldin, holdout, k: int = K):
    """Per-user NDCG@k and recall@k of the top k items outside the fold-in set."""
    masked = scores.copy()
    for i, f in enumerate(foldin):
        masked[i, f] = -np.inf
    top = np.argsort(-masked, axis=1, kind="stable")[:, :k]
    discount = 1.0 / np.log2(np.arange(2, k + 2))
    ndcg = np.zeros(len(foldin))
    recall = np.zeros(len(foldin))
    for i, h in enumerate(holdout):
        if len(h) == 0:
            continue
        hits = np.isin(top[i], h)
        ideal = min(k, len(h))
        ndcg[i] = (hits * discount).sum() / discount[:ideal].sum()
        recall[i] = hits.sum() / ideal
    return ndcg, recall


def popularity_ndcg(train_rows, foldin, holdout, n_items: int) -> float:
    pop = np.zeros(n_items)
    for r in train_rows:
        pop[r] += 1.0
    ndcg, _ = ranking(np.tile(pop, (len(foldin), 1)), foldin, holdout)
    return float(ndcg[[len(h) > 0 for h in holdout]].mean())


def balanced_accuracy(pred, truth, n_classes: int = 2) -> float:
    return float(np.mean([(pred[truth == c] == c).mean() for c in range(n_classes)]))


def mae(pred, truth) -> float:
    return float(np.abs(np.asarray(pred, float) - truth).mean())


def close(a, b, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


# --- per workload -----------------------------------------------------------

def check_train(record_path: str, cache_path: str, truth: dict) -> tuple[list, dict]:
    """train-c4: ranking, attacker metrics and losses of one run_single."""
    z = np.load(record_path)
    p = {k[len("param."):]: z[k] for k in z.files if k.startswith("param.")}
    per_user = {k[len("per_user."):]: z[k] for k in z.files if k.startswith("per_user.")}
    meta = json.loads(z["meta"].tobytes())
    metrics = meta["metrics"]
    cache, cmeta = read_container(cache_path)
    rows = csr_rows(cache["indptr"], cache["indices"])
    n_items = cmeta["n_items"]
    foldin = csr_rows(z["test_foldin.indptr"], z["test_foldin.indices"])
    holdout = csr_rows(z["test_holdout.indptr"], z["test_holdout.indices"])
    test_users, train_users = z["test_users"], z["train_users"]
    fails = []

    for u, f, h in zip(test_users, foldin, holdout):
        if not np.array_equal(np.union1d(f, h), rows[u]) or np.intersect1d(f, h).size:
            fails.append(f"fold-in/holdout of user {u} is not a partition of its items")
            break
    ndcg, recall = ranking(item_scores(dense_rows(foldin, n_items), p), foldin, holdout)
    if not close(ndcg, per_user["ndcg"]) or not close(recall, per_user["recall"]):
        worst = float(np.abs(ndcg - per_user["ndcg"]).max())
        fails.append(f"per-user NDCG/recall differ from the reference forward (max |d| {worst:.3g})")
    evaluated = np.array([len(h) > 0 for h in holdout])
    if not np.array_equal(evaluated, per_user["evaluated"]):
        fails.append("evaluated mask differs from non-empty holdouts")
    mean_ndcg = float(ndcg[evaluated].mean())
    if not math.isclose(mean_ndcg, metrics["ndcg@10"], rel_tol=0, abs_tol=TOL):
        fails.append(f"reported ndcg@10 {metrics['ndcg@10']} != reference {mean_ndcg}")
    pop = popularity_ndcg([rows[u] for u in train_users], foldin, holdout, n_items)
    if not mean_ndcg > pop:
        fails.append(f"NDCG@10 {mean_ndcg:.4f} does not beat the popularity ranker ({pop:.4f})")

    gender, age = truth["gender"][test_users], truth["age_normalized"][test_users]
    bacc = balanced_accuracy(per_user["pred_gender"], gender)
    err = mae(per_user["pred_age"], age)
    if not math.isclose(bacc, metrics["bacc_gender"], abs_tol=TOL):
        fails.append(f"bacc_gender {metrics['bacc_gender']} != recomputed {bacc}")
    if not math.isclose(err, metrics["mae_age"], abs_tol=TOL):
        fails.append(f"mae_age {metrics['mae_age']} != recomputed {err}")
    if not np.array_equal(per_user["correct_gender"], per_user["pred_gender"] == gender):
        fails.append("correct_gender disagrees with predictions and planted truth")
    if not close(per_user["abs_err_age"], np.abs(per_user["pred_age"] - age)):
        fails.append("abs_err_age disagrees with predictions and planted truth")
    losses = [v for entry in meta["train_log"] + meta["attack_log"] for k, v in entry.items() if k != "epoch"]
    if not losses or not all(math.isfinite(v) for v in losses):
        fails.append("a logged loss is not finite")
    info = {"ndcg_at_10": mean_ndcg, "popularity_ndcg_at_10": pop,
            "attacker_bacc_gender": bacc, "attacker_mae_age": err}
    return fails, info


def check_score(run_dir: str, cache_path: str, fold, gen_truth: dict) -> tuple[list, dict]:
    """score-wide: eval scores, embeddings and attack metrics of a checkpoint."""
    from gen import truth_by_ids

    fails = []
    cache, cmeta = read_container(cache_path)
    rows = csr_rows(cache["indptr"], cache["indices"])
    n_items = cmeta["n_items"]
    p, _ = read_container(os.path.join(run_dir, "checkpoint.bin"))
    test_users = fold.split.test

    scores, _ = read_container(os.path.join(run_dir, "eval_scores.bin"))
    ndcg, recall = ranking(item_scores(dense_rows(fold.test_foldin, n_items), p), fold.test_foldin,
                           fold.test_holdout)
    if not np.array_equal(scores["test_users"], test_users):
        fails.append("eval_scores.bin test users differ from the fold")
    if not close(scores["ndcg"], ndcg) or not close(scores["recall"], recall):
        fails.append("eval_scores.bin NDCG/recall differ from the reference forward")

    with open(os.path.join(run_dir, "embeddings.tsv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        body = [line.rstrip("\n").split("\t") for line in fh]
    user_ids = [cmeta["user_ids"][u] for u in test_users]
    mu = latent_mean(dense_rows([rows[u] for u in test_users], n_items), p)
    z_cols = [i for i, name in enumerate(header) if name.startswith("z")]
    got = np.array([[float(r[i]) for i in z_cols] for r in body])
    if [r[0] for r in body] != user_ids:
        fails.append("embeddings.tsv user ids differ from the test users")
    elif got.shape != mu.shape or not close(got, mu):
        fails.append("embeddings.tsv mu differs from the reference forward")

    planted_gender, truth_age = truth_by_ids(gen_truth, user_ids)
    # the program numbers gender tokens in order of first appearance
    truth_gender = np.array([cmeta["gender_labels"].index(("F", "M")[g]) for g in planted_gender])
    attack, _ = read_container(os.path.join(run_dir, "attack_scores.bin"))
    row = read_csv(os.path.join(run_dir, "attack_metrics.csv"))[0]
    bacc = balanced_accuracy(attack["pred_gender"], truth_gender)
    err = mae(attack["pred_age"], truth_age)
    if not np.array_equal(attack["test_users"], test_users):
        fails.append("attack_scores.bin test users differ from the fold")
    if abs(float(row["bacc_gender"]) - 100 * bacc) > CSV_TOL or abs(float(row["mae_age"]) - 100 * err) > CSV_TOL:
        fails.append(f"attack_metrics.csv {row['bacc_gender']}/{row['mae_age']} != "
                     f"recomputed {100 * bacc:.6f}/{100 * err:.6f}")
    true_cols = [header.index("true_gender"), header.index("true_age")]
    if [int(r[true_cols[0]]) for r in body] != truth_gender.tolist() or not close(
            [float(r[true_cols[1]]) for r in body], truth_age):
        fails.append("embeddings.tsv truths differ from the generator's")
    evaluated = np.array([len(h) > 0 for h in fold.test_holdout])
    info = {"ndcg_at_10": float(ndcg[evaluated].mean()), "attacker_bacc_gender": bacc, "attacker_mae_age": err,
            "test_users": int(len(test_users))}
    return fails, info


def reference_k_core(truth: dict, k: int):
    """k-core by degree pruning over the generator's distinct pairs of users with demographics."""
    n_items = truth["n_items"]
    users, items = np.divmod(truth["pairs"], n_items)
    keep = ~truth["missing"][users]
    m = sp.csr_matrix((np.ones(int(keep.sum())), (users[keep], items[keep])),
                      shape=(truth["n_users"], n_items))
    user_alive = np.ones(m.shape[0], bool)
    item_alive = np.ones(m.shape[1], bool)
    while True:
        sub = m[user_alive][:, item_alive]
        ud = np.asarray(sub.sum(axis=1)).ravel()
        idg = np.asarray(sub.sum(axis=0)).ravel()
        if ud.min(initial=k) >= k and idg.min(initial=k) >= k:
            break
        user_alive[np.flatnonzero(user_alive)[ud < k]] = False
        item_alive[np.flatnonzero(item_alive)[idg < k]] = False
    users_kept = np.flatnonzero(user_alive)
    items_kept = np.flatnonzero(item_alive)
    sub = m[users_kept][:, items_kept].tocoo()
    codes = np.sort(users_kept[sub.row] * n_items + items_kept[sub.col])
    return users_kept, items_kept, codes


def check_ingest(cache_path: str, truth: dict, k: int) -> tuple[list, dict]:
    """ingest-50k: the cache read back by data.load_cache against a reference k-core."""
    from advrec.data import load_cache

    fails = []
    dataset, attrs, _ = load_cache(cache_path)
    users_kept, items_kept, codes = reference_k_core(truth, k)
    uid = np.array([int(u[1:]) for u in dataset.user_ids], dtype=np.int64)
    iid = np.array([int(i[1:]) for i in dataset.item_ids], dtype=np.int64)
    if not np.array_equal(np.sort(uid), users_kept) or not np.array_equal(np.sort(iid), items_kept):
        fails.append(f"kept {len(uid)} users/{len(iid)} items, reference {len(users_kept)}/{len(items_kept)}")
    else:
        got = np.sort(np.concatenate([uid[u] * truth["n_items"] + iid[r] for u, r in enumerate(dataset.rows)]))
        if not np.array_equal(got, codes):
            fails.append("cached interactions differ from the reference k-core")
    tokens = np.array(["F", "M"])[truth["gender"][uid]]
    if not np.array_equal(np.array(attrs.gender_labels)[attrs.gender], tokens):
        fails.append("cached genders differ from the generator's")
    if not np.array_equal(attrs.age_raw, truth["age"][uid]):
        fails.append("cached ages differ from the generator's")
    with open(cache_path + ".stats.json", encoding="utf-8") as fh:
        got_stats = json.load(fh)
    ages = truth["age"][users_kept]
    n_u, n_i = len(users_kept), len(items_kept)
    want = {
        "users": n_u, "items": n_i, "interactions": len(codes),
        "density": round(len(codes) / (n_u * n_i), 4),
        "age_mean": round(float(ages.mean()), 1), "age_std": round(float(ages.std()), 1),
        "age_median": round(float(np.median(ages)), 1),
    }
    for key, value in want.items():
        if got_stats.get(key) != value:
            fails.append(f"stats {key}={got_stats.get(key)}, reference {value}")
    counts = dict(zip(got_stats["gender_labels"], got_stats["gender_counts"]))
    for g, tok in enumerate(("F", "M")):
        if counts.get(tok) != int((truth["gender"][users_kept] == g).sum()):
            fails.append(f"stats gender count of {tok} differs from the reference")
    info = {"lines": truth["lines"], "distinct_pairs": int(len(truth["pairs"])),
            "users_without_demographics": int(truth["missing"].sum()),
            "kept_users": n_u, "kept_items": n_i, "kept_interactions": int(len(codes))}
    return fails, info


def combo_label(lambdas: dict) -> str:
    return "_".join(f"{name}{lam:g}" for name, lam in lambdas.items())


def check_grid(grid_dir: str, n_folds: int, n_units: int) -> tuple[list, dict]:
    """grid-1w: summary p-values against scipy.stats on the user_scores.bin files."""
    fails = []
    results = read_csv(os.path.join(grid_dir, "results.csv"))
    if len(results) != n_units:
        fails.append(f"results.csv has {len(results)} rows, expected {n_units}")

    def user_scores(lambdas: dict, field: str) -> np.ndarray:
        parts = []
        for f in range(n_folds):
            arrays, _ = read_container(os.path.join(grid_dir, combo_label(lambdas), f"fold{f}", "user_scores.bin"))
            parts.append(arrays[field])
        return np.concatenate(parts)

    def combo_mean(metric: str) -> dict:
        sums: dict[tuple, list] = {}
        for r in results:
            sums.setdefault((float(r["lambda_gender"]), float(r["lambda_age"])), []).append(float(r[metric]))
        return {key: float(np.mean(v)) for key, v in sums.items()}

    baseline = {"gender": 0.0, "age": 0.0}
    tested = 0
    for row in read_csv(os.path.join(grid_dir, "summary.csv")):
        attr = row["attribute"]
        best = {"gender": float(row["lambda_gender"]), "age": float(row["lambda_age"])}
        metric = "bacc_gender" if attr == "gender" else "mae_age"
        means = combo_mean(metric)
        chosen = means[(best["gender"], best["age"])]
        target = min(means.values()) if attr == "gender" else max(means.values())
        if abs(chosen - target) > CSV_TOL:
            fails.append(f"summary picked {best} for {attr}, not the {row['selection_rule']} combination")
        if best == baseline:
            continue
        tested += 1
        ev = user_scores(best, "evaluated") & user_scores(baseline, "evaluated")
        ndcg_best, ndcg_base = user_scores(best, "ndcg")[ev], user_scores(baseline, "ndcg")[ev]
        p_ndcg = stats.wilcoxon(ndcg_best, ndcg_base, zero_method="wilcox", correction=True,
                                method="approx").pvalue
        if attr == "gender":
            a, b = user_scores(best, "correct_gender"), user_scores(baseline, "correct_gender")
            only_a, only_b = int(np.sum(a & ~b)), int(np.sum(~a & b))
            p_attr = 1.0 if only_a + only_b == 0 else float(
                stats.chi2.sf((abs(only_a - only_b) - 1.0) ** 2 / (only_a + only_b), 1))
        else:
            p_attr = stats.ttest_rel(user_scores(best, "abs_err_age"), user_scores(baseline, "abs_err_age")).pvalue
        for name, want in (("p_ndcg_vs_baseline", p_ndcg), ("p_attr_vs_baseline", p_attr)):
            if abs(float(row[name]) - float(want)) > CSV_TOL:
                fails.append(f"{attr}: {name}={row[name]}, scipy gives {float(want):.6f}")
    return fails, {"summary_rows_tested": tested}
