"""Seeded input generators for the benchmark workloads.

``stream_catalog`` writes interaction and demographics TSVs chunk by chunk
of users, so its memory does not grow with users x items (the program's
``synthetic.planted_dataset`` holds a dense users x items affinity matrix,
about 4 GB at 50k x 10k). It records the ground truth the checks need:
the distinct pairs, the users left without demographics, the line count of
every user and the planted attributes.

``planted_cache`` writes the criterion-4 planted catalog straight into a
dataset cache, keeping the planted user order so that the generator's
truth lines up with the program's user indices.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

AGE_CAP = 60.0
SIGMA = 1.1  # log-normal spread of the line counts
N_CLUSTERS = 16  # taste clusters
MARKER_SHARE = 0.04  # share of items in each gender's marker set
AGE_SHARE = 0.2  # share of lines drawn from the age band
DUPLICATE_RATE = 0.02  # share of lines written three times
MISSING_DEMOGRAPHICS = 0.03  # share of users without usable demographics


def _degrees(n_users: int, mean_degree: float, max_degree: int, rng) -> np.ndarray:
    """Long-tailed (log-normal) line counts with a fixed multiset.

    The counts are the log-normal quantiles at (k + 0.5) / n, scaled to the
    requested mean, so every seed draws the same number of lines; the seed
    only decides which user gets which count.
    """
    q = ndtri((np.arange(n_users) + 0.5) / n_users)
    raw = np.exp(SIGMA * q)
    raw *= mean_degree / raw.mean()
    degrees = np.clip(np.rint(raw), 1, max_degree).astype(np.int64)
    return degrees[rng.permutation(n_users)]


def stream_catalog(
    interactions_path: str,
    demographics_path: str,
    n_users: int,
    n_items: int,
    mean_degree: float,
    seed: int,
    chunk_users: int = 5000,
) -> dict:
    """Write ``user_id\\titem_id`` and ``user_id\\tgender\\tage`` TSVs.

    Each line draws its item from a Zipf-shaped popularity tilted by the
    user's taste cluster and gender (two disjoint marker sets), or, with
    probability ``AGE_SHARE``, from a band of items ordered by the age they
    appeal to. Sampling is with replacement, and ``DUPLICATE_RATE`` of the
    lines are written twice more, so the file holds duplicate pairs.
    Users with no demographics line, or with a blank gender or age, are the
    ``MISSING_DEMOGRAPHICS`` share. Returns the ground truth as arrays.
    """
    rng = np.random.default_rng([seed, 11])
    degrees = _degrees(n_users, mean_degree, n_items, rng)
    gender = rng.integers(0, 2, n_users)
    age = rng.integers(15, 61, n_users).astype(np.float64)
    cluster = rng.integers(0, N_CLUSTERS, n_users)
    missing = rng.random(n_users) < MISSING_DEMOGRAPHICS

    popularity = 1.0 / (rng.permutation(n_items) + 5.0)
    n_marker = max(2, int(MARKER_SHARE * n_items))
    markers = rng.permutation(n_items)[: 2 * n_marker].reshape(2, n_marker)
    taste = np.exp(rng.standard_normal((N_CLUSTERS, n_items)))
    cdfs = np.empty((N_CLUSTERS, 2, n_items))
    for g in (0, 1):
        weights = popularity[None, :] * taste
        weights[:, markers[g]] *= 4.0
        weights[:, markers[1 - g]] *= 0.25
        cdf = np.cumsum(weights, axis=1)
        cdfs[:, g] = cdf / cdf[:, -1:]
    band = rng.permutation(n_items)[: max(2, int(0.1 * n_items))]

    pair_codes = []
    lines_written = 0
    with open(interactions_path, "w", encoding="utf-8") as fh:
        fh.write("user_id\titem_id\n")
        for lo in range(0, n_users, chunk_users):
            users = np.arange(lo, min(n_users, lo + chunk_users))
            line_user = np.repeat(users, degrees[users])
            items = np.empty(len(line_user), dtype=np.int64)
            from_band = rng.random(len(line_user)) < AGE_SHARE
            u_taste = line_user[~from_band]
            draws = rng.random(len(u_taste))
            group = cluster[u_taste] * 2 + gender[u_taste]
            taste_items = np.empty(len(u_taste), dtype=np.int64)
            for key in np.unique(group):
                sel = group == key
                taste_items[sel] = np.searchsorted(cdfs[key // 2, key % 2], draws[sel], side="right")
            items[~from_band] = np.minimum(taste_items, n_items - 1)
            u_band = line_user[from_band]
            pos = np.clip((age[u_band] - 15.0) / 45.0 + 0.08 * rng.standard_normal(len(u_band)), 0.0, 1.0)
            items[from_band] = band[np.rint(pos * (len(band) - 1)).astype(np.int64)]
            repeat = np.where(rng.random(len(line_user)) < DUPLICATE_RATE, 3, 1)
            out_user = np.repeat(line_user, repeat)
            out_item = np.repeat(items, repeat)
            fh.write("".join(map("u{}\ti{}\n".format, out_user.tolist(), out_item.tolist())))
            lines_written += len(out_user)
            pair_codes.append(np.unique(line_user * n_items + items))

    blank = rng.integers(0, 3, n_users)  # 0: no line, 1: blank gender, 2: blank age
    with open(demographics_path, "w", encoding="utf-8") as fh:
        fh.write("user_id\tgender\tage\n")
        rows = []
        for u in range(n_users):
            g_tok, a_tok = ("F", "M")[gender[u]], f"{int(age[u])}"
            if missing[u]:
                if blank[u] == 0:
                    continue
                if blank[u] == 1:
                    g_tok = ""
                else:
                    a_tok = ""
            rows.append(f"u{u}\t{g_tok}\t{a_tok}\n")
        fh.write("".join(rows))

    return {
        "n_users": n_users,
        "n_items": n_items,
        "lines": lines_written,
        "pairs": np.concatenate(pair_codes),
        "missing": missing,
        "degrees": degrees,
        "gender": gender,
        "age": age,
    }


def truth_by_ids(truth: dict, user_ids) -> tuple[np.ndarray, np.ndarray]:
    """Planted gender and normalized age for program user ids ``u<index>``."""
    idx = np.array([int(u[1:]) for u in user_ids], dtype=np.int64)
    return truth["gender"][idx], truth["age"][idx] / AGE_CAP


def planted_cache(path: str, seed: int, n_users: int = 2000, n_items: int = 500) -> dict:
    """Criterion-4 planted catalog written as a dataset cache; returns its truth."""
    from advrec.data import save_cache
    from advrec.synthetic import planted_dataset

    dataset, attrs = planted_dataset(
        n_users, n_items, seed=seed, marker_fraction=0.04, binary_weight=1.2, continuous_weight=1.2
    )
    save_cache(path, dataset, attrs)
    return {"gender": attrs.gender.copy(), "age_normalized": attrs.age_normalized.copy()}
