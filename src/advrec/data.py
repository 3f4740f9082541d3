"""Ingestion and preprocessing of interaction logs and user demographics.

Tab-separated inputs, k-core filtering to a degree-constrained fixpoint,
age normalization, 5-fold user splits with per-user fold-in/holdout
partitions, and inverse-frequency class weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .container import load_container, save_container
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass
class InteractionDataset:
    """Binary user-item interactions with dense indices and id maps.

    Interactions are held as CSR: user ``u``'s items are
    ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending and distinct.
    Both arrays are int64, and the dataset cache stores them as they are.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    @classmethod
    def from_pairs(cls, users: np.ndarray, items: np.ndarray, user_ids: list[str], item_ids: list[str]):
        """Dataset from distinct (user index, item index) pairs in any order."""
        n_users, n_items = len(user_ids), len(item_ids)
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=n_users), out=indptr[1:])
        # one sort of user-major pair codes orders the users and each user's items
        codes = np.sort(np.asarray(users, dtype=np.int64) * n_items + items)
        return cls(n_users, n_items, indptr, codes % n_items, user_ids, item_ids)

    def row(self, u: int) -> np.ndarray:
        """Item indices of user ``u`` (a view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @property
    def rows(self) -> list[np.ndarray]:
        """Every user's item indices, as views; builds a list of ``n_users`` arrays."""
        return [self.indices[start:stop] for start, stop in zip(self.indptr[:-1], self.indptr[1:])]

    def pair_users(self) -> np.ndarray:
        """User index of each entry of ``indices``."""
        return np.repeat(np.arange(self.n_users, dtype=np.int64), np.diff(self.indptr))

    def interaction_count(self) -> int:
        return len(self.indices)

    def density(self) -> float:
        cells = self.n_users * self.n_items
        return self.interaction_count() / cells if cells else 0.0

    def batch_matrix(self, user_indices) -> np.ndarray:
        """Dense float64 {0,1} matrix for the given users."""
        return self.rows_matrix([self.row(u) for u in user_indices])

    def rows_matrix(self, rows: list[np.ndarray]) -> np.ndarray:
        """Dense float64 {0,1} matrix with one row per item-index array."""
        x = np.zeros((len(rows), self.n_items))
        for i, items in enumerate(rows):
            x[i, items] = 1.0
        return x


@dataclass
class UserAttributes:
    """Per-user protected attributes, aligned with dense user indices."""

    gender: np.ndarray
    gender_labels: list[str]
    age_raw: np.ndarray
    age_normalized: np.ndarray
    age_cap: float

    def subset(self, user_indices) -> "UserAttributes":
        idx = np.asarray(user_indices)
        return UserAttributes(
            gender=self.gender[idx],
            gender_labels=list(self.gender_labels),
            age_raw=self.age_raw[idx],
            age_normalized=self.age_normalized[idx],
            age_cap=self.age_cap,
        )

    def targets(self) -> dict[str, np.ndarray]:
        return {"gender": self.gender, "age": self.age_normalized}


@dataclass
class FoldSplit:
    index: int
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass
class FoldData:
    """A fold split plus the per-user fold-in/holdout item partitions."""

    split: FoldSplit
    val_foldin: list[np.ndarray] = field(default_factory=list)
    val_holdout: list[np.ndarray] = field(default_factory=list)
    test_foldin: list[np.ndarray] = field(default_factory=list)
    test_holdout: list[np.ndarray] = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.split.index


def normalize_age(raw_age: float, cap: float) -> float:
    """Scale a raw age into [0, 1] by the dataset's age cap."""
    if not 0.0 <= raw_age <= cap:
        raise DataError(f"age {raw_age} outside [0, {cap}]")
    return raw_age / cap


def _read_tsv(path: str, min_cols: int):
    """Yield (line_number, fields) for each data line; skips the header."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1 or not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < min_cols:
                raise DataError(f"{path}:{lineno}: expected at least {min_cols} columns, got {len(fields)}")
            yield lineno, fields


def load_interactions(path: str, demographics_path: str, age_cap: float = 60.0):
    """Read interaction and demographics TSVs into dataset and attributes.

    Users lacking gender or age are dropped; interactions of unknown users
    are dropped with a logged warning count; duplicate pairs collapse.
    """
    gender_of: dict[str, int] = {}
    age_of: dict[str, float] = {}
    age_norm_of: dict[str, float] = {}
    gender_labels: list[str] = []
    gender_index: dict[str, int] = {}
    for lineno, fields in _read_tsv(demographics_path, 3):
        user, gender_tok, age_tok = fields[0], fields[1].strip(), fields[2].strip()
        if not gender_tok or not age_tok:
            continue  # user lacks an attribute: excluded
        try:
            age = float(age_tok)
        except ValueError:
            raise DataError(f"{demographics_path}:{lineno}: age {age_tok!r} is not a number")
        try:
            age_norm = normalize_age(age, age_cap)
        except DataError as err:
            raise DataError(f"{demographics_path}:{lineno}: user {user}: {err}") from None
        if gender_tok not in gender_index:
            gender_index[gender_tok] = len(gender_labels)
            gender_labels.append(gender_tok)
        gender_of[user] = gender_index[gender_tok]
        age_of[user] = age
        age_norm_of[user] = age_norm

    items_of: dict[str, set[str]] = {}
    unknown_user_rows = 0
    for lineno, fields in _read_tsv(path, 2):
        user, item = fields[0], fields[1]
        if not user or not item:
            raise DataError(f"{path}:{lineno}: empty user or item id")
        if user not in gender_of:
            unknown_user_rows += 1
            continue
        items_of.setdefault(user, set()).add(item)
    if unknown_user_rows:
        log.warning("dropped %d interaction rows for users without demographics", unknown_user_rows)

    users = sorted(items_of)
    item_ids = sorted({item for items in items_of.values() for item in items})
    item_index = {item: i for i, item in enumerate(item_ids)}
    degrees = np.fromiter((len(items_of[u]) for u in users), dtype=np.int64, count=len(users))
    items = np.fromiter(
        (item_index[i] for u in users for i in items_of[u]), dtype=np.int64, count=int(degrees.sum())
    )
    del items_of, item_index  # the per-user sets outweigh the arrays built from them
    pair_users = np.repeat(np.arange(len(users), dtype=np.int64), degrees)
    dataset = InteractionDataset.from_pairs(pair_users, items, users, item_ids)
    attrs = UserAttributes(
        gender=np.array([gender_of[u] for u in users], dtype=np.int64),
        gender_labels=gender_labels,
        age_raw=np.array([age_of[u] for u in users]),
        age_normalized=np.array([age_norm_of[u] for u in users]),
        age_cap=age_cap,
    )
    return dataset, attrs


def _reindex(dataset: InteractionDataset, user_alive: np.ndarray, item_alive: np.ndarray):
    """The dataset cut to the alive users and items, with their indices into it."""
    pair_users = dataset.pair_users()
    kept = user_alive[pair_users] & item_alive[dataset.indices]
    keep_users, keep_items = np.flatnonzero(user_alive), np.flatnonzero(item_alive)
    reindexed = InteractionDataset.from_pairs(
        (np.cumsum(user_alive) - 1)[pair_users[kept]],
        (np.cumsum(item_alive) - 1)[dataset.indices[kept]],
        [dataset.user_ids[u] for u in keep_users],
        [dataset.item_ids[i] for i in keep_items],
    )
    return reindexed, keep_users, keep_items


def k_core_filter(dataset: InteractionDataset, k: int):
    """Largest sub-matrix where every user and item has at least k interactions.

    Returns the filtered dataset plus the kept user and item indices (into
    the input dataset) so aligned arrays can be subset in sync. An empty
    fixpoint yields an empty dataset, not an error.
    """
    if k < 1:
        raise ConfigError(f"k-core threshold must be >= 1, got {k}")
    pair_users = dataset.pair_users()
    user_alive = np.ones(dataset.n_users, dtype=bool)
    item_alive = np.ones(dataset.n_items, dtype=bool)
    while True:
        live = user_alive[pair_users] & item_alive[dataset.indices]
        new_user_alive = user_alive & (np.bincount(pair_users[live], minlength=dataset.n_users) >= k)
        new_item_alive = item_alive & (np.bincount(dataset.indices[live], minlength=dataset.n_items) >= k)
        if np.array_equal(new_user_alive, user_alive) and np.array_equal(new_item_alive, item_alive):
            return _reindex(dataset, user_alive, item_alive)
        user_alive, item_alive = new_user_alive, new_item_alive


def item_subsample(dataset: InteractionDataset, n_target: int, seed: int):
    """Uniform random subset of items (users with no remaining items drop)."""
    if n_target >= dataset.n_items:
        return dataset, np.arange(dataset.n_users), np.arange(dataset.n_items)
    rng = np.random.default_rng(seed)
    item_alive = np.zeros(dataset.n_items, dtype=bool)
    item_alive[rng.choice(dataset.n_items, size=n_target, replace=False)] = True
    user_alive = np.bincount(dataset.pair_users()[item_alive[dataset.indices]], minlength=dataset.n_users) > 0
    return _reindex(dataset, user_alive, item_alive)


def make_folds(user_count: int, seed: int, n_folds: int = 5) -> list[FoldSplit]:
    """Independent random splits per fold: 20% test, then 20% of the rest validation."""
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    if user_count < n_folds:
        raise ConfigError(f"need at least {n_folds} users, got {user_count}")
    folds = []
    for fold in range(n_folds):
        rng = np.random.default_rng([seed, fold])
        perm = rng.permutation(user_count)
        n_test = round(0.2 * user_count)
        n_val = round(0.2 * (user_count - n_test))
        folds.append(
            FoldSplit(
                index=fold,
                test=np.sort(perm[:n_test]),
                validation=np.sort(perm[n_test : n_test + n_val]),
                train=np.sort(perm[n_test + n_val :]),
            )
        )
    return folds


def holdout_split(user_row: np.ndarray, ratio: float, rng: np.random.Generator):
    """Partition one user's items into fold-in and holdout parts."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"holdout ratio must be in (0, 1), got {ratio}")
    n = len(user_row)
    n_foldin = round((1.0 - ratio) * n)
    perm = rng.permutation(n)
    return np.sort(user_row[perm[:n_foldin]]), np.sort(user_row[perm[n_foldin:]])


def prepare_fold(dataset: InteractionDataset, split: FoldSplit, ratio: float, data_seed: int) -> FoldData:
    fold = FoldData(split=split)
    rng = np.random.default_rng([data_seed, split.index, 2])
    for u in split.validation:
        fi, ho = holdout_split(dataset.row(u), ratio, rng)
        fold.val_foldin.append(fi)
        fold.val_holdout.append(ho)
    for u in split.test:
        fi, ho = holdout_split(dataset.row(u), ratio, rng)
        fold.test_foldin.append(fi)
        fold.test_holdout.append(ho)
    return fold


def class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (C * N_c)."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ConfigError(f"class {missing} has no samples; cannot weight it")
    return len(labels) / (n_classes * counts)


def dataset_stats(dataset: InteractionDataset, attrs: UserAttributes) -> dict:
    """Summary in the shape of the reference dataset description table."""
    counts = np.bincount(attrs.gender, minlength=len(attrs.gender_labels)) if dataset.n_users else []
    return {
        "users": dataset.n_users,
        "items": dataset.n_items,
        "interactions": dataset.interaction_count(),
        "density": round(dataset.density(), 4),
        "gender_labels": list(attrs.gender_labels),
        "gender_counts": [int(c) for c in counts],
        "age_mean": round(float(attrs.age_raw.mean()), 1) if dataset.n_users else None,
        "age_std": round(float(attrs.age_raw.std()), 1) if dataset.n_users else None,
        "age_median": round(float(np.median(attrs.age_raw)), 1) if dataset.n_users else None,
    }


CACHE_KIND = "dataset-cache"
CACHE_VERSION = 1


def save_cache(path: str, dataset: InteractionDataset, attrs: UserAttributes, extra_meta: dict | None = None) -> None:
    arrays = {
        "indptr": dataset.indptr,
        "indices": dataset.indices,
        "gender": attrs.gender,
        "age_raw": attrs.age_raw,
        "age_normalized": attrs.age_normalized,
    }
    meta = {
        "kind": CACHE_KIND,
        "cache_version": CACHE_VERSION,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "user_ids": dataset.user_ids,
        "item_ids": dataset.item_ids,
        "gender_labels": attrs.gender_labels,
        "age_cap": attrs.age_cap,
    }
    if extra_meta:
        meta["extra"] = extra_meta
    save_container(path, arrays, meta)


def _check_cache(path: str, arrays: dict, meta: dict) -> None:
    """Raise DataError unless the cache's arrays form a consistent dataset."""
    missing = sorted({"indptr", "indices", "gender", "age_raw", "age_normalized"} - set(arrays))
    if missing:
        raise DataError(f"{path}: cache lacks arrays {missing}")
    n_users, n_items = meta["n_users"], meta["n_items"]
    indptr, indices = arrays["indptr"], arrays["indices"]
    if indptr.dtype != np.int64 or indices.dtype != np.int64 or indptr.ndim != 1 or indices.ndim != 1:
        raise DataError(f"{path}: indptr and indices must be 1-d int64 arrays")
    if n_users < 0 or len(indptr) != n_users + 1:
        raise DataError(f"{path}: indptr has {len(indptr)} entries for {n_users} users")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise DataError(f"{path}: indptr must start at 0, never decrease and end at {len(indices)}")
    if indices.size and (indices.min() < 0 or indices.max() >= n_items):
        raise DataError(f"{path}: item indices must lie in [0, {n_items})")
    for name in ("gender", "age_raw", "age_normalized"):
        if arrays[name].shape != (n_users,):
            raise DataError(f"{path}: {name} has shape {arrays[name].shape}, expected ({n_users},)")
    if len(meta["user_ids"]) != n_users or len(meta["item_ids"]) != n_items:
        raise DataError(f"{path}: id lists do not match {n_users} users and {n_items} items")


def load_cache(path: str):
    arrays, meta = load_container(path)
    if meta.get("kind") != CACHE_KIND:
        raise DataError(f"{path}: not a dataset cache")
    _check_cache(path, arrays, meta)
    dataset = InteractionDataset(
        n_users=meta["n_users"],
        n_items=meta["n_items"],
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        user_ids=list(meta["user_ids"]),
        item_ids=list(meta["item_ids"]),
    )
    attrs = UserAttributes(
        gender=arrays["gender"],
        gender_labels=list(meta["gender_labels"]),
        age_raw=arrays["age_raw"],
        age_normalized=arrays["age_normalized"],
        age_cap=meta["age_cap"],
    )
    return dataset, attrs, meta.get("extra", {})
