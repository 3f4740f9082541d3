"""Ingestion and preprocessing of interaction logs and user demographics.

Tab-separated inputs, k-core filtering to a degree-constrained fixpoint,
age normalization, 5-fold user splits with per-user fold-in/holdout
partitions, and inverse-frequency class weights.

``load_interactions`` orders user and item ids as strings (by code point),
collapses repeated (user, item) pairs and rejects a user whose
demographics lines disagree. Its gender labels are those the kept users
hold, in the order the demographics file first gives them. It maps each
line's ids to int codes as it reads, so its memory grows by about 16 bytes
per interaction line plus the two id maps; building the sorted pairs after
the read peaks near 35 bytes per line.

Every dataset is built by ``InteractionDataset.from_codes`` from strictly
increasing user-major pair codes ``u * n_items + i``. The loader, the k-core
and the planted generator each hand it codes in that order, so it sorts
nothing. ``row_codes`` reads a batch of item rows into codes of the same
form, ``row * n_items + item``, for the model's input and for ranking.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .container import load_container, save_container
from .errors import ConfigError, ContractError, DataError

log = logging.getLogger(__name__)


@dataclass
class InteractionDataset:
    """Binary user-item interactions with dense indices and id maps.

    Interactions are held as CSR: user ``u``'s items are
    ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending and distinct.
    Both arrays are int64, and the dataset cache stores them as they are.
    ``from_codes`` takes the pairs as strictly increasing codes
    ``u * n_items + i`` and raises ``ContractError`` for codes that are out
    of order, repeated or out of range; a cache whose rows break the order
    is a ``DataError``.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    @classmethod
    def from_codes(cls, codes: np.ndarray, user_ids: list[str], item_ids: list[str]):
        """Dataset from strictly increasing user-major pair codes ``u * n_items + i``."""
        n_users, n_items = len(user_ids), len(item_ids)
        if np.any(codes[1:] <= codes[:-1]) or (len(codes) and (codes[0] < 0 or codes[-1] >= n_users * n_items)):
            raise ContractError(f"pair codes must be strictly increasing and lie in [0, {n_users * n_items})")
        indptr = np.searchsorted(codes, np.arange(n_users + 1, dtype=np.int64) * n_items)
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
        """Dense float64 {0,1} matrix for the given users. Nothing in the
        package calls it: the model reads item rows (``multvae.row_matrix``).
        It stays because perfbench's tracer wraps it by name."""
        x = np.zeros((len(user_indices), self.n_items))
        x.reshape(-1)[row_codes([self.row(u) for u in user_indices], self.n_items)[2]] = 1.0
        return x


def row_codes(rows, n_items: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Item-index ``rows`` read as int64: each row's length, each item's row
    and each item's code ``row * n_items + item``, in row order. A row of a
    non-integer dtype raises ``ContractError`` naming it; ``multvae.row_matrix``
    checks the indices against ``n_items``."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    try:
        items = np.concatenate(rows, dtype=np.int64, casting="same_kind") if len(rows) else np.zeros(0, np.int64)
    except TypeError:
        for r, row in enumerate(rows):
            dtype = np.asarray(row).dtype
            if not np.can_cast(dtype, np.int64, "same_kind"):
                raise ContractError(f"row {r} has items of dtype {dtype}, not integer indices") from None
        raise
    row_of = np.repeat(np.arange(len(rows)), lengths)
    return lengths, row_of, row_of * n_items + items


@dataclass
class UserAttributes:
    """Per-user protected attributes, aligned with dense user indices."""

    gender: np.ndarray
    gender_labels: list[str]
    age_raw: np.ndarray
    age_normalized: np.ndarray
    age_cap: float

    def subset(self, user_indices) -> "UserAttributes":
        """The given users' attributes; only the gender labels they hold stay, renumbered in order."""
        idx = np.asarray(user_indices)
        gender, gender_labels = _held_labels(self.gender[idx], self.gender_labels)
        return UserAttributes(
            gender=gender,
            gender_labels=gender_labels,
            age_raw=self.age_raw[idx],
            age_normalized=self.age_normalized[idx],
            age_cap=self.age_cap,
        )

    def targets(self) -> dict[str, np.ndarray]:
        return {"gender": self.gender, "age": self.age_normalized}


def _held_labels(gender: np.ndarray, labels: list[str]) -> tuple[np.ndarray, list[str]]:
    """Gender codes renumbered over the labels that occur in them, and those labels in their order."""
    held, codes = np.unique(gender, return_inverse=True)
    return codes, [labels[c] for c in held]


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
    """Yield (line_number, fields) for each data line; skips the header.

    Only the first ``min_cols`` tab-separated fields are split apart; any
    further columns stay joined in one last field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            next(fh, None)
            for lineno, line in enumerate(fh, start=2):
                if line.isspace():
                    continue
                fields = line.rstrip("\n").split("\t", min_cols)
                if len(fields) < min_cols:
                    raise DataError(f"{path}:{lineno}: expected at least {min_cols} columns, got {len(fields)}")
                yield lineno, fields
    except (OSError, UnicodeDecodeError) as err:  # the consumer's own errors do not reach this generator
        raise DataError(f"cannot read input file {path!r}: {err}") from None


def _ranked(code_of: dict[str, int], ids) -> tuple[list[str], np.ndarray]:
    """``ids`` in string order, and the rank in that order of each of their codes."""
    ids = sorted(ids)
    rank = np.empty(len(code_of), dtype=np.int64)  # codes of ids left out are never read
    rank[np.fromiter(map(code_of.__getitem__, ids), dtype=np.int64, count=len(ids))] = np.arange(len(ids))
    return ids, rank


def load_interactions(path: str, demographics_path: str, age_cap: float = 60.0):
    """Read interaction and demographics TSVs into dataset, attributes and ingest counts.

    Users lacking gender or age are dropped; a user listed twice with
    different values is a ``DataError``. Interaction lines of users without
    usable demographics are counted and dropped; repeated pairs collapse.
    Only the gender labels that kept users hold are listed.
    The counts are the data ``lines`` read, the ``lines_without_demographics``
    dropped and the ``distinct_pairs`` kept.
    """
    demographics: dict[str, tuple[int, float, int]] = {}  # user -> (gender code, age, line number)
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
            normalize_age(age, age_cap)  # the range check; the attributes divide by the cap below
        except DataError as err:
            raise DataError(f"{demographics_path}:{lineno}: user {user}: {err}") from None
        gender = gender_index.setdefault(gender_tok, len(gender_index))
        first = demographics.setdefault(user, (gender, age, lineno))
        if first[:2] != (gender, age):
            raise DataError(
                f"{demographics_path}:{lineno}: user {user} has gender {gender_tok!r} and age {age:g}, "
                f"but line {first[2]} gave gender {list(gender_index)[first[0]]!r} and age {first[1]:g}"
            )

    # each line's ids become int codes at once; codes are ranked by id after the loop
    user_code = {user: code for code, user in enumerate(demographics)}
    item_code: dict[str, int] = {}
    line_users, line_items = array("q"), array("q")
    unknown_user_lines = 0
    for lineno, fields in _read_tsv(path, 2):
        user, item = fields[0], fields[1]
        if not user or not item:
            raise DataError(f"{path}:{lineno}: empty user or item id")
        code = user_code.get(user)
        if code is None:
            unknown_user_lines += 1
            continue
        line_users.append(code)
        line_items.append(item_code.setdefault(item, len(item_code)))
    lines = len(line_users) + unknown_user_lines
    if unknown_user_lines:
        log.warning("dropped %d interaction rows for users without demographics", unknown_user_lines)

    users = np.frombuffer(line_users, dtype=np.int64)
    user_ids, user_rank = _ranked(user_code, compress(user_code, np.bincount(users, minlength=len(user_code))))
    item_ids, item_rank = _ranked(item_code, item_code)
    del user_code, item_code
    codes = user_rank[users]
    del users, line_users
    codes *= len(item_ids)
    codes += item_rank[np.frombuffer(line_items, dtype=np.int64)]
    del line_items
    codes.sort()
    distinct = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
    codes = codes[distinct]
    del distinct
    dataset = InteractionDataset.from_codes(codes, user_ids, item_ids)
    gender, gender_labels = _held_labels(
        np.array([demographics[u][0] for u in user_ids], dtype=np.int64), list(gender_index)
    )
    age_raw = np.array([demographics[u][1] for u in user_ids])
    attrs = UserAttributes(
        gender=gender,
        gender_labels=gender_labels,
        age_raw=age_raw,
        age_normalized=age_raw / age_cap,
        age_cap=age_cap,
    )
    counts = {
        "lines": lines,
        "lines_without_demographics": unknown_user_lines,
        "distinct_pairs": dataset.interaction_count(),
    }
    return dataset, attrs, counts


def _reindex(dataset: InteractionDataset, pair_users: np.ndarray, user_alive: np.ndarray, item_alive: np.ndarray):
    """The dataset cut to the alive users and items, with their indices into it; the kept codes stay sorted."""
    kept = user_alive[pair_users] & item_alive[dataset.indices]
    keep_users, keep_items = np.flatnonzero(user_alive), np.flatnonzero(item_alive)
    codes = (np.cumsum(user_alive) - 1)[pair_users[kept]]
    codes *= len(keep_items)
    codes += (np.cumsum(item_alive) - 1)[dataset.indices[kept]]
    reindexed = InteractionDataset.from_codes(
        codes, [dataset.user_ids[u] for u in keep_users], [dataset.item_ids[i] for i in keep_items]
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
            return _reindex(dataset, pair_users, user_alive, item_alive)
        user_alive, item_alive = new_user_alive, new_item_alive


SUBSAMPLE_SEED = 0  # the seed with which preprocess subsamples items


def item_subsample(dataset: InteractionDataset, n_target: int, seed: int):
    """Uniform random subset of items (users with no remaining items drop)."""
    if n_target >= dataset.n_items:
        return dataset, np.arange(dataset.n_users), np.arange(dataset.n_items)
    rng = np.random.default_rng(seed)
    item_alive = np.zeros(dataset.n_items, dtype=bool)
    item_alive[rng.choice(dataset.n_items, size=n_target, replace=False)] = True
    pair_users = dataset.pair_users()
    user_alive = np.bincount(pair_users[item_alive[dataset.indices]], minlength=dataset.n_users) > 0
    return _reindex(dataset, pair_users, user_alive, item_alive)


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


HOLDOUT_RATIO = 0.2  # share of each validation or test user's items held out for ranking


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
    """Raise DataError unless the cache's header fields have their types and
    its arrays form a consistent dataset."""
    # exact types, because JSON's true would pass for a number
    fits = {key: type(meta.get(key)) is int and meta[key] >= 0 for key in ("n_users", "n_items")}
    fits["age_cap"] = type(meta.get("age_cap")) in (int, float) and 0.0 < meta["age_cap"] < np.inf
    fits.update({key: isinstance(meta.get(key), list) and all(isinstance(v, str) for v in meta[key])
                 for key in ("gender_labels", "user_ids", "item_ids")})
    bad = [key for key, ok in fits.items() if not ok]
    if bad:
        raise DataError(f"{path}: cache header fields {bad} are missing or malformed")
    missing = sorted({"indptr", "indices", "gender", "age_raw", "age_normalized"} - set(arrays))
    if missing:
        raise DataError(f"{path}: cache lacks arrays {missing}")
    n_users, n_items = meta["n_users"], meta["n_items"]
    indptr, indices = arrays["indptr"], arrays["indices"]
    if indptr.dtype != np.int64 or indices.dtype != np.int64 or indptr.ndim != 1 or indices.ndim != 1:
        raise DataError(f"{path}: indptr and indices must be 1-d int64 arrays")
    if len(indptr) != n_users + 1:
        raise DataError(f"{path}: indptr has {len(indptr)} entries for {n_users} users")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise DataError(f"{path}: indptr must start at 0, never decrease and end at {len(indices)}")
    if indices.size and (indices.min() < 0 or indices.max() >= n_items):
        raise DataError(f"{path}: item indices must lie in [0, {n_items})")
    codes = np.repeat(np.arange(n_users, dtype=np.int64) * n_items, np.diff(indptr))
    codes += indices
    if np.any(codes[1:] <= codes[:-1]):
        raise DataError(f"{path}: each user's item indices must be strictly increasing")
    for name in ("gender", "age_raw", "age_normalized"):
        if arrays[name].shape != (n_users,):
            raise DataError(f"{path}: {name} has shape {arrays[name].shape}, expected ({n_users},)")
    gender, n_labels = arrays["gender"], len(meta["gender_labels"])
    if gender.dtype != np.int64 or np.any((gender < 0) | (gender >= n_labels)):
        raise DataError(f"{path}: gender codes must be int64 in [0, {n_labels}), one per stored label")
    for name, cap in (("age_raw", meta["age_cap"]), ("age_normalized", 1.0)):
        age = arrays[name]
        if age.dtype != np.float64 or not np.all(np.isfinite(age) & (age >= 0.0) & (age <= cap)):
            raise DataError(f"{path}: {name} must hold finite float64 values in [0, {cap}]")
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
