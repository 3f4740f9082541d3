import json
import os
import random
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from advrec import data as dp
from advrec.container import MAGIC, atomic_open, load_container, save_container
from advrec.errors import ConfigError, ContractError, DataError

# the dict-of-sets loader peaked at about 150 bytes per line on this file, the int-code loader at about 43,
# and at about 35 once it handed its sorted pair codes to the dataset without splitting them
MAX_LOAD_BYTES_PER_LINE = 64
# k_core_filter on planted_dataset(4000, 500, seed=0), 160k pairs: the k-core that decoded its kept pairs and
# sorted them again peaked at 50.7 bytes per pair, the one that keeps their order at 34.3
MAX_K_CORE_BYTES_PER_PAIR = 40


def write_tsvs(tmp_path, interactions, demographics):
    ipath = tmp_path / "interactions.tsv"
    dpath = tmp_path / "demographics.tsv"
    ipath.write_text("user_id\titem_id\n" + "".join(f"{u}\t{i}\n" for u, i in interactions))
    dpath.write_text(
        "user_id\tgender\tage\n" + "".join(f"{u}\t{g}\t{a}\n" for u, g, a in demographics)
    )
    return str(ipath), str(dpath)


def brute_force_k_core(pairs, k):
    """Reference oracle: repeatedly prune users/items below degree k."""
    pairs = set(pairs)
    while True:
        users = {}
        items = {}
        for u, i in pairs:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        pruned = {
            (u, i) for u, i in pairs if users[u] >= k and items[i] >= k
        }
        if pruned == pairs:
            return pairs
        pairs = pruned


def dataset_pairs(dataset):
    return {
        (dataset.user_ids[u], dataset.item_ids[i])
        for u, row in enumerate(dataset.rows)
        for i in row
    }


def test_load_interactions_basic(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u1", "b"), ("u1", "a"), ("u2", "b"), ("u3", "c")],
        demographics=[("u1", "m", 30), ("u2", "f", 45), ("u4", "m", 20)],
    )
    dataset, attrs, _ = dp.load_interactions(ipath, dpath, age_cap=60)
    # u3 has no demographics; u4 has no interactions; the duplicate collapses
    assert dataset.n_users == 2
    assert dataset.user_ids == ["u1", "u2"]
    assert dataset.interaction_count() == 3
    assert attrs.gender_labels == ["m", "f"]
    assert list(attrs.gender) == [0, 1]
    assert np.allclose(attrs.age_normalized, [0.5, 0.75])


def test_load_interactions_drops_users_missing_attributes(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u2", "a")],
        demographics=[("u1", "m", 30), ("u2", "", 45)],
    )
    dataset, _, _ = dp.load_interactions(ipath, dpath)
    assert dataset.user_ids == ["u1"]


def test_load_interactions_malformed_row_names_line(tmp_path):
    ipath = tmp_path / "interactions.tsv"
    ipath.write_text("user_id\titem_id\nu1\ta\nonly_one_field\n")
    dpath = tmp_path / "demographics.tsv"
    dpath.write_text("user_id\tgender\tage\nu1\tm\t30\n")
    with pytest.raises(DataError) as err:
        dp.load_interactions(str(ipath), str(dpath))
    assert ":3:" in str(err.value)


def test_load_interactions_empty_file(tmp_path):
    ipath, dpath = write_tsvs(tmp_path, interactions=[], demographics=[("u1", "m", 30)])
    dataset, attrs, _ = dp.load_interactions(ipath, dpath)
    assert dataset.n_users == 0 and dataset.n_items == 0
    assert dataset.interaction_count() == 0


def test_load_interactions_rejects_out_of_range_age(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path, interactions=[("u1", "a")], demographics=[("u1", "m", 75)]
    )
    with pytest.raises(DataError) as err:
        dp.load_interactions(ipath, dpath, age_cap=60)
    assert "u1" in str(err.value)


@pytest.mark.parametrize("again", [("u1", "f", 30), ("u1", "m", 50), ("u1", "f", 50)], ids=["gender", "age", "both"])
def test_conflicting_demographics_name_the_user_and_both_lines(tmp_path, again):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u2", "a")],
        demographics=[("u1", "m", 30), ("u2", "f", 40), again],
    )
    with pytest.raises(DataError) as err:
        dp.load_interactions(ipath, dpath)
    message = str(err.value)
    assert "demographics.tsv:4:" in message and "u1" in message and "line 2" in message


def test_identical_repeated_demographics_are_accepted(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u2", "a")],
        demographics=[("u1", "m", 30), ("u2", "f", 40), ("u1", "m", "30.0"), ("u2", "", 40)],
    )
    dataset, attrs, _ = dp.load_interactions(ipath, dpath)
    assert dataset.user_ids == ["u1", "u2"]
    assert attrs.gender_labels == ["m", "f"] and attrs.gender.tolist() == [0, 1]
    assert attrs.age_raw.tolist() == [30.0, 40.0]


def reference_load(path, demographics_path, age_cap):
    """The dict-of-sets loader that the int-code loader replaced, kept as its reference.

    Its gender labels are those its users hold, in the order the demographics file first gives them.
    """

    def read(tsv):
        with open(tsv, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if lineno > 1 and line.strip():
                    yield line.split("\t")

    gender_of, age_of, labels = {}, {}, []
    for fields in read(demographics_path):
        gender, age = fields[1].strip(), fields[2].strip()
        if gender and age:
            if gender not in labels:
                labels.append(gender)
            gender_of[fields[0]], age_of[fields[0]] = labels.index(gender), float(age)
    items_of, lines, unknown = {}, 0, 0
    for fields in read(path):
        lines += 1
        if fields[0] not in gender_of:
            unknown += 1
            continue
        items_of.setdefault(fields[0], set()).add(fields[1])
    users = sorted(items_of)
    held = sorted({gender_of[u] for u in users})
    item_ids = sorted({item for items in items_of.values() for item in items})
    item_index = {item: i for i, item in enumerate(item_ids)}
    indptr, indices = [0], []
    for u in users:
        indices += sorted(item_index[item] for item in items_of[u])
        indptr.append(len(indices))
    return {
        "user_ids": users, "item_ids": item_ids, "indptr": indptr, "indices": indices,
        "gender": [held.index(gender_of[u]) for u in users], "gender_labels": [labels[g] for g in held],
        "age_raw": [age_of[u] for u in users], "age_normalized": [age_of[u] / age_cap for u in users],
        "counts": {"lines": lines, "lines_without_demographics": unknown, "distinct_pairs": len(indices)},
    }


def loaded(dataset, attrs, counts):
    return {
        "user_ids": dataset.user_ids, "item_ids": dataset.item_ids,
        "indptr": dataset.indptr.tolist(), "indices": dataset.indices.tolist(),
        "gender": attrs.gender.tolist(), "gender_labels": attrs.gender_labels,
        "age_raw": attrs.age_raw.tolist(), "age_normalized": attrs.age_normalized.tolist(),
        "counts": counts,
    }


def write_messy_tsvs(tmp_path, seed):
    """Seeded TSVs with blank and whitespace-only lines, CRLF ends, extra columns,
    repeated pairs, non-ASCII ids and users without usable demographics."""
    rng = random.Random(seed)
    letters = ["u", "é", "Z", "ß", "用", "😀", "a b"]
    users = sorted({rng.choice(letters) + str(rng.randrange(40)) for _ in range(60)})
    items = [rng.choice(letters) + str(n) for n in range(30)]
    blanks = ["\n", " \t \n", "   \n", "\r\n", "\t\n"]
    lines = ["user_id\titem_id\n"]
    for _ in range(rng.randrange(1, 400)):
        user = rng.choice(users)
        item = rng.choice(items) if rng.random() < 0.9 else f"only-{user}-{rng.randrange(3)}"
        extra = rng.choice(["", "", "\t7", "\t3\tx"])
        end = rng.choice(["\n", "\r\n"])
        lines.append(f"{user}\t{item}{extra}{end}" * rng.choice([1, 1, 1, 2]))
        if rng.random() < 0.1:
            lines.append(rng.choice(blanks))
    demo = ["user_id\tgender\tage\n"]
    for user in users:
        gender, age = rng.choice(["m", "f", " x "]), str(rng.randrange(10, 61))
        kind = rng.randrange(6)
        if kind == 0:
            continue  # no demographics line
        if kind == 1:
            gender = ""
        elif kind == 2:
            age = " "
        elif kind == 3:
            demo.append(f"{user}\t{gender}\t{age}.0\tplays\r\n")  # an identical repeat
        demo.append(f"{user}\t{gender}\t{age}\n")
        if rng.random() < 0.1:
            demo.append(rng.choice(blanks))
    ipath, dpath = tmp_path / "interactions.tsv", tmp_path / "demographics.tsv"
    ipath.write_bytes("".join(lines).encode("utf-8"))
    dpath.write_bytes("".join(demo).encode("utf-8"))
    return str(ipath), str(dpath)


@pytest.mark.parametrize("seed", range(12))
def test_load_interactions_matches_the_dict_of_sets_reference(tmp_path, seed):
    ipath, dpath = write_messy_tsvs(tmp_path, seed)
    got = loaded(*dp.load_interactions(ipath, dpath, age_cap=60.0))
    assert got == reference_load(ipath, dpath, 60.0)
    assert got["user_ids"] == sorted(got["user_ids"], key=lambda u: [ord(c) for c in u])


@pytest.mark.parametrize("content", ["user_id\titem_id\n", "user_id\titem_id", ""], ids=["header", "no-newline", "empty"])
def test_load_interactions_of_a_file_without_data_lines(tmp_path, content):
    _, dpath = write_messy_tsvs(tmp_path, 0)
    ipath = tmp_path / "header-only.tsv"
    ipath.write_text(content)
    got = loaded(*dp.load_interactions(str(ipath), dpath, age_cap=60.0))
    assert got == reference_load(str(ipath), dpath, 60.0)
    assert got["counts"] == {"lines": 0, "lines_without_demographics": 0, "distinct_pairs": 0}


@pytest.mark.parametrize("bad, column", [("u1\n", "expected at least 2 columns, got 1"), ("\ta\n", "empty user"),
                                          ("u1\t\n", "empty user or item")])
def test_bad_lines_after_blank_lines_report_their_physical_line(tmp_path, bad, column):
    ipath = tmp_path / "interactions.tsv"
    ipath.write_text("user_id\titem_id\nu1\ta\n\n \t \r\nu1\tb\r\n\n" + bad)
    dpath = tmp_path / "demographics.tsv"
    dpath.write_text("user_id\tgender\tage\nu1\tm\t30\n")
    with pytest.raises(DataError, match=f"interactions.tsv:7: {column}"):
        dp.load_interactions(str(ipath), str(dpath))


def test_load_interactions_peak_memory_per_line(tmp_path):
    """Peak traced allocation of the loader, per interaction line of a 105k-line file."""
    rng = np.random.default_rng(0)
    n_users, per_user = 3500, 30
    users = np.repeat(np.arange(n_users), per_user)
    items = rng.integers(0, 5000, len(users))
    ipath, dpath = tmp_path / "interactions.tsv", tmp_path / "demographics.tsv"
    ipath.write_text("user_id\titem_id\n" + "".join(map("user{}\titem{}\n".format, users.tolist(), items.tolist())))
    dpath.write_text("user_id\tgender\tage\n" + "".join(f"user{u}\t{'mf'[u % 2]}\t{20 + u % 40}\n" for u in range(n_users)))
    tracemalloc.start()
    try:
        dataset, _, counts = dp.load_interactions(str(ipath), str(dpath))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["lines"] == len(users) and dataset.n_users == n_users
    assert peak / len(users) < MAX_LOAD_BYTES_PER_LINE


def make_dataset(pairs):
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    user_index = {u: n for n, u in enumerate(users)}
    item_index = {i: n for n, i in enumerate(items)}
    codes = sorted(user_index[u] * len(items) + item_index[i] for u, i in pairs)
    return dp.InteractionDataset.from_codes(np.array(codes, dtype=np.int64), users, items)


def test_csr_layout_from_sorted_codes():
    dataset = dp.InteractionDataset.from_codes(np.array([0, 2, 3, 4]), ["u1", "u2"], ["a", "b", "c"])
    assert dataset.indptr.tolist() == [0, 2, 4]
    assert dataset.indices.tolist() == [0, 2, 0, 1]
    assert dataset.indptr.dtype == dataset.indices.dtype == np.int64
    assert [row.tolist() for row in dataset.rows] == [[0, 2], [0, 1]]
    assert dataset.row(1).tolist() == [0, 1]
    assert dataset.batch_matrix([1, 0]).tolist() == [[1, 1, 0], [1, 0, 1]]
    assert dataset.interaction_count() == 4


@pytest.mark.parametrize("codes", [[0, 4, 2], [0, 2, 2], [-1, 2], [0, 6]],
                         ids=["unsorted", "repeated", "negative", "past-the-last-cell"])
def test_from_codes_rejects_codes_out_of_order_or_range(codes):
    with pytest.raises(ContractError, match=r"strictly increasing and lie in \[0, 6\)"):
        dp.InteractionDataset.from_codes(np.array(codes, dtype=np.int64), ["u1", "u2"], ["a", "b", "c"])


def test_from_codes_of_no_pairs_and_of_no_items():
    none = np.array([], dtype=np.int64)
    dataset = dp.InteractionDataset.from_codes(none, ["u1", "u2"], ["a"])
    assert dataset.indptr.tolist() == [0, 0, 0] and dataset.indices.tolist() == []
    assert dataset.batch_matrix([1]).tolist() == [[0.0]]
    dataset = dp.InteractionDataset.from_codes(none, ["u1"], [])
    assert dataset.n_items == 0 and dataset.indptr.tolist() == [0, 0]
    assert dataset.indptr.dtype == dataset.indices.dtype == np.int64
    with pytest.raises(ContractError):
        dp.InteractionDataset.from_codes(np.array([0], dtype=np.int64), ["u1"], [])


def test_k_core_filter_peak_memory_per_pair():
    from advrec.synthetic import planted_dataset

    dataset, _ = planted_dataset(4000, 500, seed=0)
    tracemalloc.start()
    try:
        filtered, _, _ = dp.k_core_filter(dataset, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filtered.n_users == dataset.n_users
    assert peak / dataset.interaction_count() < MAX_K_CORE_BYTES_PER_PAIR


def test_k_core_that_removes_every_user_of_a_label_drops_the_label(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b"), ("u3", "a")],
        demographics=[("u1", "m", 30), ("u3", "x", 20), ("u2", "f", 40)],
    )
    dataset, attrs, _ = dp.load_interactions(ipath, dpath)
    assert attrs.gender_labels == ["m", "x", "f"] and attrs.gender.tolist() == [0, 2, 1]
    filtered, keep_users, _ = dp.k_core_filter(dataset, 2)
    kept = attrs.subset(keep_users)
    assert filtered.user_ids == ["u1", "u2"]
    assert kept.gender_labels == ["m", "f"] and kept.gender.tolist() == [0, 1]
    assert dp.dataset_stats(filtered, kept)["gender_counts"] == [1, 1]
    assert dp.class_weights(kept.gender, len(kept.gender_labels)).tolist() == [1.0, 1.0]


def test_k_core_fixpoint_unchanged():
    pairs = [("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b")]
    dataset = make_dataset(pairs)
    filtered, keep_users, keep_items = dp.k_core_filter(dataset, 2)
    assert dataset_pairs(filtered) == set(pairs)
    assert list(keep_users) == [0, 1]


def test_k_core_chain_graph_matches_brute_force():
    pairs = [("u1", "i1"), ("u1", "i2"), ("u2", "i2")]
    dataset = make_dataset(pairs)
    filtered, _, _ = dp.k_core_filter(dataset, 2)
    assert dataset_pairs(filtered) == brute_force_k_core(pairs, 2)


def test_k_core_one_removes_only_isolated():
    pairs = [("u1", "a"), ("u2", "b")]
    dataset = make_dataset(pairs)
    filtered, _, _ = dp.k_core_filter(dataset, 1)
    assert dataset_pairs(filtered) == set(pairs)


def test_k_core_empty_fixpoint_returns_empty_dataset():
    pairs = [("u1", "a"), ("u2", "b")]
    dataset = make_dataset(pairs)
    filtered, keep_users, keep_items = dp.k_core_filter(dataset, 3)
    assert filtered.n_users == 0 and filtered.n_items == 0
    assert len(keep_users) == 0 and len(keep_items) == 0


@pytest.mark.parametrize("seed", range(5))
def test_k_core_matches_brute_force_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    pairs = {
        (f"u{u}", f"i{i}")
        for u in range(30)
        for i in range(30)
        if rng.random() < 0.08
    }
    dataset = make_dataset(sorted(pairs))
    for k in (2, 3):
        filtered, _, _ = dp.k_core_filter(dataset, k)
        assert dataset_pairs(filtered) == brute_force_k_core(pairs, k)
        for row in filtered.rows:
            assert len(row) >= k
        if filtered.n_items:
            item_deg = np.zeros(filtered.n_items, dtype=int)
            for row in filtered.rows:
                item_deg[row] += 1
            assert item_deg.min() >= k


def test_normalize_age():
    assert dp.normalize_age(30, 60) == 0.5
    assert dp.normalize_age(0, 60) == 0.0
    assert dp.normalize_age(60, 60) == 1.0
    with pytest.raises(DataError):
        dp.normalize_age(61, 60)
    with pytest.raises(DataError):
        dp.normalize_age(-1, 60)


def test_make_folds_ratios_and_partition():
    folds = dp.make_folds(100, seed=0)
    assert len(folds) == 5
    for fold in folds:
        assert len(fold.test) == 20
        assert len(fold.validation) == 16
        assert len(fold.train) == 64
        combined = np.concatenate([fold.train, fold.validation, fold.test])
        assert np.array_equal(np.sort(combined), np.arange(100))


def test_make_folds_deterministic_and_seed_sensitive():
    a = dp.make_folds(50, seed=7)
    b = dp.make_folds(50, seed=7)
    c = dp.make_folds(50, seed=8)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.test, fb.test)
        assert np.array_equal(fa.train, fb.train)
    assert any(not np.array_equal(fa.test, fc.test) for fa, fc in zip(a, c))


def test_folds_draw_independently_per_fold():
    folds = dp.make_folds(200, seed=3)
    tests = [set(f.test.tolist()) for f in folds]
    assert any(tests[0] != t for t in tests[1:])


def test_holdout_split():
    row = np.arange(10)
    rng = np.random.default_rng(0)
    foldin, holdout = dp.holdout_split(row, 0.2, rng)
    assert len(foldin) == 8 and len(holdout) == 2
    assert set(foldin) | set(holdout) == set(row)
    assert set(foldin) & set(holdout) == set()
    again_in, again_out = dp.holdout_split(row, 0.2, np.random.default_rng(0))
    assert np.array_equal(again_in, foldin) and np.array_equal(again_out, holdout)


def test_class_weights():
    labels = np.array([0] * 80 + [1] * 20)
    assert np.allclose(dp.class_weights(labels, 2), [0.625, 2.5])
    balanced = np.array([0, 1, 0, 1])
    assert np.allclose(dp.class_weights(balanced, 2), [1.0, 1.0])
    reference = np.array([0] * 4331 + [1] * 1709)
    weights = dp.class_weights(reference, 2)
    assert abs(weights[0] - 0.697) < 1e-3
    assert abs(weights[1] - 1.767) < 1e-3
    with pytest.raises(ConfigError):
        dp.class_weights(np.array([0, 0]), 2)


def test_cache_roundtrip_and_determinism(tmp_path):
    from advrec.synthetic import planted_dataset

    dataset, attrs = planted_dataset(n_users=40, n_items=30, seed=1)
    path_a = str(tmp_path / "a.cache")
    path_b = str(tmp_path / "b.cache")
    dp.save_cache(path_a, dataset, attrs, {"k_core": 5})
    dp.save_cache(path_b, dataset, attrs, {"k_core": 5})
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()
    loaded, loaded_attrs, extra = dp.load_cache(path_a)
    assert extra == {"k_core": 5}
    assert loaded.n_users == dataset.n_users and loaded.n_items == dataset.n_items
    assert np.array_equal(loaded.indptr, dataset.indptr)
    assert np.array_equal(loaded.indices, dataset.indices)
    assert np.array_equal(loaded_attrs.gender, attrs.gender)
    assert np.array_equal(loaded_attrs.age_normalized, attrs.age_normalized)
    assert loaded_attrs.age_cap == attrs.age_cap


def _truncated_indptr(arrays, meta):
    arrays["indptr"] = arrays["indptr"][:-1]


def _index_past_the_catalog(arrays, meta):
    arrays["indices"] = arrays["indices"].copy()
    arrays["indices"][-1] = meta["n_items"]


def _short_gender(arrays, meta):
    arrays["gender"] = arrays["gender"][:-1]


def _decreasing_indptr(arrays, meta):
    arrays["indptr"] = arrays["indptr"].copy()
    arrays["indptr"][1], arrays["indptr"][2] = arrays["indptr"][2], arrays["indptr"][1]


def _indptr_short_of_indices(arrays, meta):
    arrays["indices"] = np.concatenate([arrays["indices"], [0]])


def _negative_index(arrays, meta):
    arrays["indices"] = arrays["indices"].copy()
    arrays["indices"][0] = -1


def _float_indices(arrays, meta):
    arrays["indices"] = arrays["indices"].astype(np.float64)


def _short_age(arrays, meta):
    arrays["age_normalized"] = arrays["age_normalized"][:-1]


def _missing_item_ids(arrays, meta):
    meta["item_ids"] = meta["item_ids"][:-1]


def _missing_indices(arrays, meta):
    del arrays["indices"]


def _no_user_count(arrays, meta):
    del meta["n_users"]


def _null_age_cap(arrays, meta):
    meta["age_cap"] = None


def _item_count_as_text(arrays, meta):
    meta["n_items"] = str(meta["n_items"])


def _reversed_row(arrays, meta):
    stop = arrays["indptr"][1]
    arrays["indices"] = arrays["indices"].copy()
    arrays["indices"][:stop] = arrays["indices"][:stop][::-1].copy()


def _repeated_item(arrays, meta):
    start = arrays["indptr"][1]
    arrays["indices"] = arrays["indices"].copy()
    arrays["indices"][start + 1] = arrays["indices"][start]


def _first_entry(label, name, value, dtype=None):
    """A corruption named ``label`` that sets the first entry of array ``name``,
    cast to ``dtype``, to ``value``, or to ``value(meta)`` when it is callable."""
    def corrupt(arrays, meta):
        arrays[name] = arrays[name].astype(dtype or arrays[name].dtype)  # a copy
        arrays[name][0] = value(meta) if callable(value) else value
    corrupt.__name__ = label
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _truncated_indptr, _index_past_the_catalog, _short_gender, _decreasing_indptr,
    _indptr_short_of_indices, _negative_index, _float_indices, _short_age, _missing_item_ids,
    _missing_indices, _reversed_row, _repeated_item, _no_user_count, _null_age_cap, _item_count_as_text,
    _first_entry("_negative_gender", "gender", -1),
    _first_entry("_gender_7", "gender", 7),
    _first_entry("_gender_past_the_labels", "gender", lambda meta: len(meta["gender_labels"])),
    _first_entry("_float_gender", "gender", 1, np.float64),
    _first_entry("_nan_age", "age_normalized", np.nan),
    _first_entry("_age_past_one", "age_normalized", 1.5),
    _first_entry("_negative_age", "age_normalized", -0.25),
    _first_entry("_infinite_age_raw", "age_raw", np.inf),
    _first_entry("_age_raw_past_the_cap", "age_raw", lambda meta: meta["age_cap"] * 1.5),
    _first_entry("_int_age_raw", "age_raw", 30, np.int64),
])
def test_load_cache_rejects_inconsistent_caches(tmp_path, corrupt):
    from advrec.synthetic import planted_dataset

    dataset, attrs = planted_dataset(n_users=20, n_items=15, seed=4, items_low=3, items_high=6)
    path = str(tmp_path / "a.cache")
    dp.save_cache(path, dataset, attrs)
    arrays, meta = load_container(path)
    corrupt(arrays, meta)
    save_container(path, arrays, meta)
    with pytest.raises(DataError, match="a.cache"):
        dp.load_cache(path)


def _entry_edit(edit):
    def corrupt(header):
        edit(header["arrays"][0])
        return json.dumps(header).encode()
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda header: b"{not json",
    lambda header: b'{"format_version": 1, "meta": "\xff"}',
    lambda header: b"[]",
    lambda header: json.dumps({"format_version": 1, "meta": {}}).encode(),
    _entry_edit(lambda entry: entry.pop("offset")),
    _entry_edit(lambda entry: entry.update(dtype="<f4")),
    _entry_edit(lambda entry: entry.update(dtype=["<f8"])),
    _entry_edit(lambda entry: entry.update(nbytes=entry["nbytes"] + 8)),
    _entry_edit(lambda entry: entry.update(shape="3")),
    _entry_edit(lambda entry: entry.update(offset=-8)),
    _entry_edit(lambda entry: entry.update(offset=8)),
    _entry_edit(lambda entry: entry.update(shape=[1 << 40], nbytes=8 << 40)),
], ids=["not-json", "not-utf8", "json-list", "no-arrays", "no-offset", "dtype-f4", "dtype-list",
        "nbytes-off", "shape-text", "negative-offset", "past-the-end", "larger-than-the-file"])
def test_load_container_rejects_a_corrupt_header_naming_the_file(tmp_path, corrupt):
    path = tmp_path / "corrupt.bin"
    save_container(str(path), {"w": np.arange(3.0)}, {"kind": "test"})
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    header = corrupt(json.loads(raw[start:end]))
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + raw[end:])
    with pytest.raises(DataError, match="corrupt.bin"):
        load_container(str(path))


@pytest.mark.parametrize("header_len", [1 << 40, 1 << 62, (1 << 63) + 5, None],
                         ids=["2^40", "2^62", "2^63+5", "one-past-the-end"])
def test_load_container_rejects_a_corrupt_header_length_naming_the_file(tmp_path, header_len):
    path = tmp_path / "corrupt.bin"
    save_container(str(path), {"w": np.arange(3.0)}, {"kind": "test"})
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    header_len = len(raw) - start + 1 if header_len is None else header_len
    path.write_bytes(MAGIC + header_len.to_bytes(8, "little") + raw[start:])
    with pytest.raises(DataError, match="corrupt.bin"):
        load_container(str(path))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        save_container(str(tmp_path / "a.bin"), {"w": np.arange(3.0)}, {"kind": "test"})
        with atomic_open(str(tmp_path / "a.txt")) as fh:
            fh.write("text\n")
    finally:
        os.umask(previous)
    for name in ("a.bin", "a.txt"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
    assert sorted(os.listdir(tmp_path)) == ["a.bin", "a.txt"]


def test_container_payload_is_each_array_in_c_order_by_name(tmp_path):
    arrays = {"b": np.arange(6.0).reshape(2, 3).T, "a": np.array([True, False]), "c": np.zeros((0, 4)),
              "d": np.array([[-5]]), "e": np.arange(7)[::2], "f": np.array(5.0)}
    path = tmp_path / "layout.bin"
    save_container(str(path), arrays, {"kind": "test"})
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    assert raw[end:] == b"".join(np.ascontiguousarray(arrays[name]).tobytes() for name in sorted(arrays))
    loaded, meta = load_container(str(path))
    assert meta == {"kind": "test"} and sorted(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
        assert loaded[name].flags.c_contiguous and loaded[name].flags.writeable


@pytest.mark.parametrize("target, content", [
    ("interactions", "directory"), ("interactions", b"u1\t\xff\n"), ("demographics", b"u1\t\xff\t30\n"),
], ids=["interactions-directory", "interactions-not-utf8", "demographics-not-utf8"])
def test_unreadable_tsv_is_a_data_error_naming_the_file(tmp_path, target, content):
    ipath, dpath = write_tsvs(tmp_path, interactions=[("u1", "a")], demographics=[("u1", "m", 10)])
    path = Path(ipath if target == "interactions" else dpath)
    if content == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(path.read_bytes() + content)
    with pytest.raises(DataError, match=path.name):
        dp.load_interactions(ipath, dpath)


def test_id_maps_are_bijections(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u2", "b"), ("u3", "a"), ("u3", "b")],
        demographics=[("u1", "m", 10), ("u2", "f", 20), ("u3", "f", 30)],
    )
    dataset, _, _ = dp.load_interactions(ipath, dpath)
    assert len(set(dataset.user_ids)) == dataset.n_users
    assert len(set(dataset.item_ids)) == dataset.n_items
    for row in dataset.rows:
        assert np.all(row < dataset.n_items)
        assert len(np.unique(row)) == len(row)


def test_item_subsample_keeps_requested_items():
    from advrec.synthetic import planted_dataset

    dataset, _ = planted_dataset(n_users=50, n_items=40, seed=2)
    sub, keep_users, keep_items = dp.item_subsample(dataset, 10, seed=0)
    assert sub.n_items == 10
    assert len(keep_items) == 10
    again, _, again_items = dp.item_subsample(dataset, 10, seed=0)
    assert np.array_equal(again_items, keep_items)
    kept = set(keep_items.tolist())
    assert keep_users.tolist() == [u for u, row in enumerate(dataset.rows) if kept & set(row.tolist())]
    assert dataset_pairs(sub) == {pair for pair in dataset_pairs(dataset) if int(pair[1][1:]) in kept}


def test_dataset_stats_fields():
    from advrec.synthetic import planted_dataset

    dataset, attrs = planted_dataset(n_users=30, n_items=20, seed=3)
    stats = dp.dataset_stats(dataset, attrs)
    assert stats["users"] == 30 and stats["items"] == 20
    assert stats["interactions"] == dataset.interaction_count()
    assert abs(stats["density"] - dataset.density()) < 1e-4
    assert sum(stats["gender_counts"]) == 30
