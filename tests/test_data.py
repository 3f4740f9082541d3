from pathlib import Path

import numpy as np
import pytest

from advrec import data as dp
from advrec.errors import ConfigError, DataError


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
    dataset, attrs = dp.load_interactions(ipath, dpath, age_cap=60)
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
    dataset, _ = dp.load_interactions(ipath, dpath)
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
    dataset, attrs = dp.load_interactions(ipath, dpath)
    assert dataset.n_users == 0 and dataset.n_items == 0
    assert dataset.interaction_count() == 0


def test_load_interactions_rejects_out_of_range_age(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path, interactions=[("u1", "a")], demographics=[("u1", "m", 75)]
    )
    with pytest.raises(DataError) as err:
        dp.load_interactions(ipath, dpath, age_cap=60)
    assert "u1" in str(err.value)


def make_dataset(pairs):
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    user_index = {u: n for n, u in enumerate(users)}
    item_index = {i: n for n, i in enumerate(items)}
    return dp.InteractionDataset.from_pairs(
        np.array([user_index[u] for u, _ in pairs], dtype=np.int64),
        np.array([item_index[i] for _, i in pairs], dtype=np.int64),
        users,
        items,
    )


def test_csr_layout_from_pairs_in_any_order():
    dataset = make_dataset([("u2", "b"), ("u1", "c"), ("u2", "a"), ("u1", "a")])
    assert dataset.indptr.tolist() == [0, 2, 4]
    assert dataset.indices.tolist() == [0, 2, 0, 1]
    assert dataset.indptr.dtype == dataset.indices.dtype == np.int64
    assert [row.tolist() for row in dataset.rows] == [[0, 2], [0, 1]]
    assert dataset.row(1).tolist() == [0, 1]
    assert dataset.batch_matrix([1, 0]).tolist() == [[1, 1, 0], [1, 0, 1]]
    assert dataset.interaction_count() == 4


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


@pytest.mark.parametrize("corrupt", [
    _truncated_indptr, _index_past_the_catalog, _short_gender, _decreasing_indptr,
    _indptr_short_of_indices, _negative_index, _float_indices, _short_age, _missing_item_ids,
    _missing_indices,
])
def test_load_cache_rejects_inconsistent_caches(tmp_path, corrupt):
    from advrec.container import load_container, save_container
    from advrec.synthetic import planted_dataset

    dataset, attrs = planted_dataset(n_users=20, n_items=15, seed=4, items_low=3, items_high=6)
    path = str(tmp_path / "a.cache")
    dp.save_cache(path, dataset, attrs)
    arrays, meta = load_container(path)
    corrupt(arrays, meta)
    save_container(path, arrays, meta)
    with pytest.raises(DataError):
        dp.load_cache(path)


def test_id_maps_are_bijections(tmp_path):
    ipath, dpath = write_tsvs(
        tmp_path,
        interactions=[("u1", "a"), ("u2", "b"), ("u3", "a"), ("u3", "b")],
        demographics=[("u1", "m", 10), ("u2", "f", 20), ("u3", "f", 30)],
    )
    dataset, _ = dp.load_interactions(ipath, dpath)
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
