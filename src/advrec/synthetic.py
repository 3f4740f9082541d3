"""Synthetic interaction data with planted protected attributes.

Preferences mix three ingredients: an attribute-free taste component that
carries most of the ranking signal, a binary attribute that boosts one of
two small clusters of marker items, and a continuous attribute in [0, 1]
that linearly shifts preference intensity, both through the interaction
count and through a band of intensity-marker items whose appeal peaks near
the user's value. Concentrating each attribute in a marker set keeps the
planted information compact: an attacker reads it easily, and adversarial
removal can scrub it without destroying the taste structure.
"""

from __future__ import annotations

import numpy as np

from .data import InteractionDataset, UserAttributes


def planted_dataset(
    n_users: int = 2000,
    n_items: int = 500,
    seed: int = 0,
    taste_weight: float = 1.8,
    binary_weight: float = 1.2,
    continuous_weight: float = 1.2,
    marker_fraction: float = 0.1,
    items_low: int = 20,
    items_high: int = 60,
    d_taste: int = 8,
    temperature: float = 0.5,
):
    """Generate interactions that partially encode two protected attributes.

    Returns ``(InteractionDataset, UserAttributes)`` where gender is the
    planted binary class and normalized age the planted continuous value
    (age cap fixed at 60 for a familiar scale).
    """
    rng = np.random.default_rng(seed)
    gender = (rng.random(n_users) < 0.5).astype(np.int64)
    age_norm = rng.random(n_users)

    n_marker = max(2, int(round(marker_fraction * n_items)))
    half = n_marker // 2
    gender_markers = [np.arange(0, half), np.arange(half, n_marker)]
    age_markers = np.arange(n_marker, 2 * n_marker)
    age_ranks = np.linspace(0.0, 1.0, len(age_markers))

    taste_users = rng.standard_normal((n_users, d_taste))
    taste_items = rng.standard_normal((n_items, d_taste))
    affinity = taste_weight * (taste_users @ taste_items.T) / np.sqrt(d_taste)
    for cls in (0, 1):
        rows = gender == cls
        affinity[np.ix_(rows, gender_markers[cls])] += binary_weight
        affinity[np.ix_(rows, gender_markers[1 - cls])] -= binary_weight
    affinity[:, age_markers] += continuous_weight * (
        1.0 - np.abs(age_ranks[None, :] - age_norm[:, None])
    )

    probs = np.exp((affinity - affinity.max(axis=1, keepdims=True)) / temperature)
    probs /= probs.sum(axis=1, keepdims=True)
    counts = items_low + np.rint((items_high - items_low) * age_norm).astype(int)

    sizes = np.minimum(counts, n_items)
    codes = np.repeat(np.arange(n_users, dtype=np.int64) * n_items, sizes)
    codes += np.concatenate(
        [rng.choice(n_items, size=sizes[u], replace=False, p=probs[u]) for u in range(n_users)]
    )
    codes.sort()
    dataset = InteractionDataset.from_codes(
        codes, user_ids=[f"u{u}" for u in range(n_users)], item_ids=[f"i{i}" for i in range(n_items)]
    )
    attrs = UserAttributes(
        gender=gender,
        gender_labels=["g0", "g1"],
        age_raw=age_norm * 60.0,
        age_normalized=age_norm,
        age_cap=60.0,
    )
    return dataset, attrs
