"""Train the plain VAE recommender on synthetic data and rank items.

Shows the per-epoch loss log, validation-based model selection, and the
top-10 ranking metrics on held-out items of test users.
"""

import numpy as np

from advrec import training as tr
from advrec.data import make_folds, prepare_fold
from advrec.synthetic import planted_dataset

dataset, attrs = planted_dataset(n_users=600, n_items=200, seed=1, items_low=10, items_high=30)
print(f"dataset: {dataset.n_users} users x {dataset.n_items} items, "
      f"{dataset.interaction_count()} interactions (density {dataset.density():.3f})")

config = tr.TrainConfig(
    epochs_adversarial=15, epochs_attack=5, batch_size=64,
    d_hidden=80, d_latent=24, d_adv_hidden=16, anneal_steps=500,
    val_every=3, selection="best", lambdas={},
)
fold = prepare_fold(dataset, make_folds(dataset.n_users, seed=5)[0], 0.2, config.data_seed)
result = tr.train_adversarial_phase(dataset, attrs, fold, config)

print("\nepoch  loss     kl      val_ndcg@10")
for entry in result.log:
    val = f"{entry['val_ndcg']:.4f}" if "val_ndcg" in entry else "   -"
    print(f"{entry['epoch']:3d}   {entry['mult']:8.3f} {entry['kl']:7.4f}  {val}")
print(f"\nbest validation NDCG@10 {result.best_val_ndcg:.4f} at epoch {result.best_epoch}")

ndcg, recall, evaluated = tr.evaluate_ranking(result.params, dataset, fold.test_foldin, fold.test_holdout)
print(f"test users: NDCG@10 {ndcg[evaluated].mean():.4f}, recall@10 {recall[evaluated].mean():.4f} "
      f"({int(evaluated.sum())} users evaluated)")
