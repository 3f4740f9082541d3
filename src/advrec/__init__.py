"""Adversarial unlearning of protected user attributes from a VAE recommender."""

__version__ = "0.3.0"
