"""Run configuration: key=value files with dotted sections, flag overrides.

A run configuration is a plain dict holding every ``SCHEMA`` key, in schema
order, with ``None`` for a key that has no default and was not configured.
Every key is checked against the schema before any work starts; unknown
keys are errors. Command-line flags override file values. The
``lambda.<attr>`` and ``grid.<attr>`` keys are generated from
``training.ATTRIBUTES``, whose order fixes the order of the lambda map.
:func:`train_config` turns a run configuration into the ``TrainConfig`` of
one run, and :func:`grid_configs` into the ``TrainConfig`` of every unit of
a grid; a ``TrainConfig`` is checked when built.
"""

from __future__ import annotations

import dataclasses
import itertools

from .errors import ConfigError
from .training import ATTRIBUTES, TrainConfig, combo_label


def _lambda_grid(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip() != ""]
    if not values:
        raise ValueError("empty grid")
    return values


# TrainConfig fields set by train.* keys; the lambda map comes from lambda.* keys
TRAIN_FIELDS = [f for f in dataclasses.fields(TrainConfig) if f.name != "lambdas"]

# key -> (caster, default); None default means "no value unless configured"
SCHEMA = {
    "data.name": (str, "dataset"),
    "data.interactions": (str, None),
    "data.demographics": (str, None),
    "data.cache": (str, None),
    "data.k_core": (int, 5),
    "data.age_cap": (float, 60.0),
    "data.item_subsample": (int, 0),
    # cast by the type of the default
    **{f"train.{f.name}": (type(f.default), f.default) for f in TRAIN_FIELDS},
    "train.fold": (int, 0),
    "train.n_folds": (int, 5),
    **{f"lambda.{attr}": (float, None) for attr in ATTRIBUTES},
    **{f"grid.{attr}": (_lambda_grid, None) for attr in ATTRIBUTES},
    "out.dir": (str, "runs"),
}


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read configuration file {path!r}: {err}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def load_config(path: str | None) -> dict:
    """Merge schema defaults and a config file, validating keys."""
    raw = parse_config_file(path) if path is not None else {}
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    values = {}
    for key, (caster, default) in SCHEMA.items():
        if key in raw:
            try:
                values[key] = caster(raw[key])
            except (ValueError, TypeError) as err:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({err})") from None
        else:
            values[key] = default
    return values


def require(config: dict, key: str):
    value = config.get(key)
    if value is None:
        raise ConfigError(f"configuration key {key!r} is required for this command")
    return value


def lambdas(config: dict) -> dict[str, float]:
    """The configured ``lambda.<attr>`` values, in ``ATTRIBUTES`` order."""
    return {attr: config[f"lambda.{attr}"] for attr in ATTRIBUTES if config[f"lambda.{attr}"] is not None}


def fold_count(config: dict) -> int:
    """``train.n_folds``, which must be at least 1."""
    if config["train.n_folds"] < 1:
        raise ConfigError(f"train.n_folds must be >= 1, got {config['train.n_folds']}")
    return config["train.n_folds"]


def train_config(config: dict) -> TrainConfig:
    return TrainConfig(**{f.name: config[f"train.{f.name}"] for f in TRAIN_FIELDS}, lambdas=lambdas(config))


def grid_configs(config: dict) -> list[TrainConfig]:
    """One ``TrainConfig`` per combination of the configured
    ``grid.<attr>`` values, the last attribute in ``ATTRIBUTES`` order
    varying fastest. The units differ from ``train_config(config)`` only in
    their lambda maps, which hold the grid's attributes alone. An attribute's
    values must differ as numbers, so that no combination trains twice, and
    in their ``training.combo_label``, which names a unit's output
    directory."""
    grid = {attr: config[f"grid.{attr}"] for attr in ATTRIBUTES if config[f"grid.{attr}"] is not None}
    if not grid:
        raise ConfigError("grid command needs at least one grid.<attribute> key")
    for attr, values in grid.items():
        if min(len(set(values)), len({combo_label({attr: value}) for value in values})) < len(values):
            raise ConfigError(f"grid.{attr} lists {values}, two of which are one value or share an output directory")
    base = train_config(config)
    return [dataclasses.replace(base, lambdas=dict(zip(grid, values))) for values in itertools.product(*grid.values())]


def apply_seed(config: dict, seed: int) -> None:
    """A single master seed fans out to the three independent streams."""
    config["train.model_seed"] = seed
    config["train.data_seed"] = seed + 1
    config["train.adversary_seed"] = seed + 2


def apply_lambda_flags(config: dict, pairs: list[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--lambda expects ATTR=VALUE, got {pair!r}")
        name, _, raw = pair.partition("=")
        attr = name.strip()
        if attr not in ATTRIBUTES:
            raise ConfigError(f"unknown attribute for --lambda: {attr!r}")
        try:
            config[f"lambda.{attr}"] = float(raw)
        except ValueError:
            raise ConfigError(f"--lambda {pair!r}: value is not a number") from None
