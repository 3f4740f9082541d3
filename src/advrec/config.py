"""Run configuration: key=value files with dotted sections, flag overrides.

Every key is validated against the schema below before any work starts;
unknown keys are errors. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError
from .training import TrainConfig


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
    "data.subsample_seed": (int, 0),
    # cast by the type of the default
    **{f"train.{f.name}": (type(f.default), f.default) for f in TRAIN_FIELDS},
    "train.fold": (int, 0),
    "train.n_folds": (int, 5),
    "lambda.gender": (float, None),
    "lambda.age": (float, None),
    "grid.gender": (_lambda_grid, None),
    "grid.age": (_lambda_grid, None),
    "out.dir": (str, "runs"),
}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            values[key.strip()] = raw.strip()
    return values


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        value = self.values.get(key)
        if value is None:
            raise ConfigError(f"configuration key {key!r} is required for this command")
        return value

    def lambdas(self) -> dict[str, float]:
        out = {}
        for key, value in self.values.items():
            if key.startswith("lambda.") and value is not None:
                out[key.split(".", 1)[1]] = float(value)
        return out

    def grid(self) -> dict[str, list[float]]:
        out = {}
        for key, value in self.values.items():
            if key.startswith("grid.") and value is not None:
                out[key.split(".", 1)[1]] = list(value)
        return out

    def train_config(self) -> TrainConfig:
        config = TrainConfig(
            **{f.name: self.values[f"train.{f.name}"] for f in TRAIN_FIELDS}, lambdas=self.lambdas()
        )
        config.validate()
        return config

    def manifest_dict(self) -> dict:
        rendered = {}
        for key, value in sorted(self.values.items()):
            if value is None:
                continue
            rendered[key] = value if not isinstance(value, list) else list(value)
        return rendered


def load_config(path: str | None) -> RunConfig:
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
    return RunConfig(values=values)


def apply_seed(config: RunConfig, seed: int) -> None:
    """A single master seed fans out to the three independent streams."""
    config.values["train.model_seed"] = seed
    config.values["train.data_seed"] = seed + 1
    config.values["train.adversary_seed"] = seed + 2


def apply_lambda_flags(config: RunConfig, pairs: list[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--lambda expects ATTR=VALUE, got {pair!r}")
        name, _, raw = pair.partition("=")
        key = f"lambda.{name.strip()}"
        if key not in SCHEMA:
            raise ConfigError(f"unknown attribute for --lambda: {name.strip()!r}")
        try:
            config.values[key] = float(raw)
        except ValueError:
            raise ConfigError(f"--lambda {pair!r}: value is not a number") from None
