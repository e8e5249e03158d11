"""Flat key=value run configuration with a typed schema and a content hash.

The file format is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Every key has a typed default: the
`data.*` and `train.*` keys are the fields of `DatasetSpec` and
`TrainConfig`, the rest are listed below. Unknown keys, duplicate
assignments, values of the wrong type and non-finite floats are hard
errors so configs stay diff-friendly and typo-proof. The effective (fully merged) config can be
rendered back to canonical text, and its sha256 hash excludes the output
directory so relocating results does not change run identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields

from .backbone import BackboneSpec
from .clsa import STRATEGIES
from .errors import ConfigError
from .synthdata import DatasetSpec
from .training import TrainConfig

OUT_KEY = "run.out"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty integer list")
    return tuple(int(p) for p in parts)


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "ints": _parse_ints,
}


def _fields_of(prefix: str, spec) -> dict[str, tuple[str, object]]:
    """A spec class's fields as keys `prefix.name`. Under postponed
    annotations a field's type is its annotation string, a parser name."""
    return {f"{prefix}.{f.name}": (f.type, f.default) for f in fields(spec)}


# key -> (type name, default). The authoritative list of every config key.
SCHEMA: dict[str, tuple[str, object]] = {
    # frozen encoder pair
    "backbone.d": ("int", 32),
    "backbone.vision_layers": ("int", 8),
    "backbone.text_layers": ("int", 4),
    "backbone.visual_taps": ("ints", (2, 4, 6, 8)),
    "backbone.text_taps": ("ints", (1, 2, 3, 4)),
    "backbone.patch_grid": ("ints", (4, 4)),
    "backbone.heads": ("int", 4),
    "backbone.seed": ("int", 0),
    # synthetic corpus
    **_fields_of("data", DatasetSpec),
    # episode protocol
    "episode.k": ("int", 4),
    "episode.query_per_class": ("int", 50),
    "episode.count": ("int", 20),
    "episode.seed": ("int", 0),
    # learnable stack
    "model.seed": ("int", 1000),
    "adapt.prompt_len": ("int", 8),
    "adapt.reduction": ("int", 4),
    "adapt.alpha_init": ("float", 0.1),
    "clsa.strategy": ("str", "seq"),
    "clsa.heads": ("int", 4),
    "clsa.gate_init": ("float", 0.0),
    "clsa.gates_learnable": ("bool", True),
    # dual-branch scoring
    "infer.lam": ("float", 0.5),
    "infer.eps": ("float", 1e-8),
    # episode optimization
    **_fields_of("train", TrainConfig),
    # artifacts
    "run.out": ("str", "out"),
}


def defaults() -> dict[str, object]:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_assignment(line: str, where: str) -> tuple[str, object]:
    """One `key = value` assignment, typed against the schema."""
    if "=" not in line:
        raise ConfigError(f"{where}: expected key=value, got {line!r}")
    key, raw = line.split("=", 1)
    key = key.strip()
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    kind, _ = SCHEMA[key]
    try:
        value = _PARSERS[kind](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    return key, value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Assignments from one config document; duplicates are errors."""
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = parse_assignment(stripped, f"{source}:{lineno}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen[key] = value
    return seen


def _format_value(kind: str, value) -> str:
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    return repr(value) if kind == "float" else str(value)


def _canonical(values: dict[str, object], keys) -> str:
    return "\n".join(f"{key} = {_format_value(SCHEMA[key][0], values[key])}"
                     for key in keys)


def effective_text(values: dict[str, object]) -> str:
    """Canonical rendering of a fully merged config, one key per line."""
    return _canonical(values, sorted(SCHEMA)) + "\n"


def config_hash(values: dict[str, object]) -> str:
    """sha256 of the canonical text, ignoring where outputs are written."""
    text = _canonical(values, sorted(set(SCHEMA) - {OUT_KEY}))
    return hashlib.sha256(text.encode()).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(key: str, value):
    """A dict value checked against its key's schema type, stored as the
    text parser would store it, so the config hashes as its own text."""
    kind, _ = SCHEMA[key]
    if kind == "int" and _is_int(value):
        return value
    if kind == "float" and (_is_int(value) or isinstance(value, float)):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{key} must be finite, got {value}") from None
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "str" and isinstance(value, str):
        return value
    if (kind == "ints" and isinstance(value, (tuple, list))
            and all(_is_int(v) for v in value)):
        return tuple(value)
    raise ConfigError(f"{key} takes a value of type {kind}, got {value!r}")


class RunConfig:
    """Fully merged, validated view over the flat key space."""

    def __init__(self, values: dict[str, object]):
        merged = defaults()
        for key, value in values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _typed(key, value)
        self.values = merged
        self._validate()

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def _validate(self) -> None:
        for key, (kind, _) in SCHEMA.items():
            if kind == "float" and not math.isfinite(self[key]):
                raise ConfigError(f"{key} must be finite, got {self[key]}")
        self.backbone_spec()  # spec constructors own the structural checks
        self.dataset_spec()
        self.train_config()
        if self["clsa.strategy"] not in STRATEGIES:
            raise ConfigError(f"clsa.strategy must be one of {STRATEGIES}, "
                              f"got {self['clsa.strategy']!r}")
        if not 0.0 <= self["infer.lam"] <= 1.0:
            raise ConfigError(f"infer.lam must lie in [0, 1], got {self['infer.lam']}")
        if self["infer.eps"] <= 0:
            raise ConfigError(f"infer.eps must be positive, got {self['infer.eps']}")
        for key in ("episode.k", "episode.query_per_class", "episode.count",
                    "adapt.reduction", "clsa.heads"):
            if self[key] < 1:
                raise ConfigError(f"{key} must be >= 1, got {self[key]}")
        if self["adapt.prompt_len"] < 0:
            raise ConfigError("adapt.prompt_len must be >= 0")

    def backbone_spec(self) -> BackboneSpec:
        return BackboneSpec(
            d=self["backbone.d"],
            vision_layers=self["backbone.vision_layers"],
            text_layers=self["backbone.text_layers"],
            selected_visual=self["backbone.visual_taps"],
            selected_text=self["backbone.text_taps"],
            patch_grid=self["backbone.patch_grid"],
            heads=self["backbone.heads"],
            seed=self["backbone.seed"],
        )

    def _spec(self, prefix: str, spec):
        return spec(**{f.name: self[f"{prefix}.{f.name}"] for f in fields(spec)})

    def dataset_spec(self) -> DatasetSpec:
        return self._spec("data", DatasetSpec)

    def train_config(self) -> TrainConfig:
        return self._spec("train", TrainConfig)

    def text(self) -> str:
        return effective_text(self.values)

    def hash(self) -> str:
        return config_hash(self.values)


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the file (if any), then `key=value` override strings."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text, source=path))
    for item in overrides or []:
        key, value = parse_assignment(item, "override")
        values[key] = value
    return RunConfig(values)
