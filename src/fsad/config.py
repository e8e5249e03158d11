"""Flat key=value run configuration with a typed schema and a content hash.

The file format is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Every key has a typed default. Each
section is the fields of one spec class (`SECTIONS`), which owns the
section's defaults and checks; `RunConfig` adds the checks that pit one
section against another. Unknown keys, duplicate assignments, values of
the wrong type, non-finite floats and multi-line strings are hard errors
so configs stay diff-friendly and typo-proof. The effective (fully merged)
config can be rendered back to canonical text, and its sha256 hash excludes
the output directory so relocating results does not change run identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from types import MappingProxyType

from .adaptation import AdaptSpec
from .backbone import BackboneSpec
from .clsa import ClsaSpec
from .errors import ConfigError
from .inference import InferSpec
from .synthdata import DatasetSpec, EpisodeSpec
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


# section -> the spec class whose fields are its keys and which owns their
# defaults and checks
SECTIONS = {"backbone": BackboneSpec, "data": DatasetSpec,
            "episode": EpisodeSpec, "adapt": AdaptSpec, "clsa": ClsaSpec,
            "infer": InferSpec, "train": TrainConfig}

# spec field -> its key's name, for the two fields whose names differ
_KEY_NAMES = {"selected_visual": "visual_taps", "selected_text": "text_taps"}

# a default's Python type -> its key's type name; bool before int, because
# a bool is an int
_KINDS = ((bool, "bool"), (int, "int"), (float, "float"), (str, "str"),
          (tuple, "ints"))


def _entry(default) -> tuple[str, object]:
    return next(kind for cls, kind in _KINDS if isinstance(default, cls)), default


# section -> its spec's (field, key) pairs, in field order
_SECTION_KEYS = {prefix: tuple((f.name, f"{prefix}.{_KEY_NAMES.get(f.name, f.name)}")
                               for f in fields(spec))
                 for prefix, spec in SECTIONS.items()}

# key -> (type name, default). The authoritative list of every config key.
SCHEMA: dict[str, tuple[str, object]] = {
    **{key: _entry(getattr(SECTIONS[prefix], name))  # a field's class default
       for prefix, pairs in _SECTION_KEYS.items() for name, key in pairs},
    "model.seed": _entry(1000),
    "run.out": _entry("out"),
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
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{key} must be finite, got {value}")
        return number
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "str" and isinstance(value, str):
        # a line break or an edge space would not survive effective.cfg
        if value != value.strip() or len(value.splitlines()) > 1:
            raise ConfigError(f"{key} must be one line without leading or "
                              f"trailing whitespace, got {value!r}")
        return value
    if (kind == "ints" and isinstance(value, (tuple, list))
            and all(_is_int(v) for v in value)):
        return tuple(value)
    raise ConfigError(f"{key} takes a value of type {kind}, got {value!r}")


class RunConfig:
    """Fully merged, validated, read-only view over the flat key space."""

    def __init__(self, values: dict[str, object]):
        merged = defaults()
        for key, value in values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _typed(key, value)
        self.values = MappingProxyType(merged)
        self._sections = {prefix: SECTIONS[prefix](**{f: merged[k] for f, k in pairs})
                          for prefix, pairs in _SECTION_KEYS.items()}
        self._validate()

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def _validate(self) -> None:
        """Each spec constructor checks its own section; the checks here cover
        ``model.seed``, which no section owns, and pit one section's keys
        against another's, so a mismatch fails before any output is written."""
        specs = self._sections
        bb, data, ep = specs["backbone"], specs["data"], specs["episode"]
        if self["model.seed"] < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"model.seed must be >= 0, got {self['model.seed']}")
        for key, divisor in (("clsa.heads", specs["clsa"].heads),
                             ("adapt.reduction", specs["adapt"].reduction)):
            if bb.d % divisor:
                raise ConfigError(f"backbone.d={bb.d} is not divisible by "
                                  f"{key}={divisor}")
        rows, cols = bb.patch_grid
        if data.height % rows or data.width % cols:
            raise ConfigError(f"data.height={data.height} and data.width="
                              f"{data.width} are not divisible by "
                              f"backbone.patch_grid={rows},{cols}")
        need = ep.k + ep.query_per_class
        if need > min(data.n_normal, data.n_abnormal):
            raise ConfigError(f"episode.k + episode.query_per_class = {need} "
                              f"exceeds data.n_normal={data.n_normal} or "
                              f"data.n_abnormal={data.n_abnormal}")

    def section(self, prefix: str):
        """The spec object of one section, e.g. ``section("clsa")``."""
        return self._sections[prefix]

    def backbone_spec(self) -> BackboneSpec:
        return self.section("backbone")

    def dataset_spec(self) -> DatasetSpec:
        return self.section("data")

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
