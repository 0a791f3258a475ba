"""Run configuration: a single YAML (or JSON) file describing a job.

Units are fixed: frequencies and rates in Hz, magnetic fields in tesla,
lengths in meters, powers in watts; no unit suffixes are parsed. Numeric
scalars may be written as YAML numbers or as strings like "10.632e9";
both are accepted. The field names used here are part of the external
contract and documented in the repository README.

A config key is the name of the dataclass field it fills (``_KEYS`` lists
the exceptions), and every section is read by one walk over its
dataclass's fields (``_record``); ``dump_config`` walks the same fields
back. Defaults live on the dataclasses, so an absent key takes the
field's default; unknown keys are ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np
import yaml

from .derived import SCALING_MODELS, DerivedParams
from .errors import ConfigError
from .fitting import LOSSES, validate_names
from .magnetostatics import check_mode_indices
from .model import (
    CavityParams,
    FieldMap,
    HybridSystem,
    MagnonMode,
    MaterialParams,
    OpticalDrive,
)
from .scattering import OBSERVABLES


def _as_float(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where}: value must be finite")
    return out


def _as_int(value, where: str) -> int:
    """An integer; integral floats and numeric strings are accepted, fractional values rejected."""
    if isinstance(value, int):
        return int(value)
    try:
        number = float(value)
        out = int(number)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None
    if out != number:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return out


def _as_str(value, where: str) -> str:
    if value is None:
        raise ConfigError(f"{where}: expected a string, got None")
    return str(value)


def _checked(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (dict or list), else a ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: expected a {'mapping' if kind is dict else 'list'}, got {value!r}")
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: ``count`` points from ``start`` to ``stop`` inclusive."""

    start: float
    stop: float
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("grid count must be >= 1")
        if self.count == 1:
            if self.stop != self.start:
                raise ConfigError("a single-point grid must have stop == start")
        elif not self.stop > self.start:
            raise ConfigError("grid range must be non-degenerate (stop > start)")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ModesTableSpec:
    """Request for a Walker-mode frequency table."""

    field_grid: GridSpec
    indices: tuple[tuple[int, int], ...]
    sign_branch: str = "plus"

    def __post_init__(self):
        if self.sign_branch not in ("plus", "minus"):
            raise ConfigError("sign_branch must be 'plus' or 'minus'")
        # the grid ascends, so its start is its least field; the Walker solver needs B_ext > 0
        if self.field_grid.start <= 0:
            raise ConfigError(f"field: bias fields must be positive, got start {self.field_grid.start!r}")
        # the pair as written: under "minus" the solver's j is -j, which obeys the same bounds
        for k, (i, j) in enumerate(self.indices):
            try:
                check_mode_indices(i, j)
            except ValueError as exc:
                raise ConfigError(f"indices[{k}]: {exc}") from None


@dataclass(frozen=True)
class DeriveSpec:
    """Inputs for the derived-parameter report of one assembly.

    ``g_B`` optionally overrides the single-spin coupling computed from
    the cavity geometry; ``reference`` holds optional expected values to
    report deviations against, keyed by mode label and then by the name of
    a :class:`DerivedParams` field.
    """

    cavity_volume: float
    g_B: float | None = None
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitSpec:
    """Free parameters and objective for a spectrum fit."""

    free: dict
    B: float = 0.0
    observable: str = "s21"
    loss: str = "complex_residual"

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}")


@dataclass(frozen=True)
class ScalingSpec:
    """Scaling-law model plus optional point-inclusion mask."""

    model: str
    include: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.model not in SCALING_MODELS:
            raise ConfigError(f"model must be one of {sorted(SCALING_MODELS)}")


@dataclass(frozen=True)
class RunConfig:
    system: HybridSystem
    field_grid: GridSpec | None = None
    frequency_grid: GridSpec | None = None
    observable: str = "s21_power"
    modes_table: ModesTableSpec | None = None
    derive: DeriveSpec | None = None
    fit: FitSpec | None = None
    scaling: ScalingSpec | None = None

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"observable must be one of {OBSERVABLES}")


# How a scalar field is read, by its annotation; annotations are strings
# because every module here uses ``from __future__ import annotations``.
_SCALARS = {"float": _as_float, "int": _as_int, "str": _as_str}

# Defaults that exist for config input only: a cavity written without
# kappa_i has no internal loss, and a mode written without g is uncoupled.
_CONFIG_DEFAULTS = {CavityParams: {"kappa_i": 0.0}, MagnonMode: {"g": 0.0}}

# Config keys that differ from the field they fill: a run's two grids sit
# in one ``sweep`` section, and a modes table calls its grid ``field``.
_KEYS = {
    (RunConfig, "field_grid"): ("sweep", "field"),
    (RunConfig, "frequency_grid"): ("sweep", "frequency"),
    (ModesTableSpec, "field_grid"): ("field",),
}

_ABSENT = object()


def _key(cls, name: str) -> tuple[str, ...]:
    """The key path of field ``name`` of ``cls`` in a config mapping."""
    return _KEYS.get((cls, name), (name,))


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _record(cls, raw, where: str, **parse):
    """A ``cls`` record from the mapping ``raw`` found at ``where`` ("" for the root).

    A field named in ``parse`` is built by ``parse[name](value, location)``;
    any other scalar field (float, int, str, or one of them ``| None``,
    which also takes null) is coerced from its key. No other field is read
    from ``raw``. An absent key leaves the dataclass default; a missing
    required key, or a value ``cls`` rejects, is a ConfigError at ``where``,
    or at ``where.field`` or ``where.indices[1]`` when ``cls`` names the key
    or the element of one of its fields that it rejects (``"field: ..."``,
    ``"indices[1]: ..."``).
    """
    name = where or "config"
    data = {**_CONFIG_DEFAULTS.get(cls, {}), **_checked(raw, dict, name)}
    values = {}
    for f in fields(cls):
        path = _key(cls, f.name)
        value, at = data, where
        for key in path:
            value, at = _checked(value, dict, at).get(key, _ABSENT), _at(at, key)
            if value is _ABSENT:
                break
        if value is _ABSENT:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{name}: missing {'.'.join(path)}")
        elif f.name in parse:
            values[f.name] = parse[f.name](value, at)
        elif (scalar := f.type.removesuffix(" | None")) in _SCALARS:
            values[f.name] = None if value is None and scalar != f.type else _SCALARS[scalar](value, at)
    try:
        return cls(**values)
    except ValueError as exc:
        text = str(exc)
        head = re.match(r"\w+(?=[\[:])", text)
        located = head is not None and head.group() in {".".join(_key(cls, f.name)) for f in fields(cls)}
        raise ConfigError(f"{name}.{text}" if located else f"{name}: {text}") from None


def _field_map(raw, where: str) -> FieldMap:
    return _record(FieldMap, {} if raw is None else raw, where)  # null is the default Kittel map


def _modes(raw, where: str) -> tuple[MagnonMode, ...]:
    # A legacy per-mode "walker_indices" key is ignored: a mode's (i, j)
    # identity is its field map's.
    mode = partial(_record, MagnonMode, field_map=_field_map)
    return tuple(mode(item, f"{where}[{k}]") for k, item in enumerate(_checked(raw, list, where)))


def _indices(raw, where: str) -> tuple[tuple[int, int], ...]:
    if not (isinstance(raw, list) and raw and all(isinstance(p, list) and len(p) == 2 for p in raw)):
        raise ConfigError(f"{where}: expected a non-empty list of [i, j] pairs, got {raw!r}")
    return tuple((_as_int(i, where), _as_int(j, where)) for i, j in raw)


_QUANTITIES = tuple(f.name for f in fields(DerivedParams))


def _quantity(name, value, where: str) -> float:
    if name not in _QUANTITIES:
        raise ConfigError(f"{where}: unknown quantity; expected one of {', '.join(_QUANTITIES)}")
    return _as_float(value, where)


def _reference(raw, where: str) -> dict:
    return {
        label: {
            name: _quantity(name, value, f"{where}.{label}.{name}")
            for name, value in _checked(cells, dict, f"{where}.{label}").items()
        }
        for label, cells in _checked({} if raw is None else raw, dict, where).items()
    }


def _free(raw, where: str) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{where}: expected a non-empty mapping of name -> [lower, upper]")
    free = {}
    for name, bounds in raw.items():
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ConfigError(f"{where}.{name}: bounds must be a [lower, upper] pair")
        free[str(name)] = (_as_float(bounds[0], f"{where}.{name}[0]"), _as_float(bounds[1], f"{where}.{name}[1]"))
    return free


def _include(raw, where: str) -> tuple[bool, ...] | None:
    if raw is None:
        return None
    for k, flag in enumerate(_checked(raw, list, where)):
        if not (isinstance(flag, int) and flag in (0, 1)):
            raise ConfigError(f"{where}[{k}]: expected true, false, 0 or 1, got {flag!r}")
    return tuple(bool(flag) for flag in raw)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from an already-loaded mapping."""
    grid = partial(_record, GridSpec)
    config = _record(
        RunConfig,
        data,
        "",
        system=partial(
            _record,
            HybridSystem,
            cavity=partial(_record, CavityParams),
            modes=_modes,
            material=partial(_record, MaterialParams),
            optical=partial(_record, OpticalDrive),
        ),
        field_grid=grid,
        frequency_grid=grid,
        modes_table=partial(_record, ModesTableSpec, field_grid=grid, indices=_indices),
        derive=partial(_record, DeriveSpec, reference=_reference),
        fit=partial(_record, FitSpec, free=_free),
        scaling=partial(_record, ScalingSpec, include=_include),
    )
    if config.derive is not None:
        labels = {mode.label for mode in config.system.modes}
        for label in config.derive.reference:
            if label not in labels:
                raise ConfigError(f"derive.reference.{label}: no mode labeled {label!r}")
    if config.fit is not None:
        try:
            validate_names(config.system, config.fit.free, config.fit.observable)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"fit: {exc.args[0]}") from None
    return config


def load_config(path) -> RunConfig:
    """Read and parse a YAML/JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long for int()
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    return parse_config(data)


def dump_config(config: RunConfig) -> dict:
    """Serialize a RunConfig back to a plain mapping (inverse of parse_config)."""
    return _plain(config)


def _plain(value):
    """``value`` as YAML data: a record as a mapping under its config keys, without its None fields; tuples as lists."""
    if is_dataclass(value):
        data: dict = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is not None:
                *sections, key = _key(type(value), f.name)
                target = data
                for section in sections:
                    target = target.setdefault(section, {})
                target[key] = _plain(item)
        return data
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value
