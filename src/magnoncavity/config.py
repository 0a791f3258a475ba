"""Run configuration: a single YAML (or JSON) file describing a job.

Units are fixed: frequencies and rates in Hz, magnetic fields in tesla,
lengths in meters, powers in watts; no unit suffixes are parsed. Numeric
scalars may be written as YAML numbers or as strings like "10.632e9";
both are accepted. The field names used here are part of the external
contract and documented in the repository README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .derived import SCALING_MODELS
from .errors import ConfigError
from .fitting import LOSSES, validate_names
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
    except (TypeError, ValueError):
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


def _section(data: dict, key: str, where: str) -> dict:
    value = data.get(key)
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: missing or malformed section {key!r}")
    return value


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
    count: int

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


@dataclass(frozen=True)
class DeriveSpec:
    """Inputs for the derived-parameter report of one assembly.

    ``g_B`` optionally overrides the single-spin coupling computed from
    the cavity geometry; ``reference`` holds optional per-mode expected
    values (keys N, C, V_m, n, G, delta) to report deviations against.
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
            raise ConfigError(f"fit.loss must be one of {LOSSES}")


@dataclass(frozen=True)
class ScalingSpec:
    """Scaling-law model plus optional point-inclusion mask."""

    model: str
    include: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.model not in SCALING_MODELS:
            raise ConfigError(f"scaling.model must be one of {sorted(SCALING_MODELS)}")


@dataclass(frozen=True)
class RunConfig:
    system: HybridSystem
    field_grid: GridSpec | None = None
    frequency_grid: GridSpec | None = None
    observable: str = "s21_power"
    seed: int = 0
    modes_table: ModesTableSpec | None = None
    derive: DeriveSpec | None = None
    fit: FitSpec | None = None
    scaling: ScalingSpec | None = None


def _parse_field_map(data, where: str) -> FieldMap:
    if data is None:
        return FieldMap()
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: field_map must be a mapping")
    kind = data.get("kind", "kittel")
    try:
        return FieldMap(
            kind=kind,
            i=_as_int(data["i"], where) if "i" in data else None,
            j=_as_int(data["j"], where) if "j" in data else None,
            frequency=_as_float(data["frequency"], where) if "frequency" in data else None,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_mode(data, index: int) -> MagnonMode:
    where = f"system.modes[{index}]"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    if "label" not in data:
        raise ConfigError(f"{where}: missing label")
    # A legacy "walker_indices" key is accepted and ignored: a mode's (i, j)
    # identity is its field map's.
    try:
        return MagnonMode(
            label=str(data["label"]),
            g=_as_float(data.get("g", 0.0), f"{where}.g"),
            gamma=_as_float(data.get("gamma"), f"{where}.gamma"),
            delta=_as_float(data.get("delta", 0.0), f"{where}.delta"),
            beta=_as_float(data.get("beta", 1.0), f"{where}.beta"),
            field_map=_parse_field_map(data.get("field_map"), f"{where}.field_map"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_system(data: dict) -> HybridSystem:
    cav = _section(data, "cavity", "system")
    try:
        cavity = CavityParams(
            f_c=_as_float(cav.get("f_c"), "system.cavity.f_c"),
            kappa_e=_as_float(cav.get("kappa_e"), "system.cavity.kappa_e"),
            kappa_i=_as_float(cav.get("kappa_i", 0.0), "system.cavity.kappa_i"),
        )
        material_data = _checked(data.get("material", {}), dict, "system.material")
        material = MaterialParams(
            mu0_Ms=_as_float(material_data.get("mu0_Ms", 0.178), "system.material.mu0_Ms"),
            gamma_e=_as_float(material_data.get("gamma_e", 28.0e9), "system.material.gamma_e"),
            verdet=_as_float(material_data.get("verdet", 380.0), "system.material.verdet"),
            spin=_as_float(material_data.get("spin", 2.5), "system.material.spin"),
            diameter=_as_float(material_data.get("diameter", 0.45e-3), "system.material.diameter"),
            xi=_as_float(material_data.get("xi", 1.0), "system.material.xi"),
        )
        optical_data = _checked(data.get("optical", {}), dict, "system.optical")
        optical = OpticalDrive(
            wavelength=_as_float(optical_data.get("wavelength", 1.55e-6), "system.optical.wavelength"),
            power=_as_float(optical_data.get("power", 15e-3), "system.optical.power"),
        )
        modes = tuple(_parse_mode(m, k) for k, m in enumerate(_checked(data.get("modes", []), list, "system.modes")))
        return HybridSystem(cavity=cavity, modes=modes, material=material, optical=optical)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None


def _parse_grid(data, where: str) -> GridSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping with start/stop/count")
    return GridSpec(
        start=_as_float(data.get("start"), f"{where}.start"),
        stop=_as_float(data.get("stop"), f"{where}.stop"),
        count=_as_int(data.get("count", 1), f"{where}.count"),
    )


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from an already-loaded mapping."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    system = _parse_system(_section(data, "system", "config"))

    field_grid = frequency_grid = None
    if "sweep" in data:
        sweep = _section(data, "sweep", "config")
        if "field" in sweep:
            field_grid = _parse_grid(sweep["field"], "sweep.field")
        if "frequency" in sweep:
            frequency_grid = _parse_grid(sweep["frequency"], "sweep.frequency")

    observable = data.get("observable", "s21_power")
    if observable not in OBSERVABLES:
        raise ConfigError(f"observable must be one of {OBSERVABLES}")

    modes_table = None
    if "modes_table" in data:
        mt = _section(data, "modes_table", "config")
        indices_raw = mt.get("indices")
        pairs = isinstance(indices_raw, list) and all(isinstance(p, list) and len(p) == 2 for p in indices_raw)
        if not pairs or not indices_raw:
            raise ConfigError("modes_table.indices must be a non-empty list of [i, j] pairs")
        indices = tuple(
            (_as_int(pair[0], "modes_table.indices"), _as_int(pair[1], "modes_table.indices"))
            for pair in indices_raw
        )
        branch = mt.get("sign_branch", "plus")
        if branch not in ("plus", "minus"):
            raise ConfigError("modes_table.sign_branch must be 'plus' or 'minus'")
        modes_table = ModesTableSpec(
            field_grid=_parse_grid(mt.get("field"), "modes_table.field"),
            indices=indices,
            sign_branch=branch,
        )

    derive = None
    if "derive" in data:
        dv = _section(data, "derive", "config")
        g_B = dv.get("g_B")
        reference = _checked(dv.get("reference") or {}, dict, "derive.reference")
        derive = DeriveSpec(
            cavity_volume=_as_float(dv.get("cavity_volume"), "derive.cavity_volume"),
            g_B=None if g_B is None else _as_float(g_B, "derive.g_B"),
            reference={
                label: {
                    name: _as_float(value, f"derive.reference.{label}.{name}")
                    for name, value in _checked(cells, dict, f"derive.reference.{label}").items()
                }
                for label, cells in reference.items()
            },
        )

    fit = None
    if "fit" in data:
        ft = _section(data, "fit", "config")
        free_raw = ft.get("free")
        if not isinstance(free_raw, dict) or not free_raw:
            raise ConfigError("fit.free must be a non-empty mapping of name -> [lower, upper]")
        free = {}
        for name, bounds in free_raw.items():
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
                raise ConfigError(f"fit.free.{name}: bounds must be a [lower, upper] pair")
            free[str(name)] = (
                _as_float(bounds[0], f"fit.free.{name}[0]"),
                _as_float(bounds[1], f"fit.free.{name}[1]"),
            )
        fit = FitSpec(
            free=free,
            B=_as_float(ft.get("B", 0.0), "fit.B"),
            observable=str(ft.get("observable", "s21")),
            loss=str(ft.get("loss", "complex_residual")),
        )
        try:
            validate_names(system, fit.free, fit.observable)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"fit: {exc.args[0]}") from None

    scaling = None
    if "scaling" in data:
        sc = _section(data, "scaling", "config")
        include = sc.get("include")
        scaling = ScalingSpec(
            model=str(sc.get("model", "")),
            include=None if include is None else tuple(bool(v) for v in _checked(include, list, "scaling.include")),
        )

    return RunConfig(
        system=system,
        field_grid=field_grid,
        frequency_grid=frequency_grid,
        observable=str(observable),
        seed=_as_int(data.get("seed", 0), "seed"),
        modes_table=modes_table,
        derive=derive,
        fit=fit,
        scaling=scaling,
    )


def load_config(path) -> RunConfig:
    """Read and parse a YAML/JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    return parse_config(data)


def dump_config(config: RunConfig) -> dict:
    """Serialize a RunConfig back to a plain mapping (inverse of parse_config)."""
    system = config.system
    data: dict = {
        "system": {
            "cavity": {
                "f_c": system.cavity.f_c,
                "kappa_e": system.cavity.kappa_e,
                "kappa_i": system.cavity.kappa_i,
            },
            "modes": [
                {
                    "label": m.label,
                    "g": m.g,
                    "gamma": m.gamma,
                    "delta": m.delta,
                    "beta": m.beta,
                    "field_map": {
                        key: value
                        for key, value in (
                            ("kind", m.field_map.kind),
                            ("i", m.field_map.i),
                            ("j", m.field_map.j),
                            ("frequency", m.field_map.frequency),
                        )
                        if value is not None
                    },
                }
                for m in system.modes
            ],
            "material": {
                "mu0_Ms": system.material.mu0_Ms,
                "gamma_e": system.material.gamma_e,
                "verdet": system.material.verdet,
                "spin": system.material.spin,
                "diameter": system.material.diameter,
                "xi": system.material.xi,
            },
            "optical": {
                "wavelength": system.optical.wavelength,
                "power": system.optical.power,
            },
        },
        "observable": config.observable,
        "seed": config.seed,
    }
    sweep = {}
    if config.field_grid is not None:
        g = config.field_grid
        sweep["field"] = {"start": g.start, "stop": g.stop, "count": g.count}
    if config.frequency_grid is not None:
        g = config.frequency_grid
        sweep["frequency"] = {"start": g.start, "stop": g.stop, "count": g.count}
    if sweep:
        data["sweep"] = sweep
    if config.modes_table is not None:
        mt = config.modes_table
        data["modes_table"] = {
            "field": {"start": mt.field_grid.start, "stop": mt.field_grid.stop, "count": mt.field_grid.count},
            "indices": [list(pair) for pair in mt.indices],
            "sign_branch": mt.sign_branch,
        }
    if config.derive is not None:
        data["derive"] = {
            "cavity_volume": config.derive.cavity_volume,
            **({"g_B": config.derive.g_B} if config.derive.g_B is not None else {}),
            **({"reference": config.derive.reference} if config.derive.reference else {}),
        }
    if config.fit is not None:
        data["fit"] = {
            "free": {name: list(bounds) for name, bounds in config.fit.free.items()},
            "B": config.fit.B,
            "observable": config.fit.observable,
            "loss": config.fit.loss,
        }
    if config.scaling is not None:
        data["scaling"] = {
            "model": config.scaling.model,
            **({"include": list(config.scaling.include)} if config.scaling.include is not None else {}),
        }
    return data
