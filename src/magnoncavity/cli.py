"""Command-line interface: spectra, sweep maps, mode tables, derived
parameters, spectrum fits, and scaling-law fits, all driven by a single
configuration file and emitting CSV.

Exit codes: 0 success, 2 configuration error, 3 numeric domain error,
4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import re
import sys
from contextlib import nullcontext
from itertools import chain

import numpy as np

from . import __version__, derived, fitting, magnetostatics, scattering
from .config import RunConfig, load_config
from .errors import ConfigError, DomainError
from .model import HybridSystem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4


def _fmt(value) -> str:
    return format(float(value), ".17g")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search
_QUOTE_OR_BREAK = re.compile(r'["\r\n]').search


def _csv_line(cells) -> str:
    """One CSV row ending in \r\n: the text ``csv.writer`` writes with minimal quoting.

    A cell is quoted only if it holds a comma, a quote or a line break, and a
    quote inside it is doubled. A row of one empty cell is written ``""``, so
    that it does not read back as an empty line.
    """
    texts = list(map(str, cells))
    line = ",".join(texts)
    # most rows need no quoting: one scan of the joined row tells, and only then is each cell searched
    if line.count(",") >= len(texts) or _QUOTE_OR_BREAK(line):
        line = ",".join(['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES(t) else t for t in texts])
    elif texts == [""]:
        line = '""'
    return line + "\r\n"


def _write_csv(out: str | None, header, lines) -> None:
    """Write the CSV row ``header`` and then the text blocks ``lines`` to the path ``out`` (stdout for None or "-").

    Each block is one or more whole rows, each ending in \r\n (see
    ``_csv_line``). ``lines`` may be a generator: it is consumed one block at
    a time, so the blocks before one that raises are already written. An
    OSError while writing (a full disk, a reader that closed the pipe) is a
    ConfigError: a partial ``out`` file is removed, and a failed stdout is
    pointed at os.devnull, so that the interpreter's last flush is silent.
    """
    to_stdout = out is None or out == "-"
    try:
        handle = sys.stdout if to_stdout else open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from None
    try:
        with nullcontext(handle) if to_stdout else handle:
            handle.write(_csv_line(header))
            handle.writelines(lines)
            handle.flush()
    except OSError as exc:
        if to_stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write output to stdout: {exc}") from None
        if os.path.isfile(out):  # not a device such as /dev/full
            os.remove(out)
        raise ConfigError(f"cannot write output file {out}: {exc}") from None


def _read_csv(path: str, required) -> list[dict]:
    """The rows of a data CSV as dicts keyed by its header, which must name every ``required`` column.

    The ``required`` cells are read as floats; other cells stay text. A
    leading UTF-8 byte-order mark is dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
                raise ConfigError(f"data file {path} lacks columns {sorted(required)}")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"data file {path} contains no rows")
    if any(None in row.values() for row in rows):
        raise ConfigError(f"data file {path} has rows with missing cells")
    if any(None in row for row in rows):  # DictReader files cells past the header under the key None
        raise ConfigError(f"data file {path} has rows with extra cells")
    for k, row in enumerate(rows, 1):  # counted from 1 after the header, as in _include_flag
        for column in required:
            try:
                row[column] = float(row[column])
            except ValueError:
                raise ConfigError(f"data file {path} row {k}: {column} must be a number, got {row[column]!r}") from None
    return rows


def _apply_beta_db(system: HybridSystem, beta_db: float | None) -> HybridSystem:
    if beta_db is None:
        return system
    beta = 10.0 ** (beta_db / 10.0)
    return fitting.apply_params(system, {f"beta.{m.label}": beta for m in system.modes})


def _single_field(config: RunConfig) -> float:
    if config.field_grid is None:
        if any(m.field_map.kind != "fixed" for m in config.system.modes):
            raise ConfigError("field-mapped modes need sweep.field (a single point for `spectrum`)")
        return 0.0
    values = config.field_grid.values()
    if values.size != 1:
        raise ConfigError("this command needs a single bias field (sweep.field.count == 1); use `map` for sweeps")
    return float(values[0])


def _frequency_grid(config: RunConfig) -> np.ndarray:
    if config.frequency_grid is None:
        raise ConfigError("config must provide sweep.frequency")
    return config.frequency_grid.values()


def cmd_spectrum(args) -> int:
    config = load_config(args.config)
    system = _apply_beta_db(config.system, args.beta_db)
    B = _single_field(config)
    f = _frequency_grid(config)

    s21, s31 = scattering.amplitudes(f, system, B)
    amplitudes = {"s21": s21, "s11": 1.0 + s21, **{f"s31_{label}": values for label, values in s31.items()}}
    columns: dict[str, np.ndarray] = {"f_hz": f}
    for name, values in amplitudes.items():
        columns[f"re_{name}"] = values.real
        columns[f"im_{name}"] = values.imag
        columns[f"abs2_{name}"] = np.abs(values) ** 2
        phase = scattering.principal_phase(values)
        columns[f"arg_{name}"] = np.unwrap(phase) if args.unwrap else phase
    columns["eta"] = np.broadcast_to(scattering.eta_from_amplitudes(s31), f.shape)  # 0.0 for a bare cavity

    # every cell is a number: one "%.17g" template per row, as in `map`
    template = ",".join(["%.17g"] * len(columns)) + "\r\n"
    rows = np.column_stack(list(columns.values())).tolist()
    _write_csv(args.out, columns.keys(), (template % tuple(row) for row in rows))
    return EXIT_OK


def cmd_map(args) -> int:
    config = load_config(args.config)
    system = _apply_beta_db(config.system, args.beta_db)
    if config.field_grid is None:
        raise ConfigError("config must provide sweep.field")
    sweep = scattering.sweep_map(
        system, config.field_grid.values(), _frequency_grid(config), config.observable
    )
    values = sweep.values
    if args.unwrap and config.observable.endswith("_phase"):
        values = np.unwrap(values, axis=1)

    # One text block per B row, from one template that holds the formatted
    # frequency cells and marks the B cell with "\0": "%.17g" % x is
    # format(x, ".17g"), and a .17g cell holds no "%", no "\0" and nothing
    # that needs quoting.
    template = "".join(["\0," + _fmt(f) + ",%.17g\r\n" for f in sweep.frequencies.tolist()])
    blocks = (
        template.replace("\0", _fmt(B)) % tuple(row.tolist())
        for B, row in zip(sweep.fields, values)
    )
    _write_csv(args.out, ["B_T", "f_hz", "value"], blocks)
    return EXIT_OK


def _modes_rows(i: int, j: int, fields, sign_branch: str, material) -> list:
    """The `modes` rows of index pair (i, j), one per bias field, from one batched solve.

    The minus branch of (i, j) is the mode (i, -j): its closed form, if it
    has one, and its roots. Each row is its CSV text, filled into one
    "%.17g" template per index pair (a .17g cell needs no quoting), with
    empty closed-form cells where the pair has no closed form. A row that
    cannot be computed holds the ValueError (DomainError included) that
    computing it raises, so the caller raises it only when the row's turn
    comes.
    """
    signed_j = j if sign_branch == "plus" else -j
    closed_map = magnetostatics.closed_form_map(i, signed_j)
    template = f"%.17g,{i},{j},{sign_branch}," + (",%.17g,\r\n" if closed_map is None else "%.17g,%.17g,%.17g\r\n")
    rows: list = []
    solvable = []  # (row index, query, closed form, search window)
    for B in fields:
        try:
            closed = None if closed_map is None else magnetostatics.mode_frequency(closed_map, B, material)
            q = magnetostatics.WalkerModeQuery(i=i, j=signed_j, B_ext=B)
            window = None if closed is None else magnetostatics.closed_form_window(closed, material)
        except ValueError as exc:
            rows.append(exc)
            continue
        solvable.append((len(rows), q, closed, window))
        rows.append(None)
    solved = magnetostatics.solve_walker_modes(
        [q for _, q, _, _ in solvable], material, [window for _, _, _, window in solvable]
    )
    for (k, q, closed, _), root in zip(solvable, solved.outcomes):
        if isinstance(root, DomainError):
            rows[k] = root
        elif closed is None:
            rows[k] = template % (q.B_ext, root)
        else:
            rows[k] = template % (q.B_ext, closed, root, abs(root - closed) / closed)
    return rows


def cmd_modes(args) -> int:
    config = load_config(args.config)
    if config.modes_table is None:
        raise ConfigError("config must provide a modes_table section")
    spec = config.modes_table
    material = config.system.material
    fields = spec.field_grid.values().tolist()

    def rows():
        columns = [_modes_rows(i, j, fields, spec.sign_branch, material) for (i, j) in spec.indices]
        for row in chain.from_iterable(zip(*columns)):  # B-major, index pairs in config order
            if isinstance(row, ValueError):
                raise row
            yield row

    _write_csv(args.out, ["B_T", "i", "j", "sign_branch", "f_closed_hz", "f_solver_hz", "rel_diff"], rows())
    return EXIT_OK


def cmd_derive(args) -> int:
    config = load_config(args.config)
    if config.derive is None:
        raise ConfigError("config must provide a derive section")
    spec = config.derive
    system = config.system
    if not system.modes:
        raise ConfigError("derive needs at least one mode with measured g and gamma")

    rows = []  # every row is built before the output is opened, so a failing mode writes nothing
    for mode in system.modes:
        params = derived.derive_mode_params(
            g=mode.g,
            gamma=mode.gamma,
            cavity=system.cavity,
            material=system.material,
            optical=system.optical,
            V_c=spec.cavity_volume,
            g_B=spec.g_B,
        )
        reference = spec.reference.get(mode.label, {})
        for name, value in dataclasses.asdict(params).items():
            if name in reference:
                ref = reference[name]
                dev = abs(value - ref) / abs(ref) if ref != 0 else math.inf
                rows.append([mode.label, name, _fmt(value), _fmt(ref), _fmt(dev)])
            else:
                rows.append([mode.label, name, _fmt(value), "", ""])

    _write_csv(args.out, ["mode", "quantity", "derived", "reference", "rel_dev"], map(_csv_line, rows))
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config)
    if config.fit is None:
        raise ConfigError("config must provide a fit section")
    spec = config.fit
    field, _, label = spec.observable.partition(".")
    column = field if field in ("s21", "s11") else f"s31_{label}"
    rows = _read_csv(args.data, ("f_hz", f"re_{column}", f"im_{column}"))
    observed = scattering.ComplexSpectrum(
        np.array([row["f_hz"] for row in rows]),
        np.array([complex(row[f"re_{column}"], row[f"im_{column}"]) for row in rows]),
    )
    problem = fitting.FitProblem(
        observed=observed,
        system=config.system,
        free=spec.free,
        B=spec.B,
        observable=spec.observable,
        loss=spec.loss,
    )
    result = fitting.fit_spectrum(problem, fitting.read_params(config.system, spec.free, spec.B))

    rows = [
        *(["estimate", name, _fmt(result.estimates[name])] for name in sorted(result.estimates)),
        ["stat", "rms_residual", _fmt(result.rms_residual)],
        ["stat", "iterations", result.iterations],
        ["stat", "converged", str(result.converged).lower()],
        ["stat", "jacobian_condition_estimate", _fmt(result.jacobian_condition_estimate)],
        ["stat", "loss", result.loss],
        *(["trace", k, _fmt(rms)] for k, rms in enumerate(result.residual_trace)),
    ]
    _write_csv(args.out, ["kind", "name", "value"], map(_csv_line, rows))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _include_flag(path: str, k: int, cell: str) -> bool:
    """The ``include`` cell of data row ``k`` (counted from 1 after the header): 0 or 1, as in scaling.include."""
    try:
        flag = int(cell)
    except ValueError:
        flag = None
    if flag not in (0, 1):
        raise ConfigError(f"data file {path} row {k}: include must be 0 or 1, got {cell!r}")
    return bool(flag)


def cmd_scaling(args) -> int:
    config = load_config(args.config)
    if config.scaling is None:
        raise ConfigError("config must provide a scaling section")
    rows = _read_csv(args.data, ("diameter_m", "value"))
    points = [(row["diameter_m"], row["value"]) for row in rows]
    include = [
        _include_flag(args.data, k, row["include"]) if "include" in row else True for k, row in enumerate(rows, 1)
    ]
    if config.scaling.include is not None:
        if len(config.scaling.include) != len(points):
            raise ConfigError("scaling.include length must match the number of points")
        include = list(config.scaling.include)
    try:
        result = derived.fit_scaling_laws(points, config.scaling.model, include)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rows = [
        ["fit", "model", result.model],
        *(["fit", f"c{k}", _fmt(coefficient)] for k, coefficient in enumerate(result.coefficients)),
        ["fit", "rms_residual", _fmt(result.rms_residual)],
    ]
    for k, ((diameter, _), used) in enumerate(zip(points, result.included_points)):
        rows += [["point", f"included_{k}", int(used)], ["point", f"predicted_{k}", _fmt(result.predict(diameter))]]
    _write_csv(args.out, ["kind", "name", "value"], map(_csv_line, rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnoncavity",
        description="Magnon-cavity hybrid system spectra, mode tables, and parameter extraction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, data: bool = False, sweep_flags: bool = False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the YAML configuration file")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        if data:
            p.add_argument("--data", required=True, help="input data CSV path")
        if sweep_flags:
            p.add_argument("--unwrap", action="store_true", help="unwrap phase columns along frequency")
            p.add_argument(
                "--beta-db",
                type=float,
                default=None,
                dest="beta_db",
                help="set every mode's amplification factor to 10^(x/10)",
            )
        p.set_defaults(func=func)
        return p

    add("spectrum", cmd_spectrum, "frequency cross-section of all S-parameters at one bias field", sweep_flags=True)
    add("map", cmd_map, "2D (field x frequency) map of one observable, long CSV format", sweep_flags=True)
    add("modes", cmd_modes, "Walker mode frequency table: closed forms vs. characteristic-equation solver")
    add("derive", cmd_derive, "derived parameter report (spin counts, densities, optical coupling, ...)")
    add("fit", cmd_fit, "extract system parameters from a measured spectrum CSV", data=True)
    add("scaling", cmd_scaling, "fit a size-scaling law to (diameter, value) points", data=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OverflowError) as exc:  # OverflowError: a float ** out of range
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConfigError, ValueError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
