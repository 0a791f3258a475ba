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
import functools
import io
import math
import os
import sys
import warnings
from contextlib import closing, nullcontext

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


def _csv_text(rows) -> str:
    """The text ``csv.writer`` writes for ``rows``: minimal quoting, each row ending in \r\n."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _write_csv(out: str | None, header, blocks) -> None:
    """Write the CSV row ``header`` and then the byte blocks ``blocks`` to the path ``out`` (stdout for None or "-").

    The output is UTF-8 bytes, the same on stdout and in a file whatever
    stdout's text encoding. The header goes through ``csv.writer`` (see
    ``_csv_text``). Each block is one or more whole rows, each ending in
    \r\n: encoded ``csv.writer`` text, or a "%.17g" bytes template's.
    ``blocks`` may be a generator: it is consumed one block at a time, so the
    blocks before one that raises are already written. Stdout is flushed
    first, so that text already printed to it comes out before the table, and
    its binary buffer is written; a stdout without one (the ``io.StringIO``
    of ``contextlib.redirect_stdout``) gets the same bytes, decoded. An
    OSError while writing (a full disk, a reader that closed the pipe) is a
    ConfigError: a partial ``out`` file is removed, and a failed stdout is
    pointed at os.devnull, so that the interpreter's last flush is silent.
    """
    to_stdout = out is None or out == "-"
    try:
        handle = sys.stdout if to_stdout else open(out, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from None
    try:
        with nullcontext(handle) if to_stdout else handle:
            if not to_stdout:
                write = handle.write
            elif hasattr(handle, "buffer"):
                handle.flush()
                write = handle.buffer.write
            else:

                def write(block: bytes) -> None:
                    handle.write(block.decode())

            write(_csv_text([header]).encode())
            for block in blocks:
                write(block)
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


def _parallel_blocks(block, n: int):
    """Yield the byte blocks ``block(0)``, ..., ``block(n - 1)`` in order, formatted in W = min(CPUs, n) processes.

    "%.17g" formatting holds the GIL, so threads cannot share it, but raw
    bytes through a pipe need no pickling. W counts CPUs as ``sweep_map``
    does, and is 1 where os.fork does not exist. This process formats the
    blocks k with k % W == 0; forked child c (0 < c < W) formats those with
    k % W == c and writes each to its own pipe as an 8-byte little-endian
    length and the bytes, so it runs at most one pipe buffer and one block
    ahead. A child runs only Python formatting, no numpy kernel or BLAS call
    whose lock a thread of this process could hold at the fork, writes only
    to its pipe, and leaves through os._exit: it never returns into the
    interpreter nor flushes a buffer it inherited. A child that ends before
    its last frame is an OSError here. When the generator ends or is closed,
    every child is killed and reaped.
    """
    workers = min(scattering._cpu_count(), n) if hasattr(os, "fork") else 1
    children = []  # (pid, the read end of its pipe) of children 1 ... W - 1
    try:
        for c in range(1, workers):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():  # Python 3.12+ warns of numpy's BLAS threads, which a child never calls
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    for _, reader in children:
                        reader.close()
                    with open(write_fd, "wb") as pipe:
                        for k in range(c, n, workers):
                            data = block(k)
                            pipe.write(len(data).to_bytes(8, "little"))
                            pipe.write(data)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for k in range(n):
            if k % workers == 0:
                yield block(k)
                continue
            reader = children[k % workers - 1][1]
            header = reader.read(8)
            size = int.from_bytes(header, "little")
            data = reader.read(size)
            if len(header) < 8 or len(data) < size:
                raise OSError(f"the process formatting block {k} of {n} ended before writing it")
            yield data
    finally:
        import signal  # imported here so that the commands that never fork do not pay for it

        for pid, reader in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()


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

    with np.errstate(all="ignore"):  # a cell that overflows is the DomainError below, not a warning
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
    table = np.column_stack(list(columns.values()))
    if not np.isfinite(table).all():  # checked before the output is opened, so nothing is written
        k, c = np.unravel_index(np.argmin(np.isfinite(table)), table.shape)
        raise DomainError(f"{list(columns)[c]} is {table[k, c]} at B = {B!r} T, f = {f[k].item()!r} Hz")

    # every cell is a number: one "%.17g" bytes template per row, as in `map`
    template = b",".join([b"%.17g"] * len(columns)) + b"\r\n"
    _write_csv(args.out, columns.keys(), (template % tuple(row) for row in table.tolist()))
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

    # One byte block per bias field: its B cell joined in before the tail of
    # each frequency row, which holds the frequency cell (formatted once) and
    # the value's template. b"%.17g" % x is format(x, ".17g") encoded, and a
    # .17g cell holds no "%" and nothing that needs quoting.
    pieces = [b"", *(b",%.17g,%%.17g\r\n" % f for f in sweep.frequencies.tolist())]
    fields = sweep.fields.tolist()

    def block(k: int) -> bytes:
        return (b"%.17g" % fields[k]).join(pieces) % tuple(values[k].tolist())

    with closing(_parallel_blocks(block, len(fields))) as blocks:
        _write_csv(args.out, ["B_T", "f_hz", "value"], blocks)
    return EXIT_OK


def _modes_rows(fields, indices, sign_branch: str, material):
    """The `modes` rows as byte blocks, one per bias field (index pairs in config order), from one batched solve.

    The minus branch of (i, j) is the mode (i, -j): its closed form, if it
    has one, and its roots. Closed forms, windows and the rows' rules are
    found per index pair over the whole ``fields`` array; the first row
    where a rule fails has its ValueError (DomainError included), and only
    the rows before it are solved. A field's block fills
    one "%.17g" bytes template of every pair's row (a .17g cell needs no quoting),
    with empty closed-form cells where a pair has none. The first row that
    fails ends the rows: the blocks before it are yielded, then it raises.
    """
    pairs = [(i, j if sign_branch == "plus" else -j) for i, j in indices]
    n_pairs = len(pairs)
    # B-major (field, pair) arrays flattened to rows: closed form (NaN without one) and window edges
    *columns, rules = zip(*(magnetostatics._table_rows(i, signed_j, fields, material) for i, signed_j in pairs))
    closed, lows, highs = (np.column_stack(column).ravel() for column in columns)
    stop, error = magnetostatics._first_failure(rules) or (closed.size, None)
    roots, failures, _ = magnetostatics._solve_walker_arrays(
        pairs, np.arange(stop) % n_pairs, np.repeat(fields, n_pairs)[:stop], lows[:stop], highs[:stop], material
    )
    if failures:
        stop = min(failures)
        error = failures[stop]
    closed, roots = closed[:stop], roots[:stop]

    # per row: closed form, root and relative difference, of which a pair without a closed form writes the root
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.column_stack([closed, roots, np.abs(roots - closed) / closed])
    has_closed = [magnetostatics.closed_form_map(i, signed_j) is not None for i, signed_j in pairs]
    tails = [
        f",{i},{j},{sign_branch},".encode() + (b"%.17g,%.17g,%.17g\r\n" if closed_form else b",%.17g,\r\n")
        for (i, j), closed_form in zip(indices, has_closed)
    ]
    written = np.array([[closed_form, True, closed_form] for closed_form in has_closed])
    # each field's B cell is joined in before every pair's tail, as in `map`
    pieces = [b"", *tails]
    n_full, partial = divmod(stop, n_pairs)
    values = cells[: n_full * n_pairs].reshape(n_full, n_pairs, 3)[:, written]
    for B, row in zip(fields[:n_full].tolist(), values.tolist()):
        yield (b"%.17g" % B).join(pieces) % tuple(row)
    if partial:  # the rows of the failing row's field before it
        head = cells[n_full * n_pairs : stop][written[:partial]]
        yield (b"%.17g" % fields[n_full]).join(pieces[: partial + 1]) % tuple(head.tolist())
    if error is not None:
        raise error


def cmd_modes(args) -> int:
    config = load_config(args.config)
    if config.modes_table is None:
        raise ConfigError("config must provide a modes_table section")
    spec = config.modes_table
    rows = _modes_rows(spec.field_grid.values(), spec.indices, spec.sign_branch, config.system.material)
    _write_csv(args.out, ["B_T", "i", "j", "sign_branch", "f_closed_hz", "f_solver_hz", "rel_diff"], rows)
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
        try:
            params = derived.derive_mode_params(
                g=mode.g, gamma=mode.gamma, cavity=system.cavity, material=system.material,
                optical=system.optical, V_c=spec.cavity_volume, g_B=spec.g_B,
            )
        except ValueError as exc:  # the same class, so the exit code holds, with the failing mode named
            raise type(exc)(f"mode {mode.label!r}: {exc}") from exc
        reference = spec.reference.get(mode.label, {})
        for name, value in dataclasses.asdict(params).items():
            if name in reference:
                ref = reference[name]
                dev = abs(value - ref) / abs(ref) if ref != 0 else math.inf
                rows.append([mode.label, name, _fmt(value), _fmt(ref), _fmt(dev)])
            else:
                rows.append([mode.label, name, _fmt(value), "", ""])

    _write_csv(args.out, ["mode", "quantity", "derived", "reference", "rel_dev"], [_csv_text(rows).encode()])
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
    _write_csv(args.out, ["kind", "name", "value"], [_csv_text(rows).encode()])
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
    _write_csv(args.out, ["kind", "name", "value"], [_csv_text(rows).encode()])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnoncavity",
        description="Magnon-cavity hybrid system spectra, mode tables, and parameter extraction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, data: bool = False, sweep_flags: bool = False):
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

    add("spectrum", "frequency cross-section of all S-parameters at one bias field", sweep_flags=True)
    add("map", "2D (field x frequency) map of one observable, long CSV format", sweep_flags=True)
    add("modes", "Walker mode frequency table: closed forms vs. characteristic-equation solver")
    add("derive", "derived parameter report (spin counts, densities, optical coupling, ...)")
    add("fit", "extract system parameters from a measured spectrum CSV", data=True)
    add("scaling", "fit a size-scaling law to (diameter, value) points", data=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused by later calls in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:  # cmd_<command> is looked up when it runs: the reused parser holds no command function
        return globals()[f"cmd_{args.command}"](args)
    except (DomainError, OverflowError) as exc:  # OverflowError: a float ** out of range, whose args are an errno tuple
        reason = "a float result overflowed" if isinstance(exc, OverflowError) else exc
        print(f"numeric domain error: {reason}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConfigError, ValueError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
