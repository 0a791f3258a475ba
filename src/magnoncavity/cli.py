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


# _write_table formats blocks of about _BLOCK_CELLS cells: a block's (3, n) uint64 temporaries in cells.cells then
# stay below glibc's 128 KiB mmap threshold, so they reuse heap memory and not fresh pages (at 24 000 cells each ufunc
# call took about 3 to 4 times as long per cell).
_BLOCK_CELLS = 5000


def _cells(values) -> list[bytes]:
    """``b"%.17g" % v`` for each float64 ``v`` of ``values``, flattened, byte for byte: :func:`cells.cells`.

    The module is imported on the first call, not with this one: where bytecode is not cached, compiling it at every
    start-up would add about 2.5 ms and a 0.6 MB memory peak.
    """
    from .cells import cells

    return cells(values)


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
    \r\n: encoded ``csv.writer`` text, or a bytes template's, filled with
    :func:`_cells` in "%b" slots (:func:`_write_table`).
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

    A block's formatting holds the GIL for much of its time (the cells'
    tolist, the template fill, and the Python work between :func:`_cells`'
    numpy calls), so threads would not share it well, but raw bytes through
    a pipe need no pickling. W counts CPUs as ``sweep_map`` does, and is 1
    where os.fork does not exist. This process formats the blocks k with
    k % W == 0; forked child c (0 < c < W) formats those with k % W == c and
    writes each to its own pipe as an 8-byte little-endian length and the
    bytes, flushed at once, so it runs at most one pipe buffer and one block
    ahead. The blocks are :func:`_write_table`'s: none of `map`, `spectrum`
    and `modes` runs a thread or BLAS call while it formats (``sweep_map``
    joins its threads before it returns). A child runs only Python and
    numpy's elementwise ufuncs, no threaded numpy kernel or BLAS call whose
    lock a thread of this process could hold at the fork, writes only to its
    pipe, and leaves through os._exit: it never returns into the interpreter
    nor flushes a buffer it inherited. A child that ends before its last
    frame is an OSError here. When the generator ends or is closed, every
    child is killed and reaped.
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
                            pipe.flush()  # a small block too goes out whole before the next is made
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


def _write_table(out: str | None, header, fields, tails, values, n_rows: int) -> None:
    """Write the ``n_rows`` rows of a numeric table under the CSV row ``header`` to ``out`` (see _write_csv).

    Row k * len(tails) + c is the cell of ``fields[k]`` and the bytes template ``tails[c]``, whose "%b" slots take the
    next cells of ``values`` in row-major order: the last field's tails are cut at ``n_rows`` (a `modes` table's
    failing row). Every cell is :func:`_cells`' and needs no quoting. The rows go out in blocks of whole fields of
    about _BLOCK_CELLS slots, formatted by :func:`_parallel_blocks`, each with one _cells call: a second call's fixed
    cost, about a hundred numpy calls, would show on a `modes` table of a few thousand cells.
    """
    offsets = np.cumsum([0] + [tail.count(b"%b") for tail in tails]).tolist()  # a field's slots before each tail
    per_field = offsets[-1]
    values = np.ravel(values)
    n_fields = -(-n_rows // len(tails))
    per_block = max(1, _BLOCK_CELLS // per_field)
    pieces = [b"", *tails]  # a field's rows: its cell joined in before each tail

    def block(k: int) -> bytes:
        first, stop = k * per_block, min((k + 1) * per_block, n_fields)
        last = min(n_rows - (stop - 1) * len(tails), len(tails))  # the rows of the block's last field
        end = (stop - 1) * per_field + offsets[last]  # the slots up to the block's last row
        cells = _cells(np.concatenate([fields[first:stop], values[first * per_field : end]]))
        n = stop - first
        template = b"".join([B.join(pieces) for B in cells[: n - 1]]) + cells[n - 1].join(pieces[: last + 1])
        return template % tuple(cells[n:])

    with closing(_parallel_blocks(block, -(-n_fields // per_block))) as blocks:
        _write_csv(out, header, blocks)


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

    _write_table(args.out, columns.keys(), f, [b",%b" * (len(columns) - 1) + b"\r\n"], table[:, 1:], f.size)
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

    tails = [b",%b,%%b\r\n" % f for f in _cells(sweep.frequencies)]  # each frequency cell formatted once
    _write_table(args.out, ["B_T", "f_hz", "value"], sweep.fields, tails, values, values.size)
    return EXIT_OK


def cmd_modes(args) -> int:
    config = load_config(args.config)
    if config.modes_table is None:
        raise ConfigError("config must provide a modes_table section")
    spec = config.modes_table
    fields = spec.field_grid.values()
    pairs = [(i, j if spec.sign_branch == "plus" else -j) for i, j in spec.indices]  # (i, j)'s minus branch: (i, -j)
    closed, roots, error = magnetostatics._modes_table(pairs, fields, config.system.material)

    # per row: closed form, root and relative difference, of which a pair without a closed form writes the root
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.column_stack([closed, roots, np.abs(roots - closed) / closed])
    has_closed = [magnetostatics.closed_form_map(i, signed_j) is not None for i, signed_j in pairs]
    tails = [
        f",{i},{j},{spec.sign_branch},".encode() + (b"%b,%b,%b\r\n" if closed_form else b",%b,\r\n")
        for (i, j), closed_form in zip(spec.indices, has_closed)
    ]
    written = np.array([[closed_form, True, closed_form] for closed_form in has_closed])
    values = cells[written[np.arange(roots.size) % len(pairs)]]
    header = ["B_T", "i", "j", "sign_branch", "f_closed_hz", "f_solver_hz", "rel_diff"]
    _write_table(args.out, header, fields, tails, values, roots.size)
    if error is not None:  # the rows before the failing one are written
        raise error
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
        ["stat", "stop_reason", result.stop_reason],
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
