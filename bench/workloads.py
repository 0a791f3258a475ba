"""The benchmark's four workloads and the checks on their outputs.

Each workload has the same shape:

* ``load(seed)`` is the set-up a user pays once: it parses the workload's
  config from ``bench/inputs/`` and builds what the operations need.
* ``prepare(ctx, k)`` builds the input of operation ``k`` outside the
  timed region (only fit_batch has per-operation inputs).
* ``op(prepared)`` is the timed operation.
* ``calibration`` names the reference kernel in run.py that does the same
  kind of work, used to correct times for the machine's speed.
* ``check(ctx, prepared, output, golden)`` returns one outcome per checked
  result: OK, FAILED (the program reported that it did not succeed, such
  as a fit that did not converge) or WRONG (the program returned a wrong
  result). It compares against the golden record (bench/golden.json), or
  checks only shapes and exit codes when ``golden`` is None.

Why these four: map_csv is bound by CSV serialization, eta_map_8mode by
the amplitude kernel's shared-denominator rebuilds, fit_batch by many
small model evaluations where per-call overhead counts, and walker_table
by the pure-Python Walker solver. A change aimed at one layer has a
workload that exercises it and others that predict no change.

``small=True`` shrinks every grid for the benchmark's self-tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import yaml

import common
from magnoncavity import cli, config, fitting, scattering

OK, FAILED, WRONG = "ok", "failed", "wrong"

# eta_map_8mode reference check: |value - ref| <= ETA_RTOL*|ref| + ETA_ATOL*max|ref|.
ETA_RTOL = 1e-9
ETA_ATOL = 1e-12

# fit_batch: noise per quadrature as a share of max|S21|, and the starting
# guesses, derived from the truth by the fixed offsets that
# configs/fit_0p45mm.yaml applies to the 0.45 mm assembly (f_c + 5 MHz,
# kappa_e 2.1 -> 2.4 MHz, g 28.6 -> 32 MHz, gamma 2.3 -> 2.0 MHz,
# f_m - 5 MHz).
#
# The noise is 1e-3, not the 1e-2 of the acceptance round trip. At 1e-2 the
# 8-parameter fit reaches the noise floor but runs to the 200-iteration cap
# and reports converged=False on 3-15% of spectra: its stopping rule (gradient
# norm below 1e-10 of the initial one) sits at the round-off floor of the
# central-difference Jacobian. A benchmark run must not fail operations, and
# the number of such fits a timed run draws varies from run to run. At 1e-3
# every fit converged, in 9 (5-parameter) or 15 (8-parameter) iterations,
# over 1500 spectra of each kind. The traced run still measures the share
# of 8-parameter fits at 1e-2 that do not converge (run.py, convergence
# probe), so the limit stays visible. See README.md, "Known fitter limit".
FIT_NOISE_SIGMA = 1e-3
FIT_PROBE_NOISE_SIGMA = 1e-2
FIT_START = {
    "f_c": lambda v: v + 5e6,
    "f_m": lambda v: v - 5e6,
    "kappa_e": lambda v: v * 2.4 / 2.1,
    "g": lambda v: v * 32.0 / 28.6,
    "gamma": lambda v: v * 2.0 / 2.3,
}
# A converged fit is wrong if an estimate misses the truth by more than
# this share of it: frequencies are pinned by the data far more tightly
# than rates, whose noise-driven scatter on these spectra stays below 10%.
FIT_TOLERANCE = {"f_c": 1e-4, "f_m": 1e-4, "kappa_e": 0.25, "g": 0.25, "gamma": 0.25}

# Every config in configs/ that runs without external data, as CLI argv
# tails; their output digests are part of the golden record.
GOLDEN_CONFIGS = {
    "bare_cavity": ["spectrum", "bare_cavity.yaml"],
    "sphere_0p45mm_spectrum": ["spectrum", "sphere_0p45mm_spectrum.yaml"],
    "sphere_0p45mm_map": ["map", "sphere_0p45mm_map.yaml"],
    "sphere_0p75mm_map": ["map", "sphere_0p75mm_map.yaml"],
    "sphere_1p0mm_offset_map": ["map", "sphere_1p0mm_offset_map.yaml"],
    "walker_modes": ["modes", "walker_modes.yaml"],
    "derive_0p45mm": ["derive", "derive_0p45mm.yaml"],
    "derive_0p75mm": ["derive", "derive_0p75mm.yaml"],
    "derive_1p0mm": ["derive", "derive_1p0mm.yaml"],
    "scaling_g_kittel": ["scaling", "scaling_g_kittel.yaml", "--data", "points_g_kittel.csv"],
    "scaling_g_msm": ["scaling", "scaling_g_kittel.yaml", "--data", "points_g_msm.csv"],
}

# Grid sizes for the self-tests: (path in the YAML mapping, count).
SMALL_SIZES = {
    "map_csv": ((("sweep", "field"), 5), (("sweep", "frequency"), 7)),
    "eta_map_8mode": ((("sweep", "field"), 4), (("sweep", "frequency"), 9)),
    "walker_table": ((("modes_table", "field"), 3),),
    "fit_5p": ((("sweep", "frequency"), 301),),
    "fit_8p": ((("sweep", "frequency"), 301),),
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_golden() -> dict:
    with open(common.GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def output_path(name: str):
    out = common.WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{name}.csv"


def input_path(name: str, small: bool):
    """The workload's config; a shrunk copy under the work directory if ``small``."""
    path = common.INPUTS / f"{name}.yaml"
    if not small:
        return path
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    for keys, count in SMALL_SIZES[name]:
        section = data
        for key in keys:
            section = section[key]
        section["count"] = count
    small_path = common.WORK / "small" / f"{name}.yaml"
    small_path.parent.mkdir(parents=True, exist_ok=True)
    small_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return small_path


def check_configs(golden: dict | None) -> list[str]:
    """Run every golden config through the CLI and compare output digests.

    With ``golden`` None only the exit codes are checked.
    """
    outcomes = []
    for key, argv in GOLDEN_CONFIGS.items():
        args = [str(common.CONFIGS / a) if a.endswith((".yaml", ".csv")) else a for a in argv]
        out = output_path(f"golden-{key}")
        rc = cli.main(args + ["--out", str(out)])
        ok = rc == 0 and (golden is None or sha256_file(out) == golden["configs"][key])
        outcomes.append(OK if ok else WRONG)
    return outcomes


@dataclass
class CliContext:
    argv: list[str]
    out: object
    items: int


class CliWorkload:
    """One in-process ``cli.main`` call writing CSV to a file."""

    def __init__(self, name: str, command: str, calibration: str):
        self.name = name
        self.command = command
        self.calibration = calibration

    def load(self, seed: int, small: bool = False) -> CliContext:
        path = input_path(self.name, small)
        cfg = config.load_config(path)
        if self.command == "map":
            items = cfg.field_grid.count * cfg.frequency_grid.count
        else:
            items = cfg.modes_table.field_grid.count * len(cfg.modes_table.indices)
        out = output_path(self.name)
        return CliContext([self.command, str(path), "--out", str(out)], out, items)

    def prepare(self, ctx: CliContext, k: int) -> CliContext:
        return ctx

    def op(self, ctx: CliContext) -> int:
        return cli.main(ctx.argv)

    def check(self, ctx: CliContext, prepared, rc: int, golden: dict | None) -> list[str]:
        if rc != 0:
            return [WRONG]
        if golden is None:
            return [OK if self.output_stats(ctx)[0] == ctx.items else WRONG]
        return [OK if sha256_file(ctx.out) == golden[self.name] else WRONG]

    def items(self, ctx: CliContext) -> int:
        return ctx.items

    def output_stats(self, ctx: CliContext) -> tuple[int, int]:
        """(data rows, bytes) of the CSV the last operation wrote."""
        data = ctx.out.read_bytes()
        return data.count(b"\n") - 1, len(data)


@dataclass
class EtaContext:
    system: object
    fields: np.ndarray
    frequencies: np.ndarray


class EtaMap:
    """Python-API ``sweep_map(system, B, f, "eta")``; no CSV stage."""

    name = "eta_map_8mode"
    calibration = "numpy"

    def load(self, seed: int, small: bool = False) -> EtaContext:
        cfg = config.load_config(input_path(self.name, small))
        return EtaContext(cfg.system, cfg.field_grid.values(), cfg.frequency_grid.values())

    def prepare(self, ctx: EtaContext, k: int) -> EtaContext:
        return ctx

    def op(self, ctx: EtaContext) -> np.ndarray:
        return scattering.sweep_map(ctx.system, ctx.fields, ctx.frequencies, "eta").values

    def check(self, ctx: EtaContext, prepared, values: np.ndarray, golden: dict | None) -> list[str]:
        if values.shape != (ctx.fields.size, ctx.frequencies.size) or not np.all(np.isfinite(values)):
            return [WRONG]
        if golden is None:
            return [OK]
        reference = golden[self.name]
        ref = np.asarray(reference["values"])
        got = values[np.ix_(reference["rows"], reference["columns"])]
        limit = ETA_RTOL * np.abs(ref) + ETA_ATOL * np.max(np.abs(ref))
        return [OK if np.all(np.abs(got - ref) <= limit) else WRONG]

    def items(self, ctx: EtaContext) -> int:
        return ctx.fields.size * ctx.frequencies.size


@dataclass
class FitCase:
    """One of the two fit problems: truth system, free bounds, start, grid."""

    cfg: object
    truth: dict
    start: dict
    frequencies: np.ndarray


@dataclass
class FitContext:
    seed: int
    cases: list
    first: list


def _truth_value(system, name: str) -> float:
    field, _, label = name.partition(".")
    if not label:
        return getattr(system.cavity, field)
    mode = system.mode(label)
    return mode.field_map.frequency if field == "f_m" else getattr(mode, field)


def _fit_problem(case: FitCase, noise_sigma: float, seed: list[int]) -> tuple:
    """(problem, case) for a fresh noisy spectrum of ``case``'s truth system."""
    spec = case.cfg.fit
    observed = fitting.synthesize_noisy_spectrum(
        case.cfg.system, spec.B, case.frequencies, spec.observable, noise_sigma=noise_sigma, seed=seed
    )
    problem = fitting.FitProblem(
        observed=observed, system=case.cfg.system, free=spec.free,
        B=spec.B, observable=spec.observable, loss=spec.loss,
    )
    return problem, case


class FitBatch:
    """One operation is a 5-parameter fit followed by an 8-parameter fit,
    each on a fresh noisy spectrum of its truth system.

    Operation k's noise comes from the seed sequence (seed, k, case), so
    the same seed gives the same spectra.
    """

    name = "fit_batch"
    calibration = "numpy"
    case_names = ("fit_5p", "fit_8p")

    def load(self, seed: int, small: bool = False) -> FitContext:
        cases = []
        for case in self.case_names:
            cfg = config.load_config(input_path(case, small))
            truth = {n: _truth_value(cfg.system, n) for n in cfg.fit.free}
            start = {n: FIT_START[n.partition(".")[0]](v) for n, v in truth.items()}
            cases.append(FitCase(cfg, truth, start, cfg.frequency_grid.values()))
        ctx = FitContext(seed, cases, [])
        ctx.first = self.prepare(ctx, 0)
        return ctx

    def prepare(self, ctx: FitContext, k: int) -> list:
        if k == 0 and ctx.first:
            return ctx.first
        return [
            _fit_problem(case, FIT_NOISE_SIGMA, [ctx.seed, k, index]) for index, case in enumerate(ctx.cases)
        ]

    def convergence_probe(self, ctx: FitContext, n: int) -> list[str]:
        """Check outcomes of ``n`` 8-parameter fits on spectra with the
        acceptance round trip's noise (FIT_PROBE_NOISE_SIGMA).

        Fit k's noise comes from the seed sequence (seed, k, 2), apart
        from the operations' spectra. FAILED outcomes are the fits that
        did not converge: the known fitter limit described at
        FIT_NOISE_SIGMA, which the traced run reports as a share.
        """
        case = ctx.cases[-1]
        problems = [_fit_problem(case, FIT_PROBE_NOISE_SIGMA, [ctx.seed, k, len(ctx.cases)]) for k in range(n)]
        return self.check(ctx, problems, self.op(problems), None)

    def op(self, problems: list) -> list:
        return [fitting.fit_spectrum(problem, case.start) for problem, case in problems]

    def check(self, ctx: FitContext, problems: list, results: list, golden: dict | None) -> list[str]:
        outcomes = []
        for (_, case), result in zip(problems, results):
            if not result.converged:
                outcomes.append(FAILED)
                continue
            within = all(
                abs(result.estimates[n] - v) <= FIT_TOLERANCE[n.partition(".")[0]] * abs(v)
                for n, v in case.truth.items()
            )
            outcomes.append(OK if within else WRONG)
        return outcomes

    def items(self, problems: list) -> int:
        return len(problems)


WORKLOADS = {
    "map_csv": CliWorkload("map_csv", "map", calibration="csv"),
    "eta_map_8mode": EtaMap(),
    "fit_batch": FitBatch(),
    "walker_table": CliWorkload("walker_table", "modes", calibration="python"),
}


def get(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
