"""Layer tracing from outside the program.

A :class:`Tracer` replaces public functions of magnoncavity with timing
wrappers, on the module attributes that callers actually resolve (the
``load_config`` that cli imported by name, the ``susceptibility_magnon``
that scattering imported by name, and so on), and puts the originals
back on :meth:`Tracer.uninstall`. Each wrapped call records a span
(name, start, end, parent, amount) in memory; functions called too often
for a span (the Walker characteristic, Brent's method) only count calls.
A layer's self time is the duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "op"


def _size(tracer, args, result):
    return int(np.size(result.values if hasattr(result, "values") else result))


def _frequency_points(tracer, args, result):
    return int(np.size(args[0]))


def _brent_root_accepted(tracer, args, result):
    """1 if the solve returned a root that Brent's method refined.

    Solves do not nest, so the Brent results recorded since the previous
    solve returned are this solve's refinements.
    """
    refined = tracer.returns["magnetostatics.brentq"]
    accepted = int(result in refined)
    refined.clear()
    return accepted


# (module, attribute, layer, amount) for spans; amount(tracer, args, result)
# gives a per-call quantity recorded with the span (0 when the call raised).
SPAN_TARGETS = (
    ("magnoncavity.config", "load_config", "config", None),
    ("magnoncavity.cli", "load_config", "config", None),
    ("magnoncavity.cli", "cmd_map", "cli", None),
    ("magnoncavity.cli", "cmd_modes", "cli", None),
    ("magnoncavity.scattering", "sweep_map", "scattering", _size),
    ("magnoncavity.scattering", "s21", "scattering", _size),
    ("magnoncavity.scattering", "s11", "scattering", _size),
    ("magnoncavity.scattering", "s31_mode", "scattering", _size),
    ("magnoncavity.scattering", "eta_spectrum", "scattering", _size),
    ("magnoncavity.scattering", "shared_denominator", "scattering", _frequency_points),
    ("magnoncavity.scattering", "susceptibility_magnon", "model", None),
    ("magnoncavity.magnetostatics", "mode_frequency", "magnetostatics", None),
    ("magnoncavity.magnetostatics", "msm20_frequency", "magnetostatics", None),
    ("magnoncavity.magnetostatics", "msm_frequency_linear", "magnetostatics", None),
    ("magnoncavity.magnetostatics", "solve_walker_mode", "magnetostatics", _brent_root_accepted),
    ("magnoncavity.fitting", "fit_spectrum", "fitting", None),
    ("magnoncavity.fitting", "apply_params", "fitting", None),
    ("magnoncavity.fitting", "finite_difference_jacobian", "fitting", None),
)

# (module, attribute, keep return values) whose calls are only counted.
COUNT_TARGETS = (
    ("magnoncavity.magnetostatics", "walker_characteristic", False),
    ("magnoncavity.magnetostatics", "brentq", True),
)

CONFIG_TARGETS = tuple(t for t in SPAN_TARGETS if t[2] == "config")


def wrapped_targets() -> list[str]:
    """Module attributes that still hold a tracer wrapper."""
    targets = [t[:2] for t in SPAN_TARGETS + COUNT_TARGETS]
    return [
        f"{module}.{attr}"
        for module, attr in targets
        if getattr(getattr(importlib.import_module(module), attr), "bench_wrapper", False)
    ]


class Tracer:
    """Spans and call counts for one traced run, kept in memory."""

    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.names: list[str] = []
        self.layers: dict[str, str] = {ROOT_SPAN: "op"}
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[int] = []
        self.counts: Counter = Counter()
        self.returns: dict[str, list] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, layer, amount in self.span_targets:
            name = f"{module_name.rpartition('.')[2]}.{attr}"
            self.layers[name] = layer
            self._patch(module_name, attr, lambda fn, n=name, a=amount: self._span_wrapper(fn, n, a))
        for module_name, attr, keep in self.count_targets:
            name = f"{module_name.rpartition('.')[2]}.{attr}"
            if keep:
                self.returns[name] = []
            self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def _patch(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.amounts.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, amount):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if amount is not None:
                self.amounts[index] = amount(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.bench_wrapper = True
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts
        returns = self.returns.get(name)

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if returns is not None:
                returns.append(result)
            return result

        counted.__wrapped__ = fn
        counted.bench_wrapper = True
        return counted

    @contextmanager
    def operation(self):
        """Root span around one benchmark operation."""
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """(names, durations, self times, parents, amounts) as numpy arrays."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        children = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], durations[has_parent])
        names = np.asarray(self.names, dtype=object)
        return names, durations, durations - children, parents, np.asarray(self.amounts, dtype=np.int64)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\tamount\n")
            for k, (name, start, end, parent, amount) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.amounts)
            ):
                handle.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\t{amount}\n")


def layer_metrics(tracer: Tracer, n_ops: int, fits=()) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_ops`` root operations.

    Times and call counts are per operation; fitting counts are per fit,
    taken over ``fits`` (the FitResults the operations returned).
    """
    names, durations, self_times, parents, amounts = tracer.arrays()
    layers = np.asarray([tracer.layers[n] for n in names], dtype=object)

    def total(values, mask) -> float:
        return float(values[mask].sum())

    def calls(name) -> int:
        return int(np.count_nonzero(names == name))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    is_scattering = layers == "scattering"
    parent_layer = np.where(parents >= 0, layers[np.maximum(parents, 0)], ROOT_SPAN)
    cells = total(amounts, is_scattering & (parent_layer != "scattering"))
    solves = names == "magnetostatics.solve_walker_mode"
    n_solves = calls("magnetostatics.solve_walker_mode")
    brent = tracer.counts["magnetostatics.brentq"]
    iterations = sum(f.iterations for f in fits)

    return {
        "op_traced_s": total(durations, names == ROOT_SPAN) / n_ops,
        "cli.serialize_s": total(self_times, layers == "cli") / n_ops,
        "scattering.kernel_s": total(self_times, is_scattering) / n_ops,
        "scattering.denominator_calls": calls("scattering.shared_denominator") / n_ops,
        "scattering.denominator_points_per_cell": ratio(
            total(amounts, names == "scattering.shared_denominator"), cells
        ),
        "model.susceptibility_calls": calls("scattering.susceptibility_magnon") / n_ops,
        "model.susceptibility_s": total(self_times, layers == "model") / n_ops,
        "magnetostatics.mode_frequency_calls": calls("magnetostatics.mode_frequency") / n_ops,
        "magnetostatics.mode_frequency_s": total(durations, names == "magnetostatics.mode_frequency") / n_ops,
        "magnetostatics.solve_calls": n_solves / n_ops,
        "magnetostatics.solve_s": total(durations, solves) / n_ops,
        "magnetostatics.characteristic_evals_per_solve": ratio(
            tracer.counts["magnetostatics.walker_characteristic"], n_solves
        ),
        "magnetostatics.brent_calls": brent / n_ops,
        "magnetostatics.brent_accept_ratio": ratio(total(amounts, solves), brent),
        "fitting.iterations": ratio(iterations, len(fits)),
        "fitting.model_evals": ratio(calls("fitting.apply_params"), len(fits)),
        "fitting.model_evals_per_iter": ratio(calls("fitting.apply_params"), iterations),
        "fitting.jacobian_s": total(durations, names == "fitting.finite_difference_jacobian") / n_ops,
        "fitting.converged_ratio": ratio(sum(f.converged for f in fits), len(fits)),
    }


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Total self time of every layer, the root operations included."""
    names, _, self_times, _, _ = tracer.arrays()
    layers = np.asarray([tracer.layers[n] for n in names], dtype=object)
    return {layer: float(self_times[layers == layer].sum()) for layer in sorted(set(layers))}
