"""Magnetostatic (Walker) mode frequencies of a saturated ferromagnetic sphere.

Provides the uniform-precession (Kittel) frequency, closed-form mode
frequencies for index patterns i - |j| in {0, 1} and for the (2, 0) mode,
and a general solver for the magnetostatic characteristic equation

    i + 1 + xi0 * P_i^j'(xi0) / P_i^j(xi0) + j * chi2 = 0,

where xi0^2 = 1 + 1/chi1 and chi1, chi2 are the circuit-free Polder
susceptibility components of the sphere. All fields are flux densities in
tesla and the gyromagnetic ratio is in Hz/T, which makes chi1 and chi2
dimensionless, so frequencies come out in Hz directly. The sign of j is
the sign branch of the j * chi2 term.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FieldMap, MaterialParams

# Edges of the panel scan of :func:`_solve_walker_arrays` per block: a block holds the whole queries whose spans start
# within one multiple of it, so at most _SCAN_EDGES edges plus one span, of at most the largest panel count + 1. That
# bounds the scan's temporaries; Brent's state is not bounded by it, and grows with the number of panels the whole
# solve selects. Of 2**13 to 2**17, 2**14 ran two 201-field four-pair tables that scan every edge fastest, within 4%
# of blocks of 256 queries of one pair (2-vCPU x86-64 VM); larger blocks ran slower.
_SCAN_EDGES = 2**14
# The lowest internal field, in units of mu0_Ms, at which :func:`_n_panels`
# was checked against a dense count of the roots (every pair with i <= 10).
_H_FLOOR = 2e-4
# The absolute tolerance (Hz) of Brent's method.
_F_TOL = 1.0
# Lowest edge (Hz) of a search window. The (2,0) residual has no j*chi2
# term and is even in f, so a window reaching below zero can hold the
# mirror root -f of a positive one.
_WINDOW_FLOOR = 1.0
# Half-widths, in units of gamma_e*mu0_Ms, of the default search window
# (around the Kittel frequency) and of the window around a closed form.
_DEFAULT_HALF_WIDTH = 1.5
_CLOSED_FORM_HALF_WIDTH = 0.03
# Relative tolerance and iteration cap of :func:`_lockstep_brent`: scipy's
# defaults; and the ways one of its searches ends.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100
_ROOT, _NAN, _NO_CONVERGENCE = range(3)


@dataclass(frozen=True)
class _Rule:
    """One validity rule of an array path: where it holds, and the error class and text of element k where it fails."""

    holds: np.ndarray
    error: type[ValueError]
    text: object  # text(k): the error's text at element k


def _first_failure(columns):
    """``(row, error)`` of the first row of a field-major table where a rule fails, or None.

    ``columns[c]`` lists column c's rules over the fields: row k * len(columns) + c is column c at field k. A row's
    error is that of the first of its rules that fails there.
    """
    first = None
    for c, rules in enumerate(columns):
        for rule in rules:
            k = rule.holds.argmin()  # the rule's first failing field, if it fails anywhere
            if not rule.holds.item(k) and (first is None or k * len(columns) + c < first[0]):
                first = int(k) * len(columns) + c, rule.error(rule.text(k))
    return first


def _check(rules, *arrays) -> tuple:
    """The elements of one-element ``arrays``, unless one of ``rules`` fails there: then its error is raised."""
    failure = _first_failure([rules])
    if failure is not None:
        raise failure[1]
    return tuple(array.item() for array in arrays)


def _positive(B_ext) -> _Rule:
    return _Rule(np.isfinite(B_ext) & (B_ext > 0), ValueError, lambda k: "B_ext must be positive and finite")


def _index_rules(i: int, j: int, shape) -> list[_Rule]:
    """The rules of the indices of a Walker mode (i, j), the same at each element: integers, i >= 1, -i <= j <= i."""
    integers = isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))  # else bounds go unchecked
    return [
        _Rule(np.full(shape, integers), ValueError, lambda k: f"mode indices must be integers, got ({i}, {j})"),
        _Rule(np.full(shape, not integers or i >= 1), ValueError,
              lambda k: f"mode index i must be >= 1, got ({i}, {j})"),
        _Rule(np.full(shape, not integers or -i <= j <= i), ValueError,
              lambda k: f"mode index j must satisfy -i <= j <= i, got ({i}, {j})"),
    ]


def check_mode_indices(i: int, j: int) -> None:
    """Raise ValueError unless (i, j) indexes a Walker mode: integers with i >= 1 and -i <= j <= i."""
    _check(_index_rules(i, j, 1))


@dataclass(frozen=True)
class WalkerModeQuery:
    """One magnetostatic-mode request: indices and bias field.

    ``j`` carries the sign branch: the characteristic equation's
    +/-|j|*chi2 term is j*chi2. The closed forms of the i = j and i = j + 1
    families are roots for positive j, not for their (i, -j) twins.
    """

    i: int
    j: int
    B_ext: float

    def __post_init__(self):
        _check(_index_rules(self.i, self.j, 1) + [_positive(np.array([float(self.B_ext)]))])


def internal_field(B_ext: float, material: MaterialParams) -> float:
    """Internal flux density of a uniformly magnetized sphere: B_ext - mu0_Ms/3."""
    return B_ext - material.mu0_Ms / 3.0


def kittel_frequency(B_ext: float, material: MaterialParams) -> float:
    """Uniform-precession mode frequency, linear in the external field.

    f = gamma_e * B_ext; the sphere's demagnetizing field drops out for
    uniform precession.
    """
    return mode_frequency(FieldMap("kittel"), B_ext, material)


def field_for_frequency(f: float, material: MaterialParams) -> float:
    """Inverse of :func:`kittel_frequency`: bias field placing the Kittel mode at f."""
    return f / material.gamma_e


def msm_frequency_linear(q: WalkerModeQuery, material: MaterialParams) -> float:
    """Closed-form magnetostatic mode frequency for i = j or i = j + 1 (j >= 1).

    f = gamma_e*B_ext + (j/(2j+1) - 1/3) * gamma_e*mu0_Ms   for i = j,
    f = gamma_e*B_ext + (j/(2j+3) - 1/3) * gamma_e*mu0_Ms   for i = j + 1.

    The (1, 1) case reduces exactly to the Kittel frequency. Other indices
    raise the ValueError of their :class:`FieldMap`.
    """
    return mode_frequency(FieldMap("walker", q.i, q.j), q.B_ext, material)


def msm20_frequency(B_ext: float, material: MaterialParams) -> float:
    """Closed form for the (2, 0) mode.

    f = gamma_e*mu0_Ms * sqrt((r - 1/3)(r + 7/15)) with r = B_ext/mu0_Ms;
    requires r > 1/3 so the radicand is positive.
    """
    return mode_frequency(FieldMap("msm20"), B_ext, material)


def _legendre_pair(i: int, j: int, z, z_flip):
    """P_i^j(xi) and N = (xi^2 - 1) dP_i^j/dxi for 0 <= j <= i via forward recurrences, at a real or an imaginary xi.

    ``z`` and ``z_flip`` are float arrays: xi = z where z_flip is z, and
    xi = 1j*z where z_flip is -z, so that xi^2 = z * z_flip. The seed
    (1 - xi^2)^{j/2} takes the principal branch, imaginary where xi^2 > 1,
    and the Condon-Shortley phase is included (matches scipy.special.lpmv
    on real arguments in (-1, 1)). Every term of the recurrences is then
    purely real or purely imaginary, and each is carried as its one nonzero
    component. The product of two imaginary terms is the negated product
    of their components: the flipped copies of z and of sqrt(1 - xi^2)
    supply that sign, chosen by the parity of the step. A division by c is
    a product with 1.0/c, as in numpy's complex division, so each component
    has the bits of a complex evaluation, but for the sign of a zero. P is
    imaginary where xi is imaginary and i - j is odd, or where xi^2 > 1 and
    j is odd; N where xi is imaginary and i - j is even, or where xi^2 > 1
    and j is odd.
    """
    if j:
        radicand = 1.0 - z * z_flip  # 1 - xi^2
        somx2 = np.sqrt(np.abs(radicand))
        somx2_flip = np.copysign(somx2, radicand)
    p_jj = 1.0
    for k in range(1, j + 1):
        p_jj = p_jj * (-(2 * k - 1) * (somx2 if k % 2 else somx2_flip))
    if i == j:
        p_im1, p_i = 0.0, p_jj  # P_{j-1}^j vanishes
    else:
        p_prev, p_curr = p_jj, z * (2 * j + 1) * p_jj
        for n in range(j + 2, i + 1):
            z_n = z_flip if (n - j) % 2 == 0 else z  # P_{n-1}^j is imaginary with xi where n - 1 - j is odd
            p_prev, p_curr = p_curr, ((2 * n - 1) * z_n * p_curr - (n - 1 + j) * p_prev) * (1.0 / (n - j))
        p_im1, p_i = p_prev, p_curr
    return p_i, i * (z_flip if (i - j) % 2 else z) * p_i - (i + j) * p_im1


def _cleared_grid(f, B_ext, i: int, j: int, material: MaterialParams, residual: bool = False):
    """The characteristic residual R cleared of its poles, C = R P (x^2 - f^2), on arrays of probe frequencies.

    ``f`` and ``B_ext`` broadcast. With x = gamma_e (B_ext - mu0_Ms/3), f_M = gamma_e mu0_Ms, P = P_i^|j|(xi0),
    xi0^2 = 1 + (x^2 - f^2)/(f_M x) and N (:func:`_legendre_pair`), C = (i+1) P (x^2 - f^2) + xi0 N f_M x + j f_M f P,
    carried as its one nonzero component with a numpy complex evaluation's bits. It changes sign at the roots of R,
    and at the chi pole f^2 = x^2 for the pairs with (floor(|j|/2) odd) == (j x > 0), above which it is negated.
    NaN where the recurrence sees xi0^2 = 1 (the chi pole) or 0 (a touch of zero for odd i - |j|), or it is not
    finite. With ``residual``, R = C / (P (x^2 - f^2)), NaN where the recurrence sees xi0^2 = 1 or it is not finite
    (P = 0, an overflow, or the division at f^2 = x^2); R is finite at xi0^2 = 0 for even i - |j|, and next to the
    chi pole for the pairs without a pole there.
    """
    x = material.gamma_e * internal_field(B_ext, material)
    f_M = material.gamma_e * material.mu0_Ms
    m = abs(j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den, f_M_x = x * x - f * f, f_M * x
        square = 1.0 + den / f_M_x  # xi0^2
        xi0 = np.sqrt(np.abs(square))
        xi0_flip = np.copysign(xi0, square)
        seen = xi0 * xi0_flip  # the xi0^2 of the recurrence: 1 where square is 1 + 2**-52
        p, n = _legendre_pair(i, m, xi0, xi0_flip)
        # with an imaginary xi0, xi0 * N is imaginary times imaginary where i - |j| is even
        value = (i + 1) * p * den + (xi0_flip if (i - m) % 2 == 0 else xi0) * n * f_M_x + j * f_M * f * p
        if residual:
            value, defined = value / (p * den), seen != 1
        else:
            # above the chi pole, where (floor(|j|/2) odd) == (j x > 0)
            value = np.where((den < 0) & (j * x > 0 if m // 2 % 2 else j * x <= 0), -value, value)
            defined = (seen != 1) & (seen != 0)
    return np.where(defined & np.isfinite(value), value, np.nan)


def walker_characteristic(f: float, q: WalkerModeQuery, material: MaterialParams) -> float:
    """Left side R of the sphere's magnetostatic characteristic equation at one probe frequency.

    A one-point :func:`_cleared_grid` of R; raises DomainError where R is undefined: where the recurrence sees
    xi0^2 = 1, or the value is not finite.
    """
    if not math.isfinite(f):
        raise ValueError("f must be finite")
    value = _cleared_grid(np.array([f], dtype=float), np.array([q.B_ext]), q.i, q.j, material, residual=True).item()
    if math.isnan(value):
        raise DomainError(f"characteristic residual of ({q.i},{q.j}) is undefined at f = {f:.6e} Hz")
    return value


def _windows(center, half_width: float, material: MaterialParams):
    """Search windows center +/- half_width * gamma_e*mu0_Ms, lower edge raised to _WINDOW_FLOOR: (lo, hi, rules)."""
    half = half_width * material.gamma_e * material.mu0_Ms
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = np.maximum(center - half, _WINDOW_FLOOR), center + half
    return lo, hi, [
        _Rule(~(hi <= _WINDOW_FLOOR), DomainError,
              lambda k: f"search window {center[k]:.6e} +/- {half:.6e} Hz lies below {_WINDOW_FLOOR:g} Hz"),
        _Rule(lo < hi, DomainError, lambda k: f"search window {center[k]:.6e} +/- {half:.6e} Hz has no width:"
                                              f" both edges round to {hi[k]:.6e} Hz"),
    ]


def _default_windows(B_ext, material: MaterialParams):
    """:func:`default_search_window` at each field of the 1-D float array ``B_ext``: (lo, hi, rules)."""
    center, rules = _mode_frequency_grid(FieldMap("kittel"), B_ext, material)
    lo, hi, window = _windows(center, _DEFAULT_HALF_WIDTH, material)
    return lo, hi, rules + window


def default_search_window(q: WalkerModeQuery, material: MaterialParams) -> tuple[float, float]:
    """Kittel frequency +/- 1.5 * gamma_e*mu0_Ms, above _WINDOW_FLOOR; covers all low-order mode offsets."""
    lo, hi, rules = _default_windows(np.array([float(q.B_ext)]), material)
    return _check(rules, lo, hi)


@dataclass(frozen=True)
class WalkerSolutions:
    """What one :func:`solve_walker_modes` call found, and how.

    ``outcomes`` holds, per query in order, its root in Hz or the
    DomainError that solving it alone raises. The counters sum over the
    queries, and count only the panels the solve scans: those next to the
    root of the characteristic polynomial that the window can hold, or every
    panel of a query where it is not known. They are scanned panel edges
    where the cleared residual is exactly zero (each one a root), Brent
    refinements run (one per scanned panel whose edge values change sign
    strictly), and Brent's probes evaluated.
    """

    outcomes: tuple[float | DomainError, ...]
    edge_roots: int = 0
    brent_calls: int = 0
    residual_evals: int = 0

    def root(self, k: int) -> float:
        """The root of query ``k``; raises its DomainError if it has none or several."""
        outcome = self.outcomes[k]
        if isinstance(outcome, DomainError):
            raise outcome
        return outcome


def _lockstep_brent(f, xa, xb, fa, fb, xtol: float):
    """Brent's method (Brent 1973, ch. 4) on many brackets at once, in lock-step rounds.

    Bracket k is [xa[k], xb[k]] with the finite, nonzero values fa[k], fb[k]
    of opposite sign at its edges. A line-by-line port of the iteration of
    scipy's ``Zeros/brentq.c`` with its relative tolerance ``_BRENT_RTOL``
    and at most ``_BRENT_MAXITER`` iterations, whose state (xpre, xcur, xblk,
    fpre, fcur, fblk, spre, scur) is held as float64 arrays over the
    unfinished brackets. Each round advances every one of them by one probe,
    and one ``f(x, live)`` call per round evaluates the probes ``x`` of the
    brackets numbered ``live``. Every branch of brentq.c is an ``np.where``
    over the same expression, and numpy's + - * / abs min give CPython's
    doubles, so each bracket takes the probes and root bits of a search of
    its own. Returns the arrays (x, outcome), where outcome is _ROOT (x is
    the root), _NAN (x is where f was NaN) or _NO_CONVERGENCE (x is the last
    probe).
    """
    xpre, xcur, fpre, fcur = (np.array(v, dtype=float) for v in (xa, xb, fa, fb))
    x, outcome = np.empty(xcur.size), np.full(xcur.size, _NO_CONVERGENCE)
    live = np.arange(xcur.size)
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        x[live[done]], outcome[live[done]] = xcur[done], _ROOT

        with np.errstate(all="ignore"):  # the branch not taken may divide 0 by 0
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            # a zero denominator gives +-inf or NaN, as in C, and either fails the step test: bisect
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),  # interpolate
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),  # extrapolate
            )
            good = (  # a good short step
                (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
            )
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))

        live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
            v[~done] for v in (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
        )
        if not live.size:
            break
        fcur = f(xcur, live)
        nan = np.isnan(fcur)
        x[live[nan]], outcome[live[nan]] = xcur[nan], _NAN
        live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
            v[~nan] for v in (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
        )
    x[live] = xcur  # no convergence: the last probe
    return x, outcome


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of the scalar function ``f`` in [a, b] by Brent's method.

    It evaluates f where ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` does
    (f(a), then f(b) unless f(a) is NaN, then each probe) and returns the
    same float; where scipy raises, it raises DomainError. The edges are
    checked in scipy's order: a NaN before a zero, and a before b. A bracket
    that passes goes to a one-bracket :func:`_lockstep_brent`.
    """
    a, b = float(a), float(b)
    fa = float(f(a))
    fb = math.nan if math.isnan(fa) else float(f(b))
    if math.isnan(fa) or math.isnan(fb):
        raise DomainError(f"Brent's method met a NaN residual at x = {a if math.isnan(fa) else b!r}")
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    if (fa < 0) == (fb < 0):
        raise DomainError(f"Brent bracket ({a!r}, {b!r}) does not change sign")
    x, outcome = _lockstep_brent(lambda probe, _: np.array([float(f(probe.item()))]), [a], [b], [fa], [fb], xtol)
    x, outcome = x.item(), outcome.item()
    if outcome == _NAN:
        raise DomainError(f"Brent's method met a NaN residual at x = {x!r}")
    if outcome == _NO_CONVERGENCE:
        raise DomainError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations (last x = {x!r})")
    return x


def solve_walker_modes(
    queries: Sequence[WalkerModeQuery],
    material: MaterialParams,
    windows: Sequence[tuple[float, float] | None],
) -> WalkerSolutions:
    """Roots of the characteristic equation for many queries, of one index pair or of several.

    ``windows`` gives each query's search window, or None for
    :func:`default_search_window`. The index pairs are numbered in order of
    first appearance, and the queries go to :func:`_solve_walker_arrays` as
    arrays of pair numbers, fields and window edges. A query must keep
    exactly one root; otherwise its outcome is the DomainError that reports
    an empty or ambiguous window. Each element of the residual depends only
    on its own probe and field, so outcomes and counters are those of one
    call per index pair.
    """
    queries, windows = list(queries), list(windows)
    if len(windows) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(windows)} search windows")
    if not queries:
        return WalkerSolutions(outcomes=())
    bounds = []
    for q, window in zip(queries, windows):
        lo, hi = default_search_window(q, material) if window is None else window
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"invalid search window ({lo}, {hi})")
        bounds.append((lo, hi))
    lows, highs = np.array(bounds, dtype=float).T
    fields = np.array([q.B_ext for q in queries], dtype=float)
    index_pairs: dict[tuple[int, int], int] = {}
    pair_of = np.array([index_pairs.setdefault((q.i, q.j), len(index_pairs)) for q in queries])
    roots, n_roots, error, counts = _solve_walker_arrays(list(index_pairs), pair_of, fields, lows, highs, material)
    outcomes = (root if n == 1 else error(k) for k, (root, n) in enumerate(zip(roots.tolist(), n_roots.tolist())))
    return WalkerSolutions(outcomes=tuple(outcomes), **counts)


def _walker_root(i, j, h):
    """The one root of the (i, j) residual that a search window can hold, at each internal field ``h``.

    ``i`` and ``j`` are ints, or int arrays shaped like ``h``: one pair per
    field. Frequencies and ``h`` are in units of gamma_e*mu0_Ms. With
    s = xi0^2 and d^|j| P_i / dxi^|j| = xi^p q(xi^2), the residual times
    h^(d+1) q(s) (h^2 - f^2), d the degree of q, is a polynomial in f
    (Walker 1957), a quadratic in f where i - |j| is 0 or 1 and j != 0, and
    in f^2 where j = 0 and i is 2 or 3. Those quadratics factor into (f -
    sigma (h + |j|/(2i + 1))) (f + sigma h), sigma the sign of j, and (f^2 -
    h^2) (f^2 - h^2 - 4h/(2i + 1)). Their other roots are negative, or the
    chi pole f = h that the factor (h^2 - f^2) brings in, never a root of
    the residual. Returns sigma (h + |j|/(2i + 1)), negative for j < 0, and
    sqrt(h^2 + 4h/(2i + 1)): the closed forms of ``FieldMap("walker")`` and
    msm20, and that of (3, 0). It is NaN where h is not positive and where
    the pair's polynomial is not one of those quadratics.
    """
    linear, even = (j != 0) & (i - np.abs(j) <= 1), (j == 0) & ((i == 2) | (i == 3))
    with np.errstate(invalid="ignore"):
        root = np.where(linear, np.copysign(1.0, j) * (h + np.abs(j) / (2 * i + 1)),
                        np.sqrt(h * h + 4 * h / (2 * i + 1)))
    return np.where((linear | even) & (h > 0), root, math.nan)


def _n_panels(i, h):
    """Panels per search window of a pair of degree i at each internal field ``h`` (in units of mu0_Ms): floats.

    ``i`` is an int, or an int array shaped like ``h``.

    Roots that share a panel are missed. They crowd with the degree: 16 panels per degree, at least 64, and 2 more
    at a multiple of 18 (the chi pole, where the scan is NaN, is 7/18 up a default window with a lower edge above
    1 Hz). They crowd into the band x < f < sqrt(x^2 + x f_M), too, whose width f_M (sqrt(h^2 + h) - h) is below
    0.2 f_M at 0 < h < 1/15: there max(2, 0.2 f_M / width) times as many, rounded to an even count, and 2 more at a
    multiple of 18. That is twice as many down to h = 0.0125, where the width is 0.1 f_M. Below h = _H_FLOOR the
    count is that of _H_FLOOR (2294 for i = 10), which bounds a span and so a scan block.
    """
    base = np.maximum(64, 16 * i)
    base = base + 2 * (base % 18 == 0)
    # 0.2 f_M / width = 0.2 (1 + sqrt(1 + 1/h))
    factor = np.maximum(2.0, 0.2 * (1.0 + np.sqrt(1.0 + 1.0 / np.maximum(h, _H_FLOOR))))
    counts = 2 * np.round(base / 2 * factor)
    counts += 2 * (counts % 18 == 0)
    return np.where((0 < h) & (h < 1 / 15), counts, base)


def _solve_walker_arrays(pairs, pair_of, fields, lows, highs, material: MaterialParams):
    """The array core of :func:`solve_walker_modes`: the queries as arrays of pair numbers, fields and windows.

    Query k is the index pair ``pairs[pair_of[k]]`` at the bias field
    ``fields[k]``, searched in the finite window (``lows[k]``, ``highs[k]``)
    with lo < hi; error texts are built from these arrays. A window of (i, j)
    at an internal field h is split into ``_n_panels(i, h)`` panels. Each
    query scans one span of edges, each edge once: that of the panel of the
    one root of the pair's characteristic polynomial that a window can hold
    (:func:`_walker_root`) and of the panel on either side, clipped to the
    window, so empty where that root lies outside it: the float residual's
    sign change is far closer than a panel to it. The span is every edge of
    a query whose root is not known: a pair whose polynomial is not a
    quadratic, or a field with h <= 0. Any other panel holds no root. The
    spans are cut, in query order, into blocks of whole queries whose spans
    start within one multiple of ``_SCAN_EDGES``, and the cleared residual C
    (:func:`_cleared_grid`) is evaluated on each block's edges in one call
    per index pair present. An edge where C is exactly zero is a root, and
    so is one in every panel of two scanned edges whose values change sign
    strictly, refined from them to ``_F_TOL`` by one lock-step Brent search
    over the selected panels of the whole call (:func:`_lockstep_brent`),
    whose rounds evaluate their probes the same way, unless it meets a NaN
    or does not converge. Returns (roots, counts of roots, error, counters):
    per query in order, its root (unspecified unless it has exactly one) and
    its number of roots; the function ``error(k)`` that builds the
    DomainError of a query k with no root or several; and the
    :class:`WalkerSolutions` counters.
    """
    widths, f_M = highs - lows, material.gamma_e * material.mu0_Ms
    h = material.gamma_e * internal_field(fields, material) / f_M
    i, j = np.array(pairs, dtype=int)[pair_of].T
    n_panels = _n_panels(i, h)
    # the panel of the root, counted from lo, and the first and the last edge of it and of the panel on either side,
    # clipped to the window
    with np.errstate(over="ignore", invalid="ignore"):
        panel = np.floor((_walker_root(i, j, h) * f_M - lows) * (n_panels / widths))
        first, last = np.maximum(panel - 1, 0), np.minimum(panel + 2, n_panels)
        # a query whose root is NaN or out of range takes every edge
        unknown = ~np.isfinite(panel)
    first[unknown], last[unknown] = 0, n_panels[unknown]
    lengths = np.maximum(last - first + 1, 0).astype(int)
    ends = np.cumsum(lengths)
    offsets = ends - lengths - first.astype(int)  # an edge's k is its number, counted over all spans, minus this

    def cleared(x, query):
        """C at the probes ``x`` of the queries numbered ``query``: one :func:`_cleared_grid` call per index pair."""
        values, pair = np.empty(x.size), pair_of[query]
        for p in np.flatnonzero(np.bincount(pair)).tolist():  # np.unique hashes: ten times slower here
            here = np.flatnonzero(pair == p)
            values[here] = _cleared_grid(x[here], fields[query[here]], *pairs[p], material)
        return values

    # per block: its zero edges, and its selected panels with their edge values, each with its query (empty first
    # entries, so that a call without queries concatenates to empty arrays)
    zeros: list[tuple] = [(np.empty(0, dtype=int), np.empty(0))]
    selected: list[tuple] = [(np.empty(0, dtype=int),) + (np.empty(0),) * 4]
    heads = np.flatnonzero(np.diff((ends - lengths) // _SCAN_EDGES, prepend=-1)).tolist()  # each block's first query
    for begin, end in zip(heads, heads[1:] + [pair_of.size]):
        # each query's span of edges, in query then edge order: the query, and the edges first, first + 1, ..., last
        query = np.repeat(np.arange(begin, end), lengths[begin:end])
        at = np.arange(ends[begin] - lengths[begin], ends[end - 1]) - offsets[query]
        edges = lows[query] + widths[query] * at / n_panels[query]  # the scalar edges lo + (hi - lo) * k / n
        values = cleared(edges, query)
        zero = values == 0
        zeros.append((query[zero], edges[zero]))
        signs = np.sign(values)  # NaN edges select nothing
        panels = np.flatnonzero((query[1:] == query[:-1]) & (signs[:-1] * signs[1:] < 0))
        selected.append((query[panels], edges[panels], edges[panels + 1], values[panels], values[panels + 1]))
    zero_query, zero_edge = (np.concatenate(column) for column in zip(*zeros))
    query_of, xa, xb, fa, fb = (np.concatenate(column) for column in zip(*selected))
    counts = Counter(edge_roots=zero_query.size, brent_calls=query_of.size)

    def probes(x, live):
        counts["residual_evals"] += x.size
        return cleared(x, query_of[live])

    found, outcome = _lockstep_brent(probes, xa, xb, fa, fb, _F_TOL)
    refined = outcome == _ROOT

    # every query's roots, ascending, in query order: a query with one has it as its root
    owner = np.concatenate([query_of[refined], zero_query])
    candidates = np.concatenate([found[refined], zero_edge])
    order = np.lexsort((candidates, owner))
    owner, candidates = owner[order], candidates[order]
    n_candidates = np.bincount(owner, minlength=pair_of.size)
    first = np.cumsum(n_candidates) - n_candidates
    roots = np.zeros(pair_of.size)
    roots[owner] = candidates

    def error(k: int) -> DomainError:
        (i, j), lo, hi, n = pairs[pair_of[k]], lows[k], highs[k], n_candidates[k]
        at = ", ".join(f"{root:.6e}" for root in candidates[first[k] : first[k] + n].tolist())
        return DomainError(
            f"window ({lo:.6e}, {hi:.6e}) Hz contains {n} roots for ({i},{j}) at {at} Hz; narrow it" if n
            else f"no root of the ({i},{j}) characteristic equation in ({lo:.6e}, {hi:.6e}) Hz"
        )
    return roots, n_candidates, error, counts


def solve_walker_mode(
    q: WalkerModeQuery,
    material: MaterialParams,
    search_window: tuple[float, float] | None = None,
) -> float:
    """Root of the characteristic equation inside a frequency window.

    A one-query :func:`solve_walker_modes`; raises DomainError when the
    window holds no root or more than one.
    """
    return solve_walker_modes([q], material, [search_window]).root(0)


def closed_form_map(i: int, j: int) -> FieldMap | None:
    """The field map of the closed form for mode (i, j), or None where there is none.

    (2, 0) has the msm20 form; a Walker family map is returned for the
    indices :class:`FieldMap` accepts.
    """
    if (i, j) == (2, 0) and isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer)):
        return FieldMap("msm20")
    try:
        return FieldMap("walker", i, j)
    except ValueError:
        return None


def closed_form_window(f_closed: float, material: MaterialParams) -> tuple[float, float]:
    """Search window of the solver root that matches a closed form: f_closed +/- 0.03 * gamma_e*mu0_Ms.

    Its lower edge is kept at _WINDOW_FLOOR, and a closed form too far
    below zero leaves no window: DomainError.
    """
    lo, hi, rules = _windows(np.array([float(f_closed)]), _CLOSED_FORM_HALF_WIDTH, material)
    return _check(rules, lo, hi)


def mode_frequency(field_map: FieldMap, B_ext: float, material: MaterialParams) -> float:
    """Evaluate a mode's field map at the one bias field B_ext: a one-element :func:`_mode_frequency_grid`."""
    values, rules = _mode_frequency_grid(field_map, np.array([float(B_ext)]), material)
    return _check(rules, values)[0]


def _mode_frequency_grid(field_map: FieldMap, B_ext, material: MaterialParams):
    """A mode's field map at each field of the 1-D float array ``B_ext``: (values, rules).

    The rules, in order: a finite field for kittel and msm20, a finite and positive one for walker, then a
    positive (2, 0) radicand. A value is unspecified where a rule fails, and +/-inf where the map overflows.
    """
    if field_map.kind == "fixed":
        return np.array([float(field_map.frequency)] * B_ext.size), []  # faster than np.full on one field
    finite = _Rule(np.isfinite(B_ext), ValueError, lambda k: "B_ext must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if field_map.kind == "kittel":
            return material.gamma_e * B_ext, [finite]
        if field_map.kind == "walker":  # see msm_frequency_linear
            i, j = field_map.i, field_map.j
            offset = (j / (2 * j + (1 if i == j else 3)) - 1.0 / 3.0) * (material.gamma_e * material.mu0_Ms)
            return material.gamma_e * B_ext + offset, [_positive(B_ext)]
        r = B_ext / material.mu0_Ms
        radicand = (r - 1.0 / 3.0) * (r + 7.0 / 15.0)
        return material.gamma_e * material.mu0_Ms * np.sqrt(radicand), [
            finite,
            _Rule(radicand > 0, DomainError, lambda k: f"(2,0) closed form needs B_ext/mu0_Ms > 1/3, got r = {r[k]:g}"),
        ]


def _table_rows(i: int, j: int, B_ext, material: MaterialParams):
    """The Walker table rows of (i, j) at each field of the 1-D float array ``B_ext``: (closed, lo, hi, rules).

    ``closed`` is the closed form (NaN where there is none) and (lo, hi) the :func:`closed_form_window` around
    it, or the :func:`default_search_window`. The rules, in order: the closed form's, the query's, the window's.
    """
    closed_map = closed_form_map(i, j)
    query = _index_rules(i, j, B_ext.shape) + [_positive(B_ext)]  # WalkerModeQuery's
    if closed_map is None:
        lo, hi, rules = _default_windows(B_ext, material)
        return np.full(B_ext.shape, math.nan), lo, hi, query + rules
    closed, rules = _mode_frequency_grid(closed_map, B_ext, material)
    lo, hi, window = _windows(closed, _CLOSED_FORM_HALF_WIDTH, material)
    return closed, lo, hi, rules + query + window


def _modes_table(pairs, fields, material: MaterialParams):
    """The `modes` table of ``pairs`` over the 1-D float array ``fields``, field-major, to its first failing row.

    A row fails where a :func:`_table_rows` rule fails, or where its window holds no root or several. Returns
    (closed, roots, error): the closed forms (NaN without one) and roots of the rows before it, and its ValueError
    (DomainError included) or None. Only the rows before the first rule failure are solved, and only the failing
    row's error is built.
    """
    *columns, rules = zip(*(_table_rows(i, j, fields, material) for i, j in pairs))
    closed, lows, highs = (np.column_stack(column).ravel() for column in columns)
    stop, error = _first_failure(rules) or (closed.size, None)
    roots, n_roots, root_error, _ = _solve_walker_arrays(
        pairs, np.arange(stop) % len(pairs), np.repeat(fields, len(pairs))[:stop], lows[:stop], highs[:stop], material
    )
    failing = np.flatnonzero(n_roots != 1)
    if failing.size:
        stop = int(failing[0])
        error = root_error(stop)
    return closed[:stop], roots[:stop], error
