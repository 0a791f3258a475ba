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

# A candidate bracketing root is accepted only if the characteristic
# residual there is this small; pole crossings leave residuals that are
# many orders of magnitude larger.
_ROOT_RESIDUAL_TOL = 1e-4
_IMAG_TOL = 1e-9
# Probe frequencies with |gamma_e^2 B_i^2 - f^2| below this fraction of the
# larger square are treated as the susceptibility pole itself.
_POLE_GUARD = 1e-12
# The array residual of the panel scan differs from the scalar one in its
# last bits (numpy's complex sqrt and division are not CPython's), so a
# panel whose array endpoints come this close to zero is rechecked in scalar.
_SCAN_SLACK = 1e-9
# Bias fields scanned per array call: bounds the scan's temporaries to
# _SCAN_BLOCK * (_N_PANELS + 1) complex values whatever the table size.
_SCAN_BLOCK = 256
# Panels per search window, and the absolute tolerance (Hz) of Brent's
# method; accepted roots closer than 10 * _F_TOL are one root.
_N_PANELS = 64
_F_TOL = 1.0
# Lowest edge (Hz) of a search window. The (2,0) residual has no j*chi2
# term and is even in f, so a window reaching below zero can hold the
# mirror root -f of a positive one.
_WINDOW_FLOOR = 1.0
# Relative tolerance and iteration cap of :func:`brentq`: scipy's defaults.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def check_mode_indices(i: int, j: int) -> None:
    """Raise ValueError unless (i, j) indexes a Walker mode: i >= 1 and -i <= j <= i."""
    if i < 1:
        raise ValueError(f"mode index i must be >= 1, got ({i}, {j})")
    if not -i <= j <= i:
        raise ValueError(f"mode index j must satisfy -i <= j <= i, got ({i}, {j})")


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
        check_mode_indices(self.i, self.j)
        if not math.isfinite(self.B_ext) or self.B_ext <= 0:
            raise ValueError("B_ext must be positive and finite")


def internal_field(B_ext: float, material: MaterialParams) -> float:
    """Internal flux density of a uniformly magnetized sphere: B_ext - mu0_Ms/3."""
    return B_ext - material.mu0_Ms / 3.0


def kittel_frequency(B_ext: float, material: MaterialParams) -> float:
    """Uniform-precession mode frequency, linear in the external field.

    f = gamma_e * B_ext; the sphere's demagnetizing field drops out for
    uniform precession.
    """
    if not math.isfinite(B_ext):
        raise ValueError("B_ext must be finite")
    return material.gamma_e * B_ext


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
    if not math.isfinite(B_ext):
        raise ValueError("B_ext must be finite")
    r = B_ext / material.mu0_Ms
    radicand = (r - 1.0 / 3.0) * (r + 7.0 / 15.0)
    if radicand <= 0:
        raise DomainError(f"(2,0) closed form needs B_ext/mu0_Ms > 1/3, got r = {r:g}")
    return material.gamma_e * material.mu0_Ms * math.sqrt(radicand)


def _legendre_pair(i: int, j: int, z):
    """P_i^j(z) and dP_i^j/dz for 0 <= j <= i via forward recurrences.

    Complex-capable: the seed (1 - z^2)^{j/2} uses the principal branch,
    and value and derivative share it, so ratios are branch-independent.
    Includes the Condon-Shortley phase (matches scipy.special.lpmv on
    real arguments in (-1, 1)). Plain arithmetic, so ``z`` may be a complex
    scalar or a complex array; at z = +/-1 the derivative is singular, and
    the caller raises (:func:`_legendre_pair_at`) or masks the point.
    """
    somx2 = (1.0 - z * z) ** 0.5
    p_jj = 1.0 + 0.0j
    for k in range(1, j + 1):
        p_jj *= -(2 * k - 1) * somx2
    if i == j:
        p_im1, p_i = 0.0 + 0.0j, p_jj  # P_{j-1}^j vanishes
    else:
        p_prev, p_curr = p_jj, z * (2 * j + 1) * p_jj
        for n in range(j + 2, i + 1):
            p_prev, p_curr = p_curr, ((2 * n - 1) * z * p_curr - (n - 1 + j) * p_prev) / (n - j)
        p_im1, p_i = p_prev, p_curr
    dp = (i * z * p_i - (i + j) * p_im1) / (z * z - 1.0)
    return p_i, dp


def _legendre_pair_at(i: int, j: int, z) -> tuple[complex, complex]:
    """:func:`_legendre_pair` at one point, with z = +/-1 reported as a DomainError."""
    z = complex(z)
    if z * z - 1.0 == 0:
        raise DomainError("Legendre derivative is singular at z = +/-1")
    return _legendre_pair(i, j, z)


def assoc_legendre(i: int, j: int, x):
    """Associated Legendre function P_i^j and its first derivative at x.

    Negative j is mapped through the proportionality
    P_i^{-m} = (-1)^m (i-m)!/(i+m)! P_i^m. Real input yields real output
    whenever the function is real there (always for even j, and for odd j
    when \\|x\\| <= 1); otherwise a complex pair is returned.
    """
    if i < 1:
        raise ValueError("degree i must be >= 1")
    if not -i <= j <= i:
        raise ValueError("order j must satisfy -i <= j <= i")
    if not (isinstance(x, complex) or math.isfinite(x)):
        raise ValueError("x must be finite")
    m = abs(j)
    p, dp = _legendre_pair_at(i, m, x)
    if j < 0:
        scale = (-1) ** m * math.factorial(i - m) / math.factorial(i + m)
        p, dp = scale * p, scale * dp
    if not isinstance(x, complex):
        mag = max(abs(p), abs(dp), 1.0)
        if abs(p.imag) <= 1e-13 * mag and abs(dp.imag) <= 1e-13 * mag:
            return p.real, dp.real
    return p, dp


def _polder_components(f: float, q: WalkerModeQuery, material: MaterialParams) -> tuple[float, float, float]:
    """chi1, chi2 and the pole frequency gamma_e*B_i at probe frequency f."""
    B_i = internal_field(q.B_ext, material)
    x = material.gamma_e * B_i
    f_M = material.gamma_e * material.mu0_Ms
    den = x * x - f * f
    # |x^2 - f^2| ~ 2*x*|x - f|; guard against the susceptibility pole
    if abs(den) < _POLE_GUARD * max(x * x, f * f):
        raise DomainError(f"characteristic equation has a pole at f = {x:.6e} Hz (gamma_e * B_internal)")
    chi1 = f_M * x / den
    chi2 = f_M * f / den
    return chi1, chi2, x


def walker_characteristic(f: float, q: WalkerModeQuery, material: MaterialParams) -> float:
    """Left side of the sphere's magnetostatic characteristic equation.

    chi1 may put xi0^2 = 1 + 1/chi1 below zero inside the magnetostatic
    band; the Legendre ratio xi0*P'/P is an even function of xi0 and hence
    real for any real xi0^2, so the residual is evaluated on a complex
    path and its (verified negligible) imaginary part discarded.
    """
    if not math.isfinite(f):
        raise ValueError("f must be finite")
    chi1, chi2, _ = _polder_components(f, q, material)
    if chi1 == 0:
        raise DomainError("chi1 vanished; characteristic equation undefined")
    xi0 = complex(1.0 + 1.0 / chi1) ** 0.5
    p, dp = _legendre_pair_at(q.i, abs(q.j), xi0)
    if p == 0:
        raise DomainError(f"P_i^j vanishes at xi0 = {xi0}; residual has a pole here")
    ratio = xi0 * dp / p
    value = (q.i + 1) + ratio + q.j * chi2
    if abs(value.imag) > _IMAG_TOL * max(1.0, abs(value.real)):
        raise DomainError(f"characteristic residual is not real at f = {f:.6e} Hz (imag {value.imag:.3e})")
    return value.real


def _positive_window(center: float, half: float) -> tuple[float, float]:
    """Search window center +/- half with its lower edge raised to _WINDOW_FLOOR.

    Raises DomainError when nothing of the window lies above the floor.
    """
    lo, hi = max(center - half, _WINDOW_FLOOR), center + half
    if not lo < hi:
        raise DomainError(f"search window {center:.6e} +/- {half:.6e} Hz lies below {_WINDOW_FLOOR:g} Hz")
    return lo, hi


def default_search_window(q: WalkerModeQuery, material: MaterialParams) -> tuple[float, float]:
    """Kittel frequency +/- 1.5 * gamma_e*mu0_Ms, above _WINDOW_FLOOR; covers all low-order mode offsets."""
    return _positive_window(kittel_frequency(q.B_ext, material), 1.5 * material.gamma_e * material.mu0_Ms)


def _characteristic_grid(f, B_ext, i: int, j: int, material: MaterialParams):
    """:func:`walker_characteristic` on an array of probe frequencies.

    ``f`` and ``B_ext`` broadcast against each other (one row of
    frequencies per bias field). The result is NaN wherever the scalar
    function raises DomainError: at the pole guard, for chi1 == 0,
    xi0 = +/-1, P_i^j == 0, and a residual that is not real.
    """
    x = material.gamma_e * internal_field(B_ext, material)
    f_M = material.gamma_e * material.mu0_Ms
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = x * x - f * f
        undefined = np.abs(den) < _POLE_GUARD * np.maximum(x * x, f * f)
        chi1 = f_M * x / den
        chi2 = f_M * f / den
        undefined |= chi1 == 0
        xi0 = (1.0 + 1.0 / chi1).astype(complex) ** 0.5
        undefined |= xi0 * xi0 - 1.0 == 0
        p, dp = _legendre_pair(i, abs(j), xi0)
        undefined |= p == 0
        value = (i + 1) + xi0 * dp / p + j * chi2
        undefined |= np.abs(value.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(value.real))
    return np.where(undefined, np.nan, value.real)


@dataclass(frozen=True)
class WalkerSolutions:
    """What one :func:`solve_walker_modes` call found, and how.

    ``outcomes`` holds, per query in order, its root in Hz or the
    DomainError that solving it alone raises. The counters sum over the
    queries: panels the array scan selected for scalar refinement, Brent
    refinements run, candidates rejected as pole crossings (a residual
    above the root tolerance, or a refinement that walked into the pole
    guard or that Brent's method could not finish), accepted roots
    merged into an earlier one within 10 * _F_TOL, and scalar residuals
    evaluated (each distinct probe frequency of a query once).
    """

    outcomes: tuple[float | DomainError, ...]
    panels_selected: int = 0
    brent_calls: int = 0
    poles_rejected: int = 0
    duplicates_merged: int = 0
    residual_evals: int = 0

    def root(self, k: int) -> float:
        """The root of query ``k``; raises its DomainError if it has none or several."""
        outcome = self.outcomes[k]
        if isinstance(outcome, DomainError):
            raise outcome
        return outcome


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-by-line port of scipy's ``Zeros/brentq.c``, with its relative
    tolerance ``_BRENT_RTOL`` and at most ``_BRENT_MAXITER`` iterations, so
    it returns the float that ``scipy.optimize.brentq(f, a, b, xtol=xtol)``
    returns. Where scipy raises, this raises DomainError: f(a) and f(b) of
    the same sign, a NaN value of ``f``, and no convergence.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"Brent's method met a NaN residual at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # no zero and no NaN left: the signbit test of brentq.c
        raise DomainError(f"Brent bracket ({xpre!r}, {xcur!r}) does not change sign")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C's division by zero gives +-inf or NaN, and either fails the step test: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise DomainError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations (last x = {xcur!r})")


def _refine(
    q: WalkerModeQuery,
    material: MaterialParams,
    edges: list[float],
    panels: list[int],
    counts: Counter,
) -> list[float]:
    """The roots that scalar refinement finds in one query's selected panels.

    Brent's method only ever sees the scalar residual: both endpoints of a
    selected panel are evaluated again in scalar and must bracket a root
    there, so the roots do not depend on the array scan's last bits. Each
    probe frequency is evaluated at most once per call.
    """

    # every probe of this query, with its residual or the DomainError raised
    # there: walker_characteristic is a pure function of (f, q, material), so
    # a repeated probe (a panel edge Brent starts from, Brent's last point,
    # an edge two panels share) is evaluated once
    seen: dict[float, float | DomainError] = {}

    def residual(f: float) -> float:
        if f not in seen:
            counts["residual_evals"] += 1
            try:
                seen[f] = walker_characteristic(f, q, material)
            except DomainError as exc:
                seen[f] = exc
        value = seen[f]
        if isinstance(value, DomainError):
            raise value
        return value

    def scalar(f: float) -> float:
        try:
            return residual(f)
        except DomainError:
            return math.nan

    roots: list[float] = []
    for k in panels:
        fa, fb = edges[k], edges[k + 1]
        ra, rb = scalar(fa), scalar(fb)
        if math.isnan(ra) or math.isnan(rb) or (ra == 0 and rb == 0):
            continue
        try:
            if ra == 0:
                candidate = fa
            elif rb == 0:
                candidate = fb
            elif ra * rb < 0:
                counts["brent_calls"] += 1
                candidate = brentq(residual, fa, fb, xtol=_F_TOL)
            else:
                continue
            if abs(residual(candidate)) > _ROOT_RESIDUAL_TOL:
                counts["poles_rejected"] += 1
                continue  # sign change straddles a pole, not a root
        except DomainError:
            counts["poles_rejected"] += 1
            continue  # refinement walked into the pole guard, or Brent failed: not a root
        if any(abs(candidate - r) <= 10 * _F_TOL for r in roots):
            counts["duplicates_merged"] += 1
        else:
            roots.append(candidate)
    return roots


def solve_walker_modes(
    queries: Sequence[WalkerModeQuery],
    material: MaterialParams,
    windows: Sequence[tuple[float, float] | None],
) -> WalkerSolutions:
    """Roots of the characteristic equation for many bias fields of one mode.

    Every query must share one (i, j); ``windows`` gives each query's
    search window, or None for :func:`default_search_window`. Each window
    is split into ``_N_PANELS`` panels, and the residual at every
    panel edge of a block of fields is evaluated in one array call. A panel
    is refined in scalar (:func:`_refine`) when its array endpoints change
    sign, touch zero or come within ``_SCAN_SLACK`` of it: each sign change
    is refined by Brent's method to ``_F_TOL`` and kept only
    if the residual there is small, which weeds out sign flips across
    poles of the residual (the chi pole and zeros of P_i^j). A query must
    keep exactly one root; otherwise its outcome is the DomainError that
    reports an empty or ambiguous window.
    """
    queries = list(queries)
    windows = list(windows)
    if len(windows) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(windows)} search windows")
    if len({(q.i, q.j) for q in queries}) > 1:
        raise ValueError("queries of one solve must share (i, j)")
    bounds = []
    for q, window in zip(queries, windows):
        lo, hi = default_search_window(q, material) if window is None else window
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"invalid search window ({lo}, {hi})")
        bounds.append((lo, hi))

    counts: Counter = Counter()
    outcomes: list[float | DomainError] = []
    steps = np.arange(_N_PANELS + 1, dtype=float)
    for start in range(0, len(queries), _SCAN_BLOCK):
        block, block_bounds = queries[start : start + _SCAN_BLOCK], bounds[start : start + _SCAN_BLOCK]
        lows, highs = np.array(block_bounds).T
        # the scalar edges lo + (hi - lo) * k / _N_PANELS, bit for bit
        edges = lows[:, None] + (highs - lows)[:, None] * steps / _N_PANELS
        mode = block[0]
        values = _characteristic_grid(edges, np.array([q.B_ext for q in block])[:, None], mode.i, mode.j, material)
        near_zero = np.abs(values) <= _SCAN_SLACK
        with np.errstate(over="ignore"):
            selected = (values[:, :-1] * values[:, 1:] <= 0) | near_zero[:, :-1] | near_zero[:, 1:]
        counts["panels_selected"] += int(selected.sum())
        for q, (lo, hi), row, panels in zip(block, block_bounds, edges.tolist(), selected):
            roots = _refine(q, material, row, np.flatnonzero(panels).tolist(), counts)
            if not roots:
                outcomes.append(DomainError(
                    f"no root of the ({q.i},{q.j}) characteristic equation in ({lo:.6e}, {hi:.6e}) Hz"
                ))
            elif len(roots) > 1:
                outcomes.append(DomainError(
                    f"window ({lo:.6e}, {hi:.6e}) Hz contains {len(roots)} roots for ({q.i},{q.j}); narrow it"
                ))
            else:
                outcomes.append(roots[0])
    return WalkerSolutions(outcomes=tuple(outcomes), **counts)


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
    if (i, j) == (2, 0):
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
    return _positive_window(f_closed, 0.03 * material.gamma_e * material.mu0_Ms)


def mode_frequency(field_map: FieldMap, B_ext: float, material: MaterialParams) -> float:
    """Evaluate a mode's field map at the one bias field B_ext."""
    if field_map.kind == "kittel":
        return kittel_frequency(B_ext, material)
    if field_map.kind == "walker":  # see msm_frequency_linear
        if not (math.isfinite(B_ext) and B_ext > 0):
            raise ValueError("B_ext must be positive and finite")
        j = field_map.j
        f_M = material.gamma_e * material.mu0_Ms
        offset = (j / (2 * j + (1 if field_map.i == j else 3)) - 1.0 / 3.0) * f_M
        return material.gamma_e * B_ext + offset
    if field_map.kind == "msm20":
        return msm20_frequency(B_ext, material)
    return field_map.frequency
