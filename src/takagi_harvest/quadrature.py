"""Deterministic adaptive quadrature for regulated detector-response integrals.

Three layers:

* a tensor Gauss-Kronrod 7/15 cubature over rectangles with per-axis error
  indicators and anisotropic bisection, so near-singular ridges that are
  axis-aligned (the regulated Wightman kernel in difference coordinates) are
  resolved in O(log 1/eps) refinement levels;
* time-ordered (triangular) domains built exactly from a rectangle piece plus
  a Duffy-type substitution, never from an indicator function;
* regulator handling: a decreasing epsilon sequence, Richardson extrapolation
  to eps -> 0 with an empirical validation of the linear-error model, and a
  radial mode-sum oracle with a rigorous tail bound for static flat scenarios.

Everything here is sequential and insertion-ordered, so results are bitwise
reproducible for identical inputs regardless of ambient thread counts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .field import mode_integrand_static

__all__ = [
    "NumericalHardError",
    "QuadratureConfig",
    "IntegralResult",
    "integrate_square",
    "integrate_ordered",
    "adaptive_1d",
    "extrapolate_epsilon",
    "default_epsilon_sequence",
    "validate_epsilon_sequence",
    "fourier_oracle_L",
]


class NumericalHardError(RuntimeError):
    """Kernel produced NaN/inf or the quadrature state became unusable."""


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], ascending; the 7 Gauss
# nodes are the odd-index Kronrod nodes.  Standard published constants,
# verified by polynomial-exactness tests (degree 13 / degree 22).
_XK_HALF = np.array([
    0.0,
    0.2077849550078985,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993945,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
])
_WK_HALF = np.array([
    0.2094821410847278,
    0.2044329400752989,
    0.1903505780647854,
    0.1690047266392679,
    0.1406532597155259,
    0.1047900103222502,
    0.0630920926299785,
    0.0229353220105292,
])
_WG_HALF = np.array([
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892767,
    0.1294849661688697,
])

XK = np.concatenate([-_XK_HALF[:0:-1], _XK_HALF])          # 15 nodes ascending
WK = np.concatenate([_WK_HALF[:0:-1], _WK_HALF])           # kronrod weights
G_IDX = np.arange(1, 15, 2)                                # gauss subset
WG = np.concatenate([_WG_HALF[3:0:-1], _WG_HALF])          # 7 gauss weights


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and regulator policy for the integral evaluations.

    epsilon_sequence is decreasing (eps0 / 2^k); None means "derive from the
    switching timescales" (see default_epsilon_sequence).  extrapolation is
    "richardson" or "none" (report the finest-regulator value); a sequence
    that Richardson extrapolation will run on must halve at every step, and
    is rejected here otherwise (see validate_epsilon_sequence).  method picks
    the evaluation route for response elements: "direct" double quadrature or
    the "fourier" mode-sum oracle where available.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_subdivisions: int = 40000
    epsilon_sequence: tuple | None = None
    extrapolation: str = "richardson"
    method: str = "direct"

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol >= 0.0):
            raise ValueError("need rel_tol > 0 and abs_tol >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.extrapolation not in ("richardson", "none"):
            raise ValueError(f"unknown extrapolation {self.extrapolation!r}")
        if self.method not in ("direct", "fourier"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.epsilon_sequence is not None:
            eps = validate_epsilon_sequence(self.epsilon_sequence, self.extrapolation)
            object.__setattr__(self, "epsilon_sequence", eps)


def _halving(eps) -> bool:
    return all(abs(e1 / e2 - 2.0) <= 1e-9 for e1, e2 in zip(eps, eps[1:]))


def validate_epsilon_sequence(epsilons, extrapolation: str = "richardson") -> tuple:
    """The regulator sequence as a tuple of floats, checked before any quadrature.

    It must be nonempty, positive and strictly decreasing; when it has more
    than one level and extrapolation is "richardson", each level must halve
    the previous one, which is what extrapolate_epsilon assumes.
    """
    eps = tuple(float(e) for e in epsilons)
    if len(eps) == 0 or any(not e > 0.0 for e in eps):
        raise ValueError("epsilon_sequence must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon_sequence must be strictly decreasing")
    if extrapolation == "richardson" and not _halving(eps):
        raise ValueError(
            "epsilon_sequence must halve at every step for richardson extrapolation"
        )
    return eps


def default_epsilon_sequence(timescale: float, levels: int = 6) -> tuple:
    """eps_k = 1e-2 * timescale / 2^k for k = 0 .. levels-1."""
    if not timescale > 0.0:
        raise ValueError("timescale must be positive")
    eps0 = 1e-2 * timescale
    return tuple(eps0 / 2.0**k for k in range(levels))


@dataclass(frozen=True)
class IntegralResult:
    """Value and accounting of one integral evaluation.

    budget_exhausted is set when an adaptive quadrature stopped at
    max_subdivisions with its error still above the tolerance; an
    extrapolated result carries it when any of its regulator levels did.
    """

    value: complex
    err_estimate: float
    epsilon_used: float | None = None
    extrapolated: bool = False
    note: str = ""
    budget_exhausted: bool = False


def _eval_cell(f, u0, u1, v0, v1):
    hu = 0.5 * (u1 - u0)
    hv = 0.5 * (v1 - v0)
    uu = u0 + hu * (XK + 1.0)
    vv = v0 + hv * (XK + 1.0)
    F = np.asarray(f(uu[:, None], vv[None, :]), dtype=complex)
    if F.shape != (15, 15):
        raise ValueError("kernel must broadcast over (15,1) x (1,15) grids")
    if not np.all(np.isfinite(F.real)) or not np.all(np.isfinite(F.imag)):
        raise NumericalHardError("kernel returned non-finite values")
    scale = hu * hv
    ik = (WK @ F @ WK) * scale
    igu = ((WG @ F[G_IDX, :]) @ WK) * scale
    igv = (WK @ (F[:, G_IDX] @ WG)) * scale
    return ik, abs(ik - igu), abs(ik - igv)


def integrate_square(f, rect, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive cubature of a complex kernel f(u, v) over a rectangle.

    rect = (u0, u1, v0, v1).  f must accept numpy arrays that broadcast to a
    common shape and return values of that shape.  Bisection is anisotropic:
    each cell is split along the axis whose embedded Gauss/Kronrod defect is
    larger, which keeps ridge refinement one-dimensional.  The reported
    err_estimate is the summed cell defect; when the tolerance could not be
    met within max_subdivisions it stays above tolerance rather than being
    silently clipped.
    """
    u0, u1, v0, v1 = (float(x) for x in rect)
    if not (u1 >= u0 and v1 >= v0):
        raise ValueError(f"degenerate rectangle {rect}")
    if u1 == u0 or v1 == v0:
        return IntegralResult(value=0.0 + 0.0j, err_estimate=0.0, note="empty-domain")
    min_du = 1e-13 * (u1 - u0)
    min_dv = 1e-13 * (v1 - v0)

    ik, eu, ev = _eval_cell(f, u0, u1, v0, v1)
    counter = 0
    heap = [(-(eu + ev), counter, (u0, u1, v0, v1), ik, eu, ev)]
    frozen = []
    total = ik
    err_total = eu + ev
    splits = 0
    while heap and splits < cfg.max_subdivisions:
        if err_total <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        neg_err, _, cell, cik, ceu, cev = heapq.heappop(heap)
        if -neg_err == 0.0:
            frozen.append((cell, cik, ceu, cev))
            continue
        cu0, cu1, cv0, cv1 = cell
        split_u = ceu >= cev
        if split_u and (cu1 - cu0) < min_du:
            split_u = False
        if (not split_u) and (cv1 - cv0) < min_dv:
            if (cu1 - cu0) >= min_du and ceu > 0.0:
                split_u = True
            else:
                frozen.append((cell, cik, ceu, cev))
                continue
        if split_u:
            mid = 0.5 * (cu0 + cu1)
            kids = ((cu0, mid, cv0, cv1), (mid, cu1, cv0, cv1))
        else:
            mid = 0.5 * (cv0 + cv1)
            kids = ((cu0, cu1, cv0, mid), (cu0, cu1, mid, cv1))
        total -= cik
        err_total -= ceu + cev
        for kid in kids:
            kik, keu, kev = _eval_cell(f, *kid)
            counter += 1
            heapq.heappush(heap, (-(keu + kev), counter, kid, kik, keu, kev))
            total += kik
            err_total += keu + kev
        splits += 1

    # final reduction with exactly-rounded sums, so the result does not depend
    # on the residual heap permutation
    leaves = [(c, ik_, eu_, ev_) for (_, _, c, ik_, eu_, ev_) in heap] + frozen
    val = complex(math.fsum(l[1].real for l in leaves), math.fsum(l[1].imag for l in leaves))
    err = math.fsum(l[2] + l[3] for l in leaves)
    exhausted = splits >= cfg.max_subdivisions and err > max(cfg.abs_tol, cfg.rel_tol * abs(val))
    return IntegralResult(value=val, err_estimate=err, budget_exhausted=exhausted)


def integrate_ordered(f, rect, cfg: QuadratureConfig) -> IntegralResult:
    """Integral of f(u, v) over the time-ordered part v <= u of a rectangle.

    The region is decomposed exactly: a sub-rectangle where the whole v-range
    is below u, plus a triangle mapped to a square by the substitution
    v = v0 + (u - v0) r with Jacobian (u - v0).  No indicator functions, so
    the integrand stays as smooth as f itself.
    """
    u0, u1, v0, v1 = (float(x) for x in rect)
    if not (u1 >= u0 and v1 >= v0):
        raise ValueError(f"degenerate rectangle {rect}")
    pieces = []
    ra = max(u0, v1)
    if ra < u1:
        pieces.append(integrate_square(f, (ra, u1, v0, v1), cfg))
    ta = max(u0, v0)
    tb = min(u1, v1)
    if ta < tb:
        def duffy(u, r):
            jac = u - v0
            return jac * f(u, v0 + jac * r)

        pieces.append(integrate_square(duffy, (ta, tb, 0.0, 1.0), cfg))
    if not pieces:
        return IntegralResult(value=0.0 + 0.0j, err_estimate=0.0, note="empty-domain")
    val = complex(
        math.fsum(p.value.real for p in pieces), math.fsum(p.value.imag for p in pieces)
    )
    err = math.fsum(p.err_estimate for p in pieces)
    return IntegralResult(
        value=val, err_estimate=err, budget_exhausted=any(p.budget_exhausted for p in pieces)
    )


def adaptive_1d(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive Gauss-Kronrod 7/15 on [a, b] for a vectorized complex f."""
    a = float(a)
    b = float(b)
    if b <= a:
        return IntegralResult(value=0.0 + 0.0j, err_estimate=0.0, note="empty-domain")

    def eval_seg(x0, x1):
        h = 0.5 * (x1 - x0)
        xs = x0 + h * (XK + 1.0)
        F = np.asarray(f(xs), dtype=complex)
        if not np.all(np.isfinite(F.real)) or not np.all(np.isfinite(F.imag)):
            raise NumericalHardError("integrand returned non-finite values")
        ik = (WK @ F) * h
        ig = (WG @ F[G_IDX]) * h
        return ik, abs(ik - ig)

    ik, e = eval_seg(a, b)
    counter = 0
    heap = [(-e, counter, (a, b), ik, e)]
    total, err_total = ik, e
    splits = 0
    min_w = 1e-14 * (b - a)
    frozen = []
    while heap and splits < cfg.max_subdivisions:
        if err_total <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        neg_e, _, (x0, x1), cik, ce = heapq.heappop(heap)
        if -neg_e == 0.0 or (x1 - x0) < min_w:
            frozen.append(((x0, x1), cik, ce))
            continue
        mid = 0.5 * (x0 + x1)
        total -= cik
        err_total -= ce
        for seg in ((x0, mid), (mid, x1)):
            kik, ke = eval_seg(*seg)
            counter += 1
            heapq.heappush(heap, (-ke, counter, seg, kik, ke))
            total += kik
            err_total += ke
        splits += 1
    leaves = [(h[2], h[3], h[4]) for h in heap] + frozen
    val = complex(math.fsum(l[1].real for l in leaves), math.fsum(l[1].imag for l in leaves))
    err = math.fsum(l[2] for l in leaves)
    exhausted = splits >= cfg.max_subdivisions and err > max(cfg.abs_tol, cfg.rel_tol * abs(val))
    return IntegralResult(value=val, err_estimate=err, budget_exhausted=exhausted)


# Richardson table coefficients amplify the per-level quadrature noise by at
# most this factor at the depth used below (product of (2^m+1)/(2^m-1)).
_RICHARDSON_NOISE_AMP = 7.0


def extrapolate_epsilon(results) -> IntegralResult:
    """Remove the regulator from a sequence of evaluations at eps_k = eps0/2^k.

    Validates the linear-leading-error model empirically: successive value
    differences must shrink monotonically with ratios near 1/2.  When they do,
    a Richardson table (orders eps, eps^2, eps^3) is applied; when the
    sequence is non-monotone or the ratios are far from 1/2 the finest-eps
    value is returned with an inflated err_estimate and a diagnostic note, so
    a failed limit is never silently presented as converged.
    """
    results = list(results)
    if not results:
        raise ValueError("need at least one result")
    eps = [r.epsilon_used for r in results]
    if any(e is None for e in eps):
        raise ValueError("all results must carry epsilon_used")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("epsilon sequence must be strictly decreasing")
    quad_err = max(r.err_estimate for r in results)
    vals = [complex(r.value) for r in results]
    if len(vals) == 1:
        return replace(results[0], note="single-epsilon")
    if not _halving(eps):
        raise ValueError("extrapolation assumes epsilon halving")
    exhausted = any(r.budget_exhausted for r in results)

    diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    mags = [abs(d) for d in diffs]
    finest = vals[-1]
    if all(m == 0.0 for m in mags):
        return IntegralResult(
            finest, quad_err, eps[-1], True, note="converged-flat", budget_exhausted=exhausted
        )
    floor = 4.0 * quad_err  # differences at the quadrature-noise level are uninformative
    informative = [m for m in mags if m > floor]
    if len(informative) >= 2:
        monotone = all(m2 <= 1.05 * m1 for m1, m2 in zip(mags, mags[1:]) if m1 > floor)
        if not monotone:
            return IntegralResult(
                finest,
                math.fsum(mags) + quad_err,
                eps[-1],
                True,
                note="fallback-nonmonotone",
                budget_exhausted=exhausted,
            )
        ratios = [m2 / m1 for m1, m2 in zip(mags, mags[1:]) if m1 > floor and m2 > floor]
        if ratios and any(not (0.25 <= r <= 0.75) for r in ratios):
            return IntegralResult(
                finest,
                mags[-1] + quad_err,
                eps[-1],
                True,
                note="fallback-ratio",
                budget_exhausted=exhausted,
            )

    depth = min(len(vals) - 1, 3)
    table = list(vals)
    last_change = mags[-1]
    for m in range(1, depth + 1):
        factor = 2.0**m
        new = [
            (factor * table[j] - table[j - 1]) / (factor - 1.0)
            for j in range(m, len(table))
        ]
        last_change = abs(new[-1] - table[-1])
        table = [None] * m + new
    value = table[-1]
    err = last_change + _RICHARDSON_NOISE_AMP * quad_err
    return IntegralResult(value, err, eps[-1], True, note="richardson", budget_exhausted=exhausted)


def _fourier_cutoff(chi, floor: float) -> float:
    """Smallest s beyond which the transform envelope is below floor (and decreasing)."""
    if chi.kind == "gaussian":
        sig = chi.params["sigma"]
        peak = sig * math.sqrt(2.0 * math.pi)
        if floor >= peak:
            return 0.0
        return math.sqrt(2.0 * math.log(peak / floor)) / sig
    if chi.kind == "cos_squared":
        width = chi.params["t1"] - chi.params["t0"]
        b = 2.0 * math.pi / width
        s = b * (2.0 * width / (3.0 * math.pi * max(floor, 1e-300))) ** (1.0 / 3.0)
        return max(s, 2.0 * b)
    raise ValueError(f"mode-sum oracle unavailable for switching kind {chi.kind!r}")


def fourier_oracle_L(det_a, det_b, L: float, cfg: QuadratureConfig) -> IntegralResult:
    """Response element of two static flat detectors via the radial mode sum.

    Independent of the regulated double quadrature: 1D integral over k of
    mode_integrand_static, plus a rigorous bound on the truncated tail added
    to err_estimate (slowly decaying transforms, e.g. cos_squared, make the
    tail algebraic rather than negligible).  det_a / det_b need switching,
    frequency and coupling_effective attributes; switchings must have
    closed-form transforms.
    """
    ca = det_a.coupling_effective
    cb = det_b.coupling_effective
    if ca == 0.0 or cb == 0.0:
        return IntegralResult(0.0 + 0.0j, 0.0, note="zero-coupling")
    chi_a, chi_b = det_a.switching, det_b.switching
    wa, wb = det_a.frequency, det_b.frequency

    scale0 = chi_a.fourier_envelope(0.0) * chi_b.fourier_envelope(0.0)
    floor = 1e-10 * math.sqrt(scale0)
    k_max = max(
        _fourier_cutoff(chi_a, floor) - min(wa, 0.0),
        _fourier_cutoff(chi_b, floor) - min(wb, 0.0),
        8.0 * max(wa, wb, 1.0),
    )

    def integrand(k):
        return mode_integrand_static(k, chi_a, chi_b, wa, wb, L)

    base = adaptive_1d(integrand, 0.0, k_max, cfg)

    # tail bound: |integrand| <= k/(4 pi^2) min(1, 1/(kL)) env_a env_b, which is
    # decreasing beyond k_max; sum dyadic segments at their left endpoints
    def tail_bound(k):
        ang = 1.0 if L == 0.0 else min(1.0, 1.0 / (k * L))
        return k / (4.0 * math.pi**2) * ang * float(
            chi_a.fourier_envelope(wa + k)
        ) * float(chi_b.fourier_envelope(wb + k))

    tail = 0.0
    k_lo = k_max
    for _ in range(64):
        k_hi = 2.0 * k_lo
        tail += (k_hi - k_lo) * tail_bound(k_lo)
        k_lo = k_hi
        if tail_bound(k_lo) * k_lo < 1e-300:
            break

    pref = ca * cb
    return IntegralResult(
        value=pref * base.value,
        err_estimate=abs(pref) * (base.err_estimate + tail),
        note="fourier-oracle",
        budget_exhausted=base.budget_exhausted,
    )
