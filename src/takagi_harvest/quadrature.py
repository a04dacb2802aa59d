"""Deterministic adaptive quadrature for regulated detector-response integrals.

Two parts:

* One adaptive engine (_adapt): globally adaptive tensor Gauss-Kronrod 15/31
  over boxes of one or two axes, with per-axis error indicators and
  anisotropic bisection, so near-singular ridges that are axis-aligned (the
  regulated Wightman kernel in difference coordinates) are resolved in
  O(log 1/eps) refinement levels.  integrate_square (rectangles, whose
  axes may carry breaks) and adaptive_1d (segments) are its two entries.
* Regulator handling: validation of a halving epsilon sequence, Richardson
  extrapolation to eps -> 0 with an empirical validation of the
  linear-error model (a reference for evaluations at several regulators; the
  harvesting pipeline takes that limit in closed form), and a radial
  mode-sum oracle with a rigorous tail bound for static flat scenarios.

Everything here is sequential and insertion-ordered, so results are bitwise
reproducible for identical inputs regardless of ambient thread counts.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from .field import mode_integrand_static

__all__ = [
    "NumericalHardError",
    "QuadratureConfig",
    "IntegralResult",
    "integrate_square",
    "adaptive_1d",
    "extrapolate_epsilon",
    "fourier_oracle_L",
]


class NumericalHardError(RuntimeError):
    """Kernel produced NaN/inf or the quadrature state became unusable."""


# Gauss-Kronrod 15/31 nodes and weights on [-1, 1], ascending; the 15 Gauss
# nodes are the odd-index Kronrod nodes.  Derived with mpmath at 120 digits,
# printed to 22: the 16 new Kronrod nodes are the zeros of the Stieltjes
# polynomial E_16 (monic, even, orthogonal to x^k P_15 for k <= 15; Laurie,
# Math. Comp. 66, 1997, reviews the construction), the Kronrod weights solve
# the moment equations on all 31 nodes, and the Gauss weights are
# 2 / ((1 - x^2) P_15'(x)^2).  They agree with QUADPACK's qk31 (Piessens et
# al., 1983) and pass polynomial-exactness tests (degree 29 / degree 46).
_XK_HALF = np.array([
    0.0,
    0.1011420669187174990271,
    0.2011940939974345223006,
    0.2991800071531688121668,
    0.3941513470775633698972,
    0.4850818636402396806937,
    0.5709721726085388475372,
    0.6509967412974169705337,
    0.7244177313601700474162,
    0.7904185014424659329676,
    0.8482065834104272162006,
    0.8972645323440819008825,
    0.9372733924007059043078,
    0.9677390756791391342573,
    0.9879925180204854284896,
    0.9980022986933970602852,
])
_WK_HALF = np.array([
    0.1013300070147915490174,
    0.1007698455238755950449,
    0.09917359872179195933239,
    0.09664272698362367850518,
    0.09312659817082532122549,
    0.08856444305621177064728,
    0.08308050282313302103829,
    0.07684968075772037889443,
    0.06985412131872825870952,
    0.06200956780067064028514,
    0.05348152469092808726534,
    0.04458975132476487660823,
    0.03534636079137584622204,
    0.02546084732671532018687,
    0.01500794732931612253837,
    0.005377479872923348987792,
])
_WG_HALF = np.array([
    0.2025782419255612728806,
    0.1984314853271115764561,
    0.1861610000155622110268,
    0.1662692058169939335532,
    0.1395706779261543144478,
    0.1071592204671719350119,
    0.07036604748810812470927,
    0.03075324199611726835463,
])

XK = np.concatenate([-_XK_HALF[:0:-1], _XK_HALF])          # 31 nodes ascending
WK = np.concatenate([_WK_HALF[:0:-1], _WK_HALF])           # kronrod weights
G_IDX = np.arange(1, len(XK), 2)                           # gauss subset
WG = np.concatenate([_WG_HALF[:0:-1], _WG_HALF])           # 15 gauss weights

# the d + 1 tensor rules of a cell with d = 1 or 2 axes, as columns over its
# 31^d nodes in row-major order: Kronrod on every axis, then for each axis j
# Gauss in axis j and Kronrod in the other; real and complex copies
_WG_ON_XK = np.zeros(len(XK))
_WG_ON_XK[G_IDX] = WG
_CELL_RULES = {d: (rules, rules.astype(complex)) for d, rules in [
    (1, np.stack([WK, _WG_ON_XK], axis=-1)),
    (2, np.stack([np.outer(WK, WK), np.outer(_WG_ON_XK, WK), np.outer(WK, _WG_ON_XK)], axis=-1
                 ).reshape(-1, 3)),
]}
_XK1 = XK + 1.0  # the nodes on [0, 2]: a cell's nodes are lo + h * _XK1


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and regulator policy for the integral evaluations.

    epsilon_sequence is the one place a regulator is set: one level asks
    for that finite regulator, and None or more levels for the eps -> 0
    limit, which the elements take in closed form.  A sequence of more
    levels must halve at every step (eps0 / 2^k; see
    validate_epsilon_sequence).  Response elements are always evaluated
    by direct double quadrature; the mode-sum oracle is fourier_oracle_L,
    called on its own.

    max_subdivisions bounds the splits of each adaptive run (one
    integrate_square or adaptive_1d call): an element's 2D integral, all
    its pieces in one, at any regulator, or a pole's line integral.  A
    rectangle's pieces are the product of both axes' pieces between their
    breaks, and a run of p pieces evaluates at most p + 2 * max_subdivisions
    cells.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_subdivisions: int = 40000
    epsilon_sequence: tuple | None = None

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 <= self.abs_tol < math.inf):
            raise ValueError("need finite rel_tol > 0 and abs_tol >= 0")
        try:  # an integer type, not a float that happens to be whole
            subdivisions = operator.index(self.max_subdivisions)
        except TypeError:
            subdivisions = 0
        if subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be an integer >= 1, got {self.max_subdivisions!r}"
            )
        object.__setattr__(self, "max_subdivisions", subdivisions)
        if self.epsilon_sequence is not None:
            object.__setattr__(self, "epsilon_sequence",
                               validate_epsilon_sequence(self.epsilon_sequence))


def validate_epsilon_sequence(sequence) -> tuple:
    """The regulator sequence as a tuple of floats, checked before any quadrature.

    It must be nonempty, positive and finite, and each level must halve the
    previous one, which is what extrapolate_epsilon assumes.
    """
    eps = tuple(float(e) for e in sequence)
    if len(eps) == 0 or any(not 0.0 < e < math.inf for e in eps):
        raise ValueError("epsilon_sequence must be nonempty, positive and finite")
    if any(abs(a / b - 2.0) > 1e-9 for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon_sequence must halve at every step")
    return eps


@dataclass(frozen=True)
class IntegralResult:
    """Value and accounting of one integral evaluation.

    note names the route that gave the value.  budget_exhausted is set when
    an adaptive quadrature stopped at max_subdivisions with its error still
    above the tolerance; an extrapolated result carries it when any of its
    regulator levels did.  cells counts the cells (rectangles, or segments
    on one axis) the adaptive run evaluated, pieces + 2 * splits, and is 0
    where none ran; an extrapolated result carries the largest count of its
    levels.  pole is the coefficient of 1/eps of an element that diverges
    as the regulator is removed, whose value is then the finite part (note
    "finite-part"); it is None for every other result.
    """

    value: complex
    err_estimate: float
    epsilon_used: float | None = None
    note: str = ""
    budget_exhausted: bool = False
    cells: int = 0
    pole: complex | None = None


def _eval_cell(f, box):
    """Kronrod value and per-axis Gauss defects of f on one cell.

    box is (lo, hi) per axis, flattened: (a, b) or (u0, u1, v0, v1).  f takes
    one node array per axis, broadcast against each other (shapes (31,), or
    (31, 1) and (1, 31)), and returns their grid.  Returns the Kronrod
    value, complex whether the grid is real or complex, and its defects as
    a length-d array, one per axis.
    """
    d = len(box) // 2
    h = [0.5 * (box[2 * j + 1] - box[2 * j]) for j in range(d)]
    x = [box[2 * j] + h[j] * _XK1 for j in range(d)]
    F = np.asarray(f(*x) if d == 1 else f(x[0][:, None], x[1][None, :]))
    grid = (len(XK),) * d
    if F.shape != grid:
        raise ValueError(f"kernel must broadcast over its node arrays to shape {grid}")
    # a real grid stays real: a real check and product, a third of the complex cost
    real = not np.iscomplexobj(F)
    F = np.ascontiguousarray(F, dtype=float if real else complex).reshape(-1)
    if not np.isfinite(F if real else F.view(float)).all():  # real view: both parts
        raise NumericalHardError("kernel returned non-finite values")
    rules = (F @ _CELL_RULES[d][0 if real else 1]) * math.prod(h)
    ik = rules[0]
    return complex(ik), np.abs(ik - rules[1:])


def _adapt(f, boxes, cfg: QuadratureConfig) -> IntegralResult:
    """Globally adaptive Gauss-Kronrod 15/31 over boxes of d = 1 or 2 axes.

    boxes are the nonempty initial cells that tile the domain, each a (lo,
    hi) per axis, flattened, in row-major order of the axes: the product of
    each axis' pieces between its breaks, as QUADPACK's qagp takes its
    breakpoints on one axis.  f is evaluated as in _eval_cell.  In one heap,
    the cell with the largest error is bisected along the axis whose
    Gauss/Kronrod defect is larger, which keeps ridge refinement
    one-dimensional; an axis narrower than 1e-13 of the domain's range, or
    of the magnitude of its ends where that is larger, is not split (a
    finer split would round a node onto an end, the break a pole sits on),
    and a cell with no axis left to split stays a leaf.  Refinement stops
    once the summed error meets max(abs_tol, rel_tol * |value|), or after
    max_subdivisions splits.  err_estimate is the summed cell defect; where
    the tolerance could not be met it stays above tolerance rather than
    being silently clipped, and budget_exhausted is set.
    """
    lo, hi = boxes[0][::2], boxes[-1][1::2]  # the domain's ends on each axis
    min_w = [1e-13 * max(b - a, abs(a), abs(b)) for a, b in zip(lo, hi)]
    d = len(lo)

    def leaf(cell):
        """(box, Kronrod value, error, axis defects): the error is the sum of
        the defects, and the larger defect picks the split axis."""
        ik, w = _eval_cell(f, cell)
        return cell, ik, float(np.add.reduce(w)), w.tolist()

    # one row per leaf; a split cell's row goes to its first child
    leaves = [leaf(cell) for cell in boxes]
    heap = [(-c[2], i) for i, c in enumerate(leaves)]
    heapq.heapify(heap)
    total, err_total = sum(c[1] for c in leaves), sum(c[2] for c in leaves)
    splits = 0
    while heap and splits < cfg.max_subdivisions:
        if err_total <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        neg_err, i = heapq.heappop(heap)
        if -neg_err == 0.0:  # frozen: stays a leaf, never split again
            continue
        cell, ik, e, w = leaves[i]
        j = int(w[-1] > w[0])  # the axis of the larger defect, ties to the first
        if cell[2 * j + 1] - cell[2 * j] < min_w[j]:
            j = d - 1 - j  # the other axis; the first is split only where it has a defect
            if cell[2 * j + 1] - cell[2 * j] < min_w[j] or (j == 0 and w[0] == 0.0):
                continue
        mid = 0.5 * (cell[2 * j] + cell[2 * j + 1])
        lo, hi = cell[:], cell[:]
        lo[2 * j + 1] = hi[2 * j] = mid
        total -= ik
        err_total -= e
        leaves[i] = leaf(lo)
        leaves.append(leaf(hi))
        for row in (i, len(leaves) - 1):
            heapq.heappush(heap, (-leaves[row][2], row))
            total += leaves[row][1]
            err_total += leaves[row][2]
        splits += 1

    # final reduction over the leaves with exactly-rounded sums, so the
    # result does not depend on the order of the rows
    val = complex(math.fsum(c[1].real for c in leaves), math.fsum(c[1].imag for c in leaves))
    err = math.fsum(c[2] for c in leaves)
    exhausted = splits >= cfg.max_subdivisions and err > max(cfg.abs_tol, cfg.rel_tol * abs(val))
    return IntegralResult(value=val, err_estimate=err, budget_exhausted=exhausted,
                          cells=len(boxes) + 2 * splits)


def integrate_square(f, rect, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive cubature of a complex kernel f(u, v) over rect = ((u0, ..., u1), (v0, ..., v1)).

    Each axis lists its edges: its ends, and any breaks between them, which
    ascend strictly inside the axis.  The pieces of u times the pieces of v
    start one adaptive run (_adapt), so a known kink or pole on either axis
    is a mesh line from the first cell on.  f must take numpy arrays that
    broadcast to a common shape and return that shape.
    """
    try:
        us, vs = ([float(x) for x in axis] for axis in rect)
    except (TypeError, ValueError):  # not two axes of numbers, as the flat (u0, u1, v0, v1)
        raise ValueError(f"rect must be ((u0, ..., u1), (v0, ..., v1)), got {rect}") from None
    for edges in (us, vs):
        if len(edges) < 2 or not edges[-1] >= edges[0]:
            raise ValueError(f"degenerate rectangle {rect}")
        if len(edges) > 2 and not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"the breaks of {rect} must ascend strictly inside their axis")
    if us[-1] == us[0] or vs[-1] == vs[0]:
        return IntegralResult(value=0.0 + 0.0j, err_estimate=0.0, note="empty-domain")
    return _adapt(f, [[a, b, c, e] for a, b in zip(us, us[1:]) for c, e in zip(vs, vs[1:])], cfg)


def adaptive_1d(f, a: float, b: float, cfg: QuadratureConfig) -> IntegralResult:
    """Adaptive Gauss-Kronrod 15/31 on [a, b] for a vectorized complex f.

    The one-axis case of integrate_square's refinement (_adapt).
    """
    a = float(a)
    b = float(b)
    if b <= a:
        return IntegralResult(value=0.0 + 0.0j, err_estimate=0.0, note="empty-domain")
    return _adapt(f, [[a, b]], cfg)


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
    if any(r.epsilon_used is None for r in results):
        raise ValueError("all results must carry epsilon_used")
    eps = validate_epsilon_sequence([r.epsilon_used for r in results])
    if len(eps) < 2:
        raise ValueError("extrapolation needs two or more regulator levels")
    quad_err = max(r.err_estimate for r in results)
    vals = [complex(r.value) for r in results]
    exhausted = any(r.budget_exhausted for r in results)
    cells = max(r.cells for r in results)

    diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    mags = [abs(d) for d in diffs]
    finest = vals[-1]
    if all(m == 0.0 for m in mags):
        return IntegralResult(
            finest, quad_err, eps[-1], note="converged-flat", budget_exhausted=exhausted,
            cells=cells,
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
                note="fallback-nonmonotone",
                budget_exhausted=exhausted,
                cells=cells,
            )
        ratios = [m2 / m1 for m1, m2 in zip(mags, mags[1:]) if m1 > floor and m2 > floor]
        if ratios and any(not (0.25 <= r <= 0.75) for r in ratios):
            return IntegralResult(
                finest,
                mags[-1] + quad_err,
                eps[-1],
                note="fallback-ratio",
                budget_exhausted=exhausted,
                cells=cells,
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
    return IntegralResult(value, err, eps[-1], note="richardson", budget_exhausted=exhausted,
                          cells=cells)


def _fourier_cutoff(chi, floor: float) -> float:
    """Smallest s beyond which the transform envelope is below floor (and decreasing)."""
    if chi.kind == "gaussian":
        sig = chi.param("sigma")
        peak = sig * math.sqrt(2.0 * math.pi)
        if floor >= peak:
            return 0.0
        return math.sqrt(2.0 * math.log(peak / floor)) / sig
    if chi.kind == "cos_squared":
        width = chi.param("t1") - chi.param("t0")
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
    frequency and coupling attributes, coupling being the leg prefactor
    (harvesting.DetectorSpec); switchings must have closed-form transforms.
    The detectors start in their ground states, so frequency 0 is refused.
    """
    if min(det_a.frequency, det_b.frequency) <= 0.0:
        raise ValueError("the mode-sum oracle needs ground-state detectors, frequency > 0")
    ca, cb = det_a.coupling, det_b.coupling
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
        cells=base.cells,
    )
