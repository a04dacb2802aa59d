"""Leading-order entanglement harvesting for two static detectors.

Matrix elements of the joint detector state after a perturbative coupling to
the vacuum (L, M, N), the two-detector density matrices for qubit and
oscillator models, negativity, and the duality runner: one flat scenario is
recomputed on the conformally related cosmology with transformed switchings
and the transported (squeezed-state) mode function, and the two answers are
compared element by element.

Conventions (matching the module docstrings of geometry/field).  Every
element is one second-order integrand, two detector legs (window times mode)
joined by the Wightman function; the three differ only in which legs they
join, whether the domain is time-ordered, and their prefactor:

    L_ab = g_a g_b * I[ chi_a(l) m_a(l) chi_b(l') conj(m_b(l'))
                        W((l', x_b), (l, x_a)) ]      (full square, folded)
    M    = -g_A g_B * I_ordered[ W((l,x_A),(l',x_B)) chi_A(l) m_A(l)
                        chi_B(l') m_B(l') + (A <-> B) ]            (l' < l)
    N_d  = -sqrt(2) g_d^2 * I_ordered[ chi_d(l) m_d(l) chi_d(l') m_d(l')
                        W((l,x_d),(l',x_d)) ]                      (l' < l)

with m the detector mode function (e^{i omega l} for ground states, the
transported mode for the squeezed dual state) and g each detector's
coupling: its leg prefactor c_d s_d, the action coupling times the ladder
normalization of the detector's monopole (see DetectorSpec), the same
number on both sides.
All integrals run over proper time of each detector.

Quadrature coordinates.  Every element is integrated in the rotated
coordinates u = t - t', w = t + t', or in the conformal-time difference x =
lambda(t) - lambda(t') in place of u.  An L whose detectors mirror each
other (L_AA, L_BB, a mirrored L_AB) is Hermitian, K(-u, w) = conj(K(u, w)),
on either side of the duality, and is folded: taken as 2 Re of its u >= 0
half, on about half the cells.

One routine evaluates every element (_integral), and the quadrature
config's epsilon_sequence alone sets its regulator (_element).  The
regulator sits on x (x = u on the flat side), and the eps -> 0 limit of
the kernel is a known distribution in x (Sokhotski-Plemelj; see
field.wightman_flat_pv).  Without a sequence, or with more than one level,
every element on either side takes that limit in closed form: the pole of
the kernel is subtracted at the same node line, which leaves one bounded
integrand per element (the regularised response of Louko and Satz, CQG 23,
6321, 2006, and QUADPACK's qawc subtraction, here in 2D), and the delta
and delta' terms are line integrals, added to the same integrand.  An
ordered element of two co-located detectors (N, and M) diverges like
1/eps; it reports its finite part and the coefficient of the pole
separately.  A one-level sequence asks for that finite eps: the same
routine integrates the regulated kernel there, on the same domain, chart
and breaks (QUADPACK's qagp breakpoints), without the pole and line
terms.  Either way the kernel is singular, or peaks, on the light cone of
the two detectors, x = +-L (the coincidence x = 0 of co-located ones).
So every element is integrated in (x, w), on either side, and each light
cone is a line x = const of the mesh, which refines across it in x alone.
On the flat side x is u.  On the cosmological side the clock map bends u:
the node at (x, w) is u = _ridge(x, w), in closed form from the clock map,
and du/dx = 1/x' comes from the conformal factors the legs already hold.
Only the nodes move; the integrand at each node is still the cosmological
formula at the dual times (tau, tau'), so the flat and cosmological values
stay two independent routes to the same number, never a change of
variables of one into the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .field import WIGHTMAN_PREF, wightman_flat_pv, wightman_flat_sep
from .gaussian import transported_leg
from .geometry import (
    ConformalTakagiMap,
    StaticTrajectory,
    SwitchingFunction,
    separation,
    transform_switching,
)
from .quadrature import IntegralResult, QuadratureConfig, adaptive_1d, integrate_square

__all__ = [
    "DetectorSpec",
    "HarvestScenario",
    "MatrixElements",
    "HarvestReport",
    "DualCheckReport",
    "duality_backbone_residual",
    "compute_L",
    "compute_M",
    "compute_N",
    "compute_elements",
    "assemble_rho",
    "negativity_leading",
    "negativity_pt_exact",
    "harvest",
    "dualize",
    "run_dual_check",
]

PERTURBATIVE_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class DetectorSpec:
    """One detector: internal model, gap, coupling, worldline and window.

    coupling is the leg prefactor g_d = c_d s_d that multiplies each of the
    detector's legs in an element (see the module docstring): the action
    coupling c_d times the ladder normalization s_d of the monopole, 1 for a
    qubit and 1/sqrt(2 omega) for an oscillator coupled through
    q = (a + a^dagger)/sqrt(2 omega) (Brown, Martin-Martinez, Menicucci and
    Mann, PRD 87, 084062, 2013).  So an oscillator with action coupling
    lambda has coupling = lambda/sqrt(2 frequency), and its elements then
    coincide with a qubit's at leading order.  The duality keeps the
    action, so dualize keeps the coupling.  frequency = 0 is allowed only for oscillators: the
    Omega = 0 dual (the free-particle endpoint of the dual family), which
    has no ground state of its own.
    """

    label: str
    model: str
    frequency: float
    coupling: float
    trajectory: StaticTrajectory
    switching: SwitchingFunction

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be a nonempty string")
        if self.model not in ("qubit", "oscillator"):
            raise ValueError(f"model must be qubit or oscillator, got {self.model!r}")
        if not (math.isfinite(self.frequency) and self.frequency >= 0.0):
            raise ValueError(f"frequency must be finite and >= 0, got {self.frequency}")
        if self.frequency == 0.0 and self.model == "qubit":
            raise ValueError("frequency 0 needs an oscillator")
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if not isinstance(self.trajectory, StaticTrajectory):
            raise TypeError("trajectory must be a StaticTrajectory")
        if not isinstance(self.switching, SwitchingFunction):
            raise TypeError("switching must be a SwitchingFunction")


@dataclass(frozen=True)
class HarvestScenario:
    """Two detectors, the clock map of their background, their initial state
    and the tolerances of the integrals.

    map is None in flat spacetime; otherwise it is the ConformalTakagiMap
    whose conformal factor defines the cosmological background, and frame
    follows from it.  initial_state "ground" is the free ground state of
    each detector; "takagi_squeezed" is the image of the flat ground state
    under the duality (dual side only) and is represented by the transported
    mode function.  The field starts in the (conformal) vacuum, so its
    one-point function vanishes.  A transported window lives on its own
    map's background: a detector whose window is transported by another map
    than the scenario's, or sits in a flat scenario, is refused, so every
    window reads the clock of the kernel it enters.
    """

    detectors: tuple[DetectorSpec, DetectorSpec]
    map: ConformalTakagiMap | None = None
    initial_state: str = "ground"
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    @property
    def frame(self) -> str:
        """The background: "frw" where a map is set, else "minkowski"."""
        return "frw" if self.map is not None else "minkowski"

    def __post_init__(self):
        if len(self.detectors) != 2:
            raise ValueError("scenario needs exactly two detectors")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        a, b = self.detectors
        if a.label == b.label:
            raise ValueError("detector labels must differ")
        if a.model != b.model:
            raise ValueError("mixed qubit/oscillator pairs are not supported")
        if self.initial_state not in ("ground", "takagi_squeezed"):
            raise ValueError(f"unknown initial_state {self.initial_state!r}")
        if self.initial_state == "takagi_squeezed":
            if self.map is None:
                raise ValueError("takagi_squeezed initial state lives on the frw side")
            if a.model != "oscillator":
                raise ValueError("takagi_squeezed initial state needs oscillator detectors")
        for d in self.detectors:
            if self.initial_state == "ground" and d.frequency == 0.0:
                raise ValueError("ground-state detectors need frequency > 0")
            if d.switching.kind == "transformed" and d.switching.param("map") != self.map:
                raise ValueError(f"detector {d.label}: a window transported by "
                                 f"{d.switching.param('map')} needs that map as the "
                                 f"scenario's, got {self.map}")


def _mirrors(det_a: DetectorSpec, det_b: DetectorSpec) -> bool:
    """True when B's leg is A's: the same frequency and window.

    Then the legs of an element that joins A and B are one detector's: one
    window serves both, an unordered L is Hermitian (it folds), and both
    time orderings of the M integrand are one product.  Couplings enter
    only the prefactor, so they do not count here.
    """
    return det_a.frequency == det_b.frequency and det_a.switching == det_b.switching


def _twins(det_a: DetectorSpec, det_b: DetectorSpec) -> bool:
    """True when B mirrors A with the same coupling, so that L_BB and N_B
    are A's elements bit for bit."""
    return _mirrors(det_a, det_b) and det_a.coupling == det_b.coupling


@dataclass(frozen=True)
class MatrixElements:
    """The leading-order elements; entries not computed for a scenario are None."""

    L_AA: IntegralResult
    L_BB: IntegralResult
    M: IntegralResult
    L_AB: IntegralResult | None = None
    N_A: IntegralResult | None = None
    N_B: IntegralResult | None = None


@dataclass(frozen=True)
class HarvestReport:
    """Elements, assembled state and entanglement summary of one scenario.

    epsilon_sequence is the scenario's configured one, None where the
    elements took the eps -> 0 limit without one.
    """

    elements: MatrixElements
    rho: np.ndarray
    E1: float
    negativity: float
    negativity_pt: float
    provenance: str
    epsilon_sequence: tuple | None


@dataclass(frozen=True)
class DualCheckReport:
    """Flat and dual-side elements for one (omega, Omega) with their residuals."""

    omega: float
    Omega: float
    flat: MatrixElements
    frw: MatrixElements
    neg_flat: float
    neg_frw: float
    residuals: dict
    resid_max: float


def duality_backbone_residual(m: ConformalTakagiMap, chi: SwitchingFunction, lam) -> float:
    """Pointwise residual of the integrand-level duality.

    For the transported window chi_dual = transform_switching(m, chi) the
    combination

        chi_dual(tau(l)) * cos(Omega tau)/cos(omega l)

    must reproduce chi(l) identically; this is the per-leg statement that makes
    the flat and dual matrix elements equal before any integration.  Returns
    the max absolute deviation over the samples.  Samples too close to the
    zeros of cos(omega l) are rejected (the ratio is evaluated there as 0/0).
    """
    lam = np.asarray(lam, dtype=float)
    cos_flat = np.cos(m.omega * lam)
    if np.any(np.abs(cos_flat) < 1e-8):
        raise ValueError("samples too close to cos(omega*lambda) = 0; shift the grid")
    chi_dual = transform_switching(m, chi)
    tau = m.tau_of_lambda(lam)
    lhs = chi_dual(tau) * (np.cos(m.Omega * tau) / cos_flat)
    return float(np.max(np.abs(lhs - chi(lam))))


def _clock(scenario: HarvestScenario):
    """t -> (t, lambda(t), C(lambda(t))): the clock at a set of points.

    On the flat side lambda and C are None.  On the dual side they are
    evaluated once per set of points; the windows, the transported mode and
    the Wightman kernel all read them from here.
    """
    m = scenario.map
    if m is None:
        return lambda t: (t, None, None)

    def clock(t):
        lam = m.lambda_of_tau(t)
        return t, lam, m.conformal_factor(lam)

    return clock


def _cut(p, lo, hi):
    """Rows lo:hi (on the first axis) of what _clock gives; None stays None."""
    return tuple(c if c is None else c[lo:hi] for c in p)


def _legs(scenario: HarvestScenario, det_a: DetectorSpec, det_b: DetectorSpec,
          ordered: bool, swapped: bool):
    """(evaluate, join): each detector's leg, window times mode, as amplitude times e^{i phase}.

    evaluate(*rows) gives, for each row of times, the tuple (amp_a, phase_a,
    amp_b, phase_b, lambda, C): both detectors' legs at every row.  All rows
    go through one _clock call, and each distinct window (equal windows
    count once, by value) is called once, on every row, with the clock
    values there.  The amplitude is the window, times sqrt(C) for the
    transported mode; the phase is omega t on the flat side, Omega tau for
    a dual ground state and omega_flat lambda for the transported mode
    (gaussian.transported_leg).

    join(P, Q) gives (amp, phase) of A's leg at P times B's at Q, the product
    amp e^{i phase}.  Unordered (L): B's leg enters conjugated, so the
    phases subtract.  Ordered (M, N): they add.  swapped adds the same
    product with the two times exchanged, A's leg at Q and B's at P: the
    (A <-> B) ordering of every ordered element (for N, whose legs are one
    detector's, it doubles the product exactly), and the u < 0 half of an
    L unfolded onto u >= 0.  Where an ordered product's legs share one
    phase function (the transported mode, or equal frequencies) the
    amplitudes add; otherwise amp is the complex sum of both products and
    the phase 0.
    """
    m = scenario.map
    clock = _clock(scenario)
    transported = scenario.initial_state == "takagi_squeezed"
    shared = transported or det_a.frequency == det_b.frequency
    windows = list(dict.fromkeys((det_a.switching, det_b.switching)))
    freqs = [d.frequency for d in ((det_a,) if shared else (det_a, det_b))]

    def evaluate(*rows):
        ends = list(accumulate(len(row) for row in rows))
        p = clock(np.concatenate(rows))
        amps = [chi(*p) for chi in windows]
        if transported:
            root, phase = transported_leg(m, p[1], p[2])
            amps, phases = [amp * root for amp in amps], [phase]
        else:
            phases = [w * p[0] for w in freqs]
        cols = (amps[0], phases[0], amps[-1], phases[-1], *p[1:])
        return [_cut(cols, hi - len(row), hi) for row, hi in zip(rows, ends)]

    def join(P, Q):
        amp = P[0] * Q[2]
        phase = P[1] + Q[3] if ordered else P[1] - Q[3]
        if not swapped:
            return amp, phase
        if ordered and shared:
            return amp + P[2] * Q[0], phase
        other = P[3] + Q[1] if ordered else Q[1] - P[3]
        return amp * np.exp(1j * phase) + P[2] * Q[0] * np.exp(1j * other), 0.0

    return evaluate, join


def _on_u(scenario: HarvestScenario) -> bool:
    """True where the clock is the identity: the flat side and Omega == omega."""
    return scenario.map is None or scenario.map.degenerate


def _rect(sup_a, sup_b, ordered: bool):
    """Rotated rectangle (u0, u1, w0, w1), u = t - t', w = t + t', of two supports.

    Unordered, it holds t in A's support and t' in B's.  Ordered, it is the
    u >= 0 part of the rectangles of both orderings (t in A's support and t'
    in B's, or the reverse), so the time ordering t' < t is an exact edge and
    the (A <-> B) term keeps its domain when the windows sit asymmetrically
    in time.  For equal supports it is the u >= 0 half of the unordered
    rectangle, the domain of a folded L (see _element).  _chart takes every
    element's w range from it, and its u or x range from it on the
    windows' supports or their clock images, except where it shears the
    equal supports of cos^2 windows onto their diamond.
    """
    a0, a1 = sup_a
    b0, b1 = sup_b
    if not ordered:
        return (a0 - b1, a1 - b0, a0 + b0, a1 + b1)
    return (max(0.0, a0 - b1, b0 - a1), max(a1 - b0, b1 - a0), a0 + b0, a1 + b1)


def _ridge(m: ConformalTakagiMap, x, w):
    """u at which lambda(t) - lambda(t') = x, for t + t' = w: the node of (x, w).

    Closed form, no clock-map calls, vectorised over x and w.  u is odd in
    x (exchanging t and t' flips both), so it is solved at |x| and takes
    the sign of x.  With y = Omega u, r = omega/Omega and theta = omega |x|
    mod 2 pi, the tangent-subtraction formula for tan(omega (lambda(t) -
    lambda(t'))) turns the condition into

        r cos(theta) sin(y) - (1 + r^2)/2 sin(theta) cos(y)
            = (1 - r^2)/2 sin(theta) cos(Omega w),

    one sinusoid R sin(y - phi) on the left.  lambda(t) - lambda(t') rises
    monotonically from 0 in u and gains 2 pi/omega per 2 pi/Omega, so u is
    the root phi + arcsin(D/R) of the period that starts at 2 pi
    floor(omega |x| / 2 pi).  At Omega = 0 the condition is the quadratic
    omega u cos(omega x) = sin(omega x) (1 + omega^2 (w^2 - u^2)/4); the
    clock lambda = arctan(omega tau)/omega is bounded there, so the clock
    images of two windows, and every x of an element, stay below pi/omega.
    """
    om, Om = m.omega, m.Omega
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    if Om == 0.0:
        s, c = np.sin(om * x), np.cos(om * x)
        q = 0.5 * om * w
        root = np.sqrt(1.0 + (s * q) ** 2)
        # the two forms of the root, each free of cancellation on its side
        near = c >= 0.0
        return np.where(near, 2.0 * s * (1.0 + q * q) / (om * (c + root)),
                        2.0 * (root - c) / (om * np.where(near, 1.0, s)))
    turns, theta = np.divmod(om * np.abs(x), 2.0 * math.pi)
    r = om / Om
    a = r * np.cos(theta)
    b = 0.5 * (1.0 + r * r) * np.sin(theta)
    d = 0.5 * (1.0 - r * r) * np.sin(theta) * np.cos(Om * w)
    phi = np.arctan2(b, a) % (2.0 * math.pi)
    return np.copysign((2.0 * math.pi * turns + phi + np.arcsin(d / np.hypot(a, b))) / Om, x)


def _chart(clock: ConformalTakagiMap | None, chi_a: SwitchingFunction,
           chi_b: SwitchingFunction, half: bool):
    """Domain of an element and its chart: ((p0, p1, v0, v1), chart, diamond).

    chart(p, v) gives the nodes (u, w) and the Jacobian dw/dv at fixed p.
    Without a clock (the flat side, and Omega == omega) p is u.  With one p
    is the conformal-time difference x, u = _ridge(clock, x, w), and the p
    range is _rect of the windows' clock images: a transported window's is
    its base window's support (its map is the clock, see HarvestScenario),
    any other the clock at its support's ends.
    Either way the w range is _rect's of the supports.  On the identity
    clock x is u, and both give the same domain.

    For equal supports [a0, a1] the leg product lives where both t and t'
    do, a diamond whose edges are where a window switches on: a cos^2
    window is only C^1 there, and a Gauss-Kronrod rule on a cell that
    straddles the edge underestimates its error 100 to 300 fold.  So where
    a window is cos^2 or transported from one, on the flat and the dual
    side alike, the diamond is sheared onto the rectangle of (p, s): w runs
    between its edges t' = a0 and t = a1, w = a0 + tau(lambda(a0) + |x|) and
    w = a1 + tau(lambda(a1) - |x|), as s runs over [-1, 1].  On the identity
    clock that is w = a0 + a1 + (U - |u|) s, U = a1 - a0, with Jacobian U -
    |u|.  The edges are mesh edges, and the whole diamond has a kink at p =
    0.  diamond is then (a0, a1, l0, l1), the supports and their clock
    images, and None on the rectangle (v = w, Jacobian 1), which unequal
    supports and Gaussian windows keep: a Gaussian window's edge is a jump
    of e^-32, and on its mostly empty square the diamond costs cells.  On
    the rectangle of a clock, unequal cos^2 supports still cross cells.
    """
    sup_a, sup_b = chi_a.support, chi_b.support
    images = [chi.support if clock is None
              else chi.param("base").support if chi.kind == "transformed"
              else tuple(clock.lambda_of_tau(t) for t in chi.support) for chi in (chi_a, chi_b)]

    def node(p, w):
        return p if clock is None else _ridge(clock, p, w)

    p0, p1 = _rect(*images, half)[:2]
    bases = [chi.param("base") if chi.kind == "transformed" else chi for chi in (chi_a, chi_b)]
    if sup_a != sup_b or all(b.kind != "cos_squared" for b in bases):
        return (p0, p1, *_rect(sup_a, sup_b, half)[2:]), (lambda p, w: (node(p, w), w, 1.0)), None
    (a0, a1), (l0, l1) = sup_a, images[0]
    U, mid = a1 - a0, a0 + a1

    def sheared(p, s):
        if clock is None:
            h = U - np.abs(p)
            w = mid + h * s
        else:
            lo = a0 + clock.tau_of_lambda(l0 + np.abs(p))
            h = 0.5 * (a1 + clock.tau_of_lambda(l1 - np.abs(p)) - lo)
            w = lo + h * (1.0 + s)
        return node(p, w), w, h

    return (p0, p1, -1.0, 1.0), sheared, (a0, a1, l0, l1)


def _delta_prime(scenario, det_a, det_b, t, L):
    """H1 of _integral for A and B co-located, at the line times t, from their leg row L.

    L is the row of t from evaluate of _legs with both legs on every row
    (swapped).  a'b - ab' takes the windows' derivatives alone: both legs
    carry the same mode amplitude (sqrt C for the transported mode, else 1),
    whose own derivative cancels.  The phase rates are the frequencies, or
    omega/C per unit dual time for the transported mode.
    """
    da, db = (d.switching.derivative(t, L[4], L[5]) for d in (det_a, det_b))
    if scenario.initial_state == "takagi_squeezed":
        root = np.sqrt(L[5])
        da, db, rate = da * root, db * root, 2.0 * scenario.map.omega / L[5]
    else:
        rate = det_a.frequency + det_b.frequency
    return 0.25 * (da * L[2] - L[0] * db + 1j * L[0] * L[2] * rate) * np.exp(1j * (L[1] - L[3]))


def _integral(scenario, det_a, det_b, ordered: bool, fold: bool,
              eps: float | None) -> IntegralResult:
    """One element as bounded integrands (before the prefactor): its eps -> 0 limit, or at eps.

    The regulator sits on the conformal-time difference x = lambda(t) -
    lambda(t'), which is u itself where the clock is the identity.  With
    G(u, w) half the leg product over C C' (see _legs), x' = dx/du =
    (1/C + 1/C')/2 and P = 1/(4 pi^2), the integrand is G times the flat
    kernel in x, whose limit (eps None) is the distribution of
    field.wightman_flat_pv (in u: C = 1, x' = 1).  Every element is
    integrated in (x, v) on the domain and chart of _chart, with J the
    Jacobian of v, and its integrand is J G/x' times the kernel at x.

    * sep > 0: each pole x = q, q = +-sep (unordered; +sep when ordered or
      folded), is a fixed line of the mesh, on either side.  Near it the
      integrand is a / (q - x), a = J G P/(2 q x') on the line; that is
      subtracted at the same v, and the limit adds a (c +- i pi), +
      unordered and - ordered, with c = log((q - x0)/(x1 - q)) the
      principal value of int dx/(q - x) over the range [x0, x1].  The range
      breaks at each pole inside it, so no node falls on one.
    * sep = 0: the pole is the line x = 0, the end of the range [0, x1].
      F0(w) = G(0, w) C(w/2) is G/x' on it, and J F0 at the node's own w is
      subtracted.  What it takes away, int J F0 K dx dv over the domain, is
      int dw F0 int_0^X K dx, with X(w) the x extent of the domain at w:
      x1 on the rectangle; on the diamond the x of its far corner, x1 (1 -
      |s|) on the identity clock and lambda(a1 + U s) - lambda(a0) (s < 0)
      or lambda(a1) - lambda(a0 + U s) (s > 0) on a dual one.  Either way X
      has a kink at s = 0, so the s range breaks there.  So, with w and v
      on the line x = 0:
    * sep = 0, folded L of mirrored detectors (L_AA, L_BB):
          L = -P { int int_{x>=0} 2 Re J (G/x' - F0)/x^2 + int dw F0 (pi nu - 2/X) },
      where pi nu F0 is the i pi delta' term and nu the leg's phase rate per
      unit conformal time at w/2: omega on the flat side and for the
      transported mode, Omega C for a dual ground state.
    * sep = 0, unordered and not mirrored (L_AB of a co-located pair):
      unfolded onto x >= 0, with S(u, w) = G(u, w) + G(-u, w) (_legs,
      swapped) and H1(w) the derivative of G/x' in x at x = 0 (x' and C C'
      are even in u, so only the leg product's u-derivative enters),
          L = -P { int int_{x>=0} J (S/x' - 2 F0)/x^2 - int dw (2 F0/X + i pi H1) },
      H1 = (a'b - ab' + i a b (phi_A' + phi_B')) e^{i (phi_A - phi_B)} / 4
      at t = w/2 from the leg amplitudes a, b and phases phi (_delta_prime).
    * sep = 0, ordered (N, and M of co-located detectors): G/x' is even in x
      (M's leg product is symmetrized in t and t'), and int_0^X G/x'/(x - i
      eps)^2 dx = F0 (i/eps - 1/X) + int (G/x' - F0)/x^2 dx.  The value is
      the finite part; pole carries the coefficient of 1/eps, -i P int dw
      F0, from adaptive_1d.

    At a finite eps the integrand is J G/x' field.wightman_flat_sep(+-x,
    sep, eps), with +x ordered (W from t to t') and -x unordered (from t'
    to t), on the same domain, chart and breaks, and a folded L takes 2 Re
    of it: the half's imaginary part carries the coincidence pole, and
    would swamp the relative stopping test of the quadrature.  There are no
    pole rows, line terms or pole integral, and nothing is unfolded: a
    co-located L that does not mirror integrates its whole range, broken
    at the kink x = 0 where cos^2 windows shear it onto the diamond.

    Each line term is spread evenly over the x range at its line's v, with
    the line's dw/dv (U on the diamond, 1 on the rectangle), so it is one
    more term of the same bounded 2D integrand and every stopping test is
    relative to the element's value.  A kernel call passes every time it
    reads (the t and t' grids, each pole's row, the line x = 0, the
    diamond's w/2 grid and the dual diamond's far corner) as one list of
    rows to evaluate of _legs: one clock call, and each distinct window
    called once on every row with the clock values there.  A folded L in
    the limit takes its grid's real part in real arithmetic.
    The pieces between the breaks, the x range's times the s range's,
    start one integrate_square run, with one tolerance and one budget;
    cells adds the segments of the pole's 1D run.
    """
    m = scenario.map
    exact = _on_u(scenario)
    sep = separation(det_a.trajectory, det_b.trajectory)
    limit = eps is None
    unfold = limit and sep == 0.0 and not (ordered or fold)
    evaluate, join = _legs(scenario, det_a, det_b, ordered, ordered or unfold)
    half = ordered or fold or unfold
    cfg = scenario.quadrature
    # off the identity clock every element integrates in x
    (p0, p1, v0, v1), chart, diamond = _chart(None if exact else m, det_a.switching,
                                              det_b.switching, half)

    def half_product(P, Q, real=False, line=False):
        """G at the rows P (A's leg) and Q (B's), or F0 = G C on the line x = 0 (real: Re G)."""
        amp, phase = join(P, Q)
        if not exact:
            amp = amp / (P[5] if line else P[5] * Q[5])
        return 0.5 * amp * (np.cos(phase) if real else np.exp(1j * phase))

    def rate(P, Q):
        """x' = dx/du at the rows P and Q."""
        return 1.0 if exact else 0.5 * (1.0 / P[5] + 1.0 / Q[5])

    pole = None
    if sep > 0.0 or not limit:
        # pole rows, in the limit only, where a light cone crosses the range
        line = (-1j if ordered else 1j) * math.pi
        qs = () if sep == 0.0 else (sep,) if half else (-sep, sep)
        qs = [q for q in qs if p0 < q < p1]
        # the whole diamond has a kink at x = 0
        breaks = sorted(set(qs) | ({0.0} if diamond and not half else set()))
        # in the limit, each pole and its line term per unit x
        spread = [(q, (math.log((q - p0) / (p1 - q)) + line) / (p1 - p0))
                  for q in qs] if limit else []

        def kern(p, v):
            # the nodes, and per pole q its nodes at x = q, the Jacobian of
            # v there and its line term per unit x
            u, w, jac = chart(p, v)
            poles = [(q, *chart(q, v), c) for q, c in spread]
            nodes = [(u, w)] + [(u_k, w_k) for _, u_k, w_k, _, _ in poles]
            legs = evaluate(*[0.5 * (w_k + u_k) for u_k, w_k in nodes],
                            *[0.5 * (w_k - u_k) for u_k, w_k in nodes])
            (P, *Ps), (Q, *Qs) = legs[:len(nodes)], legs[len(nodes):]
            x, jac = p, jac / rate(P, Q)
            if limit:
                out = jac * half_product(P, Q, fold) * wightman_flat_pv(x, sep)
            else:
                out = jac * half_product(P, Q) * wightman_flat_sep(x if ordered else -x, sep, eps)
            for (q, _, _, jac_k, spread_k), P_k, Q_k in zip(poles, Ps, Qs):
                # complex even when folded: Re(a (c + i pi)) = Re(a) c - Im(a) pi
                G_k = half_product(P_k, Q_k)
                a = jac_k * G_k * (WIGHTMAN_PREF / (2.0 * q * rate(P_k, Q_k)))
                term = a * spread_k
                if fold:
                    a, term = a.real, term.real
                out = out - a / (q - p) + term
            return 2.0 * out.real if fold else out
    else:
        # the limit at sep = 0: on the line x = 0 both legs sit at t = w/2
        transported = scenario.initial_state == "takagi_squeezed"
        if diamond is not None:
            a0, a1, l0, l1 = diamond
            U = a1 - a0

        def per_x(F, dw):
            """A line term per unit x at s: it carries the line's dw/ds."""
            return F / p1 if diamond is None else F * (dw / p1)

        def kern(p, s):
            u, w, jac = chart(p, s)
            _, w_line, dw = chart(0.0, s)
            # F0 on the line; on the diamond also at the grid's own w, and
            # the dual diamond's far corner at the line's w, where x is X
            rows = [0.5 * (w + u), 0.5 * (w - u), 0.5 * w_line]
            if diamond is not None:
                rows += [0.5 * w] if exact else [0.5 * w, np.where(s < 0.0, a1, a0) + U * s]
            P, Q, L, *W = evaluate(*rows)
            x, jac = p, jac / rate(P, Q)
            F_line = half_product(L, L, fold, line=True)
            F_w = half_product(W[0], W[0], fold, line=True) if W else F_line
            rest = half_product(P, Q, fold) - F_w * rate(P, Q)
            if diamond is None:
                X = p1
            else:
                # lambda at the dual diamond's far corner, its last row
                X = (p1 * (1.0 - np.abs(s)) if exact
                     else np.where(s < 0.0, W[1][4] - l0, l1 - W[1][4]))
            F_line = per_x(F_line, dw)
            if fold:
                nu = det_a.frequency if exact else (m.omega if transported else det_a.frequency * L[5])
                return (jac * (2.0 * rest) * wightman_flat_pv(x, 0.0)
                        - WIGHTMAN_PREF * F_line * (math.pi * nu - 2.0 / X))
            out = jac * rest * wightman_flat_pv(x, 0.0) + WIGHTMAN_PREF * F_line / X
            if unfold:
                H1 = _delta_prime(scenario, det_a, det_b, 0.5 * w_line, L)
                out = out + (1j * math.pi * WIGHTMAN_PREF) * per_x(H1, dw)
            return out

        breaks = []
        if ordered:
            def on_line(w):
                (L,) = evaluate(0.5 * w)
                return -1j * WIGHTMAN_PREF * half_product(L, L, line=True)

            pole = adaptive_1d(on_line, chart(0.0, v0)[1], chart(0.0, v1)[1], cfg)

    # the line terms' X has a kink at s = 0 on the diamond: a mesh line too
    vs = (v0, 0.0, v1) if diamond and limit and sep == 0.0 else (v0, v1)
    res = integrate_square(kern, ((p0, *breaks, p1), vs), cfg)
    runs = [res] if pole is None else [res, pole]
    note = "finest-epsilon" if not limit else "closed-form" if pole is None else "finite-part"
    return replace(res, epsilon_used=eps, note=note, pole=None if pole is None else pole.value,
                   budget_exhausted=any(r.budget_exhausted for r in runs),
                   cells=sum(r.cells for r in runs))


def _element(scenario, det_a, det_b, ordered: bool, pref: float) -> IntegralResult:
    """pref * g_a * g_b, the two detectors' couplings, times one element's integral.

    The quadrature config's epsilon_sequence sets eps, and nothing else
    does: None or more than one level asks for the eps -> 0 limit in closed
    form, one level for that finite eps, both from _integral on one domain
    and chart.  An unordered element of two mirrored detectors is folded:
    2 Re of its u >= 0 half.
    """
    ca, cb = det_a.coupling, det_b.coupling
    if ca == 0.0 or cb == 0.0:
        return IntegralResult(0.0 + 0.0j, 0.0, note="zero-coupling")
    eps_seq = scenario.quadrature.epsilon_sequence
    eps = eps_seq[0] if eps_seq is not None and len(eps_seq) == 1 else None
    fold = not ordered and _mirrors(det_a, det_b)
    res = _integral(scenario, det_a, det_b, ordered, fold, eps)
    pref = pref * ca * cb
    return replace(res, value=pref * res.value, err_estimate=abs(pref) * res.err_estimate,
                   pole=None if res.pole is None else pref * res.pole)


def compute_L(det_a: DetectorSpec, det_b: DetectorSpec,
              scenario: HarvestScenario) -> IntegralResult:
    """Response element L_ab over the full (t, t') square.

    Evaluated by direct quadrature in rotated coordinates u = t - t',
    w = t + t': the eps -> 0 limit in closed form or the regulated kernel,
    as epsilon_sequence asks (see _element).  When B mirrors A (a is b
    included) L_ab is real, and the integral takes twice the real part of
    the integrand over the u >= 0 half only, with an imaginary part of
    exactly 0.  The independent mode-sum route of a static flat pair is
    quadrature.fourier_oracle_L.
    """
    return _element(scenario, det_a, det_b, ordered=False, pref=1.0)


def compute_M(scenario: HarvestScenario) -> IntegralResult:
    """Pair-excitation element M: time-ordered, symmetrized in the two detectors.

    The time ordering t' < t is the exact edge u > 0 of the rotated rectangle,
    so no indicator function enters the integrand.  Of two co-located
    detectors M diverges like 1/epsilon, as N does, and is split the same
    way: the finite part, which enters rho, and the pole.
    """
    det_a, det_b = scenario.detectors
    return _element(scenario, det_a, det_b, ordered=True, pref=-1.0)


def compute_N(det: DetectorSpec, scenario: HarvestScenario) -> IntegralResult:
    """Same-detector double-excitation element N_d (oscillator models only).

    N_d is M's integral of the detector paired with itself, times
    -sqrt(2)/2: M's ordered integrand symmetrized in the two detectors is
    then twice N's product, exactly.  The coincidence-limit kernel makes
    the ordered integral diverge like 1/epsilon.  Where the limit is taken
    in closed form (no sequence, or more than one level; see _element) the
    result is split: its value is the finite part (note "finite-part"),
    which is what enters rho, and pole is the coefficient of 1/epsilon, so
    that the regulated N at epsilon is
    value + pole/epsilon + O(epsilon).  On the dual side epsilon regulates
    the conformal-time difference, the regulator under which the duality
    holds epsilon by epsilon, so the flat and dual finite parts and poles
    are the same two numbers.  A one-level sequence gives the regulated N at
    that epsilon, with the pole in the value (note "finest-epsilon"), from
    the same routine on the same domain; max_subdivisions bounds the 2D run
    of the whole x range either way.
    """
    if det.model != "oscillator":
        raise ValueError("the second excited state exists only for oscillator detectors")
    return _element(scenario, det, det, ordered=True, pref=-0.5 * math.sqrt(2.0))


def compute_elements(scenario: HarvestScenario) -> MatrixElements:
    """All elements needed for the scenario's density matrix.

    When B mirrors A with the same coupling (see _twins), L_BB and N_B are
    A's results, which is bitwise what computing them again would give.
    """
    det_a, det_b = scenario.detectors
    twins = _twins(det_a, det_b)
    L_AA = compute_L(det_a, det_a, scenario)
    L_BB = L_AA if twins else compute_L(det_b, det_b, scenario)
    M = compute_M(scenario)
    L_AB = compute_L(det_a, det_b, scenario)
    N_A = N_B = None
    if det_a.model == "oscillator":
        N_A = compute_N(det_a, scenario)
        N_B = N_A if twins else compute_N(det_b, scenario)
    return MatrixElements(L_AA=L_AA, L_BB=L_BB, M=M, L_AB=L_AB, N_A=N_A, N_B=N_B)


def _warn_perturbative(elements: MatrixElements):
    for name in ("L_AA", "L_BB", "M", "L_AB", "N_A", "N_B"):
        res = getattr(elements, name)
        if res is not None and abs(res.value) > PERTURBATIVE_WARN_THRESHOLD:
            warnings.warn(
                f"|{name}| = {abs(res.value):.3g} exceeds {PERTURBATIVE_WARN_THRESHOLD}; "
                "the second-order truncation is unreliable here",
                stacklevel=3,
            )


def assemble_rho(elements: MatrixElements, model: str) -> np.ndarray:
    """Density matrix of the detector pair at leading order.

    Qubits: basis |gg>, |eg>, |ge>, |ee> (4x4).  Oscillators: basis |00>,
    |10>, |01>, |11>, |20>, |02> (6x6), which differs from the qubit case only
    through the N entries in the first row and column.  Hermitian by
    construction; trace exactly 1 at this order.
    """
    if model not in ("qubit", "oscillator"):
        raise ValueError(f"model must be qubit or oscillator, got {model!r}")
    _warn_perturbative(elements)
    laa = complex(elements.L_AA.value).real
    lbb = complex(elements.L_BB.value).real
    m = complex(elements.M.value)
    lab = 0.0 + 0.0j if elements.L_AB is None else complex(elements.L_AB.value)
    dim = 4 if model == "qubit" else 6
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0 - laa - lbb
    rho[1, 1] = laa
    rho[2, 2] = lbb
    rho[1, 2] = lab
    rho[2, 1] = np.conj(lab)
    rho[3, 0] = m
    rho[0, 3] = np.conj(m)
    if model == "oscillator":
        na = 0.0 + 0.0j if elements.N_A is None else complex(elements.N_A.value)
        nb = 0.0 + 0.0j if elements.N_B is None else complex(elements.N_B.value)
        rho[4, 0] = na
        rho[0, 4] = np.conj(na)
        rho[5, 0] = nb
        rho[0, 5] = np.conj(nb)
    return rho


def negativity_leading(elements: MatrixElements) -> tuple[float, float]:
    """(E1, negativity) at leading order.

    E1 = (L_AA + L_BB - sqrt((L_AA - L_BB)^2 + 4 |M|^2)) / 2 is the only
    eigenvalue of the partial transpose that can go negative at this order;
    the negativity is max(-E1, 0).
    """
    laa = complex(elements.L_AA.value).real
    lbb = complex(elements.L_BB.value).real
    mabs = abs(complex(elements.M.value))
    e1 = 0.5 * (laa + lbb - math.sqrt((laa - lbb) ** 2 + 4.0 * mabs * mabs))
    return e1, max(-e1, 0.0)


# oscillator basis |n_A n_B| order within the full two-mode (0..2)^2 grid
_OSC_EMBED = np.array([0, 3, 1, 4, 6, 2])


def negativity_pt_exact(rho: np.ndarray) -> float:
    """Negativity from the spectrum of the partial transpose over detector B.

    Accepts the 4x4 qubit or 6x6 oscillator matrix from assemble_rho (the 6x6
    is embedded in the full 9-dimensional two-mode space, where the partial
    transpose is a pure index swap).  Used as a cross-check of
    negativity_leading; beyond leading order the truncated state is not the
    full density matrix, so subleading eigenvalues are diagnostics only.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (4, 4):
        blocks = rho.reshape(2, 2, 2, 2)      # [b, a, b', a']; index = a + 2 b
        pt = blocks.transpose(2, 1, 0, 3).reshape(4, 4)
    elif rho.shape == (6, 6):
        full = np.zeros((9, 9), dtype=complex)
        full[np.ix_(_OSC_EMBED, _OSC_EMBED)] = rho
        blocks = full.reshape(3, 3, 3, 3)     # [a, b, a', b']; index = 3 a + b
        pt = blocks.transpose(0, 3, 2, 1).reshape(9, 9)
    else:
        raise ValueError(f"expected a 4x4 or 6x6 density matrix, got shape {rho.shape}")
    pt = 0.5 * (pt + pt.conj().T)
    eigs = np.linalg.eigvalsh(pt)
    return float(-np.sum(np.minimum(eigs, 0.0)))


def harvest(scenario: HarvestScenario) -> HarvestReport:
    """Full pipeline: elements, density matrix, E1 and negativity."""
    elements = compute_elements(scenario)
    model = scenario.detectors[0].model
    rho = assemble_rho(elements, model)
    e1, neg = negativity_leading(elements)
    return HarvestReport(
        elements=elements,
        rho=rho,
        E1=e1,
        negativity=neg,
        negativity_pt=negativity_pt_exact(rho),
        provenance=f"{scenario.frame}/{scenario.initial_state}",
        epsilon_sequence=scenario.quadrature.epsilon_sequence,
    )


def dualize(scenario: HarvestScenario, Omega: float) -> HarvestScenario:
    """Map a static flat oscillator scenario to its cosmological dual.

    The dual detectors sit at the same comoving positions with frequency
    Omega, transported switchings, and the squeezed initial state; only
    frequency and switching change.  Each keeps its flat coupling: the dual
    action is the flat one, and the transported mode carries the flat
    ladder normalization 1/sqrt(2 omega), so the leg prefactor is the same
    number on both sides (renormalizing by sqrt(2 Omega) instead would break
    the duality by a factor omega/Omega).  Omega = 0 gives frequency-0
    oscillators and additionally requires the switching supports to fit
    inside the principal window (-pi/2w, pi/2w).
    """
    if scenario.map is not None:
        raise ValueError("dualize starts from a flat scenario")
    if scenario.initial_state != "ground":
        raise ValueError("dualize starts from ground-state detectors")
    det_a, det_b = scenario.detectors
    if det_a.model != "oscillator":
        raise ValueError("the duality is defined for oscillator detectors")
    if det_a.frequency != det_b.frequency:
        raise ValueError(
            "dualize needs equal detector frequencies; a single conformal factor "
            "cannot serve two static detectors with different gaps"
        )
    Omega = float(Omega)
    m = ConformalTakagiMap(omega=det_a.frequency, Omega=Omega)
    duals = tuple(replace(d, frequency=Omega, switching=transform_switching(m, d.switching))
                  for d in scenario.detectors)
    return HarvestScenario(
        detectors=duals,
        map=m,
        initial_state="takagi_squeezed",
        quadrature=scenario.quadrature,
    )


def _rel_diff(x: float, y: float) -> float:
    denom = max(abs(x), abs(y))
    return abs(x - y) / denom if denom > 0.0 else 0.0


def run_dual_check(scenario: HarvestScenario, Omega: float) -> DualCheckReport:
    """Compute L_AA, L_BB, M independently in both pictures and compare.

    Both sides run under the flat scenario's quadrature config, which
    dualize hands on, and so at one regulator (see _element): the eps -> 0
    limit in closed form, or under a one-level sequence that finite eps
    (the conformal-time regulator is the one under which the pictures agree
    epsilon by epsilon).  Each side evaluates its elements with the one
    routine _integral, its own quadrature on its own mesh, at its own
    times, one adaptive run per element.  Residuals are relative, on L_AA,
    L_BB, |M| and the negativity.  Both sides take the same couplings,
    which dualize keeps.  A pair whose B mirrors A with the same coupling
    (see _twins) reuses L_AA as L_BB on each side.
    """
    dual = dualize(scenario, Omega)

    def elements_for(sc):
        a, b = sc.detectors
        L_AA = compute_L(a, a, sc)
        return MatrixElements(
            L_AA=L_AA,
            L_BB=L_AA if _twins(a, b) else compute_L(b, b, sc),
            M=compute_M(sc),
        )

    flat = elements_for(scenario)
    frw = elements_for(dual)
    _, neg_flat = negativity_leading(flat)
    _, neg_frw = negativity_leading(frw)
    residuals = {
        "L_AA": _rel_diff(complex(flat.L_AA.value).real, complex(frw.L_AA.value).real),
        "L_BB": _rel_diff(complex(flat.L_BB.value).real, complex(frw.L_BB.value).real),
        "abs_M": _rel_diff(abs(complex(flat.M.value)), abs(complex(frw.M.value))),
        "negativity": _rel_diff(neg_flat, neg_frw),
    }
    return DualCheckReport(
        omega=scenario.detectors[0].frequency,
        Omega=Omega,
        flat=flat,
        frw=frw,
        neg_flat=neg_flat,
        neg_frw=neg_frw,
        residuals=residuals,
        resid_max=max(residuals.values()),
    )
