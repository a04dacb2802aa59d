"""Leading-order entanglement harvesting for two static detectors.

Matrix elements of the joint detector state after a perturbative coupling to
the vacuum (L, M, N), the two-detector density matrices for qubit and
oscillator models, negativity, and the duality runner: one flat scenario is
recomputed on the conformally related cosmology with transformed switchings
and the transported (squeezed-state) mode function, and the two answers are
compared element by element.

Conventions (matching the module docstrings of geometry/field):

    L_ab = c_a c_b s_a s_b * I[ chi_a(l) m_a(l) chi_b(l') conj(m_b(l'))
                                 W((l', x_b), (l, x_a)) ]          (full square)
    M    = -c_A c_B s_A s_B * I_ordered[ W((l,x_A),(l',x_B)) chi_A(l) m_A(l)
                                 chi_B(l') m_B(l') + (A <-> B) ]    (l' < l)
    N_d  = -sqrt(2) (c_d s_d)^2 * I_ordered[ chi_d(l) m_d(l) chi_d(l') m_d(l')
                                 W((l,x_d),(l',x_d)) ]              (l' < l)

with m the detector mode function (e^{i omega l} for ground states, the
transported mode for the squeezed dual state) and s the interaction-scale
normalization that makes oscillator elements coincide with qubit ones.
All integrals run over proper time of each detector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .field import WightmanKernel, wightman_flat_sep, wightman_frw_at_clock
from .gaussian import BogoliubovPair, transported_mode_at_clock, vacuum_bogoliubov
from .geometry import (
    ConformalTakagiMap,
    StaticTrajectory,
    SwitchingFunction,
    separation,
    transform_switching,
)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    default_epsilon_sequence,
    extrapolate_epsilon,
    fourier_oracle_L,
    integrate_square,
    validate_epsilon_sequence,
)

__all__ = [
    "DetectorSpec",
    "HarvestScenario",
    "MatrixElements",
    "HarvestReport",
    "DualCheckReport",
    "PERTURBATIVE_WARN_THRESHOLD",
    "duality_backbone_residual",
    "regulator_sequence",
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

    interaction_scale multiplies the coupling; None resolves to the model
    default (1 for qubits, sqrt(2 * frequency) for oscillators, which cancels
    the 1/sqrt(2 * frequency) of the position quadrature so that oscillator
    and qubit elements coincide at leading order).  frequency = 0 is allowed
    only for oscillators with an explicit interaction_scale (the free-particle
    endpoint of the dual family).
    """

    label: str
    model: str
    frequency: float
    coupling: float
    trajectory: StaticTrajectory
    switching: SwitchingFunction
    interaction_scale: float | None = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be a nonempty string")
        if self.model not in ("qubit", "oscillator"):
            raise ValueError(f"model must be qubit or oscillator, got {self.model!r}")
        if not (math.isfinite(self.frequency) and self.frequency >= 0.0):
            raise ValueError(f"frequency must be finite and >= 0, got {self.frequency}")
        if self.frequency == 0.0 and (self.model == "qubit" or self.interaction_scale is None):
            raise ValueError("frequency 0 needs an oscillator with explicit interaction_scale")
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if self.interaction_scale is not None:
            if not (math.isfinite(self.interaction_scale) and self.interaction_scale > 0.0):
                raise ValueError("interaction_scale must be positive")
            if self.model == "qubit" and self.interaction_scale != 1.0:
                raise ValueError("qubit interaction_scale is fixed to 1")
        if not isinstance(self.trajectory, StaticTrajectory):
            raise TypeError("trajectory must be a StaticTrajectory")
        if not isinstance(self.switching, SwitchingFunction):
            raise TypeError("switching must be a SwitchingFunction")

    @property
    def scale(self) -> float:
        """Resolved interaction scale."""
        if self.interaction_scale is not None:
            return self.interaction_scale
        return 1.0 if self.model == "qubit" else math.sqrt(2.0 * self.frequency)

    @property
    def coupling_effective(self) -> float:
        """Coupling times the ground-state mode normalization, c_d * s_d."""
        if self.model == "qubit":
            return self.coupling * self.scale
        if self.frequency == 0.0:
            raise ValueError("ground-state normalization needs frequency > 0")
        return self.coupling * (self.scale / math.sqrt(2.0 * self.frequency))


@dataclass(frozen=True)
class HarvestScenario:
    """Two detectors, a frame, and how the state and integrals are set up.

    frame "minkowski" carries no map; "frw" needs the ConformalTakagiMap whose
    conformal factor defines the background.  initial_state "ground" is the
    free ground state of each detector; "takagi_squeezed" is the image of the
    flat ground state under the duality (dual side only) and is represented by
    the transported mode function.  The field starts in the (conformal) vacuum,
    so its one-point function vanishes.
    """

    detectors: tuple[DetectorSpec, DetectorSpec]
    frame: str = "minkowski"
    map: ConformalTakagiMap | None = None
    initial_state: str = "ground"
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    bogoliubov: BogoliubovPair | None = None

    def __post_init__(self):
        if len(self.detectors) != 2:
            raise ValueError("scenario needs exactly two detectors")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        a, b = self.detectors
        if a.label == b.label:
            raise ValueError("detector labels must differ")
        if a.model != b.model:
            raise ValueError("mixed qubit/oscillator pairs are not supported")
        if self.frame not in ("minkowski", "frw"):
            raise ValueError(f"frame must be minkowski or frw, got {self.frame!r}")
        if self.frame == "frw":
            if self.map is None:
                raise ValueError("frw scenario needs its ConformalTakagiMap")
            if self.map.n_spatial != 3:
                raise ValueError("harvesting kernels are implemented for n_spatial = 3")
        elif self.map is not None:
            raise ValueError("minkowski scenario takes no map")
        for d in self.detectors:
            if d.trajectory.frame != self.frame:
                raise ValueError(
                    f"detector {d.label} trajectory frame {d.trajectory.frame!r} "
                    f"does not match scenario frame {self.frame!r}"
                )
        if self.initial_state not in ("ground", "takagi_squeezed"):
            raise ValueError(f"unknown initial_state {self.initial_state!r}")
        if self.initial_state == "takagi_squeezed":
            if self.frame != "frw":
                raise ValueError("takagi_squeezed initial state lives on the frw side")
            if a.model != "oscillator":
                raise ValueError("takagi_squeezed initial state needs oscillator detectors")
        if self.initial_state == "ground":
            for d in self.detectors:
                if d.frequency == 0.0:
                    raise ValueError("ground-state detectors need frequency > 0")

    @property
    def field_kernel(self) -> WightmanKernel:
        """Wightman kernel configuration implied by the frame (vacuum state)."""
        if self.frame == "minkowski":
            return WightmanKernel(frame="minkowski")
        return WightmanKernel(frame="frw", map=self.map)


def regulator_sequence(scenario: HarvestScenario, epsilons=None, levels: int = 6) -> tuple:
    """The regulator sequence of a run, resolved and validated before any quadrature.

    Explicit epsilons come first, then the configured sequence, then
    default_epsilon_sequence of the shortest switching timescale with the
    given number of levels (6 for harvest and the compute_* routines, 4 for
    run_dual_check).  Explicit sequences get the checks that QuadratureConfig
    applies to configured ones.
    """
    if epsilons is not None:
        return validate_epsilon_sequence(epsilons, scenario.quadrature.extrapolation)
    if scenario.quadrature.epsilon_sequence is not None:
        return scenario.quadrature.epsilon_sequence
    ts = min(d.switching.timescale for d in scenario.detectors)
    return default_epsilon_sequence(ts, levels)


def _mirrors(det_a: DetectorSpec, det_b: DetectorSpec) -> bool:
    """True when B differs from A only in label and position.

    Then every single-detector element of B (L_BB, N_B) is A's, bit for bit,
    and both time orderings of the M integrand are one product.
    """
    return (
        det_a.model == det_b.model
        and det_a.frequency == det_b.frequency
        and det_a.coupling == det_b.coupling
        and det_a.interaction_scale == det_b.interaction_scale
        and det_a.switching.same_as(det_b.switching)
    )


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
    """Elements, assembled state and entanglement summary of one scenario."""

    elements: MatrixElements
    rho: np.ndarray
    E1: float
    negativity: float
    negativity_pt: float
    provenance: str
    epsilon_sequence: tuple
    method: str


@dataclass(frozen=True)
class DualCheckReport:
    """Flat and dual-side elements for one (omega, Omega) with their residuals."""

    omega: float
    Omega: float
    flat: MatrixElements
    frw: MatrixElements
    E1_flat: float
    E1_frw: float
    neg_flat: float
    neg_frw: float
    residuals: dict
    resid_max: float
    bogoliubov: BogoliubovPair | None
    epsilon_sequence: tuple


def duality_backbone_residual(m: ConformalTakagiMap, chi: SwitchingFunction, lam) -> float:
    """Pointwise residual of the integrand-level duality.

    For the transported window chi_dual = transform_switching(m, chi) the
    combination

        chi_dual(tau(l)) * (dtau/dl) * C(l)^{-(n-1)/2} * cos(Omega tau)/cos(omega l)

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
    C = m.dtau_dlambda(lam)
    weight = C ** (-0.5 * (m.n_spatial - 1))
    lhs = chi_dual(tau) * C * weight * (np.cos(m.Omega * tau) / cos_flat)
    return float(np.max(np.abs(lhs - chi(lam))))


def _clock(scenario: HarvestScenario):
    """The clock at one leg's nodes, or None on the flat side.

    On the dual side a leg's point set t becomes (t, lambda(t), C(lambda(t))),
    evaluated once per kernel call; the window, the mode and the Wightman
    kernel all read lambda and C from it.
    """
    if scenario.frame == "minkowski":
        return None
    m = scenario.map

    def clock(t):
        lam = m.lambda_of_tau(t)
        return t, lam, m.conformal_factor(lam)

    return clock


def _legs(scenario: HarvestScenario, det: DetectorSpec):
    """(window, mode) of one detector, as functions of what _clock gives a leg.

    The mode multiplies the switching in every element: e^{i omega t} for
    ground states, the transported mode for the squeezed dual state.
    """
    chi = det.switching
    w = det.frequency
    if scenario.frame == "minkowski":
        def mode(t):
            return np.exp(1j * w * t)

        return chi, mode
    m = scenario.map
    if chi.kind == "transformed" and chi.params["map"] == m:
        def window(p):
            return chi.at_clock(*p)
    else:
        def window(p):
            return chi(p[0])
    if scenario.initial_state == "ground":
        def mode(p):
            return np.exp(1j * w * p[0])
    else:
        def mode(p):
            return transported_mode_at_clock(m, p[1], p[2])
    return window, mode


def _coupling_eff(scenario: HarvestScenario, det: DetectorSpec) -> float:
    """c_d s_d with the normalization matching the scenario's initial state.

    The squeezed dual state is carried by the transported mode, whose ladder
    normalization is 1/sqrt(2 omega_flat) with omega_flat = map.omega; the
    ground state of an omega_d oscillator uses 1/sqrt(2 omega_d).
    """
    if scenario.initial_state == "ground" or det.model == "qubit":
        return det.coupling_effective
    return det.coupling * (det.scale / math.sqrt(2.0 * scenario.map.omega))


def _per_epsilon(scenario: HarvestScenario, make_kernel, rect, epsilons):
    cfg = scenario.quadrature
    out = []
    for eps in epsilons:
        res = integrate_square(make_kernel(eps), rect, cfg)
        out.append(replace(res, epsilon_used=eps))
    return out


def _finish_sweep(scenario: HarvestScenario, per_eps) -> IntegralResult:
    if scenario.quadrature.extrapolation == "none" or len(per_eps) == 1:
        return replace(per_eps[-1], note="finest-epsilon")
    return extrapolate_epsilon(per_eps)


def _wightman_factory(scenario: HarvestScenario, sep: float, eps: float):
    """W(first leg, second leg) on the scenario background, vectorized.

    Takes the two legs as _clock gives them: proper times on the flat side,
    clock tuples on the cosmological one, where the conformal-time regulator
    is used, the regulator under which the duality is an exact per-epsilon
    identity.
    """
    if scenario.frame == "minkowski":
        def wight(t1, t2):
            return wightman_flat_sep(t1 - t2, sep, eps)

        return wight

    def wight(p1, p2):
        return wightman_frw_at_clock(p1[1], p1[2], p2[1], p2[2], sep, eps)

    return wight


def _l_kernel_factory(scenario, det_a, det_b, sep):
    chi_a, mode_a = _legs(scenario, det_a)
    chi_b, mode_b = _legs(scenario, det_b)
    clock = _clock(scenario)

    def make(eps):
        wight = _wightman_factory(scenario, sep, eps)

        def kern(u, w):
            t = 0.5 * (w + u)
            tp = 0.5 * (w - u)
            if clock is not None:
                t, tp = clock(t), clock(tp)
            # Jacobian of (t, t') -> (u, w) is 1/2; W legs: (primed, unprimed)
            return 0.5 * chi_a(t) * mode_a(t) * chi_b(tp) * np.conj(mode_b(tp)) * wight(tp, t)

        return kern

    return make


def _rect_square(sup_a, sup_b):
    a0, a1 = sup_a
    b0, b1 = sup_b
    return (a0 - b1, a1 - b0, a0 + b0, a1 + b1)


def _rect_ordered(sup_a, sup_b):
    u0, u1, w0, w1 = _rect_square(sup_a, sup_b)
    return (max(0.0, u0), u1, w0, w1)


def compute_L(det_a: DetectorSpec, det_b: DetectorSpec, scenario: HarvestScenario,
              epsilons=None) -> IntegralResult:
    """Response element L_ab over the full (t, t') square.

    Evaluated in rotated coordinates u = t - t', w = t + t' so the regulated
    lightcone ridges are axis-aligned, per the configured route: "direct"
    regulated quadrature plus extrapolation, or the closed-form "fourier" mode
    sum (static flat ground-state scenarios only).
    """
    ca = _coupling_eff(scenario, det_a)
    cb = _coupling_eff(scenario, det_b)
    if ca == 0.0 or cb == 0.0:
        return IntegralResult(0.0 + 0.0j, 0.0, note="zero-coupling")
    sep = separation(det_a.trajectory, det_b.trajectory)
    if scenario.quadrature.method == "fourier":
        if scenario.frame != "minkowski" or scenario.initial_state != "ground":
            raise ValueError("fourier route needs a static flat ground-state scenario")
        return fourier_oracle_L(det_a, det_b, sep, scenario.quadrature)
    make = _l_kernel_factory(scenario, det_a, det_b, sep)
    rect = _rect_square(det_a.switching.support, det_b.switching.support)
    eps_seq = regulator_sequence(scenario, epsilons)
    res = _finish_sweep(scenario, _per_epsilon(scenario, make, rect, eps_seq))
    pref = ca * cb
    return replace(res, value=pref * res.value, err_estimate=abs(pref) * res.err_estimate)


def _m_kernel_factory(scenario):
    det_a, det_b = scenario.detectors
    sep = separation(det_a.trajectory, det_b.trajectory)
    chi_a, mode_a = _legs(scenario, det_a)
    chi_b, mode_b = _legs(scenario, det_b)
    mirrored = _mirrors(det_a, det_b)
    clock = _clock(scenario)

    def make(eps):
        wight = _wightman_factory(scenario, sep, eps)

        def kern(u, w):
            t = 0.5 * (w + u)
            tp = 0.5 * (w - u)
            if clock is not None:
                t, tp = clock(t), clock(tp)
            # u >= 0 so t is the later leg; both orderings share one W value
            # because the detectors are static (equal separation, equal dt)
            pair = chi_a(t) * mode_a(t) * chi_b(tp) * mode_b(tp)
            # a mirrored B has A's legs, so the (A <-> B) term is this product
            swapped = pair if mirrored else chi_b(t) * mode_b(t) * chi_a(tp) * mode_a(tp)
            return 0.5 * wight(t, tp) * (pair + swapped)

        return kern

    return make


def compute_M(scenario: HarvestScenario, epsilons=None) -> IntegralResult:
    """Pair-excitation element M: time-ordered, symmetrized in the two detectors.

    The time ordering t' < t is the exact edge u > 0 of the rotated rectangle,
    so no indicator function enters the integrand.
    """
    det_a, det_b = scenario.detectors
    ca = _coupling_eff(scenario, det_a)
    cb = _coupling_eff(scenario, det_b)
    if ca == 0.0 or cb == 0.0:
        return IntegralResult(0.0 + 0.0j, 0.0, note="zero-coupling")
    rect = _rect_ordered(det_a.switching.support, det_b.switching.support)
    eps_seq = regulator_sequence(scenario, epsilons)
    res = _finish_sweep(scenario, _per_epsilon(scenario, _m_kernel_factory(scenario), rect, eps_seq))
    pref = -ca * cb
    return replace(res, value=pref * res.value, err_estimate=abs(pref) * res.err_estimate)


def _n_kernel_factory(scenario, det):
    chi, mode = _legs(scenario, det)
    clock = _clock(scenario)

    def make(eps):
        wight = _wightman_factory(scenario, 0.0, eps)

        def kern(u, w):
            t = 0.5 * (w + u)
            tp = 0.5 * (w - u)
            if clock is not None:
                t, tp = clock(t), clock(tp)
            return 0.5 * wight(t, tp) * chi(t) * mode(t) * chi(tp) * mode(tp)

        return kern

    return make


def compute_N(det: DetectorSpec, scenario: HarvestScenario, epsilons=None) -> IntegralResult:
    """Same-detector double-excitation element N_d (oscillator models only).

    The coincidence-limit kernel makes the imaginary part of the ordered
    integral diverge like 1/epsilon; the extrapolation then reports its
    documented non-monotone fallback (finest-epsilon value, inflated error)
    rather than pretending the regulator limit exists.
    """
    if det.model != "oscillator":
        raise ValueError("the second excited state exists only for oscillator detectors")
    c = _coupling_eff(scenario, det)
    if c == 0.0:
        return IntegralResult(0.0 + 0.0j, 0.0, note="zero-coupling")
    rect = _rect_ordered(det.switching.support, det.switching.support)
    eps_seq = regulator_sequence(scenario, epsilons)
    res = _finish_sweep(scenario, _per_epsilon(scenario, _n_kernel_factory(scenario, det), rect, eps_seq))
    pref = -math.sqrt(2.0) * c * c
    return replace(res, value=pref * res.value, err_estimate=abs(pref) * res.err_estimate)


def compute_elements(scenario: HarvestScenario, epsilons=None) -> MatrixElements:
    """All elements needed for the scenario's density matrix.

    When B mirrors A (see _mirrors), L_BB and N_B are A's results, which is
    bitwise what computing them again would give.
    """
    det_a, det_b = scenario.detectors
    eps_seq = regulator_sequence(scenario, epsilons)
    mirrored = _mirrors(det_a, det_b)
    L_AA = compute_L(det_a, det_a, scenario, eps_seq)
    L_BB = L_AA if mirrored else compute_L(det_b, det_b, scenario, eps_seq)
    M = compute_M(scenario, eps_seq)
    L_AB = compute_L(det_a, det_b, scenario, eps_seq)
    N_A = N_B = None
    if det_a.model == "oscillator":
        N_A = compute_N(det_a, scenario, eps_seq)
        N_B = N_A if mirrored else compute_N(det_b, scenario, eps_seq)
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


def harvest(scenario: HarvestScenario, epsilons=None) -> HarvestReport:
    """Full pipeline: elements, density matrix, E1 and negativity."""
    eps_seq = regulator_sequence(scenario, epsilons)
    elements = compute_elements(scenario, eps_seq)
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
        epsilon_sequence=eps_seq,
        method=scenario.quadrature.method,
    )


def dualize(scenario: HarvestScenario, Omega: float) -> HarvestScenario:
    """Map a static flat oscillator scenario to its cosmological dual.

    The dual detectors sit at the same comoving positions with frequency
    Omega, transported switchings, and the squeezed initial state; the
    interaction scale is pinned to sqrt(2 omega_flat) because the dual action
    keeps the flat-side normalization (using sqrt(2 Omega) instead would break
    the duality by a factor omega/Omega).  Omega = 0 additionally requires the
    switching supports to fit inside the principal window (-pi/2w, pi/2w).
    """
    if scenario.frame != "minkowski":
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
    omega = det_a.frequency
    Omega = float(Omega)
    m = ConformalTakagiMap(omega=omega, Omega=Omega)
    scale = math.sqrt(2.0 * omega)
    duals = tuple(
        replace(
            d,
            frequency=Omega,
            switching=transform_switching(m, d.switching),
            trajectory=StaticTrajectory(d.trajectory.position, frame="frw"),
            interaction_scale=scale,
        )
        for d in scenario.detectors
    )
    return HarvestScenario(
        detectors=duals,
        frame="frw",
        map=m,
        initial_state="takagi_squeezed",
        quadrature=scenario.quadrature,
        bogoliubov=vacuum_bogoliubov(omega, Omega) if Omega > 0.0 else None,
    )


def _rel_diff(x: float, y: float) -> float:
    denom = max(abs(x), abs(y))
    return abs(x - y) / denom if denom > 0.0 else 0.0


def run_dual_check(scenario: HarvestScenario, Omega: float, epsilons=None) -> DualCheckReport:
    """Compute L_AA, L_BB, M independently in both pictures and compare.

    Both sides share one regulator sequence (the conformal-time regulator is
    the one under which the pictures agree epsilon by epsilon), four levels by
    default; the curved-ridge cosmological quadrature is the expensive side.
    Residuals are relative, on L_AA, L_BB, |M| and the negativity.  A
    mirrored pair (B differs from A only in label and position) reuses L_AA
    as L_BB on each side.
    """
    eps_seq = regulator_sequence(scenario, epsilons, levels=4)
    dual = dualize(scenario, Omega)

    def elements_for(sc):
        a, b = sc.detectors
        L_AA = compute_L(a, a, sc, eps_seq)
        return MatrixElements(
            L_AA=L_AA,
            L_BB=L_AA if _mirrors(a, b) else compute_L(b, b, sc, eps_seq),
            M=compute_M(sc, eps_seq),
        )

    flat = elements_for(scenario)
    frw = elements_for(dual)
    e1_flat, neg_flat = negativity_leading(flat)
    e1_frw, neg_frw = negativity_leading(frw)
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
        E1_flat=e1_flat,
        E1_frw=e1_frw,
        neg_flat=neg_flat,
        neg_frw=neg_frw,
        residuals=residuals,
        resid_max=max(residuals.values()),
        bogoliubov=dual.bogoliubov,
        epsilon_sequence=eps_seq,
    )
