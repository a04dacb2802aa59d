"""Symplectic checks of the clock duality and the squeezed dual vacuum.

The duality statement for harmonic detectors has an exact finite-dimensional
shadow: products of 2x2 symplectic (Heisenberg-picture) matrices.  A scale-
shear pair V composed with oscillator evolution U equals free-particle
evolution for total time tan(omega lambda)/omega, independently of omega, and
the position row of the Omega oscillator is the omega row rescaled by
cos(Omega tau)/cos(omega lambda).  This module builds those matrices, exposes
the identity residuals, and carries the Bogoliubov data of the transported
vacuum mode u(tau) = C^{1/2} e^{i omega lambda(tau)}.

Conventions: operators order (q, p), Heisenberg action A -> U^dag A U, and
matrices compose as H(U1 U2) = H(U1) H(U2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConformalTakagiMap

__all__ = [
    "SymplecticMap",
    "sym_rotation",
    "sym_shear_scale",
    "free_particle_matrix",
    "takagi_free_particle_residual",
    "takagi_cross_identity_residual",
    "heisenberg_q_relation_residual",
    "BogoliubovPair",
    "vacuum_bogoliubov",
    "transported_mode",
    "transported_mode_at_clock",
    "mode_ode_residual",
    "run_identity_suite",
    "SUITE_THRESHOLDS",
]


@dataclass(frozen=True)
class SymplecticMap:
    """2x2 real linear map on (q, p) with unit determinant."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"matrix must be 2x2, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        return SymplecticMap(self.matrix @ other.matrix)

    def det_residual(self) -> float:
        return abs(self.det - 1.0)


def sym_rotation(omega: float, lam: float) -> SymplecticMap:
    """Heisenberg evolution of the omega oscillator for time lambda.

    q -> cos(omega lam) q + sin(omega lam)/omega p,
    p -> -omega sin(omega lam) q + cos(omega lam) p.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    c = math.cos(omega * lam)
    s = math.sin(omega * lam)
    return SymplecticMap(np.array([[c, s / omega], [-omega * s, c]]))


def sym_shear_scale(f: float, g: float) -> SymplecticMap:
    """Scale-shear pair: q -> e^{-f} q and p -> e^{f} (p + g q).

    The sign convention is fixed so that
    sym_shear_scale(ln cos(omega lam), omega tan(omega lam)) @ sym_rotation
    gives free-particle evolution exactly; (f, g) = (ln 2, 0) is diag(1/2, 2).
    """
    ef = math.exp(f)
    return SymplecticMap(np.array([[1.0 / ef, 0.0], [g * ef, ef]]))


def free_particle_matrix(T: float) -> SymplecticMap:
    """Free evolution q -> q + T p, p -> p."""
    return SymplecticMap(np.array([[1.0, T], [0.0, 1.0]]))


def _require_principal(omega: float, lam: float):
    if abs(omega * lam) >= 0.5 * math.pi:
        raise ValueError("identity holds on the principal branch |omega*lambda| < pi/2")


def _sv_su(omega: float, lam: float) -> np.ndarray:
    c = math.cos(omega * lam)
    sv = sym_shear_scale(math.log(c), omega * math.tan(omega * lam))
    su = sym_rotation(omega, lam)
    return sv.matrix @ su.matrix


def takagi_free_particle_residual(omega: float, lam: float) -> float:
    """Max-entry residual of S_V S_U = [[1, tan(omega lam)/omega], [0, 1]]."""
    _require_principal(omega, lam)
    T = math.tan(omega * lam) / omega
    return float(np.max(np.abs(_sv_su(omega, lam) - free_particle_matrix(T).matrix)))


def takagi_cross_identity_residual(omega: float, Omega: float, lam: float) -> float:
    """Residual of S_V(omega,lam) S_U(omega,lam) = S_V(Omega,tau) S_U(Omega,tau)."""
    _require_principal(omega, lam)
    if not Omega > 0.0:
        raise ValueError("cross identity needs Omega > 0")
    tau = ConformalTakagiMap(omega, Omega).tau_of_lambda(lam)
    return float(np.max(np.abs(_sv_su(omega, lam) - _sv_su(Omega, tau))))


def heisenberg_q_relation_residual(omega: float, Omega: float, lam: float) -> float:
    """Residual of row(q_Omega(tau)) = (cos(Omega tau)/cos(omega lam)) row(q_omega(lam)).

    Rows are the first rows of the corresponding sym_rotation matrices.  Raises
    at the singular points cos(omega lam) = 0.
    """
    if not Omega > 0.0:
        raise ValueError("needs Omega > 0")
    cl = math.cos(omega * lam)
    if abs(cl) < 1e-12:
        raise ValueError("relation is singular where cos(omega*lambda) = 0")
    tau = ConformalTakagiMap(omega, Omega).tau_of_lambda(lam)
    row_w = sym_rotation(omega, lam).matrix[0]
    row_W = sym_rotation(Omega, tau).matrix[0]
    ratio = math.cos(Omega * tau) / cl
    return float(np.max(np.abs(row_W - ratio * row_w)))


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficients (alpha, beta) of the flat vacuum mode in the Omega basis."""

    alpha: float
    beta: float

    def normalization(self) -> float:
        return self.alpha * self.alpha - self.beta * self.beta

    def normalization_residual(self) -> float:
        return abs(self.normalization() - 1.0)


def vacuum_bogoliubov(omega: float, Omega: float) -> BogoliubovPair:
    """Expansion of u(tau)/sqrt(2 omega) over e^{+-i Omega tau}/sqrt(2 Omega).

    Matching u(0) = 1, u'(0) = i omega gives
    alpha = (sqrt(Omega/omega) + sqrt(omega/Omega)) / 2 and
    beta  = (sqrt(Omega/omega) - sqrt(omega/Omega)) / 2, both real; the
    normalization alpha^2 - beta^2 = 1 is exact.
    """
    if not (omega > 0.0 and Omega > 0.0):
        raise ValueError("vacuum_bogoliubov needs omega > 0 and Omega > 0")
    r = math.sqrt(Omega / omega)
    return BogoliubovPair(alpha=0.5 * (r + 1.0 / r), beta=0.5 * (r - 1.0 / r))


def transported_mode(m: ConformalTakagiMap, tau):
    """Flat vacuum mode carried to the dual clock: u = C^{1/2} e^{i omega lambda(tau)}.

    u(0) = 1, u'(0) = i omega, and u solves u'' + Omega^2 u = 0 exactly.
    """
    lam = m.lambda_of_tau(tau)
    return transported_mode_at_clock(m, lam, m.conformal_factor(lam))


def transported_mode_at_clock(m: ConformalTakagiMap, lam, C):
    """Transported mode from the clock values lam = lambda(tau), C = C(lam).

    Equals transported_mode(m, tau) value for value; kernels that already
    hold the clock at their nodes call this one.
    """
    return np.sqrt(C) * np.exp(1j * m.omega * np.asarray(lam))


def mode_ode_residual(m: ConformalTakagiMap, tau_grid=None) -> float:
    """Grid-relative residual of u'' + Omega^2 u = 0 (4th-order stencil)."""
    if tau_grid is None:
        tau_grid = np.linspace(-0.45, 0.45, 200)
    tau_grid = np.asarray(tau_grid, dtype=float)
    h = tau_grid[1] - tau_grid[0]
    if not np.allclose(np.diff(tau_grid), h, rtol=1e-12, atol=0.0):
        raise ValueError("tau_grid must be uniform")
    u = transported_mode(m, tau_grid)
    d2 = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) / (12.0 * h * h)
    resid = d2 + (m.Omega**2) * u[2:-2]
    return float(np.max(np.abs(resid)) / np.max(np.abs(u)))


SUITE_THRESHOLDS = {
    "free_particle": 1e-12,
    "cross_identity": 1e-12,
    "heisenberg_q": 1e-12,
    "symplectic_det": 1e-12,
    "bogoliubov_norm": 1e-10,
    "mode_ode": 1e-5,
}


def run_identity_suite(
    omegas=(0.5, 1.0, 2.0),
    Omegas=(0.5, 1.0, 2.0),
    n_lambda: int = 50,
    corrupt_sign: bool = False,
    rng_seed: int = 20260816,
) -> dict:
    """Max residual of every duality identity over a frequency/time grid.

    Returns {name: max residual}; compare against SUITE_THRESHOLDS.  The
    corrupt_sign flag flips the shear sign in the free-particle identity and
    exists so callers can verify that the suite actually detects breakage.
    """
    res = {k: 0.0 for k in SUITE_THRESHOLDS}
    g_sign = -1.0 if corrupt_sign else 1.0
    for omega in omegas:
        # keep a margin from the branch edge so tan stays well conditioned
        lams = np.linspace(-0.45 * math.pi / omega, 0.45 * math.pi / omega, n_lambda)
        for lam in lams:
            c = math.cos(omega * lam)
            sv = sym_shear_scale(math.log(c), g_sign * omega * math.tan(omega * lam))
            su = sym_rotation(omega, lam)
            prod = sv @ su
            T = math.tan(omega * lam) / omega
            res["free_particle"] = max(
                res["free_particle"],
                float(np.max(np.abs(prod.matrix - free_particle_matrix(T).matrix))),
            )
            res["symplectic_det"] = max(
                res["symplectic_det"],
                sv.det_residual(),
                su.det_residual(),
                prod.det_residual(),
            )
            for Omega in Omegas:
                res["cross_identity"] = max(
                    res["cross_identity"], takagi_cross_identity_residual(omega, Omega, lam)
                )
                res["heisenberg_q"] = max(
                    res["heisenberg_q"], heisenberg_q_relation_residual(omega, Omega, lam)
                )
    rng = np.random.default_rng(rng_seed)
    for _ in range(20):
        w, W = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=2))
        res["bogoliubov_norm"] = max(
            res["bogoliubov_norm"], vacuum_bogoliubov(w, W).normalization_residual()
        )
        res["mode_ode"] = max(
            res["mode_ode"], mode_ode_residual(ConformalTakagiMap(float(w), float(W)))
        )
    return res
