"""Conformal clock map between static oscillator detectors and cosmological ones.

The central object is the reparametrization tau(lambda) that trades a harmonic
detector of frequency omega in flat spacetime for one of frequency Omega on a
conformally related cosmological background,

    tan(Omega tau) = (Omega / omega) tan(omega lambda),

continued smoothly across the poles of the tangent, branch by branch.  The
derivative dtau/dlambda equals the conformal factor evaluated on the
trajectory, and the scale factor of the dual cosmology is the same algebraic
expression with the roles of omega and Omega exchanged.  This module carries
the map, switching-function transport between the two pictures, and the
kinematics of the dual cosmology (scale factor, conformal versus
cosmological time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConformalTakagiMap",
    "SwitchingFunction",
    "gaussian_switching",
    "cos_squared_switching",
    "transform_switching",
    "StaticTrajectory",
]

GAUSSIAN_SUPPORT_SIGMAS = 8.0


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


@dataclass(frozen=True)
class ConformalTakagiMap:
    """Clock map (omega, Omega) with its conformal factor and dual scale factor.

    omega is the flat-side detector frequency (> 0), Omega the dual-side one
    (>= 0; Omega = 0 is the free-particle / power-law-inflation limit).
    n_spatial is the number of spatial dimensions of the field theory; the
    switching transport weight depends on it.
    """

    omega: float
    Omega: float
    n_spatial: int = 3

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (self.Omega >= 0.0 and math.isfinite(self.Omega)):
            raise ValueError(f"Omega must be >= 0 and finite, got {self.Omega}")
        if int(self.n_spatial) != self.n_spatial or self.n_spatial < 1:
            raise ValueError(f"n_spatial must be a positive integer, got {self.n_spatial}")

    # Omega == omega collapses every map below to an exact identity; the
    # short-circuits keep that exact in floating point (arctan(tan(x)) is not).
    @property
    def degenerate(self) -> bool:
        return self.Omega == self.omega

    def _branch(self, x):
        # branch n of the tangent: x in [-pi/2 + pi n, pi/2 + pi n)
        return np.floor(x / math.pi + 0.5)

    def tau_of_lambda(self, lam):
        """Dual proper time tau at flat proper time lambda, smooth across branches."""
        lam, scalar = _prepare(lam)
        if self.degenerate:
            return _finish(lam + 0.0, scalar)
        x = self.omega * lam
        if self.Omega == 0.0:
            # free-particle dual exists only inside the principal window
            if np.any(np.abs(x) >= 0.5 * math.pi):
                raise ValueError(
                    "tau_of_lambda with Omega=0 requires |omega*lambda| < pi/2"
                )
            return _finish(np.tan(x) / self.omega, scalar)
        n = self._branch(x)
        y = x - math.pi * n
        tau = (np.arctan((self.Omega / self.omega) * np.tan(y)) + math.pi * n) / self.Omega
        return _finish(tau, scalar)

    def lambda_of_tau(self, tau):
        """Inverse clock map; branch structure mirrors tau_of_lambda."""
        tau, scalar = _prepare(tau)
        if self.degenerate:
            return _finish(tau + 0.0, scalar)
        if self.Omega == 0.0:
            return _finish(np.arctan(self.omega * tau) / self.omega, scalar)
        x = self.Omega * tau
        m = self._branch(x)
        y = x - math.pi * m
        lam = (np.arctan((self.omega / self.Omega) * np.tan(y)) + math.pi * m) / self.omega
        return _finish(lam, scalar)

    def conformal_factor(self, t):
        """Conformal factor C(t) of the dual metric in conformal time t.

        The solution is spatially homogeneous, so C depends on t alone and the
        on-trajectory value C(lambda) is the same function.  It is also the
        clock rate dtau/dlambda, strictly positive on any branch.

        With r = Omega/omega, C = 1 / (cos^2(omega t) + r^2 sin^2(omega t)),
        evaluated divided through by cos^2 as (1 + T^2) / (1 + r^2 T^2),
        T = tan(omega t): one tangent instead of a cosine and a sine.  It
        stays finite because |tan| of a float never exceeds about 1.6e16,
        where it gives 1/r^2 (1 + T^2 at Omega = 0).
        """
        t, scalar = _prepare(t)
        if self.degenerate:
            return _finish(np.ones_like(t), scalar)
        T2 = np.tan(self.omega * t) ** 2
        r = self.Omega / self.omega
        return _finish((1.0 + T2) / (1.0 + (r * r) * T2), scalar)

    def scale_factor(self, T):
        """Scale factor a(T) of the dual cosmology in cosmological time T."""
        T, scalar = _prepare(T)
        if self.degenerate:
            return _finish(np.ones_like(T), scalar)
        if self.Omega == 0.0:
            return _finish(1.0 + (self.omega * T) ** 2, scalar)
        c = np.cos(self.Omega * T)
        s = np.sin(self.Omega * T)
        r = self.omega / self.Omega
        return _finish(c * c + (r * r) * (s * s), scalar)


@dataclass(frozen=True)
class SwitchingFunction:
    """Window function chi with compact support.

    A window is plain data: kind is one of gaussian / cos_squared /
    transformed, and params holds its (name, value) pairs (sigma and center;
    t0 and t1; the base window and the map it is transported by).  Windows
    are equal, hash and pickle by value.  Evaluation outside the support,
    of the window and of its derivative, returns exactly zero.
    """

    kind: str
    support: tuple[float, float]
    params: tuple

    def __post_init__(self):
        if self.kind not in ("gaussian", "cos_squared", "transformed"):
            raise ValueError(f"unknown switching kind {self.kind!r}")
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"support must be a finite interval, got {self.support}")

    def param(self, name: str):
        """The parameter called name (see the class docstring)."""
        return dict(self.params)[name]

    def __call__(self, t):
        t, scalar = _prepare(t)
        p = dict(self.params)
        if self.kind == "transformed":
            lam = p["map"].lambda_of_tau(t)
            return _finish(self.at_clock(t, lam, p["map"].conformal_factor(lam)), scalar)
        if self.kind == "gaussian":
            vals = np.exp(-0.5 * ((t - p["center"]) / p["sigma"]) ** 2)
        else:
            t0, t1 = p["t0"], p["t1"]
            vals = np.cos(math.pi * (t - 0.5 * (t0 + t1)) / (t1 - t0)) ** 2
        a, b = self.support
        return _finish(np.where((t >= a) & (t <= b), vals, 0.0), scalar)

    def at_clock(self, tau, lam, C):
        """Transported window at dual times tau from the clock values there.

        lam = lambda(tau) and C = C(lam) must come from this window's own map;
        the result equals self(tau) value for value.  Kernels that already
        hold the clock at their nodes call this instead of self(tau), so the
        clock map is not evaluated a second time.
        """
        if self.kind != "transformed":
            raise ValueError(f"at_clock needs a transported window, got kind {self.kind!r}")
        tau = np.asarray(tau, dtype=float)
        a, b = self.support
        vals = self.param("base")(lam) * C ** (0.5 * (self.param("map").n_spatial - 4))
        return np.where((tau >= a) & (tau <= b), vals, 0.0)

    def derivative(self, t, lam=None, C=None):
        """d chi / dt in closed form, zero outside the support.

        A transported window chi(lambda) C^e, e = (n_spatial - 4)/2, is
        differentiated by the chain rule through the clock, dlambda/dtau =
        1/C and dC/dlambda = omega (1 - r^2) sin(2 omega lambda) C^2 with
        r = Omega/omega.  lam = lambda(t) and C = C(lam) may be passed as
        for at_clock, from this window's own map; otherwise the clock is
        evaluated here.
        """
        t, scalar = _prepare(t)
        p = dict(self.params)
        if self.kind == "transformed":
            m, base = p["map"], p["base"]
            if lam is None:
                lam = m.lambda_of_tau(t)
                C = m.conformal_factor(lam)
            e = 0.5 * (m.n_spatial - 4)
            r = m.Omega / m.omega
            rate = m.omega * (1.0 - r * r) * np.sin(2.0 * m.omega * lam) * C
            vals = C ** (e - 1.0) * (base.derivative(lam) + e * base(lam) * rate)
        elif self.kind == "gaussian":
            x = (t - p["center"]) / p["sigma"]
            vals = -x / p["sigma"] * np.exp(-0.5 * x * x)
        else:
            t0, t1 = p["t0"], p["t1"]
            vals = -math.pi / (t1 - t0) * np.sin(2.0 * math.pi * (t - 0.5 * (t0 + t1)) / (t1 - t0))
        a, b = self.support
        return _finish(np.where((t >= a) & (t <= b), vals, 0.0), scalar)

    def fourier(self, s):
        """Closed-form Fourier transform F(s) = integral chi(t) exp(i s t) dt.

        Available for the gaussian and cos_squared kinds; other kinds have no
        closed form here and raise ValueError.
        """
        s, scalar = _prepare(s)
        if self.kind == "gaussian":
            sig = self.param("sigma")
            c = self.param("center")
            out = sig * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sig * s) ** 2) * np.exp(1j * s * c)
        elif self.kind == "cos_squared":
            t0, t1 = self.param("t0"), self.param("t1")
            width = t1 - t0
            mid = 0.5 * (t0 + t1)
            b = 2.0 * math.pi / width
            x = s / b
            # g(x) = sin(pi x) / (pi x (1 - x^2)); each branch below is an
            # exact rewriting that stays stable near its own zero of the
            # denominator (np.sinc(x) = sin(pi x)/(pi x))
            near_pos = x > 0.5
            near_neg = x < -0.5
            g = np.where(
                near_pos,
                np.sinc(x - 1.0) / np.where(near_pos, x * (1.0 + x), 1.0),
                np.where(
                    near_neg,
                    np.sinc(x + 1.0) / np.where(near_neg, x * (x - 1.0), 1.0),
                    np.sinc(x) / np.where(near_pos | near_neg, 1.0, 1.0 - x * x),
                ),
            )
            out = 0.5 * width * g * np.exp(1j * s * mid)
        else:
            raise ValueError(f"no closed-form Fourier transform for kind {self.kind!r}")
        return complex(out) if scalar else out

    def fourier_envelope(self, s):
        """Monotone bound on |fourier| used for quadrature tail estimates."""
        s, scalar = _prepare(s)
        s = np.abs(s)
        if self.kind == "gaussian":
            sig = self.param("sigma")
            out = sig * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sig * s) ** 2)
        elif self.kind == "cos_squared":
            t0, t1 = self.param("t0"), self.param("t1")
            width = t1 - t0
            b = 2.0 * math.pi / width
            flat = 0.5 * width
            # |F| <= (width/2) / (pi x (x^2 - 1)) <= (2 width)/(3 pi x^3) for x >= 2;
            # the tail is evaluated only there, so s = 0 cannot overflow it
            far = s >= 2.0 * b
            out = np.full_like(s, flat)
            tail = (2.0 * width) / (3.0 * math.pi) * (b / s[far]) ** 3
            out[far] = np.minimum(flat, tail)
        else:
            raise ValueError(f"no Fourier envelope for kind {self.kind!r}")
        return _finish(out, scalar)


def gaussian_switching(sigma: float, center: float = 0.0) -> SwitchingFunction:
    """Gaussian window exp(-(t-center)^2 / (2 sigma^2)), truncated at 8 sigma."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    half = GAUSSIAN_SUPPORT_SIGMAS * sigma
    return SwitchingFunction(
        kind="gaussian",
        support=(center - half, center + half),
        params=(("sigma", sigma), ("center", center)),
    )


def cos_squared_switching(t0: float, t1: float) -> SwitchingFunction:
    """Window cos^2(pi (t - mid)/(t1 - t0)) on [t0, t1], zero at both ends."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return SwitchingFunction(
        kind="cos_squared",
        support=(t0, t1),
        params=(("t0", t0), ("t1", t1)),
    )


def transform_switching(m: ConformalTakagiMap, chi: SwitchingFunction) -> SwitchingFunction:
    """Transport a flat-side window chi(lambda) to the dual clock.

    Returns tau -> chi(lambda(tau)) * C(lambda(tau))^((n_spatial - 4)/2) with
    support [tau(a), tau(b)].  For Omega = 0 the support of chi must sit inside
    the principal window (-pi/(2 omega), pi/(2 omega)).
    """
    a, b = chi.support
    if m.Omega == 0.0:
        lim = 0.5 * math.pi / m.omega
        if a <= -lim or b >= lim:
            raise ValueError(
                "Omega=0 transport needs support inside (-pi/(2 omega), pi/(2 omega)); "
                f"got {chi.support} with omega={m.omega}"
            )
    ta = m.tau_of_lambda(a)
    tb = m.tau_of_lambda(b)
    return SwitchingFunction(
        kind="transformed",
        support=(ta, tb),
        params=(("base", chi), ("map", m)),
    )


@dataclass(frozen=True)
class StaticTrajectory:
    """Detector at rest at fixed (comoving) spatial position.

    The frame is the scenario's (HarvestScenario.frame): proper time is
    coordinate time on the flat side and cosmological time T on the dual
    side, where the conformal-coordinate velocity is dt/dT = 1/a.
    """

    position: tuple[float, ...]

    def __post_init__(self):
        if len(self.position) == 0:
            raise ValueError("position must have at least one component")
        object.__setattr__(self, "position", tuple(float(p) for p in self.position))


def separation(traj_a: StaticTrajectory, traj_b: StaticTrajectory) -> float:
    """Euclidean (comoving) distance between two static detector positions."""
    pa = np.asarray(traj_a.position)
    pb = np.asarray(traj_b.position)
    if pa.shape != pb.shape:
        raise ValueError("positions must have matching dimension")
    return float(np.linalg.norm(pa - pb))
