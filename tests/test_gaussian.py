"""Symplectic identity suite tests.

The rotation generator is cross-checked against scipy.linalg.expm, an
independent matrix-exponential oracle; everything else follows from exact
closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from takagi_harvest import (
    ConformalTakagiMap,
    SUITE_THRESHOLDS,
    free_particle_matrix,
    heisenberg_q_relation_residual,
    mode_ode_residual,
    run_identity_suite,
    sym_rotation,
    sym_shear_scale,
    takagi_cross_identity_residual,
    takagi_free_particle_residual,
    transported_mode,
    vacuum_bogoliubov,
)


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", [-1.3, 0.0, 0.4, 2.7])
def test_rotation_matches_expm_oracle(omega, lam):
    # generator of (q, p) flow for H = (p^2 + omega^2 q^2)/2
    gen = np.array([[0.0, 1.0], [-(omega**2), 0.0]])
    expected = expm(gen * lam)
    assert np.max(np.abs(sym_rotation(omega, lam) - expected)) <= 1e-13


def test_shear_scale_example():
    m = sym_shear_scale(math.log(2.0), 0.0)
    assert np.array_equal(m, np.diag([0.5, 2.0]))


def test_shear_scale_action_order():
    # q -> e^{-f} q first, then p -> e^{f}(p + g q): matrix [[e^-f,0],[g e^f, e^f]]
    f, g = 0.3, -1.1
    m = sym_shear_scale(f, g)
    assert m[0, 1] == 0.0
    assert m[1, 0] == pytest.approx(g * math.exp(f), rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(f=st.floats(-3.0, 3.0), g=st.floats(-5.0, 5.0))
def test_shear_scale_always_symplectic(f, g):
    m = sym_shear_scale(f, g)
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) <= 1e-12


def test_rotation_additivity():
    a = sym_rotation(1.3, 0.7) @ sym_rotation(1.3, -0.2)
    assert np.max(np.abs(a - sym_rotation(1.3, 0.5))) <= 1e-14


@pytest.mark.parametrize("omega,lam", [(1.0, 0.3), (2.0, -0.6), (0.5, 1.2)])
def test_free_particle_identity(omega, lam):
    assert takagi_free_particle_residual(omega, lam) <= 1e-13


def test_free_particle_matrix_shape():
    m = free_particle_matrix(2.5)
    assert np.array_equal(m, np.array([[1.0, 2.5], [0.0, 1.0]]))


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
@pytest.mark.parametrize("frac", [-0.9, 0.05, 0.8])
def test_cross_identity_and_heisenberg(omega, Omega, frac):
    lam = frac * 0.5 * math.pi / omega  # stay on the principal branch
    assert takagi_cross_identity_residual(omega, Omega, lam) <= 1e-13
    assert heisenberg_q_relation_residual(omega, Omega, lam) <= 1e-13


def test_cross_identity_rejects_other_branches():
    with pytest.raises(ValueError):
        takagi_cross_identity_residual(1.0, 2.0, 2.0)


def test_vacuum_bogoliubov_quarter_ratio():
    pair = vacuum_bogoliubov(1.0, 4.0)
    assert pair.alpha == 1.25 and pair.beta == 0.75
    assert pair.normalization() == 1.0


def test_vacuum_bogoliubov_trivial_and_errors():
    pair = vacuum_bogoliubov(2.0, 2.0)
    assert pair.alpha == 1.0 and pair.beta == 0.0
    with pytest.raises(ValueError):
        vacuum_bogoliubov(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(0.05, 20.0), Omega=st.floats(0.05, 20.0))
def test_bogoliubov_normalization_property(omega, Omega):
    assert vacuum_bogoliubov(omega, Omega).normalization_residual() <= 1e-10


def test_transported_mode_initial_data():
    m = ConformalTakagiMap(1.0, 2.0)
    assert transported_mode(m, 0.0) == pytest.approx(1.0, abs=1e-14)
    h = 1e-6
    du = (transported_mode(m, h) - transported_mode(m, -h)) / (2 * h)
    assert du == pytest.approx(1j * m.omega, abs=1e-8)


def test_transported_mode_magnitude_is_sqrt_C():
    m = ConformalTakagiMap(2.0, 3.0)
    tau = np.linspace(-0.4, 0.4, 41)
    lam = m.lambda_of_tau(tau)
    assert np.max(np.abs(np.abs(transported_mode(m, tau)) - np.sqrt(m.conformal_factor(lam)))) <= 1e-13


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_mode_solves_constant_frequency_ode(omega, Omega):
    assert mode_ode_residual(ConformalTakagiMap(omega, Omega)) <= 1e-5


def test_mode_ode_requires_uniform_grid():
    m = ConformalTakagiMap(1.0, 2.0)
    with pytest.raises(ValueError):
        mode_ode_residual(m, np.array([0.0, 0.1, 0.3, 0.35, 0.4]))


def test_identity_suite_passes_default_grid():
    res = run_identity_suite()
    for name, value in res.items():
        assert value <= SUITE_THRESHOLDS[name], name


def test_identity_suite_detects_corruption():
    # negative control: a flipped shear sign must blow past the threshold
    res = run_identity_suite(corrupt_sign=True)
    assert res["free_particle"] > SUITE_THRESHOLDS["free_particle"]
