"""Matrix elements, density matrices, negativity, and the duality runner.

Independent cross-checks: a plain Simpson grid in the original coordinates
(no rotated axes, no adaptivity) frozen at a single resolvable regulator, and
the Fourier mode-sum oracle.  Scaling identities are tested bitwise with
power-of-two couplings so exactness claims really are exact.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from takagi_harvest import (
    ConformalTakagiMap,
    DetectorSpec,
    HarvestScenario,
    MatrixElements,
    StaticTrajectory,
    assemble_rho,
    compute_L,
    compute_M,
    compute_N,
    cos_squared_switching,
    duality_backbone_residual,
    dualize,
    gaussian_switching,
    harvest,
    negativity_leading,
    negativity_pt_exact,
    run_dual_check,
    vacuum_bogoliubov,
)
from takagi_harvest import harvesting
from takagi_harvest.field import wightman_frw_at_clock, wightman_frw_sep
from takagi_harvest.gaussian import transported_mode, transported_mode_at_clock
from takagi_harvest.geometry import transform_switching
from takagi_harvest.harvesting import compute_elements, regulator_sequence
from takagi_harvest.quadrature import XK, IntegralResult, QuadratureConfig, default_epsilon_sequence

C0 = 0.0078125  # 2^-7: power-of-two coupling makes quadratic scaling exact

GAUSS = gaussian_switching(1.0)


def _detector(label, pos, model="oscillator", c=0.01, freq=1.0, chi=GAUSS):
    return DetectorSpec(
        label=label,
        model=model,
        frequency=freq,
        coupling=c,
        trajectory=StaticTrajectory(pos),
        switching=chi,
    )


def _scenario(model="oscillator", c=0.01, L=5.0, freq=1.0, chi=GAUSS, quad=None):
    da = _detector("A", (0.0, 0.0, 0.0), model, c, freq, chi)
    db = _detector("B", (L, 0.0, 0.0), model, c, freq, chi)
    kw = {} if quad is None else {"quadrature": quad}
    return HarvestScenario(detectors=(da, db), **kw)


def _elements(L_AA, L_BB, M, L_AB=0.0, N_A=None, N_B=None):
    def wrap(v):
        return None if v is None else IntegralResult(value=complex(v), err_estimate=0.0)

    return MatrixElements(
        L_AA=wrap(L_AA), L_BB=wrap(L_BB), M=wrap(M), L_AB=wrap(L_AB),
        N_A=wrap(N_A), N_B=wrap(N_B),
    )


# --- matrix elements ---------------------------------------------------------


def test_L_zero_coupling_short_circuit():
    sc = _scenario(c=0.0)
    res = compute_L(sc.detectors[0], sc.detectors[0], sc)
    assert res.value == 0.0
    assert res.note == "zero-coupling"


def test_L_direct_matches_fourier_oracle():
    sc = _scenario()
    direct = compute_L(sc.detectors[0], sc.detectors[0], sc)
    oracle = 7.088272232636415e-07  # frozen Fourier mode-sum value
    assert abs(direct.value - oracle) / oracle <= 1e-6


def test_L_method_fourier_delegates():
    sc = _scenario(quad=QuadratureConfig(method="fourier"))
    res = compute_L(sc.detectors[0], sc.detectors[1], sc)
    assert res.note == "fourier-oracle"
    assert res.value == pytest.approx(2.0579692753949913e-07, rel=1e-9)


def test_coupling_scaling_exact():
    eps = (0.01,)
    vals = {}
    for s in (1, 2, 3):
        sc = _scenario(model="qubit", c=s * C0)
        vals[s] = (
            compute_L(sc.detectors[0], sc.detectors[0], sc, epsilons=eps).value,
            compute_M(sc, epsilons=eps).value,
        )
    assert vals[2][0] == 4 * vals[1][0] and vals[2][1] == 4 * vals[1][1]
    assert vals[3][0] == 9 * vals[1][0] and vals[3][1] == 9 * vals[1][1]


def test_M_zero_coupling():
    assert compute_M(_scenario(c=0.0)).value == 0.0


def test_M_label_swap_invariant():
    sc = _scenario(model="qubit")
    swapped = HarvestScenario(detectors=sc.detectors[::-1], quadrature=sc.quadrature)
    eps = (0.01, 0.005)
    assert compute_M(sc, epsilons=eps).value == compute_M(swapped, epsilons=eps).value


def test_M_nonzero_while_spacelike():
    # gaussian windows at separation 5: essentially causally disjoint, yet
    # the cross term survives (this is what makes harvesting possible)
    res = compute_M(_scenario(), epsilons=(0.01, 0.005))
    assert abs(res.value) > 1e-7


def test_N_requires_oscillator():
    sc = _scenario(model="qubit")
    with pytest.raises(ValueError):
        compute_N(sc.detectors[0], sc)


def test_N_zero_coupling():
    sc = _scenario(c=0.0)
    assert compute_N(sc.detectors[0], sc).value == 0.0


def test_N_equals_half_sqrt2_of_clone_M():
    # with B a clone of A at the same position, the ordered integrals agree
    # exactly at every regulator: N = (sqrt(2)/2) M_clone
    da = _detector("A", (0.0, 0.0, 0.0))
    db = _detector("B", (0.0, 0.0, 0.0))
    clone = HarvestScenario(detectors=(da, db))
    single = HarvestScenario(detectors=(da, _detector("B", (5.0, 0.0, 0.0))))
    for eps in (1e-2, 5e-3):
        n = compute_N(da, single, epsilons=(eps,)).value
        m = compute_M(clone, epsilons=(eps,)).value
        assert abs(n - 0.5 * math.sqrt(2.0) * m) / abs(n) <= 1e-12


def test_N_coupling_quadruples():
    sc1 = _scenario(c=C0)
    sc2 = _scenario(c=2 * C0)
    eps = (0.01,)
    n1 = compute_N(sc1.detectors[0], sc1, epsilons=eps).value
    n2 = compute_N(sc2.detectors[0], sc2, epsilons=eps).value
    assert n2 == 4 * n1


def test_simpson_cross_check_frozen():
    # Simpson on a 6001^2 grid in unrotated (t, t') coordinates, eps = 0.25,
    # [-8, 8]^2; values frozen from that independent evaluation
    cfg = QuadratureConfig(epsilon_sequence=(0.25,), extrapolation="none")
    sc = _scenario(quad=cfg)
    L = compute_L(sc.detectors[0], sc.detectors[0], sc)
    M = compute_M(sc)
    assert abs(L.value - 6.176241452214257e-07) / 6.176241452214257e-07 <= 1e-8
    m_ref = -2.5884406937599136e-07 + 1.0281040611913585e-08j
    assert abs(M.value - m_ref) / abs(m_ref) <= 1e-7


# --- density matrix and negativity --------------------------------------------


def test_rho_qubit_layout():
    el = _elements(0.01, 0.02, 0.003 + 0.004j, L_AB=0.005 - 0.001j)
    rho = assemble_rho(el, "qubit")
    assert rho.shape == (4, 4)
    assert rho[0, 0] == pytest.approx(1 - 0.03)
    assert rho[1, 1] == 0.01 and rho[2, 2] == 0.02 and rho[3, 3] == 0.0
    assert rho[3, 0] == 0.003 + 0.004j and rho[0, 3] == np.conj(rho[3, 0])
    assert rho[1, 2] == 0.005 - 0.001j and rho[2, 1] == np.conj(rho[1, 2])
    assert rho[1, 0] == 0.0 and rho[2, 3] == 0.0


def test_rho_oscillator_layout():
    el = _elements(0.01, 0.02, 0.003j, L_AB=0.005, N_A=0.001 + 0.002j, N_B=-0.004)
    rho = assemble_rho(el, "oscillator")
    assert rho.shape == (6, 6)
    assert rho[3, 0] == 0.003j
    assert rho[4, 0] == 0.001 + 0.002j and rho[0, 4] == np.conj(rho[4, 0])
    assert rho[5, 0] == -0.004 and rho[0, 5] == -0.004
    assert rho[4, 4] == 0.0 and rho[5, 5] == 0.0


@pytest.mark.parametrize("model", ["qubit", "oscillator"])
def test_rho_trace_and_hermiticity(model):
    el = _elements(0.01, 0.02, 0.003 + 0.004j, L_AB=0.005 - 0.001j,
                   N_A=0.001j, N_B=0.002)
    rho = assemble_rho(el, model)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


def test_negativity_closed_form_negative_E1():
    # equal diagonals 0.01, |M| = 0.02: E1 = 0.01 - 0.02 = -0.01
    el = _elements(0.01, 0.01, 0.02)
    E1, neg = negativity_leading(el)
    assert E1 == pytest.approx(-0.01, rel=1e-15)
    assert neg == pytest.approx(0.01, rel=1e-15)


def test_negativity_closed_form_positive_E1():
    # E1 = (0.04 - sqrt(0.0004 + 0.0004))/2 = 0.02 - sqrt(0.0002)
    el = _elements(0.03, 0.01, 0.01)
    E1, neg = negativity_leading(el)
    assert E1 == pytest.approx(0.02 - math.sqrt(2.0) * 0.01, rel=1e-14)
    assert neg == 0.0


def test_negativity_pt_product_state_is_zero():
    el = _elements(0.01, 0.02, 0.0, L_AB=0.0)
    for model in ("qubit", "oscillator"):
        assert negativity_pt_exact(assemble_rho(el, model)) <= 1e-15


def test_negativity_pt_qubit_extra_eigenvalue():
    # the 4x4 partial transpose always carries ~ -|L_AB|^2/(1 - L_AA - L_BB)
    el = _elements(0.01, 0.01, 0.0, L_AB=0.005)
    got = negativity_pt_exact(assemble_rho(el, "qubit"))
    assert got == pytest.approx(0.005**2 / 0.98, rel=1e-3)


# --- model equivalence and subleading structure --------------------------------


@pytest.fixture(scope="module")
def qubit_reports():
    return {c: harvest(_scenario(model="qubit", c=c)) for c in (0.04, 0.02, 0.01)}


@pytest.fixture(scope="module")
def oscillator_report():
    return harvest(_scenario(model="oscillator", c=0.01))


def test_qubit_oscillator_leading_order_bitwise(qubit_reports, oscillator_report):
    q = qubit_reports[0.01]
    o = oscillator_report
    assert q.E1 == o.E1
    assert q.negativity == o.negativity


def test_rho_shapes_by_model(qubit_reports, oscillator_report):
    assert qubit_reports[0.01].rho.shape == (4, 4)
    assert oscillator_report.rho.shape == (6, 6)


def test_pt_extra_eigenvalue_scales_c4(qubit_reports):
    r1 = qubit_reports[0.01].negativity_pt
    r2 = qubit_reports[0.02].negativity_pt
    assert r2 / r1 == pytest.approx(16.0, rel=1e-3)


def test_subleading_ratio_vanishes_quadratically(qubit_reports):
    # |extra PT eigenvalue| / |E1| must drop by 4 per coupling halving
    ratios = {c: rep.negativity_pt / abs(rep.E1) for c, rep in qubit_reports.items()}
    assert ratios[0.04] / ratios[0.02] == pytest.approx(4.0, rel=0.05)
    assert ratios[0.02] / ratios[0.01] == pytest.approx(4.0, rel=0.05)


def test_harvest_report_provenance(qubit_reports):
    rep = qubit_reports[0.01]
    assert rep.provenance == "minkowski/ground"
    assert len(rep.epsilon_sequence) >= 1
    assert rep.elements.N_A is None  # qubits have no N elements


def test_perturbative_warning():
    sc = _scenario(model="qubit", c=5.0, L=1.0)
    with pytest.warns(UserWarning, match="second-order truncation"):
        harvest(sc, epsilons=(0.01,))


# --- validation ----------------------------------------------------------------


def test_detector_spec_validation():
    traj = StaticTrajectory((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        DetectorSpec("", "qubit", 1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "spin", 1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", -1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", 1.0, -0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", 1.0, 0.01, traj, GAUSS, interaction_scale=2.0)
    with pytest.raises(ValueError):
        DetectorSpec("A", "oscillator", 0.0, 0.01, traj, GAUSS)  # needs explicit scale


def test_oscillator_zero_frequency_with_scale():
    traj = StaticTrajectory((0.0, 0.0, 0.0))
    d = DetectorSpec("A", "oscillator", 0.0, 0.01, traj, GAUSS, interaction_scale=1.0)
    with pytest.raises(ValueError):
        d.coupling_effective  # 1/sqrt(2 freq) undefined at freq 0


def test_scenario_validation():
    da = _detector("A", (0.0, 0.0, 0.0))
    db = _detector("B", (5.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da,))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, replace(db, label="A")))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, replace(db, model="qubit")))  # mixed pair
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, db), frame="frw")  # needs a map
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, db), map=ConformalTakagiMap(1.0, 2.0))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, db), initial_state="takagi_squeezed")


# --- duality --------------------------------------------------------------------


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_duality_backbone_pointwise(omega, Omega):
    m = ConformalTakagiMap(omega, Omega)
    lam = np.linspace(-4.3, 4.3, 100)
    assert duality_backbone_residual(m, GAUSS, lam) <= 1e-12


def test_dualize_validation():
    flat = _scenario()
    with pytest.raises(ValueError, match="oscillator"):
        dualize(_scenario(model="qubit"), 2.0)
    da, db = flat.detectors
    uneq = HarvestScenario(detectors=(da, replace(db, frequency=2.0)))
    with pytest.raises(ValueError, match="equal detector frequencies"):
        dualize(uneq, 2.0)
    frw = dualize(flat, 2.0)
    with pytest.raises(ValueError, match="flat"):
        dualize(frw, 3.0)


def test_dualize_power_law_support_check():
    # Omega=0 only covers |omega lam| < pi/2; an 8 sigma gaussian is too wide
    with pytest.raises(ValueError):
        dualize(_scenario(), 0.0)
    narrow = _scenario(chi=cos_squared_switching(-0.5, 0.5))
    dual = dualize(narrow, 0.0)
    assert dual.bogoliubov is None
    assert dual.map.Omega == 0.0


def test_dualize_scenario_shape():
    dual = dualize(_scenario(), 2.0)
    assert dual.frame == "frw"
    assert dual.initial_state == "takagi_squeezed"
    assert dual.map.omega == 1.0 and dual.map.Omega == 2.0
    assert dual.bogoliubov == vacuum_bogoliubov(1.0, 2.0)
    for d in dual.detectors:
        assert d.frequency == 2.0
        assert d.interaction_scale == math.sqrt(2.0)
        assert d.trajectory.frame == "frw"


def test_dual_check_degenerate_collapses():
    rep = run_dual_check(_scenario(), 1.0)
    assert rep.resid_max <= 1e-12


def test_dual_check_nontrivial_pair():
    rep = run_dual_check(_scenario(), 2.0, epsilons=(0.01, 0.005))
    assert rep.resid_max <= 1e-3
    assert set(rep.residuals) == {"L_AA", "L_BB", "abs_M", "negativity"}
    assert rep.bogoliubov == vacuum_bogoliubov(1.0, 2.0)


# --- regulator sequence ---------------------------------------------------------


def test_regulator_sequence_policy(monkeypatch):
    sc = _scenario()
    assert regulator_sequence(sc) == default_epsilon_sequence(1.0)
    assert regulator_sequence(sc, levels=4) == default_epsilon_sequence(1.0, levels=4)
    assert regulator_sequence(sc, [0.02, 0.01]) == (0.02, 0.01)
    configured = _scenario(quad=QuadratureConfig(epsilon_sequence=(0.04, 0.02)))
    assert regulator_sequence(configured, levels=4) == (0.04, 0.02)

    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a rejected sequence")

    monkeypatch.setattr(harvesting, "integrate_square", no_quadrature)
    da = sc.detectors[0]
    with pytest.raises(ValueError, match="halve"):
        compute_L(da, da, sc, epsilons=(0.01, 0.004))
    with pytest.raises(ValueError, match="halve"):
        harvest(sc, epsilons=(0.01, 0.004))


# --- each leg evaluated once -----------------------------------------------------

# one regulator level and a handful of cells: enough to exercise every kernel
SMALL = QuadratureConfig(max_subdivisions=6, extrapolation="none")
EPS1 = (0.01,)


def _gk_grid(rect):
    u0, u1, w0, w1 = rect
    u = u0 + 0.5 * (u1 - u0) * (XK[:, None] + 1.0)
    w = w0 + 0.5 * (w1 - w0) * (XK[None, :] + 1.0)
    return u, w


def test_dual_kernels_evaluate_the_clock_once_per_leg(monkeypatch):
    dual = dualize(_scenario(quad=SMALL), 2.0)
    da = dual.detectors[0]
    calls = dict.fromkeys(("kernel", "lambda_of_tau", "conformal_factor"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("lambda_of_tau", "conformal_factor"):
        monkeypatch.setattr(ConformalTakagiMap, name, counted(name, getattr(ConformalTakagiMap, name)))
    integrate = harvesting.integrate_square
    monkeypatch.setattr(
        harvesting, "integrate_square",
        lambda f, rect, cfg: integrate(counted("kernel", f), rect, cfg),
    )
    runs = (
        lambda: compute_L(da, da, dual, EPS1),
        lambda: compute_M(dual, EPS1),
        lambda: compute_N(da, dual, EPS1),
    )
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls["kernel"] > 1
        assert calls["lambda_of_tau"] == 2 * calls["kernel"]
        assert calls["conformal_factor"] == 2 * calls["kernel"]


def test_shared_clock_legs_equal_the_public_wrappers():
    m = ConformalTakagiMap(1.0, 2.0)
    chi = transform_switching(m, GAUSS)
    a, b = chi.support
    u, w = _gk_grid(harvesting._rect_square(chi.support, chi.support))
    t, tp = 0.5 * (w + u), 0.5 * (w - u)
    outside = (t < a) | (t > b)
    assert np.any(outside) and not np.all(outside)
    lam, lam_p = m.lambda_of_tau(t), m.lambda_of_tau(tp)
    C, C_p = m.conformal_factor(lam), m.conformal_factor(lam_p)
    assert np.array_equal(chi.at_clock(t, lam, C), chi(t))
    assert np.all(chi.at_clock(t, lam, C)[outside] == 0.0)
    assert np.array_equal(transported_mode_at_clock(m, lam, C), transported_mode(m, t))
    assert np.array_equal(
        wightman_frw_at_clock(lam, C, lam_p, C_p, 5.0, 0.01),
        wightman_frw_sep(lam, lam_p, 5.0, m, 0.01),
    )


def test_dual_kernels_equal_the_formulas_of_the_public_legs():
    # each kernel, written with the public per-point wrappers, node by node
    dual = dualize(_scenario(), 2.0)
    m, (da, db), eps = dual.map, dual.detectors, 0.01
    chi = da.switching
    lam = m.lambda_of_tau

    def mode(x):
        return transported_mode(m, x)

    u, w = _gk_grid(harvesting._rect_square(chi.support, chi.support))
    t, tp = 0.5 * (w + u), 0.5 * (w - u)
    L = harvesting._l_kernel_factory(dual, da, da, 0.0)(eps)(u, w)
    expect_L = (0.5 * chi(t) * mode(t) * chi(tp) * np.conj(mode(tp))
                * wightman_frw_sep(lam(tp), lam(t), 0.0, m, eps))
    assert np.array_equal(L, expect_L)

    u, w = _gk_grid(harvesting._rect_ordered(chi.support, chi.support))
    t, tp = 0.5 * (w + u), 0.5 * (w - u)
    pair = chi(t) * mode(t) * db.switching(tp) * mode(tp)
    swapped = db.switching(t) * mode(t) * chi(tp) * mode(tp)
    M = harvesting._m_kernel_factory(dual)(eps)(u, w)
    assert np.array_equal(M, 0.5 * wightman_frw_sep(lam(t), lam(tp), 5.0, m, eps) * (pair + swapped))
    N = harvesting._n_kernel_factory(dual, da)(eps)(u, w)
    expect_N = (0.5 * wightman_frw_sep(lam(t), lam(tp), 0.0, m, eps)
                * chi(t) * mode(t) * chi(tp) * mode(tp))
    assert np.array_equal(N, expect_N)


def _count_compute_L(monkeypatch):
    calls = []
    compute = harvesting.compute_L

    def counted(det_a, det_b, scenario, epsilons=None):
        calls.append((det_a.label, det_b.label))
        return compute(det_a, det_b, scenario, epsilons)

    monkeypatch.setattr(harvesting, "compute_L", counted)
    return calls


def test_mirrored_pair_reuses_L_AA_and_N_A(monkeypatch):
    sc = _scenario(quad=SMALL)
    db = sc.detectors[1]
    general_L = compute_L(db, db, sc, EPS1)
    general_N = compute_N(db, sc, EPS1)
    calls = _count_compute_L(monkeypatch)
    el = compute_elements(sc, EPS1)
    assert calls == [("A", "A"), ("A", "B")]
    # the general path gives the same results, bit for bit
    assert el.L_BB == el.L_AA == general_L
    assert el.N_B == el.N_A == general_N


def test_dual_check_reuses_L_AA_on_both_sides(monkeypatch):
    sc = _scenario(quad=SMALL)
    dual = dualize(sc, 2.0)
    flat_b, dual_b = sc.detectors[1], dual.detectors[1]
    general = (compute_L(flat_b, flat_b, sc, EPS1), compute_L(dual_b, dual_b, dual, EPS1))
    calls = _count_compute_L(monkeypatch)
    rep = run_dual_check(sc, 2.0, epsilons=EPS1)
    assert calls == [("A", "A"), ("A", "A")]
    assert rep.flat.L_BB == rep.flat.L_AA == general[0]
    assert rep.frw.L_BB == rep.frw.L_AA == general[1]


@pytest.mark.parametrize("change", [
    {"switching": gaussian_switching(1.25)},
    {"frequency": 1.5},
    {"coupling": 0.02},
    {"interaction_scale": 2.0},
    {"switching": cos_squared_switching(-4.0, 4.0)},
])
def test_pair_that_does_not_mirror_takes_the_general_path(monkeypatch, change):
    da, db = _scenario().detectors
    sc = HarvestScenario(detectors=(da, replace(db, **change)), quadrature=SMALL)
    calls = _count_compute_L(monkeypatch)
    el = compute_elements(sc, EPS1)
    assert calls == [("A", "A"), ("B", "B"), ("A", "B")]
    assert el.L_BB.value != el.L_AA.value
    assert el.N_B.value != el.N_A.value
    # both time orderings enter M, so it is symmetric in the labels
    swapped = HarvestScenario(detectors=sc.detectors[::-1], quadrature=SMALL)
    assert compute_M(swapped, EPS1).value == el.M.value
