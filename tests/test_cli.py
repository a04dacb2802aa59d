"""End-to-end CLI tests: exit codes, diagnostics, and emitted files.

Everything runs in-process through main(argv) so coverage tooling and
debuggers see straight through; file outputs go to tmp_path.
"""

import json
import math
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from takagi_harvest import cli, harvesting
from takagi_harvest.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    SPEC_VERSION,
    _DUALIZE_COLUMNS,
    _SCAN_COLUMNS,
    _SCHEMA,
    main,
)

GAUSS_REF = """\
[spacetime]
frame = minkowski

[detectors.A]
model = oscillator
frequency = 1.0
coupling = 0.01
position = 0, 0, 0

[detectors.A.switching]
kind = gaussian
sigma = 1.0

[detectors.B]
model = oscillator
frequency = 1.0
coupling = 0.01
position = 5, 0, 0

[detectors.B.switching]
kind = gaussian
sigma = 1.0
"""

QUBIT_COS2 = GAUSS_REF.replace("model = oscillator", "model = qubit").replace(
    "kind = gaussian\nsigma = 1.0", "kind = cos_squared\nt0 = -0.5\nt1 = 0.5"
)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- exit codes and diagnostics -----------------------------------------------


def test_unknown_key_reports_line(tmp_path, capsys):
    # a typo, and the keys that had one legal value or duplicated a flag
    for command, key, line, text in [
        ("harvest", "warp", 3, GAUSS_REF.replace("frame = minkowski", "frame = minkowski\nwarp = 9")),
        ("harvest", "n_spatial", 5, GAUSS_REF.replace(
            "frame = minkowski", "frame = frw\nomega = 1\nOmega = 2\nn_spatial = 3")),
        ("harvest", "method", 25, GAUSS_REF + "\n[quadrature]\nmethod = fourier\n"),
        ("check-takagi", "corrupt_sign", 2, "[check]\ncorrupt_sign = true\n"),
        # the coupling is the whole leg prefactor: no scale that dualize could overwrite
        ("dualize", "interaction_scale", 9,
         GAUSS_REF.replace("0, 0\n", "0, 0\ninteraction_scale = 2.8284271247461903\n")
         + "\n[dualize]\nOmega_list = 1.3\n"),
    ]:
        rc = main([command, "--config", _write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, key
        assert f"key {key!r} (line {line})" in err and "unknown key" in err, err


def test_unknown_section_rejected(tmp_path, capsys):
    for section, line, extra in [("extras", 24, "x = 1"), ("field", 24, "initial_state = ground"),
                                 ("output", 24, "path = x")]:
        text = GAUSS_REF + f"\n[{section}]\n{extra}\n"
        rc = main(["harvest", "--config", _write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, section
        assert f"[{section}] (line {line})" in err and "section not used" in err, err


def test_harvest_requires_config(capsys):
    assert main(["harvest"]) == EXIT_CONFIG
    assert "requires --config" in capsys.readouterr().err


def test_bad_value_exit_config(tmp_path, capsys):
    bad = GAUSS_REF.replace("frequency = 1.0", "frequency = fast", 1)
    rc = main(["harvest", "--config", _write(tmp_path, bad)])
    assert rc == EXIT_CONFIG
    assert "expected a number" in capsys.readouterr().err


def test_non_halving_epsilon_sequence_rejected_at_config_time(tmp_path, capsys, monkeypatch):
    # richardson extrapolation assumes halving; the config must be refused
    # with the key's line before any quadrature runs
    from takagi_harvest import harvesting

    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a rejected config")

    monkeypatch.setattr(harvesting, "integrate_square", no_quadrature)
    bad = GAUSS_REF + "\n[quadrature]\nepsilon_sequence = 0.01, 0.004\n"
    rc = main(["harvest", "--config", _write(tmp_path, bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "epsilon_sequence" in err and "line 25" in err and "halve" in err
    # the patched name is the one the pipeline calls: a valid config reaches it
    with pytest.raises(AssertionError, match="quadrature ran"):
        main(["harvest", "--config", _write(tmp_path, GAUSS_REF, "good.ini")])


@pytest.mark.parametrize("text,where", [
    (QUBIT_COS2 + "\n[scan]\nomega = 0.5, -1\n", "[scan] key 'omega' (line 27)"),
    (QUBIT_COS2 + "\n[scan]\nomega = 0.5, 0\n", "[scan] key 'omega' (line 27)"),
    (QUBIT_COS2 + "\n[scan]\nomega =\n", "[scan] key 'omega' (line 27)"),
    (GAUSS_REF.replace("frequency = 1.0", "frequency = 0", 1), "[detectors.A] key 'frequency' (line 6)"),
    (QUBIT_COS2.replace("frequency = 1.0", "frequency = -1", 1), "[detectors.A] key 'frequency' (line 6)"),
], ids=["scan-negative", "scan-zero", "scan-empty", "oscillator-zero", "qubit-negative"])
def test_every_frequency_checked_at_config_time(tmp_path, capsys, monkeypatch, text, where):
    # a frequency <= 0 is refused at its line before any row runs
    def no_row(*args):
        raise AssertionError("a row ran on a rejected config")

    monkeypatch.setattr(cli, "_scan_row", no_row)
    rc = main(["harvest", "--config", _write(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert where in err and "> 0" in err, err
    # the patched name is the one a scan calls: a valid scan reaches it
    with pytest.raises(AssertionError, match="a row ran"):
        main(["harvest", "--config", _write(tmp_path, QUBIT_COS2 + "\n[scan]\nomega = 0.5\n", "good.ini")])


def test_threads_must_be_positive(capsys):
    assert main(["check-takagi", "--threads", "0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_gaussian_switching_rejects_window_keys(tmp_path, capsys):
    bad = GAUSS_REF.replace("sigma = 1.0", "sigma = 1.0\nt1 = 2.0", 1)
    rc = main(["harvest", "--config", _write(tmp_path, bad)])
    assert rc == EXIT_CONFIG
    assert "not a gaussian parameter" in capsys.readouterr().err


# --- check-takagi ---------------------------------------------------------------


def test_check_takagi_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "check.json"
    rc = main(["check-takagi", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "PASS" in stdout and "FAIL" not in stdout
    report = json.loads(out.read_text())
    assert report["spec_version"] == SPEC_VERSION
    assert report["command"] == "check-takagi"
    assert report["all_pass"] is True
    for entry in report["identities"].values():
        assert entry["residual"] <= entry["threshold"]


def test_check_takagi_corrupt_sign_fails(capsys):
    rc = main(["check-takagi", "--corrupt-sign"])
    assert rc == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


# --- harvest ---------------------------------------------------------------------


def test_harvest_single_json_frozen(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["harvest", "--config", _write(tmp_path, GAUSS_REF), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["spec_version"] == SPEC_VERSION
    assert rep["provenance"] == "minkowski/ground"
    assert rep["model"] == "oscillator"
    assert rep["epsilon_sequence"] is None  # no sequence: the eps -> 0 limit
    la = rep["elements"]["L_AA"]
    assert abs(la["re"] - 7.088272232636415e-07) / 7.088272232636415e-07 <= 1e-6
    assert la["im"] == pytest.approx(0.0, abs=1e-15)
    assert rep["elements"]["N_A"] is not None
    assert rep["negativity"] >= 0.0
    assert rep["negativity_pt_exact"] >= 0.0
    assert len(rep["config_sha256"]) == 64


def test_no_node_rounds_onto_a_light_cone_break(tmp_path):
    # L = 0.999 leaves a piece [0.999, 1] of the u range 1e-3 wide; a split
    # floor of 1e-13 of that width is below ulp(0.999), so refinement at
    # abs_tol = 0 rounded a node onto the pole at u = L (exit 3)
    pair = GAUSS_REF.replace("position = 5,", "position = 0.999,").replace(
        "kind = gaussian\nsigma = 1.0", "kind = cos_squared\nt0 = -0.5\nt1 = 0.5")
    runs = {}
    for name, quad in (("pole", "abs_tol = 0\nmax_subdivisions = 100"), ("ref", "abs_tol = 1e-12")):
        out = tmp_path / f"{name}.json"
        text = pair + f"\n[quadrature]\nrel_tol = 1e-11\n{quad}\n"
        assert main(["harvest", "--config", _write(tmp_path, text, f"{name}.ini"),
                     "--out", str(out)]) == EXIT_OK, name
        runs[name] = json.loads(out.read_text())["elements"]
    for name, got in runs["pole"].items():
        ref = runs["ref"][name]
        gap = abs(complex(got["re"], got["im"]) - complex(ref["re"], ref["im"]))
        assert gap <= got["err"] + ref["err"], (name, got, ref)


def test_harvest_N_records_carry_the_finite_part_and_the_pole(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["harvest", "--config", _write(tmp_path, GAUSS_REF), "--out", str(out)]) == EXIT_OK
    el = json.loads(out.read_text())["elements"]
    for name in ("N_A", "N_B"):
        rec = el[name]
        assert rec["note"] == "finite-part"
        assert abs(rec["re"] - -2.0700e-6) <= 1e-4 * 2.0700e-6
        assert abs(rec["pole_im"] - 2.3358e-6) <= 1e-4 * 2.3358e-6
        assert abs(rec["pole_re"]) <= 1e-12 * rec["pole_im"]
    assert "pole_re" not in el["M"] and "pole_re" not in el["L_AA"]
    # a co-located M diverges like N and carries its pole too: with gaps 1.0
    # and 1.1 the Gaussian line integral gives sqrt(2) e^{-(2.1^2 - 2^2)/4}
    # times N_A's pole
    colo = GAUSS_REF.replace("frequency = 1.0\ncoupling = 0.01\nposition = 5, 0, 0",
                             "frequency = 1.1\ncoupling = 0.01\nposition = 0, 0, 0")
    assert main(["harvest", "--config", _write(tmp_path, colo), "--out", str(out)]) == EXIT_OK
    el = json.loads(out.read_text())["elements"]
    rec = el["M"]
    pole = el["N_A"]["pole_im"] * math.sqrt(2.0) * math.exp(-(2.1**2 - 2.0**2) / 4.0)
    assert rec["note"] == "finite-part"
    assert abs(rec["re"] - -2.6489e-6) <= 1e-4 * 2.6489e-6
    assert abs(rec["pole_im"] - pole) <= 1e-10 * pole
    assert abs(rec["pole_re"]) <= 1e-12 * rec["pole_im"]
    assert "pole_re" not in el["L_AA"] and "pole_re" not in el["L_AB"]
    # the finite-eps route (a one-level sequence) does not separate the pole
    cfg = GAUSS_REF + "\n[quadrature]\nepsilon_sequence = 0.0003125\n"
    assert main(["harvest", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())["elements"]["N_A"]
    assert rec["note"] == "finest-epsilon" and rec["pole_re"] is None and rec["pole_im"] is None


def test_harvest_zero_coupling_all_zero(tmp_path):
    cfg = GAUSS_REF.replace("coupling = 0.01", "coupling = 0.0")
    out = tmp_path / "rep.json"
    assert main(["harvest", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    for rec in rep["elements"].values():
        assert rec["re"] == 0.0 and rec["im"] == 0.0
    assert rep["negativity"] == 0.0


def test_harvest_scan_csv_order_and_header(tmp_path):
    cfg = QUBIT_COS2 + "\n[scan]\nomega = 3.0, 1.0, 2.0\n"
    out = tmp_path / "scan.csv"
    assert main(["harvest", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(_SCAN_COLUMNS)
    assert len(lines) == 4
    omegas = [float(line.split(",")[0]) for line in lines[1:]]
    assert omegas == [3.0, 1.0, 2.0]  # rows keep input order
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        assert len(vals) == len(_SCAN_COLUMNS)
        assert vals[1] > 0.0  # L_AA


def test_harvest_scan_json_rows(tmp_path):
    cfg = QUBIT_COS2 + "\n[scan]\nomega = 1.0\n"
    out = tmp_path / "scan.json"
    assert main(["harvest", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["scan_parameter"] == "frequency"
    assert len(rep["rows"]) == 1
    assert set(rep["rows"][0]) == set(_SCAN_COLUMNS)


def test_scan_threads_byte_identical(tmp_path):
    cfg = QUBIT_COS2 + "\n[scan]\nomega = 0.5, 1.5, 2.5\n"
    path = _write(tmp_path, cfg)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"scan-{threads}.csv"
        rc = main(["harvest", "--config", path, "--out", str(out), "--threads", threads])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_rows_run_on_the_calling_thread_in_input_order(tmp_path, monkeypatch):
    calls = []

    def recorder(columns):
        def row(scenario, point):
            calls.append((threading.get_ident(), point))
            return (point,) + (0.0,) * (len(columns) - 1)

        return row

    monkeypatch.setattr(cli, "_scan_row", recorder(_SCAN_COLUMNS))
    monkeypatch.setattr(cli, "_dualize_row", recorder(_DUALIZE_COLUMNS))
    scan = _write(tmp_path, QUBIT_COS2 + "\n[scan]\nomega = 3.0, 1.0, 2.0\n", "scan.ini")
    dual = _write(tmp_path, GAUSS_REF + "\n[dualize]\nOmega_list = 2.0, 0.5\n", "dual.ini")
    for command, path, threads, points in (
        ("harvest", scan, "2", [3.0, 1.0, 2.0]),
        ("dualize", dual, "3", [2.0, 0.5]),
    ):
        calls.clear()
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", path, "--out", out, "--threads", threads]) == EXIT_OK
        assert calls == [(threading.get_ident(), p) for p in points]


# --- output text -------------------------------------------------------------------


def _float_tokens(text):
    """Every float of a JSON text, as its text was written."""
    tokens = []
    json.loads(text, parse_float=lambda tok: tokens.append(tok) or float(tok))
    return tokens


def test_every_json_float_is_written_as_its_repr(tmp_path):
    # repr is the shortest text that reads back to the same double, and a
    # whole value is written 0.0, so it reads back as a float
    rep, check = tmp_path / "rep.json", tmp_path / "check.json"
    assert main(["harvest", "--config", _write(tmp_path, GAUSS_REF), "--out", str(rep)]) == EXIT_OK
    assert main(["check-takagi", "--out", str(check)]) == EXIT_OK
    for out in (rep, check):
        tokens = _float_tokens(out.read_text())
        assert tokens and all(tok == repr(float(tok)) for tok in tokens), out.name
    for rec in json.loads(rep.read_text())["elements"].values():
        assert all(type(rec[k]) is float for k in ("re", "im", "err")), rec


def test_scan_csv_and_json_rows_agree_float_for_float(tmp_path):
    path = _write(tmp_path, QUBIT_COS2 + "\n[scan]\nomega = 0.5, 1.3, 2\n")
    csv_out, json_out = tmp_path / "scan.csv", tmp_path / "scan.json"
    for out in (csv_out, json_out):
        assert main(["harvest", "--config", path, "--out", str(out)]) == EXIT_OK
    header, *lines = csv_out.read_text().splitlines()
    cells = [line.split(",") for line in lines]
    assert len(cells) == 3 and all(c == repr(float(c)) for row in cells for c in row)
    rows = json.loads(json_out.read_text())["rows"]
    assert [list(row) for row in rows] == [header.split(",")] * 3
    assert [[repr(v) for v in row.values()] for row in rows] == cells


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_output_exits_numerical_and_writes_no_file(tmp_path, capsys, monkeypatch, bad):
    # json.dumps refuses a nan or inf with a ValueError, which main would
    # report as a config error (exit 2) if it were not turned into exit 3
    real = cli.harvest
    monkeypatch.setattr(cli, "harvest", lambda scenario: replace(real(scenario), E1=bad))
    monkeypatch.setattr(cli, "_scan_row",
                        lambda scenario, omega: (omega, bad) + (0.0,) * (len(_SCAN_COLUMNS) - 2))
    single = _write(tmp_path, GAUSS_REF, "single.ini")
    scan = _write(tmp_path, QUBIT_COS2 + "\n[scan]\nomega = 1.0, 2.0\n", "scan.ini")
    for path, name in ((single, "rep.json"), (scan, "scan.csv"), (scan, "scan.json")):
        out = tmp_path / name
        assert main(["harvest", "--config", path, "--out", str(out)]) == EXIT_NUMERICAL, name
        assert "numerical hard error" in capsys.readouterr().err, name
        assert not out.exists(), name


# --- dualize ----------------------------------------------------------------------


def test_dualize_empty_list_header_only(tmp_path):
    cfg = GAUSS_REF + "\n[dualize]\nOmega_list =\n"
    out = tmp_path / "dual.csv"
    assert main(["dualize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ",".join(_DUALIZE_COLUMNS) + "\n"


def test_dualize_degenerate_row_exact(tmp_path):
    cfg = GAUSS_REF + "\n[dualize]\nOmega_list = 1.0\n"
    out = tmp_path / "dual.csv"
    assert main(["dualize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(_DUALIZE_COLUMNS)
    row = dict(zip(_DUALIZE_COLUMNS, (float(tok) for tok in lines[1].split(","))))
    assert row["omega"] == 1.0 and row["Omega"] == 1.0
    assert row["resid_max"] <= 1e-12
    assert row["L_AA_flat"] == row["L_AA_frw"]
    assert row["neg_flat"] == row["neg_frw"]


def test_dualize_computes_the_flat_side_once(tmp_path, monkeypatch):
    # the flat elements do not depend on Omega: a four-row sweep computes
    # them in its first row and hands them to the other three, and its CSV
    # is byte-identical to a sweep that recomputes them on every row
    cfg = _write(tmp_path, GAUSS_REF + "\n[dualize]\nOmega_list = 0.5, 1.3, 2.0, 3.0\n")
    compute_M, flat_sides = harvesting.compute_M, []

    def spy(scenario):
        flat_sides.append(scenario.map is None)
        return compute_M(scenario)

    monkeypatch.setattr(harvesting, "compute_M", spy)
    once, every_row = tmp_path / "once.csv", tmp_path / "every_row.csv"
    assert main(["dualize", "--config", cfg, "--out", str(once)]) == EXIT_OK
    assert flat_sides == [True] + [False] * 4
    flat_sides.clear()
    check = cli.run_dual_check
    monkeypatch.setattr(cli, "run_dual_check", lambda sc, Omega, flat: check(sc, Omega))
    assert main(["dualize", "--config", cfg, "--out", str(every_row)]) == EXIT_OK
    assert flat_sides == [True, False] * 4
    assert once.read_bytes() == every_row.read_bytes()


COS2_PAIR = GAUSS_REF.replace("kind = gaussian\nsigma = 1.0", "kind = cos_squared\nt0 = -0.5\nt1 = 0.5")


def test_dualize_of_cos_squared_windows_one_window_apart(tmp_path):
    # criterion 7's oscillators with cos^2 windows on (-1/2, 1/2) at L = 1:
    # the light cone x = L of the dual M meets a corner of its (x, s)
    # rectangle, and the dual M is the flat one to rounding
    cfg = COS2_PAIR.replace("position = 5, 0, 0", "position = 1, 0, 0") + "\n[dualize]\nOmega_list = 0.5, 3.0\n"
    out = tmp_path / "dual.csv"
    assert main(["dualize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        row = dict(zip(_DUALIZE_COLUMNS, (float(tok) for tok in line.split(","))))
        flat = complex(row["re_M_flat"], row["im_M_flat"])
        frw = complex(row["re_M_frw"], row["im_M_frw"])
        assert abs(frw - flat) <= 1e-12 * abs(flat), (row["Omega"], frw, flat)


def test_dualize_of_cos_squared_windows_at_a_tight_tolerance(tmp_path):
    # the same pair at L = 0.6, where the light cone crosses the diamond, and
    # co-located, where the pole is the line x = 0 of every element, at
    # rel_tol = 1e-11 with no absolute floor: every kernel stays finite (a
    # non-finite value exits 3), and the dual elements are the flat ones
    for position in ("0.6, 0, 0", "0, 0, 0"):
        cfg = (COS2_PAIR.replace("position = 5, 0, 0", f"position = {position}")
               + "\n[quadrature]\nrel_tol = 1e-11\nabs_tol = 0\nmax_subdivisions = 2000\n"
               + "\n[dualize]\nOmega_list = 0.5, 3\n")
        out = tmp_path / "dual.csv"
        assert main(["dualize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rows = [dict(zip(_DUALIZE_COLUMNS, map(float, line.split(","))))
                for line in out.read_text().splitlines()[1:]]
        assert [row["Omega"] for row in rows] == [0.5, 3.0]
        assert all(row["resid_max"] <= 1e-12 for row in rows), (position, rows)


def test_dualize_requires_omega_list(tmp_path, capsys):
    rc = main(["dualize", "--config", _write(tmp_path, GAUSS_REF)])
    assert rc == EXIT_CONFIG
    assert "Omega_list" in capsys.readouterr().err


# --- geometry tables ----------------------------------------------------------------


def test_geometry_tables_grid(tmp_path):
    cfg = "[tables]\nomega = 1.0\nOmega_list = 1.0, 0.0\nt_min = -2\nt_max = 2\npoints = 101\n"
    out = tmp_path / "tables.csv"
    assert main(["geometry-tables", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,omega,Omega,x,value"
    rows = [line.split(",") for line in lines[1:]]
    # Omega=1 contributes scale factor + clock rows, Omega=0 scale factor only
    assert len(rows) == 101 + 101 + 101
    dist = {}
    for q, om, Om, x, v in rows:
        if q == "proper_distance_over_L":
            dist.setdefault(float(Om), []).append((float(x), float(v)))
        else:
            assert q == "tau_of_lambda" and float(Om) > 0.0
    # degenerate map: unit scale factor everywhere
    assert all(v == 1.0 for _, v in dist[1.0])
    # power-law map: 1 + t^2 on the grid
    for x, v in dist[0.0]:
        assert v == pytest.approx(1.0 + x * x, rel=1e-12)
    xs = np.array([x for x, _ in dist[0.0]])
    assert xs[0] == -2.0 and xs[-1] == 2.0


def test_geometry_tables_stdout_default(capsys):
    assert main(["geometry-tables"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,omega,Omega,x,value"
    # defaults: 3 Omegas x 501 scale rows + 3 x 501 clock rows
    assert len(lines) == 1 + 3 * 501 * 2


# --- range checks and error locations --------------------------------------------


def _config_error(tmp_path, capsys, command, text):
    rc = main([command, "--config", _write(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG, captured
    return captured.err


@pytest.mark.parametrize("line,text", [
    (25, GAUSS_REF + "\n[quadrature]\nabs_tol = inf\n"),
    (25, GAUSS_REF + "\n[quadrature]\nepsilon_sequence = inf\n"),
    (18, GAUSS_REF.replace("position = 5, 0, 0", "position = 2, 0, nan")),
])
def test_non_finite_scenario_values_rejected_with_line(tmp_path, capsys, line, text):
    err = _config_error(tmp_path, capsys, "harvest", text)
    assert "finite" in err and f"line {line}" in err


def test_non_finite_table_bound_rejected_with_line(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, "geometry-tables", "[tables]\nt_min = nan\n")
    assert "t_min" in err and "line 2" in err


@pytest.mark.parametrize("key,value", [
    ("n_lambda", "0"), ("omegas", ""), ("omegas", "0"), ("Omegas", "1.0, -2.0"),
])
def test_check_takagi_cannot_pass_vacuously(tmp_path, capsys, key, value):
    # the negative control must fail or be refused, never pass on no samples
    path = _write(tmp_path, f"[check]\n{key} = {value}\n")
    rc = main(["check-takagi", "--corrupt-sign", "--config", path])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert key in err and "line 2" in err


def test_tables_need_a_point(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, "geometry-tables", "[tables]\npoints = 0\n")
    assert "points" in err and "line 2" in err


@pytest.mark.parametrize("old,new", [
    ("t0 = -0.5", "t0: fast"),  # configparser also accepts key: value
    ("[detectors.A.switching]", "[detectors.A.switching] ; window of A"),
])
def test_key_line_found_in_any_configparser_syntax(tmp_path, capsys, old, new):
    bad = QUBIT_COS2.replace("t0 = -0.5", "t0 = fast", 1).replace(old, new, 1)
    err = _config_error(tmp_path, capsys, "harvest", bad)
    assert "'t0'" in err and "line 12" in err and "line unknown" not in err


def test_constructor_error_reports_section_and_line(tmp_path, capsys):
    bad = QUBIT_COS2.replace("t0 = -0.5\nt1 = 0.5", "t0 = 0.5\nt1 = -0.5", 1)
    err = _config_error(tmp_path, capsys, "harvest", bad)
    assert "[detectors.A.switching] (line 10)" in err and "need t1 > t0" in err


@pytest.mark.parametrize("text,where,why", [
    (GAUSS_REF + "\n[dualize]\nOmega_list = 2, -1\n",
     "[dualize] key 'Omega_list' (line 25)", ">= 0"),
    (QUBIT_COS2 + "\n[dualize]\nOmega_list = 2\n",
     "[detectors.A] key 'model' (line 5)", "oscillator"),
    (GAUSS_REF.replace("frequency = 1.0\ncoupling = 0.01\nposition = 5",
                       "frequency = 2.0\ncoupling = 0.01\nposition = 5")
     + "\n[dualize]\nOmega_list = 2\n",
     "[detectors.B] key 'frequency' (line 16)", "equal detector frequencies"),
    (GAUSS_REF + "\n[dualize]\nOmega_list = 2, 0\n",
     "[dualize] key 'Omega_list' (line 25)", "Omega = 0.0: Omega=0 transport"),
    (GAUSS_REF.replace("frame = minkowski", "frame = frw\nomega = 1\nOmega = 2")
     + "\n[dualize]\nOmega_list = 2\n",
     "[spacetime] key 'frame' (line 2)", "flat scenario"),
    # one regulator policy: a one-level epsilon_sequence asks for a finite eps
    (GAUSS_REF + "\n[quadrature]\nextrapolation = none\n\n[dualize]\nOmega_list = 2\n",
     "[quadrature] key 'extrapolation' (line 25)", "unknown key"),
    (GAUSS_REF.replace("\n[detectors.B.switching]\nkind = gaussian\nsigma = 1.0\n", "\n")
     + "\n[dualize]\nOmega_list = 2\n",
     "[detectors.B] (line 14)", "missing section [detectors.B.switching]"),
], ids=["negative-Omega", "qubit-pair", "unequal-frequencies", "Omega-0-wide-window", "frw-frame",
        "extrapolation-key", "missing-switching-section"])
def test_dualize_refuses_at_the_key_at_fault(tmp_path, capsys, text, where, why):
    err = _config_error(tmp_path, capsys, "dualize", text)
    assert where in err and why in err


def test_tables_negative_Omega_refused_at_its_key(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, "geometry-tables", "[tables]\nOmega_list = 1, -1\n")
    assert "[tables] key 'Omega_list' (line 2)" in err and ">= 0" in err


# --- the README documents the schema ----------------------------------------------


def test_readme_cli_section_lists_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `\[([^\]]+)\]` \| `([^`]+)` \|", cli, re.MULTILINE))
    schema = {(group, key) for group, (_, keys) in _SCHEMA.items() for key in keys}
    assert documented == schema
