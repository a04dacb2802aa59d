"""End-to-end CLI tests: exit codes, diagnostics, and emitted files.

Everything runs in-process through main(argv) so coverage tooling and
debuggers see straight through; file outputs go to tmp_path.
"""

import json

import numpy as np
import pytest

from takagi_harvest.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    SPEC_VERSION,
    _DUALIZE_COLUMNS,
    _SCAN_COLUMNS,
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
    bad = GAUSS_REF.replace("frame = minkowski", "frame = minkowski\nwarp = 9")
    rc = main(["harvest", "--config", _write(tmp_path, bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "warp" in err and "line 3" in err


def test_unknown_section_rejected(tmp_path, capsys):
    rc = main(["harvest", "--config", _write(tmp_path, GAUSS_REF + "\n[extras]\nx = 1\n")])
    assert rc == EXIT_CONFIG
    assert "extras" in capsys.readouterr().err


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


def test_threads_must_be_positive(capsys):
    assert main(["check-takagi", "--threads", "0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_gaussian_switching_rejects_window_keys(tmp_path, capsys):
    bad = GAUSS_REF.replace("sigma = 1.0", "sigma = 1.0\nt1 = 2.0", 1)
    rc = main(["harvest", "--config", _write(tmp_path, bad)])
    assert rc == EXIT_CONFIG
    assert "not a gaussian parameter" in capsys.readouterr().err


def test_seed_flag_accepted(capsys):
    assert main(["check-takagi", "--seed", "42"]) == EXIT_OK
    capsys.readouterr()


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
    la = rep["elements"]["L_AA"]
    assert abs(la["re"] - 7.088272232636415e-07) / 7.088272232636415e-07 <= 1e-6
    assert la["im"] == pytest.approx(0.0, abs=1e-15)
    assert rep["elements"]["N_A"] is not None
    assert rep["negativity"] >= 0.0
    assert rep["negativity_pt_exact"] >= 0.0
    assert len(rep["config_sha256"]) == 64


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
