"""Benchmark of the takagi-harvest CLI on seeded workloads, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is flat_harvest, dual_check,
window_scan or all.  The workload's INI files are drawn from the seed and run
through ``takagi_harvest.cli.main`` in a closed loop with one client: each
invocation is a fresh interpreter (perfbench/child.py), started only after
the previous one returned, and invocations cycle through the inputs until S
seconds have passed and every input ran at least once.  Every output is
checked against the Fourier mode-sum oracle, for finite values, for
criterion 7's residual bound, and for byte-identity with the first output of
the same input.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
tracing.  --trace 1 runs each input once plain and once with the per-layer
wrappers of perfbench/spans.py, per pass, and reports the per-layer metrics.
A table goes to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  perfbench/README.md lists the
metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # perfbench/ is sys.path[0] when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0      # one workload's run must end within 180 s
SETUP_SAMPLES = 5       # import-only processes per run, besides the invocations


class BenchError(Exception):
    """The checkout cannot be benchmarked: no sources, or the wrong package imported."""


class Runner:
    """Starts child invocations in a scratch directory inside the checkout."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.env["TMPDIR"] = str(work)
        self._n = 0

    def invoke(self, inv: workloads.Invocation | None, mode: str = "plain") -> dict:
        """Run one child; inv None only imports the package (a set-up sample)."""
        self._n += 1
        tag = f"{self._n:04d}"
        result = self.work / f"result-{tag}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result), mode]
        out = None
        if inv is not None:
            config = self.work / f"{inv.name}-{tag}.ini"
            config.write_text(inv.ini, encoding="utf-8")
            out = self.work / f"out-{tag}.{inv.out_ext}"
            argv += inv.argv(str(config), str(out))
        rec = {"ok": False, "error": None}
        with open(self.work / f"stderr-{tag}.txt", "w+b") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rec["error"] = "killed at the run deadline"
                rec["timeout"] = True
                return rec
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace").strip()
        if proc.returncode != 0 or not result.exists():
            rec["error"] = f"child exited {proc.returncode}: {stderr[-400:]}"
            return rec
        data = json.loads(result.read_text(encoding="utf-8"))
        if not data["cli_file"].startswith(str(SRC.resolve()) + os.sep):
            raise BenchError(f"imported {data['cli_file']}, not the checkout's src/")
        rec["setup_s"] = data["ready"] - spawn
        rec["rss_mb"] = data["maxrss_kib"] * 1024 / 1e6
        if inv is None:
            rec["ok"] = True
            return rec
        rec["main_s"] = data["end"] - data["start"]
        rec["trace"] = data.get("trace")
        if data["error"] is not None or data["rc"] != 0:
            rec["error"] = data["error"] or f"cli exit code {data['rc']}: {stderr[-400:]}"
            return rec
        rec["output"] = out.read_bytes() if out.exists() else None
        rec["ok"] = rec["output"] is not None
        if not rec["ok"]:
            rec["error"] = "no output file"
        return rec


class Tally:
    """Rows attempted and failed, accuracy, and the first output per input."""

    def __init__(self, invs, oracle):
        self.refs = {inv.name: workloads.reference(inv, oracle) for inv in invs}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.oracle_rel_err = 0.0
        self.resid_max = 0.0
        self.problems = []

    def add(self, inv, rec):
        self.attempted += inv.expected_rows
        if not rec["ok"]:
            self.failed += inv.expected_rows
            self.problems.append(f"{inv.name}: {rec['error']}")
            return
        first = self.first.setdefault(inv.name, rec["output"])
        if rec["output"] != first:
            self.failed += inv.expected_rows
            self.problems.append(f"{inv.name}: output differs from its first run")
            return
        chk = workloads.check_output(inv, rec["output"].decode("utf-8"), self.refs[inv.name])
        self.failed += sum(1 for ok in chk.rows_ok if not ok)
        self.oracle_rel_err = max(self.oracle_rel_err, chk.oracle_rel_err)
        self.resid_max = max(self.resid_max, chk.resid_max)
        self.problems += [f"{inv.name}: {p}" for p in chk.problems]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _per_input_sum(samples: dict, key) -> float:
    """Sum over inputs of the median over that input's repeats."""
    return sum(statistics.median(key(r) for r in recs) for recs in samples.values())


def run_plain(runner, invs, tally, seconds) -> dict:
    runner.invoke(None)  # untimed: let the bytecode caches fill
    setups = [runner.invoke(None) for _ in range(SETUP_SAMPLES)]
    done = {inv.name: [] for inv in invs}
    t0 = time.monotonic()
    i = 0
    while i < len(invs) or time.monotonic() - t0 < seconds:
        inv = invs[i % len(invs)]
        rec = runner.invoke(inv)
        tally.add(inv, rec)
        if rec["ok"]:
            done[inv.name].append(rec)
        if rec.get("timeout"):
            break
        i += 1
    good = [r for recs in done.values() for r in recs]
    if any(not recs for recs in done.values()) or not all(s["ok"] for s in setups):
        return {}
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups + good),
        "wall_s": _per_input_sum(done, lambda r: r["main_s"]),
        "peak_rss_mb": max(r["rss_mb"] for r in good),
        "invocations": len(good),
    }


def run_traced(runner, invs, tally, seconds) -> dict:
    plain = {inv.name: [] for inv in invs}
    traced = {inv.name: [] for inv in invs}
    t0 = time.monotonic()
    passes = 0
    while passes == 0 or time.monotonic() - t0 < seconds:
        for inv in invs:
            for mode, done in (("plain", plain), ("trace", traced)):
                rec = runner.invoke(inv, mode)
                tally.add(inv, rec)
                if not rec["ok"]:
                    return {}
                done[inv.name].append(rec)
        passes += 1
    out = {}
    for inv in invs:
        runs = [r["trace"] for r in traced[inv.name]]
        for key in runs[0]:
            vals = [t[key] for t in runs]
            if key.endswith("_s"):
                out[key] = out.get(key, 0.0) + statistics.median(vals)
                continue
            if any(v != vals[0] for v in vals):
                tally.problems.append(f"{inv.name}: count {key} differs between passes")
            out[key] = out.get(key, 0) + vals[0]
    out["quadrature.converged_frac"] = (
        out.pop("quadrature.converged") / out["quadrature.integrals"]
        if out["quadrature.integrals"] else 1.0
    )
    out["cli.output_bytes"] = sum(len(tally.first[inv.name]) for inv in invs)
    out["trace.overhead_frac"] = (
        _per_input_sum(traced, lambda r: r["main_s"])
        / _per_input_sum(plain, lambda r: r["main_s"]) - 1.0
    )
    out["check.oracle_rel_err"] = tally.oracle_rel_err
    out["check.resid_max"] = tally.resid_max
    out["passes"] = passes
    return out


def run_workload(name, seed, seconds, trace, work, oracle) -> dict:
    invs = workloads.WORKLOADS[name](seed)
    tally = Tally(invs, oracle)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    run = run_traced if trace else run_plain
    values = run(runner, invs, tally, seconds)
    return {"workload": name, "tally": tally, "values": values}


def _spec(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def result_json(res, spec) -> dict:
    tally, values = res["tally"], res["values"]
    correct = tally.correct and bool(values)
    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def print_table(results, trace):
    if trace:
        for res in results:
            print(f"[{res['workload']}] per-layer metrics over one pass, "
                  f"{res['values'].get('passes', 0)} pass(es)")
            for key, val in res["values"].items():
                print(f"  {key:42s} {val:.6g}")
    else:
        head = (f"{'workload':13s} {'n':>3s} {'setup_s':>9s} {'wall_s':>9s} "
                f"{'peak_rss_mb':>11s} {'failed_frac':>11s} {'oracle_rel_err':>14s} "
                f"{'resid_max':>10s}")
        print(head)
        for res in results:
            v, t = res["values"], res["tally"]
            frac = t.failed / t.attempted if t.attempted else 1.0
            if v:
                print(f"{res['workload']:13s} {v['invocations']:3d} {v['setup_s']:9.4f} "
                      f"{v['wall_s']:9.3f} {v['peak_rss_mb']:11.1f} {frac:11.3g} "
                      f"{t.oracle_rel_err:14.3e} {t.resid_max:10.3e}")
            else:
                print(f"{res['workload']:13s} incomplete run, failed_frac {frac:.3g}")
        print("units: setup_s s, wall_s s, peak_rss_mb MB; failed_frac, oracle_rel_err "
              "and resid_max are dimensionless")
    for res in results:
        for p in res["tally"].problems[:20]:
            print(f"problem [{res['workload']}]: {p}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its child: SystemExit unwinds Runner.invoke
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "takagi_harvest" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / f".perfbench-{os.getpid()}"
    work.mkdir()
    try:
        oracle = workloads.Oracle()
        if not oracle.package_file.startswith(str(SRC.resolve()) + os.sep):
            raise BenchError(f"imported {oracle.package_file}, not the checkout's src/")
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), work, oracle)
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_table(results, args.trace)
    spec = _spec(bool(args.trace))
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_json(r, spec) for r in results}))
    else:
        print(json.dumps(result_json(results[0], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
