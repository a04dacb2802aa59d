"""Per-layer tracing of one CLI invocation, installed from outside the package.

``install(tracer)`` replaces the public functions of each module with timing
wrappers, in every namespace the package looks them up from: ``harvesting``
and ``cli`` import their callees by name, and the leg functions are methods
looked up on the class.  The kernel passed to ``integrate_square`` is wrapped
as well, which gives cells and nodes without touching the quadrature code.

A ``dual_check`` row makes over a million leg calls, so spans are not kept one
by one: each thread aggregates calls, points, total and self time per
(parent, name) in memory, and ``Tracer.metrics`` reduces them when the
invocation ends.  Span times are CPU seconds of the calling thread
(``time.thread_time``), so with ``--threads 2`` they add up across threads
without counting the wait for the interpreter lock.  Self time is a span's
time minus the time of its child spans on the same thread.
"""

from __future__ import annotations

import threading
import time

import numpy as np

GK_NODES = 225  # 15 x 15 Gauss-Kronrod nodes per cell
LEVELS = 6
NOTE_KINDS = ("richardson", "fallback-nonmonotone", "fallback-ratio",
              "converged-flat", "single-epsilon")

# leaf spans reported as <name>.calls / .points / .self_s
_LEAVES = (
    "geometry.lambda_of_tau",
    "geometry.conformal_factor",
    "geometry.switching",
    "gaussian.transported_mode",
    "field.wightman_frw_sep",
    "field.wightman_flat_sep",
)
_ELEMENTS = ("harvesting.compute_L", "harvesting.compute_M", "harvesting.compute_N")
_ASSEMBLY = ("harvesting.assemble_rho", "harvesting.negativity_leading",
             "harvesting.negativity_pt_exact")


class _ThreadState:
    def __init__(self):
        self.stack = []        # open frames: [name, child_seconds]
        self.spans = {}        # (parent, name) -> [calls, points, total_s, self_s]
        self.counts = {}       # counter name -> value
        self.level = 0         # position in the regulator sequence


class Tracer:
    """Span and counter aggregation for one process, one table per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def state(self) -> _ThreadState:
        """The calling thread's aggregation tables, created on first use."""
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, value=1):
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + value

    def wrap(self, name: str, fn, points_arg=None):
        """fn wrapped in a span; points_arg indexes the argument whose size is counted."""
        state = self.state

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = st.spans.get((parent, name))
                if rec is None:
                    rec = st.spans[(parent, name)] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                if points_arg is not None:
                    rec[1] += int(np.size(args[points_arg]))
                rec[2] += dt
                rec[3] += dt - frame[1]

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-layer values of the invocation; call after the CLI returned."""
        by_name = {}
        counts = {}
        for st in self._states:
            for (_, name), rec in st.spans.items():
                agg = by_name.setdefault(name, [0, 0, 0.0, 0.0])
                for i, v in enumerate(rec):
                    agg[i] += v
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v

        def span(name):
            return by_name.get(name, [0, 0, 0.0, 0.0])

        out = {}
        for leaf in _LEAVES:
            calls, points, _, self_s = span(leaf)
            out[f"{leaf}.calls"] = calls
            if leaf not in ("geometry.conformal_factor", "field.wightman_frw_sep"):
                out[f"{leaf}.points"] = points
            out[f"{leaf}.self_s"] = self_s
        kernel = span("harvesting.kernel")
        out["harvesting.kernel.self_s"] = kernel[3]
        cells = counts.get("quadrature.cells", 0)
        out["quadrature.integrals"] = span("quadrature.integrate_square")[0]
        out["quadrature.cells"] = cells
        out["quadrature.nodes"] = cells * GK_NODES
        for k in range(LEVELS):
            out[f"quadrature.cells.level{k}"] = counts.get(f"quadrature.cells.level{k}", 0)
        out["quadrature.self_s"] = span("quadrature.integrate_square")[3]
        out["quadrature.kernel_s"] = kernel[2]
        out["quadrature.budget_hits"] = counts.get("quadrature.budget_hits", 0)
        out["quadrature.converged"] = counts.get("quadrature.converged", 0)
        out["quadrature.extrapolations"] = span("quadrature.extrapolate_epsilon")[0]
        for kind in NOTE_KINDS:
            out[f"quadrature.notes.{kind}"] = counts.get(f"quadrature.notes.{kind}", 0)
        out["quadrature.fallbacks"] = (out["quadrature.notes.fallback-nonmonotone"]
                                       + out["quadrature.notes.fallback-ratio"])
        out["harvesting.elements"] = sum(span(n)[0] for n in _ELEMENTS)
        out["harvesting.assembly_s"] = sum(span(n)[2] for n in _ASSEMBLY)
        out["harvesting.dualize_s"] = span("harvesting.dualize")[2]
        out["cli.self_s"] = span("cli.main")[3]
        return out


def install(tracer: Tracer):
    """Wrap the package's public functions with tracer spans, where they are looked up."""
    from takagi_harvest import cli, field, gaussian, geometry, harvesting, quadrature

    def patch(modules, attr, name, points_arg=None):
        wrapped = tracer.wrap(name, getattr(modules[0], attr), points_arg)
        for mod in modules:
            setattr(mod, attr, wrapped)

    cls_map = geometry.ConformalTakagiMap
    patch((cls_map,), "lambda_of_tau", "geometry.lambda_of_tau", points_arg=1)
    patch((cls_map,), "conformal_factor", "geometry.conformal_factor")
    patch((geometry.SwitchingFunction,), "__call__", "geometry.switching", points_arg=1)
    patch((gaussian, harvesting), "transported_mode", "gaussian.transported_mode", points_arg=1)
    patch((field, harvesting), "wightman_flat_sep", "field.wightman_flat_sep", points_arg=0)
    patch((field, harvesting), "wightman_frw_sep", "field.wightman_frw_sep")

    for attr in ("compute_L", "compute_M", "compute_N"):
        _patch_element(tracer, harvesting, attr)
    for attr in ("assemble_rho", "negativity_leading", "negativity_pt_exact", "dualize"):
        patch((harvesting,), attr, f"harvesting.{attr}")
    patch((harvesting, cli), "harvest", "harvesting.harvest")
    patch((harvesting, cli), "run_dual_check", "harvesting.run_dual_check")

    _patch_integrate(tracer, (quadrature, harvesting))
    _patch_extrapolate(tracer, (quadrature, harvesting))


def _patch_element(tracer, harvesting, attr):
    inner = tracer.wrap(f"harvesting.{attr}", getattr(harvesting, attr))

    def element(*args, **kwargs):
        tracer.state().level = 0  # each element starts a fresh regulator sweep
        return inner(*args, **kwargs)

    setattr(harvesting, attr, element)


def _patch_integrate(tracer, modules):
    inner = tracer.wrap("quadrature.integrate_square", modules[0].integrate_square)

    def integrate_square(f, rect, cfg):
        cells = [0]

        def kernel(u, v):
            cells[0] += 1
            return f(u, v)

        res = inner(tracer.wrap("harvesting.kernel", kernel), rect, cfg)
        st = tracer.state()
        n = cells[0]
        tracer.count("quadrature.cells", n)
        tracer.count(f"quadrature.cells.level{min(st.level, LEVELS - 1)}", n)
        st.level += 1
        # integrate_square evaluates 1 + 2 * splits cells
        if n == 1 + 2 * cfg.max_subdivisions:
            tracer.count("quadrature.budget_hits")
        if res.err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value)):
            tracer.count("quadrature.converged")
        return res

    for mod in modules:
        mod.integrate_square = integrate_square


def _patch_extrapolate(tracer, modules):
    inner = tracer.wrap("quadrature.extrapolate_epsilon", modules[0].extrapolate_epsilon)

    def extrapolate_epsilon(results):
        res = inner(results)
        tracer.count(f"quadrature.notes.{res.note}")
        return res

    for mod in modules:
        mod.extrapolate_epsilon = extrapolate_epsilon
