"""The names the package exports, the names the benchmark tracer patches,
and the command line the benchmark runs.

perfbench/spans.py installs its per-layer wrappers by replacing module
attributes by name, perfbench/workloads.py builds CLI argv, and the
benchmark's own tests are outside this suite; these checks make a deletion or
a rename that would break ``perfbench/run.py`` fail here.
"""

import importlib

import pytest

import takagi_harvest
from takagi_harvest.cli import build_parser

MODULES = ("geometry", "gaussian", "field", "quadrature", "harvesting")

# (module the tracer reads the function from, attribute, other modules it is
# also patched in), as installed by perfbench/spans.py
TRACED = [
    ("harvesting", "compute_L", ()),
    ("harvesting", "compute_M", ()),
    ("harvesting", "compute_N", ()),
    ("harvesting", "assemble_rho", ()),
    ("harvesting", "negativity_leading", ()),
    ("harvesting", "negativity_pt_exact", ()),
    ("harvesting", "dualize", ()),
    ("harvesting", "harvest", ("cli",)),
    ("harvesting", "run_dual_check", ("cli",)),
    ("quadrature", "integrate_square", ("harvesting",)),
    ("quadrature", "extrapolate_epsilon", ()),
    ("field", "wightman_flat_sep", ()),
    ("field", "wightman_frw_sep", ()),
    ("gaussian", "transported_mode", ()),
]

# leg functions the tracer wraps on their class
TRACED_METHODS = [
    ("geometry", "ConformalTakagiMap", "lambda_of_tau"),
    ("geometry", "ConformalTakagiMap", "conformal_factor"),
    ("geometry", "SwitchingFunction", "__call__"),
]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"takagi_harvest.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_all_resolves():
    exported = takagi_harvest.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(takagi_harvest, n)] == []


def test_package_all_is_the_modules_all():
    # each public name is declared once, in its module's __all__
    modules = [importlib.import_module(f"takagi_harvest.{name}") for name in MODULES]
    expected = [n for mod in modules for n in mod.__all__] + ["__version__"]
    assert takagi_harvest.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("home,attr,also", TRACED)
def test_traced_function_exists_where_it_is_read(home, attr, also):
    fn = getattr(importlib.import_module(f"takagi_harvest.{home}"), attr)
    assert callable(fn)
    # modules that import it by name must hold the same object, or the
    # tracer would wrap one copy and the pipeline call another
    for name in also:
        assert getattr(importlib.import_module(f"takagi_harvest.{name}"), attr) is fn


@pytest.mark.parametrize("home,cls,attr", TRACED_METHODS)
def test_traced_method_exists_on_its_class(home, cls, attr):
    klass = getattr(importlib.import_module(f"takagi_harvest.{home}"), cls)
    assert callable(getattr(klass, attr))


def test_cli_parses_the_benchmark_argv():
    # perfbench/workloads.py passes --threads 2 on every window_scan run; the
    # flag has no effect but must parse until the benchmark stops passing it
    for command in ("harvest", "dualize"):
        args = build_parser().parse_args(
            [command, "--config", "C", "--out", "O", "--threads", "2"]
        )
        assert (args.command, args.config, args.out, args.threads) == (command, "C", "O", 2)
