"""The public names and the names the benchmark tracer binds all resolve, and every
public function or class of the package is used."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import swiptmimo

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name", swiptmimo.__all__)
def test_exported_name_resolves(name):
    assert hasattr(swiptmimo, name)


@pytest.mark.parametrize("module, function", tracer.TIMED + tracer.COUNTED)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"swiptmimo.{module}"), function))


@pytest.mark.parametrize("module", tracer.MODULE_LAYERS)
def test_traced_module_resolves(module):
    importlib.import_module(f"swiptmimo.{module}")


def test_tracer_sees_the_kernels_and_changes_no_byte():
    # the benchmark's --trace mode: the wrappers change no CSV byte, and the
    # harvesting and transfer kernels and the saddle's certificate kernels that
    # sweeps run show up
    from swiptmimo import cli

    cfg = cli.SweepConfig(swiptmimo.ScenarioConfig(trials=8), psis=(0.3,),
                          ratio_grid=(0.0, 1.0, 5.0))
    plain = cli.run_sweep(cfg)
    spans = tracer.Tracer(swiptmimo)
    spans.install()
    try:
        traced = cli.run_sweep(cfg)
    finally:
        spans.uninstall()
    metrics = spans.metrics()
    assert traced == plain
    assert metrics["transfer.calls"][0] > 0 and metrics["harvesting.calls"][0] > 0
    for name in ("saddle.bs_best_response", "saddle.p2p_best_response",
                 "rates.worst_case_rate"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert metrics["cli.rows"][0] == plain.count("\n") - 1


def test_all_lists_each_public_name_once():
    # a deletion that drops a name from one place and not the other shows up here
    assert len(swiptmimo.__all__) == len(set(swiptmimo.__all__))
    bound = {name for name, value in vars(swiptmimo).items()
             if not name.startswith("__") and not inspect.ismodule(value)}
    assert bound <= set(swiptmimo.__all__), sorted(bound - set(swiptmimo.__all__))


def used_names(path):
    """The names and the attributes a module reads, by an AST scan."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return ({node.id for node in nodes if isinstance(node, ast.Name)},
            {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def public_defs(path):
    """(qualified name, name, is a member) of each public top-level function or class of
    a module, and of each public method or property of its public classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, False
            members = node.body if isinstance(node, ast.ClassDef) else []
            yield from ((f"{path.stem}.{node.name}.{member.name}", member.name, True)
                        for member in members if isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_"))


def test_every_public_function_and_class_is_used():
    # no dead API: each public top-level def or class is read by the package (past the
    # re-exports of __init__), by a demo, or by name by the benchmark tracer, and each
    # public method or property of a public class is read as an attribute there
    modules = sorted((ROOT / "src" / "swiptmimo").glob("*.py"))
    scans = [used_names(path) for path in modules if path.name != "__init__.py"] \
        + [used_names(path) for path in (ROOT / "demos").glob("*.py")]
    attributes = set().union(*(attrs for _, attrs in scans))
    used = set().union(attributes, *(names for names, _ in scans),
                       (function for _, function in tracer.TIMED + tracer.COUNTED))
    unused = [qualified for path in modules for qualified, name, member in public_defs(path)
              if name not in (attributes if member else used)]
    assert unused == []


def test_tracer_counts_the_steps_of_a_saddle_row():
    # the tracer's solve_saddle hook reads int(iterations) off the returned row
    lam2, lam2_bs, beta = swiptmimo.reference_scenario(0.3).modes()
    spans = tracer.Tracer(swiptmimo)
    spans.install()
    try:
        sol = swiptmimo.saddle.solve_saddle(lam2, lam2_bs, beta, 5.0, 5.0)
    finally:
        spans.uninstall()
    assert sol.iterations > 1
    assert spans.metrics()["saddle.iterations.sum"][0] == sol.iterations
