"""The public names and the names the benchmark tracer binds all resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

import swiptmimo

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
