"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one pass/fail line. Criterion 2's curve anchors are asserted
faithfully even though the max-min solver provably cannot reproduce them (the
pinned curve is not the saddle value of the stated game; see the analysis in
the repository notes) — the certificate half of that criterion passes.
"""

import numpy as np
import pytest

from swiptmimo import acceptance, montecarlo
from swiptmimo.rates import waterfill

TRIALS = 2000
SEED = 42


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.criterion}: {result.name} — {result.detail}")
    return result


def test_criterion_1_worst_case_endpoints():
    res = report(acceptance.criterion_1(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_2_saddle_curve_anchors():
    res = report(acceptance.criterion_2(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_2_saddle_certificate_alone():
    from swiptmimo.acceptance import (WC_CURVE_03, _spectra, _wc_rate,
                                      saddle_certificate)
    cfg, lam2, lam2_bs, noise = _spectra(0.3)
    rng = np.random.default_rng(SEED)
    ok = True
    for ratio in WC_CURVE_03:
        sol = _wc_rate(0.3, ratio)
        ok &= saddle_certificate(lam2, lam2_bs, noise, cfg.P, ratio * cfg.P,
                                 sol, rng)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 2 (certificate half)")
    assert ok


def test_criterion_3_structure2_rate_endpoints():
    res = report(acceptance.criterion_3(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_4_structure2_energy_endpoints():
    res = report(acceptance.criterion_4(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_5_structure1_energy_endpoints():
    res = report(acceptance.criterion_5(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_6_average_rate_curve():
    res = report(acceptance.criterion_6(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_7_swipt_energy_curve():
    res = report(acceptance.criterion_7(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_8_sweep_orderings():
    res = report(acceptance.criterion_8(TRIALS, SEED))
    assert res.passed, res.detail


def test_run_all_draws_the_monte_carlo_ensemble_once(monkeypatch):
    draws, draw = [], montecarlo.ensemble_for

    def recording(cfg):
        draws.append(cfg.trials)
        return draw(cfg)

    monkeypatch.setattr(acceptance.montecarlo, "ensemble_for", recording)
    results = acceptance.run_all(trials=60, seed=SEED)
    assert [res.criterion for res in results] == list(range(1, 11))
    # criteria 6-8 share one draw; criterion 10 reruns its T = 50 sweep
    assert draws == [60, 50, 50]


@pytest.mark.parametrize("check", [acceptance.criterion_6, acceptance.criterion_7,
                                   acceptance.criterion_8])
def test_shared_ensemble_gives_the_same_report(check):
    ens = acceptance._ensemble(100, SEED)
    assert check(100, SEED, ens=ens) == check(100, SEED)


def test_criterion_9_oracle_equivalences():
    res = report(acceptance.criterion_9(TRIALS, SEED))
    assert res.passed, res.detail


def test_criterion_10_determinism():
    res = report(acceptance.criterion_10(TRIALS, SEED))
    assert res.passed, res.detail


def dense_grid_objective(c, p_total, step=1e-3):
    """Best point of one dense grid on the budget simplex: the reference the
    coarse-to-fine search replaced in criterion 9."""
    grid = np.arange(0.0, p_total + step / 2, step)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij", sparse=True)
    p3 = p_total - p1 - p2
    obj = (np.log2(1.0 + p1 / c[0]) + np.log2(1.0 + p2 / c[1])
           + np.log2(1.0 + np.maximum(p3, 0.0) / c[2]))
    return float(np.max(np.where(p3 >= -1e-12, obj, -np.inf)))


def waterfill_objective(c, p_total):
    alloc, _ = waterfill(c, p_total)
    return float(np.sum(np.log2(1.0 + alloc.p / c))), alloc.p


def test_simplex_search_matches_waterfill_and_beats_dense_grid():
    for c, p_total in acceptance.waterfill_instances(np.random.default_rng(11), 10):
        search = acceptance._grid_search_objective(c, p_total)
        ours, _ = waterfill_objective(c, p_total)
        assert abs(search - ours) <= 1e-6
        assert search >= dense_grid_objective(c, p_total) - 1e-12


@pytest.mark.parametrize("c, p_total", [
    ([0.3, 0.4, 50.0], 1.2345),   # third mode off
    ([50.0, 0.3, 0.4], 0.77),     # first mode off
    ([0.3, 40.0, 50.0], 1.2345),  # only the first mode on: a vertex
])
def test_simplex_search_finds_boundary_optimum(c, p_total):
    c = np.asarray(c)
    ours, p = waterfill_objective(c, p_total)
    assert np.any(p == 0.0)
    search = acceptance._grid_search_objective(c, p_total)
    assert abs(search - ours) <= 1e-6
    assert search >= dense_grid_objective(c, p_total) - 1e-12


@pytest.mark.parametrize("seed", [42, 7])
def test_criterion_9_search_gap_not_worse_than_dense_grid(seed):
    new_gap = old_gap = 0.0
    for c, p_total in acceptance.waterfill_instances(np.random.default_rng(seed)):
        ours, _ = waterfill_objective(c, p_total)
        new_gap = max(new_gap, abs(ours - acceptance._grid_search_objective(c, p_total)))
        old_gap = max(old_gap, abs(ours - dense_grid_objective(c, p_total)))
    print(f"seed {seed}: coarse-to-fine gap {new_gap:.2e}, dense grid gap {old_gap:.2e}")
    assert new_gap <= old_gap
    assert new_gap <= 1e-6
