"""Golden-value regression of the control kernel and of short closed-loop runs.

``golden_values.json`` was recorded at commit f5913f9, before the two
evaluation paths of the controller were merged into one kernel.  It holds
the kernel's ``u``, ``alpha`` and ``theta_dot`` at fixed states for five
chain configurations, and the verdicts and peaks of short runs, one per
plant and mode plus the explicit-filter path.  Kernel values must agree to
rtol 1e-10, closed-loop peaks to the benchmark's rtol 1e-6.

Its ``exports`` section, recorded at commit 578d3fc while ``Trajectory``
still kept one ``StageSignals`` per sample, holds the header and every row
of the ``trajectory.csv`` that ``cli.run_experiment`` writes for two short
runs; the values must agree to rtol 1e-10.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from funneldsc.cli import build_problem, run_experiment
from funneldsc.config import electromechanical_preset, single_link_preset
from funneldsc.controller import ControlMode, ControllerChain, ControllerState
from funneldsc.fuzzy import AdaptiveWeights
from funneldsc.perf import ErrorTransform
from funneldsc.sim import run
from oracles import oracle_at

GOLDEN = json.loads(Path(__file__).with_name("golden_values.json").read_text())
KERNEL_RTOL = 1e-10
PEAK_RTOL = 1e-6
EXPORT_RTOL = 1e-10

FUZZY, FREE = ControlMode.FUZZY, ControlMode.APPROX_FREE

# chain name -> (preset config, mode, sign_smoothing)
CHAINS = {
    "em-fuzzy": (electromechanical_preset, FUZZY, 0.0),
    "em-approx-free": (electromechanical_preset, FREE, 0.0),
    "sl-approx-free": (single_link_preset, FREE, 0.0),
    "sl-fuzzy": (single_link_preset, FUZZY, 0.0),
    "em-fuzzy-smoothed": (electromechanical_preset, FUZZY, 0.05),
}

# run name -> config of a short closed-loop run
RUNS = {
    "em-fuzzy": lambda: replace(electromechanical_preset(), dt=2e-5, t_end=0.05),
    "em-approx-free": lambda: replace(
        electromechanical_preset(mode=FREE), dt=2e-5, t_end=0.05),
    "em-fuzzy-explicit": lambda: replace(
        electromechanical_preset(), dt=2e-6, t_end=0.004, exact_filter=False),
    "sl-fuzzy": lambda: replace(
        single_link_preset(mode=FUZZY), dt=1e-4, t_end=0.6, record_every=1),
    "sl-approx-free": lambda: replace(single_link_preset(), dt=1e-4, t_end=0.6, record_every=7),
    "sl-approx-free-explicit": lambda: replace(
        single_link_preset(), dt=1e-4, t_end=0.6, exact_filter=False),
}

# export name -> config of a short run whose trajectory.csv is compared
EXPORTS = {
    "sl-approx-free": lambda: replace(
        single_link_preset(), dt=1e-4, t_end=0.02, record_every=20),
    "em-fuzzy": lambda: replace(
        electromechanical_preset(), dt=2e-5, t_end=0.001, record_every=5),
}


def make_chain(name: str) -> ControllerChain:
    preset, mode, smoothing = CHAINS[name]
    cfg = replace(preset(), mode=mode, sign_smoothing=smoothing)
    plant, reference, perf, _ = build_problem(cfg)
    return ControllerChain(
        bounds=plant.bounds(), gains=cfg.gains, transform=ErrorTransform(perf=perf),
        reference=reference, mode=mode, sign_smoothing=smoothing,
    )


def kernel_values(chain: ControllerChain, case: dict):
    """``(u, alpha, theta_dot)`` of the chain at the state stored in ``case``:
    u and alpha are the indexed oracle's, which the compiled kernel and
    ``evaluate`` return float for float."""
    state = ControllerState(
        theta_hat=[AdaptiveWeights(np.array(row)) for row in case["theta"]],
        filter_states=list(case["s"]),
    )
    x, t = list(case["x"]), case["t"]
    sig = oracle_at(chain, x, state, t)
    u, alpha, theta_dot = chain.evaluate(x, state, t)
    assert (u, alpha) == (sig.u, sig.alpha)
    return sig.u, sig.alpha, theta_dot


def closed_loop_record(name: str) -> dict:
    """Verdicts, peaks, sup norms and sample count of one short run."""
    cfg = RUNS[name]()
    plant, reference, perf, sim_cfg = build_problem(cfg)
    traj, report = run(
        plant, reference, cfg.gains, perf, sim_cfg,
        kind=cfg.transform_kind, sign_smoothing=cfg.sign_smoothing,
    )
    record = report.as_dict()
    record["samples"] = len(traj.data)
    record["breach"] = traj.breach
    return record


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_kernel_matches_golden(name):
    chain = make_chain(name)
    cases = GOLDEN["kernel"][name]
    assert cases
    for case in cases:
        u, alpha, theta_dot = kernel_values(chain, case)
        np.testing.assert_allclose(u, case["u"], rtol=KERNEL_RTOL, atol=0.0)
        np.testing.assert_allclose(alpha, case["alpha"], rtol=KERNEL_RTOL, atol=0.0)
        np.testing.assert_allclose(
            theta_dot, np.array(case["theta_dot"]).reshape(theta_dot.shape),
            rtol=KERNEL_RTOL, atol=0.0,
        )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_closed_loop_peaks_match_golden(name):
    got = closed_loop_record(name)
    want = GOLDEN["runs"][name]
    for key in ("transient_ok", "steady_ok", "samples", "breach"):
        assert got[key] == want[key], key
    for key in ("max_abs_error", "max_abs_error_after_T", "max_abs_control"):
        assert got[key] == pytest.approx(want[key], rel=PEAK_RTOL, abs=0.0), key
    assert set(got["signal_sup_norms"]) == set(want["signal_sup_norms"])
    for key, value in want["signal_sup_norms"].items():
        assert got["signal_sup_norms"][key] == pytest.approx(value, rel=PEAK_RTOL, abs=0.0), key


def exported_csv(name: str, out_dir) -> tuple:
    """Header and float rows of the trajectory.csv written for ``name``."""
    run_experiment(EXPORTS[name](), out_dir=out_dir)
    with open(Path(out_dir) / "trajectory.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[float(v) for v in row] for row in rows]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_golden(name, tmp_path):
    header, rows = exported_csv(name, tmp_path)
    want = GOLDEN["exports"][name]
    assert header == want["header"]
    assert len(rows) == len(want["rows"])
    for got_row, want_row in zip(rows, want["rows"]):
        np.testing.assert_allclose(got_row, want_row, rtol=EXPORT_RTOL, atol=0.0)
