"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for the guarantee it checks, then
asserts it.  The four case-study simulations run once per session at the
full production step size, so this module takes a few minutes.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from funneldsc.cli import build_problem
from funneldsc.config import (
    electromechanical_preset,
    single_link_preset,
    weak_gain_single_link,
)
from funneldsc.controller import ControlMode
from funneldsc.fuzzy import GaussianGrid
from funneldsc.perf import ErrorTransform, PerfFunction
from funneldsc.sim import run


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    # route verdict lines around pytest's output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(label: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, label


def timed_run(cfg):
    plant, reference, perf, sim_cfg = build_problem(cfg)
    start = time.perf_counter()
    traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
    wall = time.perf_counter() - start
    return traj, report, perf, wall


def funnel_holds_at_samples(traj) -> bool:
    return all(
        math.atan(abs(e)) < eta
        for e, eta in zip(traj.column("e").tolist(), traj.column("eta").tolist())
    )


def steady_holds_at_samples(traj, perf) -> bool:
    bound = math.tan(perf.c)
    return all(
        abs(e) < bound
        for tt, e in zip(traj.column("t").tolist(), traj.column("e").tolist())
        if tt >= perf.T
    )


@pytest.fixture(scope="module")
def em_fuzzy():
    return timed_run(electromechanical_preset())


@pytest.fixture(scope="module")
def em_fuzzy_far():
    return timed_run(replace(electromechanical_preset(), x0=(-500.0, -300.0, -200.0)))


@pytest.fixture(scope="module")
def em_approx_free():
    return timed_run(replace(electromechanical_preset(), mode=ControlMode.APPROX_FREE))


@pytest.fixture(scope="module")
def sl_approx_free():
    return timed_run(single_link_preset())


class TestCaseStudies:
    def test_electromechanical_adaptive_run(self, em_fuzzy):
        traj, report, perf, wall = em_fuzzy
        ok = (
            traj.breach is None
            and report.transient_ok
            and report.steady_ok
            and funnel_holds_at_samples(traj)
            and steady_holds_at_samples(traj, perf)
            and wall < 60.0
        )
        verdict(
            "electromechanical, adaptive mode, x0=(5,3,2): funnel and terminal "
            f"bounds hold on [0, 3], wall {wall:.1f}s < 60s",
            ok,
        )

    def test_electromechanical_far_start(self, em_fuzzy_far):
        traj, report, perf, wall = em_fuzzy_far
        ok = (
            traj.breach is None
            and report.transient_ok
            and report.steady_ok
            and funnel_holds_at_samples(traj)
            and steady_holds_at_samples(traj, perf)
        )
        verdict(
            "electromechanical, adaptive mode, x0 scaled by -100: same bounds "
            "hold (settling time and envelope unchanged by the start point)",
            ok,
        )

    def test_electromechanical_approx_free(self, em_approx_free):
        traj, report, perf, _ = em_approx_free
        ok = (
            traj.breach is None
            and report.transient_ok
            and report.steady_ok
            and funnel_holds_at_samples(traj)
            and steady_holds_at_samples(traj, perf)
        )
        verdict(
            "electromechanical, approximator-free mode: both bounds hold",
            ok,
        )

    def test_single_link_approx_free(self, sl_approx_free):
        traj, report, perf, _ = sl_approx_free
        ok = (
            traj.breach is None
            and report.transient_ok
            and report.steady_ok
            and funnel_holds_at_samples(traj)
            and steady_holds_at_samples(traj, perf)
        )
        verdict(
            "single-link arm, approximator-free mode, x0=(0,0): both bounds hold",
            ok,
        )


class TestEnvelopeProperties:
    def test_envelope_and_transform(self):
        perf = PerfFunction(b=0.1, c=0.05, h=1.0, T=0.5)
        ts = np.linspace(0.0, 1.2, 4001)
        etas = np.array([perf.eta(float(t)) for t in ts])
        monotone = bool(np.all(np.diff(etas) <= 1e-15))
        slopes_ok = all(perf.envelope(float(t))[1] <= 1e-15 for t in ts)
        terminal_ok = all(
            perf.eta(t) == perf.c for t in (perf.T, perf.T + 1e-9, 2.0, 1e6)
        )

        tr = ErrorTransform(perf=perf)
        rng = np.random.default_rng(7)
        identity_ok = True
        roundtrip_ok = True
        for e0 in rng.uniform(-50.0, 50.0, 200):
            identity_ok &= tr.transform(float(e0), 0.0) == pytest.approx(
                float(e0), rel=1e-10, abs=1e-12
            )
        for _ in range(400):
            t = float(rng.uniform(0.0, 1.5))
            eta = perf.eta(t)
            e = math.tan(rng.uniform(-0.999, 0.999) * eta)
            back = math.tan(eta * math.atan(tr.transform(e, t)) / (math.pi / 2.0))
            roundtrip_ok &= back == pytest.approx(e, rel=1e-10, abs=1e-12)

        verdict(
            "envelope: monotone decay, non-positive slope, exact terminal hold; "
            "transform is the identity at t=0 and inverts to 1e-10",
            monotone and slopes_ok and terminal_ok and identity_ok and roundtrip_ok,
        )


class TestSaturationSlack:
    def test_million_random_pairs(self):
        # float64 keeps the algebraic slack identity below 1e-12 only for
        # moderate magnitudes; production surfaces stay well inside this range
        rng = np.random.default_rng(11)
        s = rng.uniform(-100.0, 100.0, 1_000_000)
        g = rng.uniform(1e-3, 100.0, 1_000_000)
        slack = np.abs(s) - s * s / np.sqrt(s * s + g * g)
        vec_ok = bool(np.all(slack >= -1e-12) and np.all(slack <= g + 1e-12))

        # the kernel's arithmetic: Python floats and math.sqrt
        spot_ok = True
        for i in range(0, 1_000_000, 9973):
            sv, gv = float(s[i]), float(g[i])
            spot_ok &= 0.0 <= abs(sv) - sv * sv / math.sqrt(sv * sv + gv * gv) <= gv
        verdict(
            "saturation slack: 0 <= |s| - sat(s, g) <= g over 1e6 random pairs "
            "to 1e-12",
            vec_ok and spot_ok,
        )


class TestBasisProperties:
    def test_grid_invariants(self):
        g = GaussianGrid.reference_grid()
        ys = np.linspace(-40.0, 40.0, 2001)
        norm_ok = energy_ok = eig_ok = True
        for y in ys:
            phi = g.basis(float(y))
            norm_ok &= abs(phi.sum() - 1.0) <= 1e-12
            energy = float(phi @ phi)
            energy_ok &= 1.0 / g.m - 1e-12 <= energy <= 1.0 + 1e-12
        for y in ys[::40]:
            phi = g.basis(float(y))
            eig_ok &= float(np.linalg.eigvalsh(np.outer(phi, phi)).max()) <= g.m + 1e-12
        verdict(
            "fuzzy basis: normalization to 1e-12, energy in [1/m, 1], "
            "outer-product eigenvalues bounded by m",
            norm_ok and energy_ok and eig_ok,
        )


class TestDerivativeOracle:
    def test_envelope_slope_matches_finite_differences(self):
        perf = PerfFunction(b=0.9, c=0.05, h=0.5, T=0.5)
        h = 1e-7
        ok = True
        for t in np.linspace(5e-3, perf.T - 5e-3, 1000):
            t = float(t)
            fd = (perf.eta(t + h) - perf.eta(t - h)) / (2.0 * h)
            ok &= perf.envelope(t)[1] == pytest.approx(fd, rel=1e-4)
        verdict(
            "envelope slope agrees with central finite differences at 1000 "
            "interior points (rel 1e-4)",
            ok,
        )


class TestIntegrator:
    def test_dt_halving_self_consistency(self):
        # compare the post-settling error peak, which is step-size sensitive;
        # the transient peak is fixed by the start point alone
        base = replace(electromechanical_preset(), t_end=1.0)
        reports = {}
        for dt in (1e-5, 5e-6):
            _, reports[dt], _, _ = timed_run(replace(base, dt=dt))

        def rel_diff(field):
            a, b = (getattr(reports[dt], field) for dt in (1e-5, 5e-6))
            return abs(a - b) / max(abs(a), abs(b))

        rel = rel_diff("max_abs_error_after_T")
        peak_rel = rel_diff("max_abs_error")
        verdict(
            "halving dt changes the electromechanical run by < 5% "
            f"(post-settling peak rel diff {rel:.4f}, transient {peak_rel:.4f})",
            rel < 0.05 and peak_rel < 0.05,
        )


class TestBoundedness:
    def test_all_signal_sup_norms_finite(
        self, em_fuzzy, em_fuzzy_far, em_approx_free, sl_approx_free
    ):
        ok = True
        for _, report, _, _ in (em_fuzzy, em_fuzzy_far, em_approx_free, sl_approx_free):
            ok &= len(report.signal_sup_norms) > 0
            ok &= all(math.isfinite(v) for v in report.signal_sup_norms.values())
        verdict(
            "all recorded signal sup norms are finite on every accepted run",
            ok,
        )


class TestNegativeControl:
    def test_weak_gains_are_flagged(self):
        cfg = replace(weak_gain_single_link(), dt=1e-4, record_every=100)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
        verdict(
            "verifier sensitivity: weak-gain single-link run is reported as a "
            f"funnel breach (t = {traj.breach})",
            traj.breach is not None and not report.transient_ok,
        )
