import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from funneldsc.cli import build_problem
from funneldsc.config import electromechanical_preset, single_link_preset, weak_gain_single_link
from funneldsc.controller import ControlMode, ControllerChain
from funneldsc.perf import ErrorTransform, perf_from_terminal
from funneldsc.plants import (
    StrictFeedbackPlant,
    make_single_link,
    single_link_reference,
)
from funneldsc.sim import (
    SimConfig,
    SimulationDivergenceError,
    convergence_check,
    export_trajectory,
    rk4_step,
    run,
    step,
    step_count,
)


def sl_problem():
    cfg = single_link_preset()
    perf = perf_from_terminal(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
    return make_single_link(), single_link_reference(), cfg.gains, perf


class TestRK4:
    def test_exact_on_linear_decay(self):
        # xdot = -x integrated over [0, 1]
        y = [1.0]
        dt = 1e-3
        for k in range(1000):
            y = rk4_step(lambda t, v: [-v[0]], y, k * dt, dt)
        assert abs(y[0] - math.exp(-1.0)) < 1e-9

    def test_fourth_order_on_smooth_feedback_loop(self):
        # smooth two-state loop: xdot1 = x2, xdot2 = u(x, t) with an
        # infinitely differentiable feedback law
        def f(t, v):
            u = -math.sin(v[0]) - 2.0 * v[1] + math.cos(3.0 * t)
            return [v[1], u]

        def integrate(dt):
            y = [0.3, -0.1]
            n = int(round(1.0 / dt))
            for k in range(n):
                y = rk4_step(f, y, k * dt, dt)
            return y

        ref = integrate(1.0 / 65536)
        errs = []
        for dt in (1.0 / 128, 1.0 / 256, 1.0 / 512):
            y = integrate(dt)
            errs.append(max(abs(a - b) for a, b in zip(y, ref)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 3.5 < p < 4.5


class TestStep:
    def test_signals_are_sampled_at_step_start(self):
        plant, reference, gains, perf = sl_problem()
        chain = ControllerChain(
            bounds=plant.bounds(), gains=gains,
            transform=ErrorTransform(perf=perf), reference=reference,
            mode=ControlMode.APPROX_FREE,
        )
        x0 = [3.3, 0.0]
        cstate = chain.init_state(x0)
        bundle = (x0, list(cstate.filter_states), np.zeros((0, 0)))
        new_bundle, (u0, _, _, sig0) = step(plant, chain, bundle, 0.0, 1e-4)
        assert sig0.e == pytest.approx(3.3 - reference.value(0.0))
        assert u0 == sig0.u
        assert new_bundle[0] != bundle[0]

    def test_exact_and_explicit_filters_agree(self):
        plant, reference, gains, perf = sl_problem()
        results = {}
        for exact in (True, False):
            cfg = SimConfig(
                dt=2e-4, t_end=0.6, x0=(3.3, 0.0),
                mode=ControlMode.APPROX_FREE, record_every=100, exact_filter=exact,
            )
            _, results[exact] = run(plant, reference, gains, perf, cfg)
        assert results[True].max_abs_error == pytest.approx(
            results[False].max_abs_error, rel=0.01
        )
        assert results[True].max_abs_error_after_T == pytest.approx(
            results[False].max_abs_error_after_T, rel=0.05, abs=1e-4
        )

    def test_explicit_mode_rejects_stiff_step(self):
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-3, t_end=0.1, x0=(3.3, 0.0),
            mode=ControlMode.APPROX_FREE, exact_filter=False,
        )
        # fastest filter has lam = 1e-3; explicit stepping needs dt <= lam/5
        with pytest.raises(ValueError, match="explicit"):
            run(plant, reference, gains, perf, cfg)


def fresh_chain(cfg, plant, reference, perf):
    """A chain as ``run()`` builds it, without a basis table."""
    return ControllerChain(
        bounds=plant.bounds(), gains=cfg.gains, transform=ErrorTransform(perf=perf),
        reference=reference, mode=cfg.mode, sign_smoothing=cfg.sign_smoothing,
    )


def assert_close_normwise(got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestProjectedWeightStep:
    """The fuzzy step advances the weights by RK4 of their law in closed form."""

    @pytest.mark.parametrize("z", [1e-5, 1e-3, 0.1, 1.0, 4.0, 10.0])
    def test_closed_form_equals_matrix_rk4(self, z):
        rng = np.random.default_rng(int(z * 1e5))
        dt = 1e-4
        base = electromechanical_preset()
        # varpi * dt spans z / 10 .. z over the stages
        gains = tuple(
            replace(g, varpi=z / dt * f, mu=float(rng.uniform(0.5, 20.0)))
            for g, f in zip(base.gains, (1.0, 0.3, 0.1))
        )
        cfg = replace(base, gains=gains)
        plant, reference, perf, _ = build_problem(cfg)
        chain = fresh_chain(cfg, plant, reference, perf)
        n, m = plant.n, chain.grid.m
        seen, drives = [], []

        def kernel(x, s, drifts, t, signals=False):
            seen.append(drifts)
            drives.append(rng.normal(size=n).tolist())
            return 0.0, [0.0] * (n - 1), drives[-1], None

        chain.kernel = kernel
        t = 1237 * dt
        theta = rng.normal(size=(n, m))
        bundle = ([0.1, 0.2, 0.3], [0.0, 0.0], theta)
        (_, _, theta_new), _ = step(plant, chain, bundle, t, dt)

        b1, bh, b4 = (chain.grid.basis(reference.value(t + k * 0.5 * dt)) for k in range(3))
        mu = np.array([g.mu for g in gains])[:, None]
        varpi = np.array([g.varpi for g in gains])[:, None]

        def law(th, d, b):
            return mu * np.array(d)[:, None] * b - varpi * th

        stages = [theta]
        k1 = law(theta, drives[0], b1)
        stages.append(theta + 0.5 * dt * k1)
        k2 = law(stages[1], drives[1], bh)
        stages.append(theta + 0.5 * dt * k2)
        k3 = law(stages[2], drives[2], bh)
        stages.append(theta + dt * k3)
        k4 = law(stages[3], drives[3], b4)
        want = theta + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        assert len(seen) == 4
        for drifts, th, b in zip(seen, stages, (b1, bh, bh, b4)):
            assert_close_normwise(drifts, th @ b, 1e-12)
        assert_close_normwise(theta_new, want, 1e-12)

    @pytest.mark.parametrize("preset, dt, exact", [
        (electromechanical_preset, 1e-5, True),
        (lambda: single_link_preset(mode=ControlMode.FUZZY), 1e-4, False),
    ])
    def test_step_on_a_chain_without_table_matches_run(self, preset, dt, exact):
        cfg = replace(preset(), dt=dt, t_end=300 * dt, record_every=1, exact_filter=exact)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, _ = run(plant, reference, cfg.gains, perf, sim_cfg)
        chain = fresh_chain(cfg, plant, reference, perf)
        assert chain._table is None
        state = chain.init_state(list(cfg.x0))
        theta = np.array([w.theta_hat for w in state.theta_hat])
        bundle = (list(cfg.x0), list(state.filter_states), theta)
        for k in range(300):
            bundle, (u, _, _, sig) = step(plant, chain, bundle, k * dt, dt, exact)
            assert u == pytest.approx(traj.signals[k].u, rel=1e-10)
            np.testing.assert_allclose(bundle[0], traj.states[k + 1], rtol=1e-10)
            np.testing.assert_allclose(bundle[1], traj.filters[k + 1], rtol=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(bundle[2], axis=1), traj.theta_norms[k + 1], rtol=1e-10)
        assert max(traj.theta_norms[-1]) > 0.0


class TestRunBookkeeping:
    def setup_method(self):
        self.plant, self.reference, self.gains, self.perf = sl_problem()

    def run_short(self, **overrides):
        kwargs = dict(
            dt=1e-4, t_end=0.05, x0=(3.3, 0.0),
            mode=ControlMode.APPROX_FREE, record_every=50,
        )
        kwargs.update(overrides)
        cfg = SimConfig(**kwargs)
        return run(self.plant, self.reference, self.gains, self.perf, cfg)

    def test_record_decimation_and_closing_sample(self):
        traj, _ = self.run_short()
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.05)
        # one sample per record_every steps plus the closing sample
        assert len(traj.times) == 500 // 50 + 1
        spacing = np.diff(traj.times[:-1])
        np.testing.assert_allclose(spacing, 50 * 1e-4, rtol=1e-9)
        assert len(traj.states) == len(traj.signals) == len(traj.eta) == len(traj.times)

    def test_sup_norms_are_finite_and_populated(self):
        _, report = self.run_short()
        assert {"z1", "z2", "u", "s2", "alpha1"} <= set(report.signal_sup_norms)
        assert all(math.isfinite(v) for v in report.signal_sup_norms.values())

    def test_report_dict_round_trip(self):
        _, report = self.run_short()
        d = report.as_dict()
        assert d["transient_ok"] is True
        assert d["max_abs_error"] == report.max_abs_error

    def test_rejects_wrong_initial_state_length(self):
        with pytest.raises(ValueError, match="x0"):
            self.run_short(x0=(0.0, 0.0, 0.0))

    def test_convergence_check(self):
        _, a = self.run_short()
        _, b = self.run_short(dt=5e-5)
        assert convergence_check(a, a) == 0.0
        assert convergence_check(a, b) < 0.05


class TestBreachHandling:
    def test_weak_gains_report_a_breach(self):
        cfg = weak_gain_single_link()
        plant, reference = make_single_link(), single_link_reference()
        perf = perf_from_terminal(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
        sim_cfg = SimConfig(
            dt=1e-4, t_end=3.0, x0=cfg.x0, mode=cfg.mode, record_every=100,
        )
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
        assert traj.breach is not None
        assert not report.transient_ok
        assert not report.steady_ok
        # the record stops at the breach
        assert traj.times[-1] <= traj.breach


class TestDivergenceHandling:
    def test_finite_time_blowup_raises(self):
        def quint(v):
            a = v * v * v * v * v
            return (2.0 * a) - a - a + a  # nan once the power overflows

        plant = StrictFeedbackPlant(
            n=2,
            rhs=lambda x, u, t: [1e-300 * x[1], quint(x[1]) + u],
            gain_lower=(1e-300, 0.5),
            gain_upper=(1e-300, 10.0),
            lipschitz_rate=(lambda xb, yb, t: 1.0, lambda xb, yb, t: 1.0),
        )
        _, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-4, t_end=0.1, x0=(math.pi, 1e70), mode=ControlMode.APPROX_FREE,
        )
        with pytest.raises(SimulationDivergenceError):
            run(plant, reference, gains, perf, cfg)


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0, x0=(0.0, 0.0))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=0.0, x0=(0.0, 0.0))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), record_every=0)

    def test_rejects_silent_rounding(self):
        with pytest.raises(ValueError, match="record_every"):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), record_every=2.7)
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=1e-3, t_end=0.01234, x0=(0.0, 0.0))
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=1e-3, t_end=4e-4, x0=(0.0, 0.0))

    def test_step_count_tolerates_decimal_rounding(self):
        assert step_count(0.6, 1e-5) == 60_000
        assert step_count(3.0, 1e-5) == 300_000
        assert step_count(0.6, 1e-4) == 6_000


class TestExport:
    def test_csv_layout(self, tmp_path):
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-4, t_end=0.02, x0=(3.3, 0.0),
            mode=ControlMode.APPROX_FREE, record_every=20,
        )
        traj, _ = run(plant, reference, gains, perf, cfg)
        out = tmp_path / "traj.csv"
        export_trajectory(traj, plant.n, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:4] == ["t", "x1", "x2", "y_r"]
        assert "eta" in header and "neg_eta" in header and "u" in header
        assert "s2" in header and "alpha1" in header
        # approximator-free runs carry no weight-norm columns
        assert not any(h.startswith("theta_norm") for h in header)
        assert len(rows) - 1 == len(traj.times)
        for row in rows[1:]:
            assert len(row) == len(header)

    def test_csv_includes_weight_norms_in_fuzzy_mode(self, tmp_path):
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-4, t_end=0.02, x0=(3.3, 0.0),
            mode=ControlMode.FUZZY, record_every=20,
        )
        traj, _ = run(plant, reference, gains, perf, cfg)
        out = tmp_path / "traj.csv"
        export_trajectory(traj, plant.n, out)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[-2:] == ["theta_norm1", "theta_norm2"]
