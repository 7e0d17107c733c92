import csv
import gc
import io
import math
import os
import sys
import traceback
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from funneldsc import cli, codegen, sim
from funneldsc.cli import build_problem
from funneldsc.config import electromechanical_preset, single_link_preset, weak_gain_single_link
from funneldsc.controller import ControlMode, ControllerChain, StageGains
from funneldsc.perf import ErrorTransform, PerfFunction
from funneldsc.plants import (
    StrictFeedbackPlant,
    make_single_link,
    single_link_reference,
)
from funneldsc.sim import (
    SimConfig,
    SimulationDivergenceError,
    export_trajectory,
    run,
    step,
    step_count,
)
from oracles import SINE, oracle_at, oracle_run


def sl_problem():
    cfg = single_link_preset()
    perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
    return make_single_link(), single_link_reference(), cfg.gains, perf


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
        new_bundle, start = step(plant, chain, bundle, 0.0, 1e-4)
        sig0 = oracle_at(chain, x0, cstate, 0.0)
        assert sig0.e == pytest.approx(3.3 - reference.value(0.0))
        assert start == sig0[:3]
        assert new_bundle[0] != bundle[0]

    def test_step_leaves_the_callers_bundle_untouched(self):
        """The step returns new weights; the caller's bundle keeps its
        states and its weights."""
        cfg = electromechanical_preset()
        plant, reference, perf, _ = build_problem(cfg)
        chain = fresh_chain(cfg, plant, reference, perf)
        state = chain.init_state(list(cfg.x0))
        bundle = (list(cfg.x0), list(state.filter_states), np.array([w.theta_hat for w in state.theta_hat]))
        for k in range(3):  # weights away from zero
            bundle, _ = step(plant, chain, bundle, k * cfg.dt, cfg.dt)
        x, s, theta = bundle
        kept = (list(x), list(s), theta.copy())
        new, _ = step(plant, chain, bundle, 3 * cfg.dt, cfg.dt)
        assert bundle[0] is x and bundle[1] is s and bundle[2] is theta
        assert (x, s) == kept[:2] and np.array_equal(theta, kept[2])
        assert new[2] is not theta and not np.array_equal(new[2], theta)

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


def distinct_problem(n, mode, smoothing, varpi):
    """An order-n plant and its chain, every gain, bound and rate differing
    from stage to stage; ``varpi`` scales the weights' leakage gains."""
    plant = StrictFeedbackPlant(
        n=n,
        rhs_text="".join(f"dx{i} = x{i + 1} + 0.1 * sin(x{i} + t)\n" for i in range(1, n)) + f"dx{n} = u - 0.3 * x{n}\n",
        names={"sin": math.sin},
        gain_lower=(0.5, 0.7, 0.9, 1.1)[:n],
        gain_upper=(2.0, 3.0, 4.5, 6.0)[:n],
        lipschitz_rate=(1.3, 0.8, 2.2, 1.7)[:n],
    )
    gains = [
        StageGains(
            delta=0.3 + 0.11 * k, sigma=0.5 + 0.07 * k, varpi=varpi * (1.0 + 0.15 * k), mu=1.0 + k,
            rho=0.2 + 0.05 * k, tau=0.4 + 0.03 * k, varrho=1.5 + 0.1 * k, lam=0.01 * (k + 1),
        )
        for k in range(1, n + 1)
    ]
    perf = PerfFunction(b=0.4, c=0.05, h=1.0, T=0.5)
    return plant, ControllerChain(plant.bounds(), gains, ErrorTransform(perf=perf), SINE, mode, smoothing)


def fresh_chain(cfg, plant, reference, perf):
    """A chain as ``run()`` builds it."""
    return ControllerChain(
        bounds=plant.bounds(), gains=cfg.gains, transform=ErrorTransform(perf=perf),
        reference=reference, mode=cfg.mode, sign_smoothing=cfg.sign_smoothing,
    )


def columns(traj, names):
    """The named columns of a trajectory side by side, one row per sample."""
    return traj.data[:, [traj.names.index(name) for name in names]]


def assert_close_normwise(got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestProjectedWeightStep:
    """The fuzzy step advances the weights by RK4 of their law in closed form
    with either filter update; the filters take the RK4 stages of their law
    (explicit) or the exponential toward the alpha frozen at t (exact)."""

    Z = [1e-5, 1e-3, 0.1, 1.0, 4.0, 10.0]

    @pytest.mark.parametrize("z, exact", [
        *(pytest.param(z, True, id=str(z)) for z in Z),
        *(pytest.param(z, False, id=f"explicit-{z}") for z in Z),
    ])
    def test_closed_form_equals_matrix_rk4(self, z, exact):
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
        seen, drives, filters, alphas, inputs = [], [], [], [], []

        def kernel(x, s, drifts, time_inputs):
            seen.append(drifts)
            inputs.append(time_inputs)
            filters.append(s)
            drives.append(rng.normal(size=n).tolist())
            alphas.append(rng.normal(size=n - 1))
            return 0.0, alphas[-1].tolist(), drives[-1]

        chain.kernel = kernel
        t = 1237 * dt
        theta = rng.normal(size=(n, m))
        s0 = rng.normal(size=n - 1)
        bundle = ([0.1, 0.2, 0.3], s0.tolist(), theta)
        (_, s_new, theta_new), _ = step(plant, chain, bundle, t, dt, exact)

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
        # the stage times, stages 2 and 3 sharing one tuple
        times = [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
        assert [i[0] for i in inputs] == times and inputs[1] is inputs[2]
        assert inputs == [chain.time_inputs(ti) for ti in times]
        for drifts, th, b in zip(seen, stages, (b1, bh, bh, b4)):
            assert_close_normwise(drifts, th @ b, 1e-12)
        assert_close_normwise(theta_new, want, 1e-12)

        lam = np.array([g.lam for g in gains[1:]])
        if exact:
            a = alphas[0]
            s_half, s_full = (a + (s0 - a) * np.exp(-h / lam) for h in (0.5 * dt, dt))
            want_s = [s_half, s_half, s_full, s_full]
        else:
            ks = [(alphas[0] - s0) / lam]
            want_s = []
            for j, h in enumerate((0.5 * dt, 0.5 * dt, dt)):
                want_s.append(s0 + h * ks[-1])
                ks.append((alphas[j + 1] - want_s[-1]) / lam)
            want_s.append(s0 + dt / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]))
        assert_close_normwise(filters[0], s0, 0.0)
        for got, w in zip([*filters[1:], s_new], want_s):
            assert_close_normwise(got, w, 1e-12)

    @pytest.mark.parametrize("preset, dt, exact", [
        (electromechanical_preset, 1e-5, True),
        (lambda: single_link_preset(mode=ControlMode.FUZZY), 1e-4, False),
    ])
    def test_standalone_step_matches_run(self, preset, dt, exact):
        cfg = replace(preset(), dt=dt, t_end=300 * dt, record_every=1, exact_filter=exact)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, _ = run(plant, reference, cfg.gains, perf, sim_cfg)
        n = plant.n
        states = columns(traj, [f"x{i}" for i in range(1, n + 1)])
        filters = columns(traj, [f"s{i}" for i in range(2, n + 1)])
        theta_norms = columns(traj, [f"theta_norm{i}" for i in range(1, n + 1)])
        chain = fresh_chain(cfg, plant, reference, perf)
        state = chain.init_state(list(cfg.x0))
        theta = np.array([w.theta_hat for w in state.theta_hat])
        bundle = (list(cfg.x0), list(state.filter_states), theta)
        for k in range(300):
            bundle, (u, _, _) = step(plant, chain, bundle, k * dt, dt, exact)
            assert u == pytest.approx(traj.column("u")[k], rel=1e-10)
            np.testing.assert_allclose(bundle[0], states[k + 1], rtol=1e-10)
            np.testing.assert_allclose(bundle[1], filters[k + 1], rtol=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(bundle[2], axis=1), theta_norms[k + 1], rtol=1e-10)
        assert max(theta_norms[-1]) > 0.0


class TestStepConstants:
    def test_chains_differing_in_one_lam_keep_their_own_decays(self):
        """Two chains that differ only in stage 3's lam, stepped alternately
        at one dt, each move their filters by the decay of their own lam."""
        cfg = electromechanical_preset()
        plant, reference, perf, _ = build_problem(cfg)
        gains = (*cfg.gains[:2], replace(cfg.gains[2], lam=3.0 * cfg.gains[2].lam))
        chains = [fresh_chain(replace(cfg, gains=g), plant, reference, perf) for g in (cfg.gains, gains)]
        assert [c.gains[2].lam for c in chains] == [cfg.gains[2].lam, 3.0 * cfg.gains[2].lam]
        bundles = []
        for chain in chains:
            state = chain.init_state(list(cfg.x0))
            theta = np.array([w.theta_hat for w in state.theta_hat])
            bundles.append((list(cfg.x0), list(state.filter_states), theta))
        dt = cfg.dt
        for k in range(6):
            for j, chain in enumerate(chains):
                s = bundles[j][1]
                bundles[j], (_, alpha, _) = step(plant, chain, bundles[j], k * dt, dt)
                lams = [g.lam for g in chain.gains[1:]]
                want = [a + (si - a) * math.exp(-dt / lam) for a, si, lam in zip(alpha, s, lams)]
                assert bundles[j][1] == want
        assert bundles[0][1][1] != bundles[1][1][1]

    def test_each_run_compiles_its_loop_once(self, monkeypatch):
        """Whatever the process ran before, a run compiles its loop exactly
        once, so two identical runs make the same calls."""
        compiled = []
        compile_function = sim.compile_function

        def counted(source, filename, namespace):
            compiled.append(filename)
            return compile_function(source, filename, namespace)

        monkeypatch.setattr(sim, "compile_function", counted)
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(3.3, 0.0), mode=ControlMode.APPROX_FREE)
        for k in range(1, 4):
            run(plant, reference, gains, perf, cfg)
            assert len(compiled) == k
            assert compiled[-1].endswith("sim.py<run n=2 approx-free sign exact>")

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    def test_a_first_run_compiles_each_text_it_calls_and_builds_the_kernel_text_once(self, mode, monkeypatch):
        """On plant, reference and envelope objects that compiled nothing
        yet, a run compiles the chain's kernel, which checks x0, its time
        inputs and reference values, and its loop: it inlines the
        right-hand side, the reference and the envelope without compiling
        them, and builds the kernel text once for both the kernel and the
        loop."""
        compiled, texts = [], []
        compile_function, kernel_text = codegen.compile_function, ControllerChain._kernel_text

        def counted(source, filename, namespace):
            compiled.append(filename.rsplit("<", 1)[1].split(" n=")[0].rstrip(">"))
            return compile_function(source, filename, namespace)

        def built(chain):
            texts.append(chain)
            return kernel_text(chain)

        monkeypatch.setattr(codegen, "compile_function", counted)
        monkeypatch.setattr(sim, "compile_function", counted)
        monkeypatch.setattr(ControllerChain, "_kernel_text", built)
        plant, reference, gains, perf = sl_problem()
        plant = StrictFeedbackPlant(**{f: getattr(plant, f) for f in (
            "n", "rhs_text", "names", "gain_lower", "gain_upper", "lipschitz_rate")})
        reference = type(reference)(reference.value_text, reference.derivative_text, reference.names)
        perf = PerfFunction(perf.b, perf.c, perf.h, perf.T)
        run(plant, reference, gains, perf, SimConfig(dt=1e-4, t_end=0.01, x0=(3.3, 0.0), mode=mode))
        assert sorted(compiled) == ["kernel", "reference_values", "run", "time_inputs"]
        assert len(texts) == 1


class TestLiteralConstants:
    """``run()``'s loop reads no finite float or int as a global:
    ``codegen.compile_function`` compiles each constant as a literal, those
    of the inlined texts included."""

    @pytest.mark.parametrize("preset, dt", [
        (electromechanical_preset, 1e-6),
        (single_link_preset, 1e-4),
    ], ids=["em", "sl"])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "explicit"])
    def test_the_loop_reads_no_number_global(self, preset, dt, mode, exact, monkeypatch):
        loops = []
        compile_function = sim.compile_function

        def kept(source, filename, namespace):
            loops.append(compile_function(source, filename, namespace))
            return loops[-1]

        monkeypatch.setattr(sim, "compile_function", kept)
        cfg = replace(preset(mode=mode), dt=dt, t_end=10 * dt, exact_filter=exact)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        run(plant, reference, cfg.gains, perf, sim_cfg)
        (loop,) = loops

        def names(code):  # the loop's and its comprehension's
            return {*code.co_names, *(n for c in code.co_consts if hasattr(c, "co_names") for n in names(c))}

        def number(value):
            return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)

        read = {name: loop.__globals__[name] for name in names(loop.__code__) if name in loop.__globals__}
        assert {"tabulate", "pack_row"} <= set(read)
        assert [name for name, value in read.items() if number(value)] == []


class TestStageTimes:
    def test_run_keeps_the_stage_times_off_the_half_step_grid(self):
        """``run()`` evaluates the RK stages at k*dt, k*dt + 0.5*dt and
        k*dt + dt, not at the basis grid's (2k+1)*dt/2 and (2k+2)*dt/2,
        which differ by an ulp at some k for dt = 1e-5: the plant's
        right-hand side takes the stage times, and the kernel the time
        inputs built at them.  Step k's start reuses the time inputs of
        step k-1's end where (k-1)*dt + dt is the float k*dt.  The
        recorders go in through the names of the inlined texts: one at
        the right-hand side, one at the reference's derivative, which only
        the time inputs read."""
        dt, n_steps = 1e-5, 200
        half = 0.5 * dt
        assert any((2 * k + 1) * half != k * dt + half for k in range(n_steps))
        reused = [k for k in range(1, n_steps + 1) if (k - 1) * dt + dt == k * dt]
        assert 0 < len(reused) < n_steps
        built, evaluated = [], []

        def recorded(t, value):
            built.append(t)
            return value

        plant, reference, gains, perf = sl_problem()
        plant = replace(plant, rhs_text="record(t)\n" + plant.rhs_text, names={**plant.names, "record": evaluated.append})
        reference = replace(
            reference, derivative_text=f"record(t, {reference.derivative_text})",
            names={**reference.names, "record": recorded})
        cfg = SimConfig(dt=dt, t_end=n_steps * dt, x0=(3.3, 0.0), mode=ControlMode.APPROX_FREE)
        run(plant, reference, gains, perf, cfg)
        # per step its start, the shared t + dt/2 of RK stages 2 and 3 and t + dt
        assert evaluated == [s for k in range(n_steps) for s in (k * dt, k * dt + half, k * dt + half, k * dt + dt)]
        # each stage time's inputs are built once, a reused start not again
        want = [0.0] + [
            s for k in range(n_steps)
            for s in ([] if k in reused else [k * dt]) + [k * dt + half, k * dt + dt]
        ]
        assert built == want + ([] if n_steps in reused else [n_steps * dt])


class TestNoCallPerStep:
    """``run()``'s loop calls no Python function per step: the plant, the
    reference and the envelope are inlined like the kernel, so only
    builtins remain.  Counted as the profiler's ``call`` events of two runs
    whose horizons end in one basis block, with the garbage collector off,
    as it would finalize other code's generators at random."""

    @pytest.mark.parametrize("preset, dt", [
        (electromechanical_preset, 1e-6),
        (single_link_preset, 1e-4),
    ], ids=["em", "sl"])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "explicit"])
    def test_two_horizons_make_the_same_calls(self, preset, dt, mode, exact):
        def calls(steps):
            cfg = replace(preset(mode=mode), dt=dt, t_end=steps * dt, record_every=3, exact_filter=exact)
            plant, reference, perf, sim_cfg = build_problem(cfg)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                run(plant, reference, cfg.gains, perf, sim_cfg)
            finally:
                sys.setprofile(None)
                gc.enable()
            return count

        calls(10)  # builds what a process builds once
        assert 2 * 40 + 2 < sim.BASIS_BLOCK
        assert calls(40) == calls(10)


CASES = pytest.mark.parametrize("preset, dt, exact", [
    (single_link_preset, 1e-4, True),
    (lambda: single_link_preset(mode=ControlMode.FUZZY), 1e-4, True),
    (electromechanical_preset, 1e-5, True),
    (single_link_preset, 1e-4, False),
    (lambda: single_link_preset(mode=ControlMode.FUZZY), 1e-4, False),
], ids=["sl-approx-free", "sl-fuzzy", "em-fuzzy", "sl-approx-free-explicit", "sl-fuzzy-explicit"])


class TestOneBasisRead:
    """The basis is read through one ``tabulate_basis`` call per standalone
    step and per block of ``run()``, in both modes and both steppers."""

    STEPS = 50
    BLOCK = 6

    @CASES
    def test_one_table_row_per_step(self, preset, dt, exact, monkeypatch):
        cfg = replace(preset(), dt=dt, t_end=self.STEPS * dt, exact_filter=exact)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        reads = []
        tabulate = ControllerChain.tabulate_basis

        def counted(chain, times, buffers=None):
            reads.append(len(times))
            return tabulate(chain, times, buffers)

        monkeypatch.setattr(ControllerChain, "tabulate_basis", counted)
        chain = fresh_chain(cfg, plant, reference, perf)
        state = chain.init_state(list(cfg.x0))
        theta = np.array([w.theta_hat for w in state.theta_hat]) if state.theta_hat else np.zeros((0, 0))
        bundle = (list(cfg.x0), list(state.filter_states), theta)
        reads.clear()
        for k in range(self.STEPS):
            bundle, _ = step(plant, chain, bundle, k * dt, dt, exact)
            assert reads == [3] * (k + 1)
        # run(): one read per block of half-step rows 0 .. 2 * STEPS + 2,
        # after init_state's read of the energy at t = 0 in approximator-free
        # mode (zero weights project to 0.0 without one)
        monkeypatch.setattr(sim, "BASIS_BLOCK", self.BLOCK)
        reads.clear()
        run(plant, reference, cfg.gains, perf, sim_cfg)
        blocks = -(-(2 * self.STEPS + 1) // self.BLOCK)
        assert reads == [1] * (cfg.mode is ControlMode.APPROX_FREE) + [self.BLOCK + 2] * blocks

    @CASES
    def test_block_size_does_not_change_the_run(self, preset, dt, exact, monkeypatch):
        cfg = replace(preset(), dt=dt, t_end=self.STEPS * dt, record_every=1, exact_filter=exact)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
        monkeypatch.setattr(sim, "BASIS_BLOCK", self.BLOCK)
        small_traj, small_report = run(plant, reference, cfg.gains, perf, sim_cfg)
        assert np.array_equal(small_traj.data, traj.data)
        assert small_report == report


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
        times = traj.column("t")
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.05)
        # one sample per record_every steps plus the closing sample
        assert len(times) == 500 // 50 + 1
        spacing = np.diff(times[:-1])
        np.testing.assert_allclose(spacing, 50 * 1e-4, rtol=1e-9)
        assert traj.data.shape == (len(times), len(traj.names))

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

    def test_runs_carry_no_state_from_one_to_the_next(self):
        """Each run allocates its own buffers: a fuzzy run repeated after
        runs of another order and of another start gives the same rows and
        report."""
        def fuzzy_run(preset, **changes):
            cfg = replace(preset(mode=ControlMode.FUZZY), t_end=0.01, record_every=1, **changes)
            plant, reference, perf, sim_cfg = build_problem(cfg)
            return run(plant, reference, cfg.gains, perf, sim_cfg)

        traj, report = fuzzy_run(electromechanical_preset)
        fuzzy_run(single_link_preset, dt=1e-4)
        fuzzy_run(electromechanical_preset, x0=(-5.0, -3.0, -2.0))
        again_traj, again_report = fuzzy_run(electromechanical_preset)
        assert np.array_equal(again_traj.data, traj.data)
        assert again_report == report


class TestColumnarRecord:
    """Samples are float rows; sup norms and diagnostics come from the columns."""

    def setup_method(self):
        self.plant, self.reference, self.gains, self.perf = sl_problem()

    def run_sl(self, mode=ControlMode.APPROX_FREE, dt=1e-4, t_end=0.05, record_every=7, x0=(3.3, 0.0)):
        cfg = SimConfig(dt=dt, t_end=t_end, x0=x0, mode=mode, record_every=record_every)
        return run(self.plant, self.reference, self.gains, self.perf, cfg)

    def run_weak(self, record_every):
        cfg = weak_gain_single_link()
        sim_cfg = SimConfig(dt=1e-4, t_end=3.0, x0=cfg.x0, mode=cfg.mode, record_every=record_every)
        return run(self.plant, self.reference, cfg.gains, self.perf, sim_cfg)

    @pytest.mark.parametrize("case", ["fuzzy", "approx-free", "breach"])
    def test_sup_norms_are_column_peaks_of_the_opening_samples(self, case):
        if case == "breach":
            traj, report = self.run_weak(record_every=1)
            assert traj.breach is not None
            opening = len(traj.data)  # no closing sample after a breach
        else:
            mode = ControlMode.FUZZY if case == "fuzzy" else ControlMode.APPROX_FREE
            traj, report = self.run_sl(mode)
            opening = len(traj.data) - 1
        n = self.plant.n
        keys = (
            [f"z{i}" for i in range(1, n + 1)] + [f"s{i}" for i in range(2, n + 1)]
            + [f"alpha{i}" for i in range(1, n)]
        )
        want = {key: max(abs(v) for v in traj.column(key)[:opening].tolist()) for key in keys}
        want["u"] = report.max_abs_control
        if case == "fuzzy":
            for i in range(1, n + 1):
                want[f"theta{i}"] = max(traj.column(f"theta_norm{i}")[:opening].tolist())
        assert all(v > 0.0 for v in want.values())
        assert list(report.signal_sup_norms.items()) == list(want.items())

    def test_record_every_above_the_step_count_gives_two_rows(self):
        traj, _ = self.run_sl(record_every=1000)
        assert traj.column("t").tolist() == [0.0, pytest.approx(0.05)]

    def test_recording_allocates_only_the_rows(self):
        # one float64 row per sample; a per-sample object in the record
        # (about 1.4 kB a sample before the record became columnar) fails
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj, _ = self.run_sl(t_end=0.1, record_every=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        samples, cols = traj.data.shape
        assert samples == 1001
        # the buffer over-allocates by up to 1/16 as it grows
        assert retained <= 8 * cols * samples * 17 / 16 + 32 * 1024

    @pytest.mark.parametrize("case", ["pass", "breach"])
    def test_min_funnel_margin_over_the_recorded_samples(self, case):
        traj, report = self.run_weak(record_every=10) if case == "breach" else self.run_sl(t_end=0.6)
        times = traj.column("t").tolist()
        margins = [
            eta - abs(math.atan(e))
            for e, eta in zip(traj.column("e").tolist(), traj.column("eta").tolist())
        ]
        i = min(range(len(margins)), key=margins.__getitem__)
        assert report.min_funnel_margin == margins[i]
        assert report.min_margin_time == times[i]
        assert 0.0 < report.min_funnel_margin < math.pi / 2

    def test_peak_control_time_is_the_step_start_of_the_peak(self):
        traj, report = self.run_sl(t_end=0.3, record_every=1, x0=(2.0, 1.0))
        u = [abs(v) for v in traj.column("u")[:-1].tolist()]
        i = max(range(len(u)), key=u.__getitem__)
        assert report.max_abs_control == u[i]
        assert report.peak_control_time == traj.column("t")[i]
        assert report.peak_control_time > 0.0

    def test_report_dict_carries_the_diagnostics(self):
        _, report = self.run_sl()
        d = report.as_dict()
        for key in ("min_funnel_margin", "min_margin_time", "peak_control_time"):
            assert d[key] == getattr(report, key)
            assert isinstance(d[key], float)


class TestStreamedRecord:
    """Given ``csv_file``, ``run()`` writes each block of rows as it fills
    and keeps none; its report and its CSV equal those of the kept rows,
    float for float and byte for byte, wherever the blocks end."""

    @staticmethod
    def kept_and_streamed(cfg, tmp_path):
        plant, reference, perf, sim_cfg = build_problem(cfg)
        kept, report = run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing)
        with open(tmp_path / "streamed.csv", "w", newline="") as fh:
            streamed, streamed_report = run(
                plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing, csv_file=fh)
        export_trajectory(kept, tmp_path / "kept.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()
        assert repr(streamed_report.as_dict()) == repr(report.as_dict())
        assert (streamed.names, streamed.breach) == (kept.names, kept.breach)
        assert streamed.data.shape == (0, len(kept.names))
        return kept, report

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("preset, dt, t_end", [
        (single_link_preset, 1e-4, 0.9),
        (electromechanical_preset, 1e-5, 0.082),
    ], ids=["sl", "em"])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    def test_kept_and_streamed_runs_agree(self, preset, dt, t_end, mode, record_every, tmp_path):
        cfg = replace(preset(mode=mode), dt=dt, t_end=t_end, record_every=record_every)
        kept, _ = self.kept_and_streamed(cfg, tmp_path)
        if record_every == 1:
            assert len(kept.data) > 2 * sim.RECORD_BLOCK

    @pytest.mark.parametrize("record_every", [1, 10])
    def test_the_weak_gain_breach_agrees(self, record_every, tmp_path):
        cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=0.6, record_every=record_every)
        kept, _ = self.kept_and_streamed(cfg, tmp_path)
        assert kept.breach is not None

    @pytest.mark.parametrize("case", ["breach", "closing"])
    def test_blocks_ending_at_the_last_row(self, case, tmp_path, monkeypatch):
        """Blocks of a few rows, ending at the breach row or at the closing
        row, or leaving it alone in the last block, give the rows and the
        report of one block."""
        if case == "breach":
            cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=0.6, record_every=10)
        else:
            cfg = replace(single_link_preset(), dt=1e-4, t_end=0.05, record_every=7)
        whole, report = self.kept_and_streamed(cfg, tmp_path)
        rows = len(whole.data)
        assert rows < sim.RECORD_BLOCK and (whole.breach is None) == (case == "closing")
        sizes = (1, 2, 3, rows - 1)
        assert {rows % size for size in sizes} >= {0, 1}
        for size in sizes:
            monkeypatch.setattr(sim, "RECORD_BLOCK", size)
            kept, blocked_report = self.kept_and_streamed(cfg, tmp_path)
            assert kept.data.tolist() == whole.data.tolist()
            assert repr(blocked_report.as_dict()) == repr(report.as_dict())

    def test_a_written_runs_memory_does_not_grow_with_its_horizon(self, tmp_path, monkeypatch, capsys):
        """``cli.run_experiment`` writes its rows block by block, so the
        traced peaks of runs of 101 and 401 rows agree within one block;
        kept rows grow the peak by 104 bytes a row, 31 kB here.  Each step
        of the compiled loop takes milliseconds under ``tracemalloc``, so
        the block is cut to 64 rows (6.6 kB) to keep the horizons short.
        Each peak is the lower of two runs: a table that the process grows
        once, such as the compiler's, can land in either run."""
        monkeypatch.setattr(sim, "RECORD_BLOCK", 64, raising=False)

        def peak(t_end):
            cfg = replace(single_link_preset(), dt=1e-4, t_end=t_end, record_every=1)
            tracemalloc.start()
            try:
                cli.run_experiment(cfg, out_dir=tmp_path / "run")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1e-3)  # builds what a process builds once
        short = min(peak(0.01), peak(0.01))
        long = min(peak(0.04), peak(0.04))
        assert len((tmp_path / "run" / "trajectory.csv").read_bytes().splitlines()) == 1 + 401
        assert abs(long - short) <= 64 * 13 * 8


def assert_no_child():
    """No child process is left, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriter:
    """A run given ``csv_file`` formats its rows in a writer process from
    its first full block on, and one that never fills a block formats them
    itself; no writer outlives its run, however the run ends."""

    @pytest.fixture(autouse=True)
    def spawns(self, monkeypatch):
        """The writers started, by their argv; no child before the case."""
        assert_no_child()
        started, spawn = [], os.posix_spawn

        def counted(path, argv, *args, **kwargs):
            started.append(argv)
            return spawn(path, argv, *args, **kwargs)

        monkeypatch.setattr(os, "posix_spawn", counted)
        return started

    @staticmethod
    def written(cfg, path):
        plant, reference, perf, sim_cfg = build_problem(cfg)
        with open(path, "w", newline="") as fh:
            return run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing, csv_file=fh)

    def test_a_run_of_three_blocks(self, spawns, tmp_path):
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.9, record_every=1)
        _, report = self.written(cfg, tmp_path / "run.csv")
        assert_no_child()
        assert len(spawns) == 1 and "funneldsc-csv-writer" in spawns[0]
        rows = len((tmp_path / "run.csv").read_bytes().splitlines()) - 1
        assert report.transient_ok and rows == 9001 > 2 * sim.RECORD_BLOCK

    def test_the_weak_gain_breach(self, spawns, tmp_path):
        cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=0.6, record_every=1)
        traj, _ = self.written(cfg, tmp_path / "run.csv")
        assert_no_child()
        rows = len((tmp_path / "run.csv").read_bytes().splitlines()) - 1
        assert traj.breach is not None and len(spawns) == 1
        assert sim.RECORD_BLOCK < rows < 2 * sim.RECORD_BLOCK

    def test_an_exception_in_fold_kills_the_writer(self, spawns, tmp_path, monkeypatch):
        fold = sim._Blocks.fold

        def failing(blocks, rows, opening):
            fold(blocks, rows, opening)
            raise RuntimeError("fold failed")

        monkeypatch.setattr(sim._Blocks, "fold", failing)
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.6, record_every=1)
        with pytest.raises(RuntimeError, match="fold failed"):
            self.written(cfg, tmp_path / "run.csv")
        assert_no_child()
        assert len(spawns) == 1

    def test_a_full_device_raises(self, tmp_path):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.6, record_every=1)
        with pytest.raises(OSError):
            self.written(cfg, "/dev/full")
        assert_no_child()

    def test_a_writer_that_fails_raises(self, spawns, tmp_path, monkeypatch):
        """A writer that exits non-zero, before or after it reads the
        rows, is an OSError naming the file."""
        monkeypatch.setattr(sim, "_WRITER", "import sys; sys.stdin.buffer.read(); raise SystemExit(3)")
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.6, record_every=1)
        with pytest.raises(OSError, match=r"run\.csv: the CSV writer exited with status 3"):
            self.written(cfg, tmp_path / "run.csv")
        assert_no_child()
        monkeypatch.setattr(sim, "_WRITER", "raise SystemExit(3)")
        with pytest.raises(OSError, match=r"run\.csv: the CSV writer exited with status 3"):
            self.written(cfg, tmp_path / "run.csv")
        assert_no_child()
        assert len(spawns) == 2

    def test_a_single_block_run_starts_no_process(self, tmp_path, monkeypatch):
        def no_spawn(*args, **kwargs):
            raise AssertionError("a single-block run started a process")

        monkeypatch.setattr(os, "posix_spawn", no_spawn)
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.4, record_every=1)
        self.written(cfg, tmp_path / "run.csv")
        plant, reference, perf, sim_cfg = build_problem(cfg)
        kept, _ = run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing)
        assert len(kept.data) == 4001 <= sim.RECORD_BLOCK
        export_trajectory(kept, tmp_path / "kept.csv")
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()

    @pytest.mark.parametrize("csv_file", [io.StringIO(), object()], ids=["StringIO", "object"])
    def test_csv_file_must_be_a_real_file(self, csv_file):
        cfg = replace(single_link_preset(), dt=1e-4, t_end=0.01)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        with pytest.raises(ValueError, match="^csv_file must be a file with a descriptor"):
            run(plant, reference, cfg.gains, perf, sim_cfg, csv_file=csv_file)
        if isinstance(csv_file, io.StringIO):
            assert csv_file.getvalue() == ""


class TestRecorder:
    """``run()`` records each sample from the opening kernel's own locals;
    every recorded value equals the indexed oracle's signal at the same
    step start, rebuilt through the standalone step (``oracle_run``)."""

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("preset, dt", [
        (single_link_preset, 1e-4),
        (electromechanical_preset, 1e-5),
    ], ids=["sl", "em"])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    def test_rows_equal_the_kernel_signals(self, preset, dt, mode, record_every):
        cfg = replace(preset(), mode=mode, dt=dt, t_end=200 * dt, record_every=record_every)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, _ = run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing)
        _, _, _, signals = oracle_run(plant, fresh_chain(cfg, plant, reference, perf), sim_cfg)
        n = plant.n
        assert len(traj.data) == len(signals) == -(-200 // record_every) + 1
        for values, (sig, inputs) in zip(traj.data.tolist(), signals):
            row = dict(zip(traj.names, values))
            assert row["t"] == inputs[0]
            assert (row["e"], row["y_r"], row["eta"], row["u"]) == (sig.e, inputs[1], sig.eta, sig.u)
            assert (row["arctan_e"], row["neg_eta"]) == (math.atan(sig.e), -sig.eta)
            assert [row[f"alpha{i}"] for i in range(1, n)] == sig.alpha
            assert [row[f"z{i}"] for i in range(1, n + 1)] == sig.z


class TestOneLoop:
    """``run()`` is one generated loop with the kernel inlined at every RK
    stage; its rows, breach time and report equal, float for float, the
    loop rebuilt from the plain ``sim.step`` and the indexed oracle."""

    BLOCK = 6  # 30 steps read 11 blocks; every third step reads a row of an overlap

    @pytest.mark.parametrize("varpi", [2.0, 1500.0])
    @pytest.mark.parametrize("record_every", [1, 7, 50])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    @pytest.mark.parametrize("smoothing", [0.0, 0.05])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "explicit"])
    def test_distinct_chains_equal_the_oracle_loop(self, n, mode, smoothing, exact, record_every, varpi, monkeypatch):
        """At varpi = 1500 the factors 1 - varpi*dt/2 of the weights'
        closed form are negative, and the run breaches at an RK stage."""
        monkeypatch.setattr(sim, "BASIS_BLOCK", self.BLOCK)
        plant, chain = distinct_problem(n, mode, smoothing, varpi)
        # dt within the explicit stepper's limit lam_min / 5 = 4e-3
        cfg = SimConfig(
            dt=2e-3, t_end=0.06, x0=[math.sin(0.0) + 0.8, 0.3, -0.2, 0.1][:n], mode=mode,
            record_every=record_every, exact_filter=exact,
        )
        c2 = sim._step_constants(chain._mu, chain._varpi, chain._lam, cfg.dt)[0]
        assert all((k0 < 0.0) == (varpi > 100.0) for k0, _ in c2)
        breach = self.assert_equal_to_the_oracle(plant, chain, cfg)
        assert (breach is not None) == (varpi > 100.0)

    @pytest.mark.parametrize("record_every", [1, 10])
    def test_the_weak_gain_breach_equals_the_oracle_loop(self, record_every):
        cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=0.6, record_every=record_every)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        breach = self.assert_equal_to_the_oracle(plant, fresh_chain(cfg, plant, reference, perf), sim_cfg)
        assert breach is not None

    @staticmethod
    def assert_equal_to_the_oracle(plant, chain, cfg):
        traj, report = run(
            plant, chain.reference, chain.gains, chain.transform.perf, cfg, sign_smoothing=chain.sign_smoothing)
        rows, breach, want, _ = oracle_run(plant, chain, cfg)
        assert traj.data.tolist() == rows
        assert traj.breach == breach
        assert report == want
        assert list(report.signal_sup_norms) == list(want.signal_sup_norms)
        return breach


class TestBreachHandling:
    def test_weak_gains_report_a_breach(self):
        cfg = weak_gain_single_link()
        plant, reference = make_single_link(), single_link_reference()
        perf = PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
        sim_cfg = SimConfig(
            dt=1e-4, t_end=3.0, x0=cfg.x0, mode=cfg.mode, record_every=100,
        )
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
        assert traj.breach is not None
        assert not report.transient_ok
        assert not report.steady_ok
        # the record stops before the breach
        assert traj.column("t").max() < traj.breach

    @pytest.mark.parametrize("mode, breach", [(ControlMode.APPROX_FREE, 4.8e-4), (ControlMode.FUZZY, 4.5e-4)])
    def test_a_start_1e3_off_the_reference_breaches(self, mode, breach):
        """The funnel starts at pi/2 whatever x0 is, but the single-link
        preset does not hold an initial error of 1e3 in it: at its dt of
        1e-5 it breaches within half a millisecond in both modes."""
        cfg = replace(single_link_preset(mode=mode), x0=(math.pi + 1e3, 0.0), t_end=2e-3)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        assert reference.value(0.0) == math.pi
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg)
        assert not report.transient_ok
        assert traj.breach == pytest.approx(breach, abs=1e-9)
        assert traj.column("e")[0] == 1e3

    @pytest.mark.parametrize("e0", [1e16, -1e16, 1e17, 1e300])
    def test_a_start_whose_arctan_rounds_to_eta0_is_an_input_error(self, e0):
        plant, reference, gains, perf = sl_problem()
        assert perf.eta(0.0) == math.pi / 2
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(math.pi + e0, 0.0), mode=ControlMode.APPROX_FREE)
        with pytest.raises(ValueError, match=r"^x0 starts outside the funnel: arctan of the error e\(0\) = "):
            run(plant, reference, gains, perf, cfg)

    def test_the_x0_error_names_e0_and_eta0_after_the_dt_and_csv_file_checks(self):
        """The kernel's check at t = 0 gives the text that run()'s own
        check once did, e(0) and eta(0) from the reference and envelope;
        a dt above the explicit filter's limit and a csv_file without a
        descriptor are reported first."""
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(math.pi + 1e17, 0.0), mode=ControlMode.APPROX_FREE)
        e0, eta0 = cfg.x0[0] - reference.value(0.0), perf.envelope(0.0)[0]
        with pytest.raises(ValueError) as err:
            run(plant, reference, gains, perf, cfg)
        assert str(err.value) == f"x0 starts outside the funnel: arctan of the error e(0) = {e0!r} rounds to eta(0) = {eta0!r}"
        with pytest.raises(ValueError, match="^explicit stepping needs dt"):
            run(plant, reference, gains, perf, replace(cfg, dt=1e-3, exact_filter=False))
        with pytest.raises(ValueError, match="^csv_file must be a file with a descriptor"):
            run(plant, reference, gains, perf, cfg, csv_file=io.StringIO())

    @pytest.mark.parametrize("e0", [5e15, -5e15])
    def test_every_other_start_records_its_t0_sample(self, e0):
        """Below the limit the run starts, records t = 0 and breaches at
        its first step, with the margin of that sample reported."""
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(math.pi + e0, 0.0), mode=ControlMode.APPROX_FREE)
        traj, report = run(plant, reference, gains, perf, cfg)
        assert traj.breach is not None and not report.transient_ok
        assert traj.data[:, 0].tolist() == [0.0]
        assert report.min_margin_time == 0.0
        assert 0.0 < report.min_funnel_margin <= 2.0 * math.ulp(math.pi / 2)


class TestSteadyVerdict:
    """The steady verdict is the transient one and the streamed max|e|
    after T below tan(c); the kept rows give the same verdict sample by
    sample."""

    @pytest.mark.parametrize("preset, dt, t_end", [
        (electromechanical_preset, 2e-5, 0.52),
        (single_link_preset, 5e-5, 0.6),
        (single_link_preset, 5e-5, 0.3),  # ends before T: no sample after it
    ], ids=["em", "sl", "sl-before-T"])
    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    def test_a_run_reads_its_verdict_from_the_maximum_after_T(self, preset, dt, t_end, mode):
        cfg = replace(preset(mode=mode), dt=dt, t_end=t_end, record_every=1)
        traj, report = self.verdict(cfg)
        assert report.transient_ok and report.steady_ok
        after = np.abs(traj.column("e")[traj.column("t") >= cfg.perf_T])
        assert report.max_abs_error_after_T == (after.max() if t_end > cfg.perf_T else 0.0)
        assert bool(np.all(after < math.tan(cfg.perf_c)))

    def test_the_weak_gain_breach_fails_it(self):
        cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=0.6, record_every=1)
        traj, report = self.verdict(cfg)
        assert traj.breach is not None and not report.transient_ok and not report.steady_ok
        assert report.max_abs_error_after_T > 0.0

    @staticmethod
    def verdict(cfg):
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, report = run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=cfg.sign_smoothing)
        assert report.steady_ok == (report.transient_ok and report.max_abs_error_after_T < math.tan(cfg.perf_c))
        return traj, report


class TestDivergenceHandling:
    def test_finite_time_blowup_raises(self):
        def quint(v):
            a = v * v * v * v * v
            return (2.0 * a) - a - a + a  # nan once the power overflows

        plant = StrictFeedbackPlant(
            n=2,
            rhs_text="dx1 = 1e-300 * x2\ndx2 = quint(x2) + u\n",
            names={"quint": quint},
            gain_lower=(1e-300, 0.5),
            gain_upper=(1e-300, 10.0),
            lipschitz_rate=(1.0, 1.0),
        )
        _, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-4, t_end=0.1, x0=(math.pi, 1e70), mode=ControlMode.APPROX_FREE,
        )
        with pytest.raises(SimulationDivergenceError):
            run(plant, reference, gains, perf, cfg)

    def test_overflow_in_a_step_is_divergence(self):
        plant, reference, gains, perf = sl_problem()

        def overflowing(t):
            if t > 4.7e-4:  # the t+dt stage of step 4
                raise OverflowError("(34, 'Numerical result out of range')")

        plant = replace(plant, rhs_text="overflow(t)\n" + plant.rhs_text, names={**plant.names, "overflow": overflowing})
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(3.3, 0.0), mode=ControlMode.APPROX_FREE)
        with pytest.raises(SimulationDivergenceError) as err:
            run(plant, reference, gains, perf, cfg)
        assert err.value.t == pytest.approx(4e-4)
        assert isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("mode", [ControlMode.FUZZY, ControlMode.APPROX_FREE], ids=lambda m: m.value)
    def test_overflow_of_the_stage_one_square_is_divergence(self, mode):
        """A reference slope of 1e160 from t = 3e-4 makes w * beta1 overflow
        at its ``** 2`` in the kernel, first at the end stage of the step
        from 2e-4: the traceback shows the kernel's line as the run's loop
        inlines it at RK stage 4, with stage 1's constants as the literals
        the loop was compiled with."""
        plant, reference, gains, perf = sl_problem()
        steep = replace(reference, derivative_text=f"1e160 if t >= 3e-4 else {reference.derivative_text}")
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(3.3, 0.0), mode=mode)
        with pytest.raises(SimulationDivergenceError) as err:
            run(plant, steep, gains, perf, cfg)
        assert err.value.t == pytest.approx(2e-4)
        cause = err.value.__cause__
        assert isinstance(cause, OverflowError)
        frame = traceback.extract_tb(cause.__traceback__)[-1]
        assert frame.name == "run_loop" and frame.filename.endswith(f"sim.py<run n=2 {mode.value} sign exact>")
        lo1, delta2_1 = plant.bounds().gain_lower[0], gains[0].delta ** 2
        assert frame.line == f"-wb__4 * beta1__4 / ({lo1!r} * sqrt(wb__4 ** 2 + {delta2_1!r}))"

    def test_overflow_at_the_start_is_divergence(self):
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(dt=1e-4, t_end=0.01, x0=(3.14159, 1e160), mode=ControlMode.APPROX_FREE)
        with pytest.raises(SimulationDivergenceError, match="diverged at t=0$") as err:
            run(plant, reference, gains, perf, cfg)
        assert err.value.t == 0.0


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_end=1.0, x0=(0.0, 0.0))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=0.0, x0=(0.0, 0.0))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), record_every=0)
        # a non-finite start is an input error, not a breach or divergence
        # an int beyond the floats, which float() cannot convert
        for x0 in [(math.inf, 0.0), (math.nan, 0.0), (3.14, math.nan), (3.14, -math.inf),
                   (10**400, 0.0), (3.14, -10**400)]:
            with pytest.raises(ValueError, match="x0 must be finite"):
                SimConfig(dt=1e-3, t_end=1.0, x0=x0)

    @pytest.mark.parametrize("name", ["dt", "t_end"])
    # an int beyond the floats, on which math.isfinite overflows
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400")])
    def test_reports_a_non_finite_step_or_horizon_as_such(self, name, value):
        settings = {"dt": 1e-3, "t_end": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            SimConfig(x0=(0.0, 0.0), **settings)

    @pytest.mark.parametrize("name, value", [
        ("mode", "fuzzy"), ("mode", None), ("exact_filter", "no"), ("exact_filter", 1), ("exact_filter", None),
    ])
    def test_rejects_a_mode_or_filter_flag_of_another_type_naming_it(self, name, value):
        """``mode="fuzzy"`` compiled the approximator-free kernel and then
        failed with an AttributeError, and ``exact_filter="no"`` ran the
        exact filter."""
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), **{name: value})

    def test_rejects_a_non_numeric_x0_naming_it(self):
        """``x0="12"`` ran from (1.0, 2.0), and ``("3.5", "0")`` and
        ``(True, 0)`` were taken as numbers."""
        for x0 in [("a", "b"), "12", b"12", ("3.5", "0"), (True, 0), (0.0, False)]:
            with pytest.raises(ValueError, match="^x0 must be a sequence of numbers"):
                SimConfig(dt=1e-3, t_end=1.0, x0=x0)

    def test_rejects_silent_rounding(self):
        with pytest.raises(ValueError, match="record_every"):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), record_every=2.7)
        with pytest.raises(ValueError, match="^record_every must be a positive integer, got True"):
            SimConfig(dt=1e-3, t_end=1.0, x0=(0.0, 0.0), record_every=True)
        # dt=True ran with dt = 1, and dt="0.1" raised a bare TypeError
        for name, value in [("dt", True), ("dt", "0.1"), ("t_end", True), ("t_end", "1.0")]:
            settings = {"dt": 1e-3, "t_end": 1.0, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
                SimConfig(x0=(0.0, 0.0), **settings)
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=1e-3, t_end=0.01234, x0=(0.0, 0.0))
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=1e-3, t_end=4e-4, x0=(0.0, 0.0))

    def test_step_count_tolerates_decimal_rounding(self):
        assert step_count(0.6, 1e-5) == 60_000
        assert step_count(3.0, 1e-5) == 300_000
        assert step_count(0.6, 1e-4) == 6_000

    @pytest.mark.parametrize("t_end, dt", [(math.inf, 1e-3), (1e300, 1e-300), (math.nan, 1e-3)])
    def test_step_count_rejects_a_non_finite_ratio(self, t_end, dt):
        with pytest.raises(ValueError, match="finite"):
            step_count(t_end, dt)
        with pytest.raises(ValueError):
            SimConfig(dt=dt, t_end=t_end, x0=(0.0, 0.0))


class TestWarnings:
    """Compiling and running each of the 16 generated loops warns nothing.
    A SyntaxWarning from generated code does not fail a pytest run by
    itself, so each run turns warnings into errors."""

    @pytest.mark.parametrize("smoothing", [0.0, 0.05], ids=["sign", "tanh"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "explicit"])
    @pytest.mark.parametrize("mode", list(ControlMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("preset", [electromechanical_preset, single_link_preset], ids=["em", "sl"])
    def test_a_short_run_with_warnings_as_errors(self, preset, mode, exact, smoothing):
        cfg = replace(preset(mode=mode), exact_filter=exact, sign_smoothing=smoothing, dt=1e-6, t_end=1e-5)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, report = run(plant, reference, cfg.gains, perf, sim_cfg, sign_smoothing=smoothing)
        assert report.transient_ok and len(traj.data) == 2


class TestExport:
    def test_csv_layout(self, tmp_path):
        plant, reference, gains, perf = sl_problem()
        cfg = SimConfig(
            dt=1e-4, t_end=0.02, x0=(3.3, 0.0),
            mode=ControlMode.APPROX_FREE, record_every=20,
        )
        traj, _ = run(plant, reference, gains, perf, cfg)
        out = tmp_path / "traj.csv"
        export_trajectory(traj, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:4] == ["t", "x1", "x2", "y_r"]
        assert "eta" in header and "neg_eta" in header and "u" in header
        assert "s2" in header and "alpha1" in header
        # approximator-free runs carry no weight-norm columns
        assert not any(h.startswith("theta_norm") for h in header)
        assert len(rows) - 1 == len(traj.data)
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
        export_trajectory(traj, out)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[-2:] == ["theta_norm1", "theta_norm2"]

    @staticmethod
    def assert_bytes_of_csv_writer(traj, tmp_path):
        """``export_trajectory`` writes the bytes of ``csv.writer``'s default
        (excel) dialect over the exported columns."""
        width = traj.names.index("z1")
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(traj.names[:width])
            writer.writerows(traj.data[:, :width].tolist())
        got = tmp_path / "got.csv"
        export_trajectory(traj, got)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("preset, mode, dt, t_end", [
        # 6001 rows: more than one 4096-row block
        (single_link_preset, ControlMode.APPROX_FREE, 1e-4, 0.6),
        (electromechanical_preset, ControlMode.FUZZY, 1e-5, 0.01),
    ], ids=["sl-approx-free", "em-fuzzy"])
    def test_bytes_equal_csv_writer_on_runs(self, preset, mode, dt, t_end, tmp_path):
        cfg = replace(preset(), mode=mode, dt=dt, t_end=t_end, record_every=1)
        plant, reference, perf, sim_cfg = build_problem(cfg)
        traj, _ = run(plant, reference, cfg.gains, perf, sim_cfg)
        self.assert_bytes_of_csv_writer(traj, tmp_path)

    def test_bytes_equal_csv_writer_on_edge_floats(self, tmp_path):
        values = [-0.0, 5e-324, 1e-05, 9.999e-05, 1e16, -1e300, 0.1]
        rows = [values, values[::-1], [-v for v in values]]
        names = tuple(f"c{i}" for i in range(len(values))) + ("z1",)
        traj = sim.Trajectory(names, np.array([[*row, 0.0] for row in rows]))
        self.assert_bytes_of_csv_writer(traj, tmp_path)
        text = (tmp_path / "got.csv").read_bytes().decode()
        assert text.splitlines()[1] == "-0.0,5e-324,1e-05,9.999e-05,1e+16,-1e+300,0.1"
