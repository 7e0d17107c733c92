import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from funneldsc import cli, sim
from funneldsc.config import (
    KEYS,
    ConfigError,
    PRESETS,
    electromechanical_preset,
    load_config,
    parse_config,
    serialize_config,
    single_link_preset,
    weak_gain_single_link,
)
from funneldsc.controller import ControlMode
from funneldsc.perf import PerfFunction
from funneldsc.plants import PLANTS
from funneldsc.sim import SimConfig


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"electromechanical", "single-link"}

    def test_electromechanical_preset_shape(self):
        cfg = electromechanical_preset()
        assert cfg.plant == "electromechanical"
        assert cfg.mode is ControlMode.FUZZY
        assert len(cfg.gains) == 3
        assert cfg.x0 == (5.0, 3.0, 2.0)
        assert (cfg.perf_b, cfg.perf_c, cfg.perf_h, cfg.perf_T) == (0.1, 0.05, 1.0, 0.5)
        assert cfg.gains[1].lam == 1e-5
        assert cfg.gains[2].varpi == 5e3

    def test_single_link_preset_shape(self):
        cfg = single_link_preset()
        assert cfg.plant == "single-link"
        assert cfg.mode is ControlMode.APPROX_FREE
        assert len(cfg.gains) == 2
        assert cfg.x0 == (0.0, 0.0)
        assert cfg.perf_b == 0.9
        assert cfg.gains[1].lam == 1e-3

    def test_weak_gain_variant_is_marked_custom(self):
        cfg = weak_gain_single_link()
        assert cfg.preset == "custom"
        assert cfg.gains[0].delta < 1.0


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [electromechanical_preset(), single_link_preset(), weak_gain_single_link()],
    )
    def test_serialize_parse_identity(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_overrides(self):
        cfg = replace(
            single_link_preset(),
            dt=2e-4,
            sign_smoothing=0.01,
            exact_filter=False,
            out="results",
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_every_key_off_its_default(self):
        """Each key of the table, set to a value other than its default
        (the only transform kind aside), is written once and read back."""
        cfg = replace(
            single_link_preset(),
            mode=ControlMode.APPROX_FREE,
            dt=2e-4,
            exact_filter=False,
            sign_smoothing=0.25,
            record_every=3,
            out="results/run 1",
            x0=(0.1, -2.5e-7),
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        for row in KEYS:
            assert keys.count(row.key) == 1, row.key

    @pytest.mark.parametrize("field", ["preset", "out"])
    @pytest.mark.parametrize("value", ["res#1", "a\nsim.dt = 1", "a\rb", " res", "res\t"])
    def test_rejects_values_that_cannot_round_trip(self, field, value):
        """A '#', a line break or surrounding whitespace would not read back
        from the written line; the error names the key."""
        with pytest.raises(ConfigError, match=f"^{field} must be one line"):
            replace(single_link_preset(), **{field: value})

    def test_load_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(single_link_preset()))
        assert load_config(path) == single_link_preset()


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = serialize_config(single_link_preset())
        noisy = "# experiment file\n\n" + text.replace(
            "perf.b = 0.9", "perf.b = 0.9   # envelope decay"
        )
        assert parse_config(noisy) == single_link_preset()

    def test_missing_required_key(self):
        text = serialize_config(single_link_preset()).replace("perf.b = 0.9\n", "")
        with pytest.raises(ConfigError, match="perf.b"):
            parse_config(text)

    def test_custom_without_plant(self):
        with pytest.raises(ConfigError, match="plant"):
            parse_config("preset = custom\n")

    def test_bad_mode(self):
        text = serialize_config(single_link_preset()).replace(
            "mode = approx-free", "mode = magic"
        )
        with pytest.raises(ConfigError, match="mode"):
            parse_config(text)

    def test_bad_number(self):
        text = serialize_config(single_link_preset()).replace(
            "perf.b = 0.9", "perf.b = fast"
        )
        with pytest.raises(ConfigError, match="number"):
            parse_config(text)

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_bad_x0(self):
        text = serialize_config(single_link_preset()).replace(
            "init.x0 = 0.0, 0.0", "init.x0 = a, b"
        )
        with pytest.raises(ConfigError, match="init.x0"):
            parse_config(text)

    def test_bad_exact_filter(self):
        text = serialize_config(single_link_preset()).replace(
            "sim.exact_filter = true", "sim.exact_filter = maybe"
        )
        with pytest.raises(ConfigError, match="exact_filter"):
            parse_config(text)

    def test_invalid_stage_gain_rejected(self):
        text = serialize_config(single_link_preset()).replace(
            "stage2.varrho = 10.0", "stage2.varrho = 0.5"
        )
        with pytest.raises(ConfigError, match="stage2"):
            parse_config(text)


    @pytest.mark.parametrize("line", [
        "sim.record_evry = 1", "sign_smothing = 0.1", "stage3.delta = 1.0", "stage1.rho = 1.0",
    ])
    def test_unknown_key(self, line):
        text = serialize_config(single_link_preset()) + line + "\n"
        with pytest.raises(ConfigError, match=f"unknown key '{line.split(' ')[0]}'"):
            parse_config(text)

    def test_repeated_key(self):
        text = serialize_config(single_link_preset())
        first = text.splitlines().index("perf.h = 1.0") + 1
        last = len(text.splitlines()) + 1
        with pytest.raises(ConfigError, match=f"'perf.h' is given twice, on lines {first} and {last}"):
            parse_config(text + "perf.h = 2.0\n")


class TestValidation:
    @pytest.mark.parametrize("field, key", [
        ("perf_b", "perf.b"), ("perf_c", "perf.c"), ("perf_h", "perf.h"), ("perf_T", "perf.T"),
        ("dt", "sim.dt"), ("t_end", "sim.t_end"), ("sign_smoothing", "sign_smoothing"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_numbers(self, field, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            replace(single_link_preset(), **{field: value})

    # an int beyond the floats, which float() cannot convert
    @pytest.mark.parametrize("x0", [(math.inf, 0.0), (0.0, math.nan), (10**400, 0.0)])
    def test_rejects_non_finite_x0(self, x0):
        with pytest.raises(ConfigError, match="init.x0 must be finite"):
            replace(single_link_preset(), x0=x0)

    @pytest.mark.parametrize("field, value, message", [
        ("x0", ("a", "b"), "init.x0 must be a sequence of numbers"),
        # each was once accepted, as the SimConfig tuple (1.0, 2.0), (1.0, 0.0) and (3.5, 0.0)
        ("x0", "12", "init.x0 must be a sequence of numbers, got '12'"),
        ("x0", (True, 0.0), "init.x0 must be a sequence of numbers, got (True, 0.0)"),
        ("x0", ("3.5", "0"), "init.x0 must be a sequence of numbers, got ('3.5', '0')"),
        ("dt", -1e-4, "sim.dt must be strictly positive, got -0.0001"),
        ("t_end", 0.0, "sim.t_end must be strictly positive, got 0.0"),
        ("record_every", 0, "sim.record_every must be a positive integer, got 0"),
        ("record_every", 10.0, "sim.record_every must be a positive integer, got 10.0"),
        ("perf_b", -0.9, "perf.b=-0.9 must be strictly positive"),
        ("perf_c", 0.0, "perf.c=0.0 must be strictly positive"),
        ("perf_h", -1.0, "perf.h=-1.0 must be strictly positive"),
        ("perf_T", 0.0, "perf.T=0.0 must be strictly positive"),
    ])
    def test_run_objects_check_the_values_and_the_error_names_the_key(self, field, value, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            replace(single_link_preset(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("record_every", True), ("dt", True), ("t_end", True), ("sign_smoothing", True), ("perf_b", True),
        ("exact_filter", 1), ("exact_filter", "no"), ("exact_filter", 0.0), ("mode", "fuzzy"), ("out", 5),
        ("dt", "1e-4"), ("perf_T", 1),
    ])
    def test_rejects_a_value_its_config_line_would_not_read_back(self, field, value):
        """Each of these was accepted, but its saved ``config.txt`` line
        did not parse (``sim.record_every = True``) or read back as
        another value (``exact_filter = 'no'`` ran the exact filter)."""
        key = {row.field: row.key for row in KEYS}[field]
        with pytest.raises(ConfigError, match="^" + re.escape(key)):
            replace(single_link_preset(), **{field: value})

    @pytest.mark.parametrize("stage, name, value", [(1, "delta", True), (2, "lam", True), (2, "rho", None)])
    def test_rejects_a_stage_gain_its_config_line_would_not_read_back(self, stage, name, value):
        cfg = single_link_preset()
        gains = list(cfg.gains)
        gains[stage - 1] = replace(gains[stage - 1], **{name: value})
        with pytest.raises(ConfigError, match=rf"^stage{stage}\.{name} = {value} would not read back"):
            replace(cfg, gains=tuple(gains))

    def test_rejects_negative_sign_smoothing(self):
        with pytest.raises(ConfigError, match="sign_smoothing must be nonnegative"):
            replace(single_link_preset(), sign_smoothing=-1.0)

    def test_build_problem_returns_the_run_objects_the_config_checked(self):
        """The PerfFunction and SimConfig a config builds to check itself
        are its ``perf`` and ``sim``, which ``build_problem`` returns, and
        ``replace`` builds them anew; they take no part in equality,
        hashing or repr."""
        cfg = single_link_preset()
        _, _, perf, sim_cfg = cli.build_problem(cfg)
        assert perf is cfg.perf and sim_cfg is cfg.sim
        assert perf == PerfFunction(b=cfg.perf_b, c=cfg.perf_c, h=cfg.perf_h, T=cfg.perf_T)
        assert sim_cfg == SimConfig(dt=cfg.dt, t_end=cfg.t_end, x0=cfg.x0, mode=cfg.mode,
                                    record_every=cfg.record_every, exact_filter=cfg.exact_filter)
        changed = replace(cfg, perf_c=0.04, dt=2e-5, x0=(3, 0.5), mode=ControlMode.FUZZY, record_every=1)
        assert changed.perf == PerfFunction(b=0.9, c=0.04, h=1.0, T=0.5)
        assert changed.sim == SimConfig(dt=2e-5, t_end=3.0, x0=(3.0, 0.5), mode=ControlMode.FUZZY, record_every=1)
        _, _, perf, sim_cfg = cli.build_problem(changed)
        assert perf is changed.perf and sim_cfg is changed.sim
        assert replace(cfg) == cfg and hash(replace(cfg)) == hash(cfg) and "perf=" not in repr(cfg)

    def test_wrong_gain_count(self):
        cfg = single_link_preset()
        with pytest.raises(ConfigError, match="stage-gain"):
            replace(cfg, gains=cfg.gains[:1])

    def test_wrong_x0_length(self):
        with pytest.raises(ConfigError, match="x0"):
            replace(single_link_preset(), x0=(0.0, 0.0, 0.0))

    def test_bad_terminal_accuracy(self):
        with pytest.raises(ConfigError, match="perf.c"):
            replace(single_link_preset(), perf_c=2.0)

    def test_unknown_plant(self):
        with pytest.raises(ConfigError, match="plant") as info:
            replace(single_link_preset(), plant="pendulum")
        assert "electromechanical" in str(info.value) and "single-link" in str(info.value)

    def test_the_order_is_read_without_building_a_plant(self, monkeypatch):
        """Every config reads its plant's order; it builds no plant."""
        def unbuilt():
            raise AssertionError("a plant or reference was built")

        for name, entry in list(PLANTS.items()):
            monkeypatch.setitem(PLANTS, name, entry._replace(plant=unbuilt, reference=unbuilt))
        for preset in (electromechanical_preset, single_link_preset):
            assert parse_config(serialize_config(preset())) == preset()

    def test_unknown_plant_in_file(self):
        text = serialize_config(single_link_preset()).replace(
            "plant = single-link", "plant = nope"
        )
        with pytest.raises(ConfigError, match="single-link"):
            parse_config(text)

    def test_non_integer_record_every_in_file(self):
        text = serialize_config(single_link_preset()).replace(
            "sim.record_every = 10", "sim.record_every = 2.7"
        )
        with pytest.raises(ConfigError, match="record_every"):
            parse_config(text)

    def test_t_end_off_the_step_grid_in_file(self):
        text = serialize_config(replace(single_link_preset(), dt=1e-3)).replace(
            "sim.t_end = 3.0", "sim.t_end = 0.01234"
        )
        with pytest.raises(ConfigError, match="multiple"):
            parse_config(text)

    def test_explicit_filter_step_above_the_filter_limit(self):
        # fastest single-link filter: lam = 1e-3, so explicit RK4 needs dt <= 2e-4
        cfg = replace(single_link_preset(), dt=2e-4, t_end=0.01, exact_filter=False)
        with pytest.raises(ConfigError, match="explicit"):
            replace(cfg, dt=1e-3)
        replace(cfg, dt=1e-3, exact_filter=True)

    @pytest.mark.parametrize("cfg", [electromechanical_preset(), single_link_preset()])
    def test_presets_are_whole_multiples_of_dt(self, cfg):
        for t_end in (cfg.t_end, 0.6, 0.02, 0.005):
            replace(cfg, t_end=t_end)


def short_single_link(**overrides):
    cfg = replace(single_link_preset(), dt=1e-4, t_end=0.05, record_every=10)
    return replace(cfg, **overrides) if overrides else cfg


class TestCli:
    def test_exit_zero_and_artifacts_on_passing_run(self, tmp_path):
        cfg = short_single_link()
        status = cli.run_experiment(cfg, out_dir=tmp_path)
        assert status == cli.EXIT_OK
        assert (tmp_path / "config.txt").exists()
        assert (tmp_path / "trajectory.csv").exists()
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["transient_ok"] is True
        assert report["breach_time"] is None
        assert "PASS" in (tmp_path / "verification.txt").read_text()

    def test_artifacts_report_funnel_margin_and_peak_control_time(self, tmp_path):
        cli.run_experiment(short_single_link(), out_dir=tmp_path)
        report = json.loads((tmp_path / "verification.json").read_text())
        text = (tmp_path / "verification.txt").read_text()
        for key, label in (
            ("peak_control_time", "peak |u| at t"),
            ("min_funnel_margin", "min funnel margin"),
            ("min_margin_time", "min margin at t"),
        ):
            assert isinstance(report[key], float)
            assert label in text and f"{report[key]:.6g}" in text

    def test_exit_one_on_funnel_breach(self, tmp_path):
        cfg = replace(weak_gain_single_link(), dt=1e-4, t_end=3.0, record_every=100)
        status = cli.run_experiment(cfg, out_dir=tmp_path)
        assert status == cli.EXIT_BOUND_VIOLATED
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["breach_time"] is not None
        assert "FAIL" in (tmp_path / "verification.txt").read_text()

    def test_main_with_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(short_single_link()))
        out = tmp_path / "out"
        status = cli.main(
            ["--config", str(path), "--t-end", "0.03", "--out", str(out)]
        )
        assert status == cli.EXIT_OK
        saved = (out / "config.txt").read_text()
        assert "sim.t_end = 0.03" in saved

    def test_main_with_preset_and_x0_override(self, tmp_path):
        out = tmp_path / "out"
        status = cli.main(
            [
                "--preset", "single-link",
                "--dt", "1e-4", "--t-end", "0.05",
                "--x0", "0.1,0.0",
                "--out", str(out),
            ]
        )
        assert status == cli.EXIT_OK
        assert "init.x0 = 0.1, 0.0" in (out / "config.txt").read_text()

    def test_main_requires_an_input(self, capsys):
        assert cli.main([]) == cli.EXIT_ERROR
        assert "required" in capsys.readouterr().err

    def test_main_reports_config_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("preset = custom\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--t-end", "0.01234", "--dt", "1e-3"], ["--dt", "7e-4"]]
    )
    def test_main_rejects_t_end_off_the_step_grid(self, tmp_path, capsys, flags):
        status = cli.main(["--preset", "single-link", *flags, "--out", str(tmp_path)])
        assert status == cli.EXIT_ERROR
        assert "multiple" in capsys.readouterr().err
        assert not (tmp_path / "verification.json").exists()

    def test_main_rejects_non_integer_record_every(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(
            serialize_config(short_single_link()).replace(
                "sim.record_every = 10", "sim.record_every = 2.7"
            )
        )
        assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_ERROR
        assert "record_every" in capsys.readouterr().err

    def test_main_rejects_explicit_filter_step_above_the_limit(self, tmp_path, capsys):
        ok = short_single_link(t_end=0.01, exact_filter=False)
        text = serialize_config(ok)
        stiff = tmp_path / "stiff.cfg"
        stiff.write_text(text.replace("sim.dt = 0.0001", "sim.dt = 0.001"))
        assert stiff.read_text() != text
        loose = tmp_path / "loose.cfg"
        loose.write_text(text)
        for argv in (["--config", str(stiff)], ["--config", str(loose), "--dt", "1e-3"]):
            assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "explicit" in err[0]
        assert not (tmp_path / "out" / "verification.json").exists()
        status = cli.main(["--sweep", str(stiff), "--out", str(tmp_path / "sweep")])
        assert status == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert f"{stiff}: exit 2" in captured.out.splitlines()
        assert "explicit" in captured.err

    def test_sweep_reports_config_errors_and_runs_the_rest(self, tmp_path, capfd):
        good = tmp_path / "good.cfg"
        good.write_text(serialize_config(short_single_link()))
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            serialize_config(short_single_link()).replace("plant = single-link", "plant = nope")
        )
        breach = tmp_path / "breach.cfg"
        breach.write_text(
            serialize_config(replace(weak_gain_single_link(), dt=1e-4, record_every=100))
        )
        out_root = tmp_path / "sweep"
        status = cli.main(["--sweep", str(good), str(bad), str(breach), "--out", str(out_root)])
        assert status == cli.EXIT_ERROR  # 2 outranks the breach's 1
        captured = capfd.readouterr()
        assert f"{bad}: exit 2" in captured.out.splitlines()
        assert f"{good}: exit 0" in captured.out.splitlines()
        assert f"{breach}: exit 1" in captured.out.splitlines()
        assert "nope" in captured.err
        assert (out_root / "good" / "verification.json").exists()
        assert (out_root / "breach" / "verification.json").exists()
        assert not (out_root / "bad").exists()

    def check_rejected(self, tmp_path, capfd, word, edit=None, flags=None):
        """A bad file through --config and --sweep (beside a good file) and
        bad flags each exit 2 with one ``error:`` line naming ``word``."""
        text = serialize_config(short_single_link())
        runs = []
        if edit is not None:
            assert edit[0] in text
            bad = tmp_path / "bad.cfg"
            bad.write_text(text.replace(*edit) if edit[0] else text + edit[1])
            runs.append(["--config", str(bad)])
        if flags is not None:
            runs.append(["--preset", "single-link", "--dt", "1e-4", "--t-end", "0.05", *flags])
        for argv in runs:
            assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
        assert not (tmp_path / "out" / "verification.json").exists()
        if edit is not None:
            good = tmp_path / "good.cfg"
            good.write_text(text)
            status = cli.main(["--sweep", str(good), str(bad), "--out", str(tmp_path / "sweep")])
            assert status == cli.EXIT_ERROR
            captured = capfd.readouterr()
            assert f"{good}: exit 0" in captured.out.splitlines()
            assert f"{bad}: exit 2" in captured.out.splitlines()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}:") and word in err[0]

    @pytest.mark.parametrize("word, edit, flags", [
        ("sim.t_end", ("sim.t_end = 0.05", "sim.t_end = inf"), ["--t-end", "inf"]),
        ("sim.dt", ("sim.dt = 0.0001", "sim.dt = nan"), ["--dt", "nan"]),
        ("init.x0", ("init.x0 = 0.0, 0.0", "init.x0 = inf, 0.0"), ["--x0", "inf,0"]),
        ("key 'init.x0': expected comma-separated numbers", ("init.x0 = 0.0, 0.0", "init.x0 = a, b"), ["--x0", "a,b"]),
        ("key 'mode': expected one of", ("mode = approx-free", "mode = magic"), ["--mode", "magic"]),
        ("perf.b", ("perf.b = 0.9", "perf.b = inf"), None),
        ("perf.h", ("perf.h = 1.0", "perf.h = inf"), None),
        ("perf.T", ("perf.T = 0.5", "perf.T = inf"), None),
        ("stage2: StageGains.lam", ("stage2.lam = 0.001", "stage2.lam = inf"), None),
        # finite, but squaring it overflows
        ("stage1: StageGains.delta", ("stage1.delta = 1000000.0", "stage1.delta = 1e300"), None),
        ("stage2: StageGains.rho", ("stage2.rho = 1000000.0", "stage2.rho = 1e300"), None),
        # finite and positive, but its reciprocal overflows
        ("stage2: StageGains.lam", ("stage2.lam = 0.001", "stage2.lam = 1e-320"), None),
        # positive, but its square underflows to 0
        ("stage1: StageGains.delta", ("stage1.delta = 1000000.0", "stage1.delta = 1e-200"), None),
        # finite, but the envelope overflows or underflows
        ("perf.b=1000.0 is too large", ("perf.b = 0.9", "perf.b = 1000.0"), None),
        ("perf.T=1e-300 is too small", ("perf.T = 0.5", "perf.T = 1e-300"), None),
        ("perf.T=1e+300 is too large", ("perf.T = 0.5", "perf.T = 1e300"), None),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capfd, word, edit, flags):
        self.check_rejected(tmp_path, capfd, word, edit, flags)

    def test_huge_finite_state_exits_2(self, tmp_path, capfd):
        """A state so large that the controller's squares overflow is
        reported as divergence at t = 0 through --config, --x0 and --sweep."""
        text = serialize_config(short_single_link())
        edit = ("init.x0 = 0.0, 0.0", "init.x0 = 3.14159, 1e160")
        assert edit[0] in text
        huge = tmp_path / "huge.cfg"
        huge.write_text(text.replace(*edit))
        word = "error: simulation diverged at t=0"
        for argv in (["--config", str(huge)], ["--preset", "single-link", "--x0", "3.14159,1e160"]):
            assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
            assert capfd.readouterr().err.splitlines() == [word]
        assert not (tmp_path / "out" / "verification.json").exists()
        good = tmp_path / "good.cfg"
        good.write_text(text)
        status = cli.main(["--sweep", str(good), str(huge), "--out", str(tmp_path / "sweep")])
        assert status == cli.EXIT_ERROR
        captured = capfd.readouterr()
        assert f"{good}: exit 0" in captured.out.splitlines()
        assert f"{huge}: exit 2" in captured.out.splitlines()
        # the sweep's error line names the config that diverged
        assert captured.err.splitlines() == [word.replace("error:", f"error: {huge}:")]

    def test_start_outside_the_funnel_exits_2(self, tmp_path, capfd):
        """An initial error whose arctan rounds to eta(0) = pi/2 is an input
        error naming x0 through --config, --x0 and --sweep, not a breach."""
        word = ": x0 starts outside the funnel"
        self.check_rejected(tmp_path, capfd, word, ("init.x0 = 0.0, 0.0", "init.x0 = 1e17, 0.0"), ["--x0", "1e17,0"])

    @pytest.mark.parametrize("flags", [
        ["--x0", "1e17,0"], ["--x0", "3.14159,1e160"], ["--t-end", "inf"], ["--dt", "1e-4", "--t-end", "0.05"],
    ], ids=["outside-the-funnel", "diverged", "bad-setting", "diverged-after-written-blocks"])
    def test_a_rejected_run_leaves_no_output_directory(self, tmp_path, capfd, monkeypatch, flags):
        """A run rejected as an input error, or one that diverges, exits 2
        and leaves no directory that it created, also after it wrote blocks
        of its rows: in the last case the plant's right-hand side overflows
        at t > 2.05e-2, after five blocks of 4 rows (one every 10 steps)
        were written."""
        folds = []
        if flags[0] == "--dt":
            def overflowing(t):
                if t > 2.05e-2:
                    raise OverflowError("(34, 'Numerical result out of range')")

            entry = PLANTS["single-link"]
            plant = entry.plant()
            late = replace(plant, rhs_text="overflow(t)\n" + plant.rhs_text, names={**plant.names, "overflow": overflowing})
            monkeypatch.setitem(PLANTS, "single-link", entry._replace(plant=lambda: late))
            monkeypatch.setattr(sim, "RECORD_BLOCK", 4)
            fold = sim._Blocks.fold

            def counted(blocks, rows, opening):
                folds.append(rows)
                return fold(blocks, rows, opening)

            monkeypatch.setattr(sim._Blocks, "fold", counted)
        out = tmp_path / "o17" / "run"
        assert cli.main(["--preset", "single-link", *flags, "--out", str(out)]) == cli.EXIT_ERROR
        assert capfd.readouterr().err.startswith("error:")
        assert folds == ([4] * 5 if flags[0] == "--dt" else [])
        assert not (tmp_path / "o17").exists()

    def test_a_failed_writer_exits_2(self, tmp_path, capfd, monkeypatch):
        """A CSV writer process that exits non-zero is exit 2 with an error
        line naming trajectory.csv; the partial file and every directory
        the run created are removed.  Blocks of 16 rows make the 51-row run
        start its writer."""
        monkeypatch.setattr(sim, "RECORD_BLOCK", 16)
        monkeypatch.setattr(sim, "_WRITER", "raise SystemExit(3)")
        out = tmp_path / "new" / "run"
        assert cli.main(["--preset", "single-link", "--dt", "1e-4", "--t-end", "0.05", "--out", str(out)]) == cli.EXIT_ERROR
        assert capfd.readouterr().err == f"error: {out / 'trajectory.csv.partial'}: the CSV writer exited with status 3\n"
        assert not (tmp_path / "new").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_run_keeps_an_earlier_runs_artifacts(self, tmp_path, capfd):
        """The rows go to a partial file until the run ends: a run that
        fails in a directory an earlier run wrote leaves its files as they
        were."""
        out = tmp_path / "run"
        assert cli.main(["--preset", "single-link", "--dt", "1e-4", "--t-end", "0.01", "--out", str(out)]) == cli.EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert set(before) == {"config.txt", "trajectory.csv", "verification.json", "verification.txt"}
        assert cli.main(["--preset", "single-link", "--x0", "3.14159,1e160", "--out", str(out)]) == cli.EXIT_ERROR
        assert capfd.readouterr().err.endswith("error: simulation diverged at t=0\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_sweep_whose_output_root_cannot_be_made_exits_2(self, tmp_path, capsys):
        """The sweep makes its output root before its workers start; a path
        that cannot be a directory is an error, exit 2, and no run starts."""
        config = tmp_path / "exp.cfg"
        config.write_text(serialize_config(short_single_link()))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["--sweep", str(config), "--out", str(taken / "sweep")]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 20] Not a directory:")

    def test_a_single_run_does_not_import_multiprocessing(self):
        """Only ``--sweep`` starts workers, so importing the CLI leaves
        ``multiprocessing`` unimported."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, funneldsc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_a_closed_stdout_keeps_the_verdicts_exit_status(self, tmp_path, sweep):
        """A reader that closes stdout early (``| head -1``) does not turn a
        verdict into exit 2.  The pipe's read end is closed before the run
        starts, so every write to stdout fails: the summary, a sweep's exit
        lines and the flush at exit."""
        args = ["--preset", "single-link", "--dt", "1e-4", "--t-end", "0.6", "--out", str(tmp_path / "run")]
        out = tmp_path / "run"
        if sweep:
            config = tmp_path / "sl.cfg"
            config.write_text(serialize_config(replace(single_link_preset(), dt=1e-4, t_end=0.6)))
            args, out = ["--sweep", str(config), "--out", str(tmp_path / "sweep")], tmp_path / "sweep" / "sl"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "funneldsc.cli", *args], stdout=write, stderr=subprocess.PIPE,
                env=env, timeout=300,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (cli.EXIT_OK, b"")
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 601
        assert json.loads((out / "verification.json").read_text())["transient_ok"] is True
        assert (load_config(out / "config.txt").dt, load_config(out / "config.txt").t_end) == (1e-4, 0.6)
        assert (out / "verification.txt").read_text().startswith("transient bound (|arctan(e)| < eta): PASS\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_sign_smoothing_exits_2(self, tmp_path, capfd, value):
        edit = ("sign_smoothing = 0.0", f"sign_smoothing = {value}")
        self.check_rejected(tmp_path, capfd, "sign_smoothing", edit, ["--sign-smoothing", value])

    @pytest.mark.parametrize("word, extra", [
        ("sim.record_evry", "sim.record_evry = 1"),
        ("sign_smothing", "sign_smothing = 0.1"),
        ("stage3.delta", "stage3.delta = 1.0"),
        ("perf.h", "perf.h = 2.0"),
    ])
    def test_unknown_or_repeated_key_exits_2(self, tmp_path, capfd, word, extra):
        self.check_rejected(tmp_path, capfd, word, ("", extra + "\n"))

    @pytest.mark.parametrize("kind", ["asymmetric-tan-upper", "asymmetric-tan-lower"])
    def test_removed_transform_kind_exits_2(self, tmp_path, capfd, kind):
        word = "the only accepted value is 'symmetric-tan'"
        self.check_rejected(tmp_path, capfd, word, ("transform = symmetric-tan", f"transform = {kind}"))

    def test_sweep_keeps_the_results_of_an_unexpected_exception(self, tmp_path, capfd, monkeypatch):
        """A config whose run raises an exception outside the expected
        errors is exit 2 with the exception type; the others still report."""
        ok = tmp_path / "ok.cfg"
        ok.write_text(serialize_config(short_single_link()))
        bad = tmp_path / "bad.cfg"
        bad.write_text(serialize_config(short_single_link(t_end=0.03)))
        run_experiment = cli.run_experiment

        def raising(cfg, out_dir=None):
            if cfg.t_end == 0.03:
                raise RuntimeError("boom")
            return run_experiment(cfg, out_dir)

        monkeypatch.setattr(cli, "run_experiment", raising)
        out_root = tmp_path / "sweep"
        assert cli._sweep_worker((str(bad), str(out_root))) == (str(bad), cli.EXIT_ERROR, "RuntimeError: boom")
        assert cli._sweep_worker((str(ok), str(out_root))) == (str(ok), cli.EXIT_OK, None)
        capfd.readouterr()
        # the fork pool's workers inherit the patched run_experiment
        status = cli.main(["--sweep", str(ok), str(bad), "--out", str(out_root)])
        assert status == cli.EXIT_ERROR
        captured = capfd.readouterr()
        assert f"{ok}: exit 0" in captured.out.splitlines()
        assert f"{bad}: exit 2" in captured.out.splitlines()
        assert captured.err.splitlines() == [f"error: {bad}: RuntimeError: boom"]
        assert (out_root / "ok" / "verification.json").exists()

    def test_an_unexpected_exception_exits_2_in_a_single_run_and_a_sweep(self, tmp_path, capfd, monkeypatch):
        """A single run and a sweep report any exception the same way: exit
        2, not the bound-violated 1, with one error line naming its type."""
        def raising(cfg, out_dir=None):
            raise MemoryError("cannot allocate the record")

        monkeypatch.setattr(cli, "run_experiment", raising)
        cfg = tmp_path / "a.cfg"
        cfg.write_text(serialize_config(short_single_link()))
        message = "MemoryError: cannot allocate the record"
        for argv, err in (
            (["--preset", "single-link"], f"error: {message}"),
            (["--config", str(cfg)], f"error: {message}"),
            (["--sweep", str(cfg)], f"error: {cfg}: {message}"),
        ):
            assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
            assert capfd.readouterr().err.splitlines() == [err]

    def test_every_readme_command_parses(self):
        """Each ``funneldsc`` line of the README's fenced blocks is accepted
        by the argument parser as written."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("funneldsc ")]
        assert len(lines) >= 6
        for line in lines:
            args = cli._parse_args(shlex.split(line)[1:])
            assert args.sweep or args.preset or args.config, line

    @pytest.mark.parametrize("configs, affinity, cpu_count, processes", [
        (8, {0, 1}, 2, 2),
        (1, {0, 1}, 2, 1),
        (3, {0, 1, 2, 3}, 64, 3),
        (5, {3}, 64, 1),
        (5, None, 4, 4),
        (3, None, None, 1),
    ])
    def test_sweep_pool_size(self, configs, affinity, cpu_count, processes, tmp_path, monkeypatch, capsys):
        """The sweep starts one worker per config, at most one per core the
        process may run on (its affinity, or ``os.cpu_count()`` where the
        platform has no affinity)."""
        started = []

        class RecordingPool:
            def __init__(self, processes=None):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        # missing files: each config fails fast with exit 2
        paths = [str(tmp_path / f"missing{i}.cfg") for i in range(configs)]
        assert cli.main(["--sweep", *paths, "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
        assert started == [processes]
        assert capsys.readouterr().out.splitlines() == [f"{p}: exit 2" for p in paths]

    def test_sweep_runs_each_config(self, tmp_path):
        paths = []
        for i, t_end in enumerate((0.03, 0.05)):
            p = tmp_path / f"exp{i}.cfg"
            p.write_text(serialize_config(short_single_link(t_end=t_end)))
            paths.append(str(p))
        out_root = tmp_path / "sweep"
        status = cli.main(["--sweep", *paths, "--out", str(out_root)])
        assert status == cli.EXIT_OK
        for i in range(2):
            assert (out_root / f"exp{i}" / "verification.json").exists()

    @pytest.mark.parametrize("same_file", [False, True], ids=["same-stem", "same-file"])
    def test_sweep_rejects_configs_sharing_an_output_directory(self, same_file, tmp_path, capsys, monkeypatch):
        """Two sweep configs with one file stem would write one directory:
        exit 2 with one error line naming both, before any worker starts."""
        first = tmp_path / "a" / "x.cfg"
        second = first if same_file else tmp_path / "b" / "x.txt"
        for path in (first, second):
            path.parent.mkdir(exist_ok=True)
            path.write_text(serialize_config(short_single_link()))

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        out_root = tmp_path / "sweep"
        paths = [str(tmp_path / "other.cfg"), str(first), str(second)]
        assert cli.main(["--sweep", *paths, "--out", str(out_root)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {first} and {second} would both write {out_root / 'x'}"]
        assert not out_root.exists()

    @pytest.mark.parametrize("flags", [
        ["--mode", "fuzzy"], ["--dt", "5"], ["--t-end", "0.03"], ["--x0", "1,2,3"], ["--sign-smoothing", "0.1"],
        ["--dt", "5", "--mode", "fuzzy", "--x0", "1,2,3"],
    ], ids=["mode", "dt", "t-end", "x0", "sign-smoothing", "three"])
    def test_sweep_rejects_per_run_flags(self, flags, tmp_path, capsys):
        """A sweep runs each config file as written: a per-run flag beside
        it is a usage error, exit 2, naming the flags."""
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(short_single_link()))
        out_root = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            cli.main(["--sweep", str(path), *flags, "--out", str(out_root)])
        assert exc.value.code == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("funneldsc: error: argument --sweep: not allowed with")
        assert set(err.split(";")[0].split("with ")[1].split()) == {f for f in flags if f.startswith("--")}
        assert not out_root.exists()

    @pytest.mark.parametrize("sources", [("preset", "config"), ("preset", "sweep"), ("config", "sweep")])
    def test_run_sources_are_mutually_exclusive(self, sources, tmp_path, capsys):
        """``--preset``, ``--config`` and ``--sweep`` each name the runs;
        any two together are a usage error, exit 2."""
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(short_single_link()))
        value = {"preset": "single-link", "config": str(path), "sweep": str(path)}
        argv = [arg for source in sources for arg in (f"--{source}", value[source])]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == cli.EXIT_ERROR
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
