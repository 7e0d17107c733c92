import json
import math
from dataclasses import replace

import pytest

from funneldsc import cli
from funneldsc.config import (
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

    @pytest.mark.parametrize("x0", [(math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_x0(self, x0):
        with pytest.raises(ConfigError, match="init.x0 must be finite"):
            replace(single_link_preset(), x0=x0)

    def test_rejects_negative_sign_smoothing(self):
        with pytest.raises(ConfigError, match="sign_smoothing must be nonnegative"):
            replace(single_link_preset(), sign_smoothing=-1.0)

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
