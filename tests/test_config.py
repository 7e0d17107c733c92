import json
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
from funneldsc.perf import TransformKind


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
            transform_kind=TransformKind.ASYMMETRIC_TAN_UPPER,
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
        text = serialize_config(single_link_preset()) + "sim.exact_filter = maybe\n"
        with pytest.raises(ConfigError, match="exact_filter"):
            parse_config(text)

    def test_invalid_stage_gain_rejected(self):
        text = serialize_config(single_link_preset()).replace(
            "stage2.varrho = 10.0", "stage2.varrho = 0.5"
        )
        with pytest.raises(ConfigError, match="stage2"):
            parse_config(text)


class TestValidation:
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
