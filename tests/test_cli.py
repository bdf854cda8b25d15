"""Command-line surface: subcommands, file formats, exit codes."""

import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from ivastream.cli import build_parser, main, parse_selector, read_wav, write_wav
from ivastream.cli import UsageError, run_separation
from ivastream.scenario import ScenarioConfig, build
from ivastream.separator import OnlineConfig, UpdateSchedule
from ivastream.stft import StftConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def scenario_dir(tmp_path):
    out = tmp_path / "scen"
    code = run_cli(
        "simulate", "--duration-s", "3", "--seed", "7", "--move-time-s", "1.5",
        "-o", str(out),
    )
    assert code == 0
    return out


class TestWavRoundTrip:
    def test_multichannel_float(self, tmp_path, rng):
        data = rng.standard_normal((3, 1000))
        path = tmp_path / "x.wav"
        write_wav(path, 16000, data)
        rate, back = read_wav(path)
        assert rate == 16000
        np.testing.assert_allclose(back, data, atol=1e-6)

    def test_pcm16_scaled(self, tmp_path):
        path = tmp_path / "p.wav"
        wavfile.write(path, 8000, (np.arange(4) * 1000).astype(np.int16))
        _, data = read_wav(path)
        np.testing.assert_allclose(data[0], np.arange(4) * 1000 / 32768.0)

    def test_pcm8_centred_on_zero(self, tmp_path):
        path = tmp_path / "u8.wav"
        wavfile.write(path, 8000, np.array([128, 0, 255], dtype=np.uint8))
        _, data = read_wav(path)
        np.testing.assert_array_equal(data[0], [0.0, -1.0, 127 / 128])


class TestConfigParsing:
    def test_selector_forms(self):
        cfg = StftConfig()
        assert parse_selector("all", 3, None, cfg) == UpdateSchedule.all_sources(3)
        sched = parse_selector("one:3:938", 3, None, cfg)
        assert sched.after == (2,) and sched.switch_frame == 938
        with pytest.raises(UsageError):
            parse_selector("one:3:t(30s)", 3, None, cfg)
        assert parse_selector("one:2:15s", 3, None, cfg).switch_frame == 15 * 16000 // 512 + 1
        auto = parse_selector("one:1:auto", 3, 48000, cfg)
        assert auto.switch_frame == 48000 // 512 + 1

    def test_bad_selectors_rejected(self):
        cfg = StftConfig()
        for text in ("two:1:3", "one:9:5", "one:1:xx", "one:1:auto"):
            with pytest.raises(UsageError):
                parse_selector(text, 3, None, cfg)


class TestSimulate:
    def test_default_manifest_shape(self, scenario_dir):
        manifest = json.loads((scenario_dir / "manifest.json").read_text())
        assert manifest["n_src"] == 3
        assert manifest["move"]["source"] == 3
        assert manifest["move"]["time_s"] == 1.5
        rate, mixture = read_wav(scenario_dir / "mixture.wav")
        assert rate == 16000 and mixture.shape == (3, 48000)
        for name in manifest["files"]["sources"] + manifest["files"]["images_mic1"]:
            assert (scenario_dir / name).exists()

    def test_default_move_time_is_30s(self, tmp_path):
        out = tmp_path / "full"
        assert run_cli("simulate", "-o", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["duration_s"] == 60.0
        assert manifest["move"] == {"source": 3, "time_s": 30.0, "sample": 480000}

    def test_non_default_source_count_defaults_to_static(self, tmp_path):
        out = tmp_path / "duo"
        assert run_cli("simulate", "--sources", "2", "--duration-s", "2", "-o", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["move"] is None

    def test_no_move_block_when_disabled(self, tmp_path):
        out = tmp_path / "static"
        assert run_cli(
            "simulate", "--sources", "2", "--duration-s", "2", "--move-source", "none",
            "-o", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["move"] is None and manifest["mixing_post"] is None

    def test_same_seed_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run_cli(
                "simulate", "--duration-s", "2", "--move-time-s", "1",
                "--seed", "3", "-o", str(out),
            ) == 0
        assert (first / "mixture.wav").read_bytes() == (second / "mixture.wav").read_bytes()

    def test_default_move_is_at_half_the_duration(self, tmp_path):
        out = tmp_path / "short"
        assert run_cli("simulate", "--duration-s", "2", "-o", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["move"] == {"source": 3, "time_s": 1.0, "sample": 16000}

    def test_config_file_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--config", str(tmp_path / "x.cfg"), "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2


class TestSeparateAndEvaluate:
    def test_separate_writes_outputs(self, scenario_dir, tmp_path):
        out = tmp_path / "sep"
        code = run_cli(
            "separate", str(scenario_dir / "mixture.wav"),
            "--manifest", str(scenario_dir / "manifest.json"),
            "--method", "iss", "--selector", "all", "-o", str(out),
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["timing"]["update_loop_s"] > 0
        rate, est = read_wav(out / "separated_1.wav")
        _, mixture = read_wav(scenario_dir / "mixture.wav")
        assert est.shape[1] == mixture.shape[1]

    def test_contrast_flag_reaches_the_engine(self, scenario_dir, tmp_path):
        out = tmp_path / "sep_gauss"
        code = run_cli(
            "separate", str(scenario_dir / "mixture.wav"), "--contrast", "gauss", "-o", str(out),
        )
        assert code == 0
        assert json.loads((out / "diagnostics.json").read_text())["contrast"] == "gauss"
        rate, mixture = read_wav(scenario_dir / "mixture.wav")
        expected, _ = run_separation(
            mixture, StftConfig(sample_rate=rate), OnlineConfig(contrast="gauss")
        )
        _, est = read_wav(out / "separated_1.wav")
        assert np.array_equal(est[0], expected[0].astype(np.float32))

    def test_selector_one_with_auto_switch(self, scenario_dir, tmp_path):
        out = tmp_path / "sep_one"
        code = run_cli(
            "separate", str(scenario_dir / "mixture.wav"),
            "--manifest", str(scenario_dir / "manifest.json"),
            "--method", "ip", "--selector", "one:3:auto", "-o", str(out),
        )
        assert code == 0

    def test_zero_length_input_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        wavfile.write(empty, 16000, np.zeros((0, 2), dtype=np.float32))
        code = run_cli("separate", str(empty), "-o", str(tmp_path / "out"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_evaluate_mixture_as_estimate_is_zero(self, scenario_dir, tmp_path):
        _, mixture = read_wav(scenario_dir / "mixture.wav")
        est_dir = tmp_path / "ests"
        est_dir.mkdir()
        for k in range(3):
            write_wav(est_dir / f"separated_{k + 1}.wav", 16000, mixture[0])
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate", str(scenario_dir / "manifest.json"), str(est_dir),
            "--segment-len", "16000", "-o", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_improvement_db"] == pytest.approx(0.0, abs=1e-9)

    def test_evaluate_clean_images_capped(self, scenario_dir, tmp_path):
        manifest = json.loads((scenario_dir / "manifest.json").read_text())
        paths = [str(scenario_dir / name) for name in manifest["files"]["images_mic1"]]
        out = tmp_path / "eval_clean"
        code = run_cli(
            "evaluate", str(scenario_dir / "manifest.json"), *paths,
            "--segment-len", "16000", "-o", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(v > 50 for v in summary["per_source_improvement_db"])

    def test_wrong_estimate_count_rejected(self, scenario_dir, tmp_path):
        code = run_cli(
            "evaluate", str(scenario_dir / "manifest.json"),
            str(scenario_dir / "image_mic1_1.wav"), str(scenario_dir / "image_mic1_2.wav"),
            "-o", str(tmp_path / "bad"),
        )
        assert code == 2


CONTRACT_VIOLATIONS = {
    "frame_len_not_power_of_two": ("separate", "{mix}", "--frame-len", "1000"),
    "switch_before_frame_1": ("separate", "{mix}", "--selector", "one:2:-5"),
    "missing_manifest": ("separate", "{mix}", "--manifest", "{tmp}/absent.json"),
    "malformed_manifest": ("separate", "{mix}", "--manifest", "{bad}"),
    "manifest_without_keys": ("separate", "{mix}", "--manifest", "{empty}"),
    "time_switch_in_parentheses": ("separate", "{mix}", "--selector", "one:3:t(30s)"),
    "negative_duration": ("demo", "--duration-s", "-1"),
    "malformed_manifest_evaluate": ("evaluate", "{bad}", "{scen}"),
    "manifest_without_keys_evaluate": ("evaluate", "{empty}", "{scen}"),
    "zero_segment_len": (
        "evaluate", "{scen}/manifest.json", "{scen}/image_mic1_1.wav", "{scen}/image_mic1_2.wav",
        "{scen}/image_mic1_3.wav", "--segment-len", "0",
    ),
    "move_source_not_an_index": ("simulate", "--move-source", "third"),
    "zero_sample_rate": ("simulate", "--sample-rate", "0", "--duration-s", "2"),
    "nan_duration": ("simulate", "--duration-s", "nan", "--move-source", "none"),
    "infinite_duration": ("simulate", "--duration-s", "inf", "--move-source", "none"),
    "duration_below_one_sample": ("simulate", "--duration-s", "1e-5"),
    "nan_switch_time": ("separate", "{mix}", "--selector", "one:1:nans"),
    "infinite_switch_time": ("separate", "{mix}", "--selector", "one:1:infs"),
}


@pytest.mark.parametrize("argv", CONTRACT_VIOLATIONS.values(), ids=CONTRACT_VIOLATIONS.keys())
def test_contract_violation_exits_2(argv, scenario_dir, tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"n_src": 3,')
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    fields = {
        "mix": scenario_dir / "mixture.wav", "scen": scenario_dir, "tmp": tmp_path, "bad": bad,
        "empty": empty,
    }
    code = run_cli(*(arg.format(**fields) for arg in argv), "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


class TestMovingExperiment:
    def test_one_mode_decides_a_channel(self):
        from ivastream.cli import run_moving_experiment
        from ivastream.scenario import ScenarioConfig, build

        truth = build(ScenarioConfig(n_src=2, duration_s=4.0, seed=2,
                                     move_source=1, move_time_s=2.0))
        cfg = StftConfig()
        est_all, info_all = run_moving_experiment(truth, cfg, "iss", "all")
        est_one, info_one = run_moving_experiment(truth, cfg, "iss", "one")
        assert info_all["moving_channel"] is None
        assert info_one["moving_channel"] in (0, 1)
        assert est_one.shape == truth.mixtures.shape
        # both modes share the trajectory up to the switch frame
        switch_sample = (truth.move_sample // cfg.hop) * cfg.hop
        pre = slice(0, switch_sample - cfg.frame_len)
        np.testing.assert_allclose(est_one[:, pre], est_all[:, pre], atol=1e-12)

    def test_switch_past_the_last_frame_decides_nothing(self):
        from dataclasses import replace

        from ivastream.cli import run_moving_experiment
        from ivastream.scenario import ScenarioConfig, build

        truth = build(ScenarioConfig(n_src=2, duration_s=1.0, seed=2,
                                     move_source=1, move_time_s=0.5))
        truth = replace(truth, move_sample=2 * truth.mixtures.shape[1])
        cfg = StftConfig()
        est_all, _ = run_moving_experiment(truth, cfg, "ip", "all")
        est_one, info_one = run_moving_experiment(truth, cfg, "ip", "one")
        assert info_one["moving_channel"] is None
        assert np.array_equal(est_one, est_all)

    def test_one_mode_requires_a_move(self):
        from ivastream.cli import run_moving_experiment
        from ivastream.errors import ContractViolationError
        from ivastream.scenario import ScenarioConfig, build

        truth = build(ScenarioConfig(n_src=2, duration_s=1.0, seed=0))
        with pytest.raises(ContractViolationError):
            run_moving_experiment(truth, StftConfig(), "iss", "one")


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "run"
    code = run_cli(
        "demo", "--duration-s", "6", "--seed", "5", "--segment-len", "16000",
        "-o", str(out),
    )
    assert code == 0
    return out


class TestDemo:
    def test_csv_covers_four_methods(self, demo_dir):
        with open(demo_dir / "segsdr.csv") as fh:
            rows = list(csv.DictReader(fh))
        methods = {row["method"] for row in rows}
        assert methods == {"iss_all", "iss_one", "ip_all", "ip_one"}
        # 4 methods x 6 segments x 3 sources
        assert len(rows) == 4 * 6 * 3

    def test_summary_reports_runtimes_and_improvements(self, demo_dir):
        summary = json.loads((demo_dir / "summary.json").read_text())
        for label in ("iss_all", "iss_one", "ip_all", "ip_one"):
            entry = summary["methods"][label]
            assert entry["runtime"]["update_loop_s"] > 0
            assert np.isfinite(entry["overall_improvement_db"])
        assert (demo_dir / "scenario" / "manifest.json").exists()

    def test_deterministic_csv(self, demo_dir, tmp_path):
        again = tmp_path / "again"
        code = run_cli(
            "demo", "--duration-s", "6", "--seed", "5", "--segment-len", "16000",
            "-o", str(again),
        )
        assert code == 0
        assert (again / "segsdr.csv").read_bytes() == (demo_dir / "segsdr.csv").read_bytes()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def readme_commands():
    """Every ``ivastream ...`` command in the README's fenced blocks, with
    backslash continuation lines joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("ivastream "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # an unknown flag or subcommand exits 2


def test_readme_python_quick_start_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    mixture = build(ScenarioConfig(duration_s=2.0)).mixtures
    namespace = {"mixture": mixture}
    exec(code, namespace)
    assert namespace["estimates"].shape == mixture.shape
    assert np.all(np.isfinite(namespace["estimates"]))
