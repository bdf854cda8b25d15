"""Command-line surface: subcommands, file formats, exit codes."""

import importlib.util
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from ivastream.cli import build_parser, main, parse_selector, read_wav, write_wav
from ivastream import OnlineAuxIva, analyze, synthesize
from ivastream.cli import run_moving_experiment, run_separation
from ivastream.errors import ContractViolationError
from ivastream.scenario import ScenarioConfig, build
from ivastream.separator import OnlineConfig, UpdateSchedule
from ivastream.stft import Spectrogram, StftConfig

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
        with pytest.raises(ContractViolationError, match="bad selector switch frame"):
            parse_selector("one:3:t(30s)", 3, None, cfg)
        assert parse_selector("one:2:15s", 3, None, cfg).switch_frame == 15 * 16000 // 512 + 1
        auto = parse_selector("one:1:auto", 3, 48000, cfg)
        assert auto.switch_frame == 48000 // 512 + 1

    def test_bad_selectors_rejected(self):
        cfg = StftConfig()
        fragments = {
            "two:1:3": "selector must be", "one:9:5": "out of range",
            "one:1:xx": "bad selector switch frame", "one:1:auto": "needs a scenario with a move",
        }
        for text, fragment in fragments.items():
            with pytest.raises(ContractViolationError, match=fragment):
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
    "frame_len_1": ("separate", "{mix}", "--frame-len", "1"),
    "negative_seed_simulate": ("simulate", "--seed", "-1"),
    "switch_before_frame_1": ("separate", "{mix}", "--selector", "one:2:-5"),
    "missing_manifest": ("separate", "{mix}", "--manifest", "{tmp}/absent.json"),
    "malformed_manifest": ("separate", "{mix}", "--manifest", "{bad}"),
    "manifest_without_keys": ("separate", "{mix}", "--manifest", "{empty}"),
    "time_switch_in_parentheses": ("separate", "{mix}", "--selector", "one:3:t(30s)"),
    "negative_duration": ("simulate", "--duration-s", "-1"),
    "malformed_manifest_evaluate": ("evaluate", "{bad}", "{scen}"),
    "manifest_without_keys_evaluate": ("evaluate", "{empty}", "{scen}"),
    "zero_segment_len": (
        "evaluate", "{scen}/manifest.json", "{scen}/image_mic1_1.wav", "{scen}/image_mic1_2.wav",
        "{scen}/image_mic1_3.wav", "--segment-len", "0",
    ),
    "move_source_not_an_index": ("simulate", "--move-source", "third"),
    "zero_sample_rate": ("simulate", "--sample-rate", "0", "--duration-s", "2"),
    "echoes_at_10_hz": (
        "simulate", "--mixing", "echoes", "--sample-rate", "10", "--duration-s", "2",
    ),
    "echoes_at_400_hz": (
        "simulate", "--mixing", "echoes", "--sample-rate", "400", "--duration-s", "2",
    ),
    "nan_duration": ("simulate", "--duration-s", "nan", "--move-source", "none"),
    "infinite_duration": ("simulate", "--duration-s", "inf", "--move-source", "none"),
    "duration_below_one_sample": ("simulate", "--duration-s", "1e-5"),
    "duration_beyond_any_array": ("simulate", "--duration-s", "1e300"),
    "nan_switch_time": ("separate", "{mix}", "--selector", "one:1:nans"),
    "infinite_switch_time": ("separate", "{mix}", "--selector", "one:1:infs"),
    "stereo_8khz_estimates": (
        "evaluate", "{scen}/manifest.json", "{tmp}/stereo_8k", "--segment-len", "16000",
    ),
    "unequal_length_estimates": (
        "evaluate", "{scen}/manifest.json", "{tmp}/ragged", "--segment-len", "16000",
    ),
    "mixture_at_8khz_with_16khz_manifest": (
        "separate", "{tmp}/mixture_8k.wav", "--manifest", "{scen}/manifest.json",
        "--selector", "one:3:auto",
    ),
    "move_sample_not_an_integer": (
        "separate", "{mix}", "--manifest", "{scen}/move_sample_str.json", "--selector", "one:1:auto",
    ),
    "move_source_not_an_integer": (
        "evaluate", "{scen}/move_source_str.json", "{scen}", "--segment-len", "16000",
    ),
    "images_mic1_not_a_list": (
        "evaluate", "{scen}/images_mic1_str.json", "{scen}", "--segment-len", "16000",
    ),
    "nan_in_estimate": (
        "evaluate", "{scen}/manifest.json", "{tmp}/nan_sample", "--segment-len", "16000",
    ),
}

#: The manifest key each mistyped-manifest case's error must name.
NAMED_KEYS = {
    "move_sample_not_an_integer": "'move.sample'",
    "move_source_not_an_integer": "'move.source'",
    "images_mic1_not_a_list": "'files.images_mic1'",
}


def write_mistyped_manifests(scenario_dir):
    """Copies of the scene's manifest, next to it, each with one value of
    the wrong type: a string ``move.sample`` and ``move.source``, and one
    file name in place of the ``images_mic1`` list."""
    manifest = json.loads((scenario_dir / "manifest.json").read_text())
    edits = {
        "move_sample_str": ("move", "sample", "x"),
        "move_source_str": ("move", "source", "3"),
        "images_mic1_str": ("files", "images_mic1", "image_mic1_1.wav"),
    }
    for name, (section, key, value) in edits.items():
        edited = json.loads(json.dumps(manifest))
        edited[section][key] = value
        (scenario_dir / f"{name}.json").write_text(json.dumps(edited))


def write_mismatched_wavs(scenario_dir, tmp_path):
    """WAVs that do not match the scene's 16 kHz, 3-channel manifest: stereo
    8 kHz estimates, estimates one sample shorter each, and the mixture
    relabelled as 8 kHz; and float estimates with one NaN sample."""
    _, mixture = read_wav(scenario_dir / "mixture.wav")
    for name in ("stereo_8k", "ragged", "nan_sample"):
        (tmp_path / name).mkdir()
    for k in range(3):
        write_wav(tmp_path / "stereo_8k" / f"separated_{k + 1}.wav", 8000, mixture[:2])
        write_wav(tmp_path / "ragged" / f"separated_{k + 1}.wav", 16000, mixture[k, : mixture.shape[1] - k])
        nan_sample = mixture[k].copy()
        nan_sample[100 * (k + 1)] = np.nan
        write_wav(tmp_path / "nan_sample" / f"separated_{k + 1}.wav", 16000, nan_sample)
    write_wav(tmp_path / "mixture_8k.wav", 8000, mixture)


@pytest.mark.parametrize("case", CONTRACT_VIOLATIONS)
def test_contract_violation_exits_2(case, scenario_dir, tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"n_src": 3,')
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    write_mismatched_wavs(scenario_dir, tmp_path)
    write_mistyped_manifests(scenario_dir)
    fields = {
        "mix": scenario_dir / "mixture.wav", "scen": scenario_dir, "tmp": tmp_path, "bad": bad,
        "empty": empty,
    }
    argv = CONTRACT_VIOLATIONS[case]
    code = run_cli(*(arg.format(**fields) for arg in argv), "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert NAMED_KEYS.get(case, "") in err
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("move_sample", [600, 1023])
    def test_move_before_frame_len_is_named(self, move_sample):
        # the decision needs at least one hop of estimates before the switch
        from dataclasses import replace

        from ivastream.errors import ContractViolationError

        truth = build(ScenarioConfig(n_src=2, duration_s=1.0, seed=2,
                                     move_source=1, move_time_s=0.5))
        truth = replace(truth, move_sample=move_sample)
        with pytest.raises(ContractViolationError,
                           match=f"sample 1024 .*it is at sample {move_sample}$"):
            run_moving_experiment(truth, StftConfig(), "iss", "one")

    def test_move_at_frame_len_decides_a_channel(self):
        from dataclasses import replace

        truth = build(ScenarioConfig(n_src=2, duration_s=1.0, seed=2,
                                     move_source=1, move_time_s=0.5))
        truth = replace(truth, move_sample=StftConfig().frame_len)
        _, info = run_moving_experiment(truth, StftConfig(), "iss", "one")
        assert info["moving_channel"] in (0, 1)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def moving_scene():
    return build(ScenarioConfig(n_src=3, duration_s=3.0, seed=3, move_source=2, move_time_s=1.5))


@pytest.fixture(scope="module")
def mono_scene():
    return build(ScenarioConfig(n_src=1, duration_s=3.0, seed=3, move_source=None))


class TestPipeline:
    """The pipeline behind ``separate`` and each arm of the moving-source
    comparison is the README's frame loop, bit for bit, and so is the
    benchmark's chain."""

    @pytest.mark.parametrize(
        "method, scene",
        [("iss", "moving_scene"), ("ip", "moving_scene"), ("iss", "mono_scene"), ("ip", "mono_scene")],
        ids=["iss", "ip", "iss-mono", "ip-mono"],
    )
    def test_run_separation_is_the_readme_loop(self, request, method, scene):
        # every second frame names no index: a skip frame.  The loop here
        # keeps a separate output buffer, so a pipeline whose in-place writes
        # reached the engine's input would differ; at K=1 that input is a
        # view of the very frame the pipeline overwrites
        mixture, stft_cfg = request.getfixturevalue(scene).mixtures, StftConfig()
        everyone = tuple(range(mixture.shape[0]))
        online_cfg = OnlineConfig(
            method=method, selector=lambda t: everyone if (t - 1) % 2 == 0 else ()
        )
        spec = analyze(mixture, stft_cfg)
        engine = OnlineAuxIva(spec.n_bins, len(everyone), online_cfg)
        out = np.empty_like(spec.data)
        for t in range(spec.n_frames):
            y = engine.process_frame(spec.data[:, t, :].T)
            out[:, t, :] = engine.project(y).T
        expected = synthesize(Spectrogram(out), stft_cfg, n_samples=mixture.shape[1])
        estimates, info = run_separation(mixture, stft_cfg, online_cfg)
        assert np.array_equal(estimates, expected)
        assert info["frames"] == spec.n_frames

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_mode_one_is_a_switch_schedule(self, moving_scene, method):
        stft_cfg = StftConfig()
        estimates, info = run_moving_experiment(moving_scene, stft_cfg, method, "one")
        switch_frame = moving_scene.move_sample // stft_cfg.hop + 1
        schedule = UpdateSchedule.switch_to(3, info["moving_channel"], switch_frame)
        expected, _ = run_separation(
            moving_scene.mixtures, stft_cfg, OnlineConfig(method=method, selector=schedule)
        )
        assert np.array_equal(estimates, expected)

    def test_benchmark_selftest_passes(self):
        # the self-test runs the chain with an UpdateSchedule and with a plain
        # function as its selector, and checks ISS zero solves and span nesting
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "selftest.py")],
            cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_benchmark_chain_is_the_pipeline(self, moving_scene, tmp_path, monkeypatch):
        # perfbench/run.py is not imported: it sets BLAS thread variables
        # at import time
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_chain", PERFBENCH / "chain.py")
        chain = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(chain)
        truth = moving_scene
        write_wav(tmp_path / "mixture.wav", truth.sample_rate, truth.mixtures)
        for k in range(3):
            write_wav(tmp_path / f"image_mic1_{k + 1}.wav", truth.sample_rate, truth.images_mic1[k])
        (tmp_path / "scene.json").write_text(json.dumps({
            "n_src": 3, "sample_rate": truth.sample_rate,
            "move_source": truth.move_source, "move_sample": truth.move_sample,
        }))
        oracle = chain.load_oracle(tmp_path)
        stft_cfg = StftConfig(sample_rate=truth.sample_rate)

        ours, record = chain.run_chain(tmp_path / "mixture.wav", "iss", oracle)
        theirs, info = run_moving_experiment(oracle, stft_cfg, "iss", "one")
        assert np.array_equal(ours, theirs)
        assert record["moving_channel"] == info["moving_channel"] is not None

        ours, _ = chain.run_chain(tmp_path / "mixture.wav", "ip")
        theirs, _ = run_separation(oracle.mixtures, stft_cfg, OnlineConfig(method="ip"))
        assert np.array_equal(ours, theirs)


def test_unknown_subcommand_exits_2():
    # the four-arm comparison is demos/03_moving_source_tracking.py, not a subcommand
    for command in ("frobnicate", "demo"):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
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
