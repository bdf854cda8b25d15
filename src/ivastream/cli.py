"""Command-line orchestration: simulate | separate | evaluate.

``run_separation`` is the pipeline behind ``separate``, and
``run_moving_experiment`` runs one arm of the moving-source comparison
(``demos/03_moving_source_tracking.py`` runs all four); both are reusable
from Python.

Exit codes: 0 on success; 2 on every ``ContractViolationError`` (bad flags,
a missing, malformed, incomplete or mistyped manifest, input WAVs that do not match
it, and every precondition a config object or kernel checks); 1 on a
``DegenerateUpdateError`` (an unusable per-bin matrix) or an ``OSError``.
Engine, STFT and scenario flags take their defaults from ``OnlineConfig``,
``StftConfig`` and ``ScenarioConfig``; a scenario is set by flags only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from . import metrics, scenario
from .errors import ContractViolationError, DegenerateUpdateError, check_number
from .scenario import ScenarioConfig
from .separator import OnlineAuxIva, OnlineConfig, UpdateSchedule
from .stft import Spectrogram, StftConfig, analyze, synthesize


# ---------------------------------------------------------------------------
# WAV, manifest and selector helpers
# ---------------------------------------------------------------------------


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a WAV file as float64 channels-first (K, N)."""
    try:
        rate, data = wavfile.read(path)
    except (ValueError, FileNotFoundError, OSError) as exc:
        raise ContractViolationError(f"cannot read WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:  # unsigned 8-bit PCM is centred on 128
        data = (data.astype(np.float64) - 128.0) / 128.0
    else:
        data = data.astype(np.float64)
    if data.ndim == 1:
        data = data[None, :]
    else:
        data = data.T
    return rate, data


def _read_matching(path, rate: int, channels: int, n_samples: int | None = None) -> np.ndarray:
    """Read a WAV as (K, N) that must have the manifest's ``rate`` and
    ``channels`` and, if given, ``n_samples``; a mismatch names the file."""
    file_rate, data = read_wav(path)
    got = (file_rate, *data.shape)
    want = (rate, channels, data.shape[1] if n_samples is None else n_samples)
    if got != want:
        raise ContractViolationError(f"{path} has (rate, channels, samples) {got}, expected {want}")
    return data


def write_wav(path, rate: int, data: np.ndarray) -> None:
    """Write float32 WAV; ``data`` is channels-first (K, N) or mono (N,)."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr.T
    wavfile.write(path, rate, arr)


#: The ``manifest.json`` keys ``separate`` and ``evaluate`` read (dotted for
#: nesting) and the type of each value (``object``: any; ``list``: a list of
#: strings); a non-null ``move`` must also hold integer ``source`` and ``sample``.
_MANIFEST_KEYS = {
    "n_src": int, "sample_rate": int, "mixing_pre": object, "move": object,
    "files.mixture": str, "files.images_mic1": list,
}


def _read_manifest(path) -> dict:
    """Load a scenario ``manifest.json``; a missing or malformed file, or
    one that lacks a key of ``_MANIFEST_KEYS`` or holds a value of the
    wrong type there, is a usage error."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ContractViolationError(f"cannot read manifest {path}: {exc}") from exc
    keys = dict(_MANIFEST_KEYS)
    if isinstance(manifest, dict) and manifest.get("move"):
        keys.update({"move.source": int, "move.sample": int})
    for key, kind in keys.items():
        node = manifest
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ContractViolationError(f"manifest {path} has no key {key!r}")
            node = node[part]
        ok = isinstance(node, kind) and not (kind is int and isinstance(node, bool))
        if not ok or (kind is list and not all(isinstance(name, str) for name in node)):
            want = "a list of strings" if kind is list else kind.__name__
            raise ContractViolationError(f"manifest {path} key {key!r} must hold {want}, got {type(node).__name__}")
    return manifest


def parse_selector(text: str, n_src: int, switch_sample_hint, stft_cfg: StftConfig):
    """Parse ``all`` or ``one:<k>:<switch>`` (k 1-based; switch = frame
    index, ``<sec>s`` or ``auto``)."""
    if text == "all":
        return UpdateSchedule.all_sources(n_src)
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "one":
        raise ContractViolationError(f"selector must be 'all' or 'one:<k>:<switch>', got {text!r}")
    try:
        k = int(parts[1])
    except ValueError as exc:
        raise ContractViolationError(f"selector source index must be an integer, got {parts[1]!r}") from exc
    if not 1 <= k <= n_src:
        raise ContractViolationError(f"selector source index {k} out of range 1..{n_src}")
    spec = parts[2]
    if spec == "auto":
        if switch_sample_hint is None:
            raise ContractViolationError("selector switch 'auto' needs a scenario with a move")
        switch_frame = int(switch_sample_hint) // stft_cfg.hop + 1
    elif spec.endswith("s"):
        try:  # int() raises on a NaN or infinite time
            switch_frame = int(float(spec[:-1]) * stft_cfg.sample_rate) // stft_cfg.hop + 1
        except (ValueError, OverflowError) as exc:
            raise ContractViolationError(f"bad selector switch time {spec!r}") from exc
    else:
        try:
            switch_frame = int(spec)
        except ValueError as exc:
            raise ContractViolationError(f"bad selector switch frame {spec!r}") from exc
    return UpdateSchedule.switch_to(n_src, k - 1, switch_frame)


# ---------------------------------------------------------------------------
# Shared pipeline
# ---------------------------------------------------------------------------


def moving_output_channel(truth: scenario.GroundTruth, estimates: np.ndarray) -> int:
    """Output channel that tracked the moving source before the move.

    Blind convergence assigns sources to output channels in arbitrary
    order, so the selective update index must name the *output* tracking
    the moving source.  The moving source is taken as known (its automatic
    detection is out of scope): the assignment is read off a ground-truth
    permutation match over the pre-move interval.
    """
    if truth.move_source is None or truth.move_sample is None:
        raise ContractViolationError("scenario has no moving source")
    n_pre = min(truth.move_sample, estimates.shape[1])
    perm = metrics.resolve_permutation(
        truth.images_mic1[:, :n_pre], np.asarray(estimates)[:, :n_pre]
    )
    return perm[truth.move_source]


def _run_pipeline(
    mixtures: np.ndarray,
    stft_cfg: StftConfig,
    online_cfg: OnlineConfig,
    switch_frame: int | None = None,
    at_switch=None,
):
    """The package's one frame loop, with an info dict: analyze, then per
    frame :meth:`OnlineAuxIva.process_frame` and :meth:`OnlineAuxIva.project`,
    then synthesize.  Each separated frame is written over the frame it
    came from, so the stream is held in one spectrogram.

    When ``switch_frame`` (1-based) falls within the stream, ``at_switch``
    receives the synthesised estimates of the frames before it, untimed,
    just before the engine processes that frame.
    """
    n_src, n_samples = mixtures.shape
    tic = time.perf_counter()
    spec = analyze(mixtures, stft_cfg)
    stft_s = time.perf_counter() - tic
    engine = OnlineAuxIva(spec.n_bins, n_src, online_cfg)
    update_s = project_s = 0.0
    for t in range(spec.n_frames):
        if t + 1 == switch_frame:
            at_switch(synthesize(Spectrogram(spec.data[:, :t]), stft_cfg))
        tic = time.perf_counter()
        y = engine.process_frame(spec.data[:, t, :].T)
        toc = time.perf_counter()
        y = engine.project(y)
        update_s += toc - tic
        project_s += time.perf_counter() - toc
        spec.data[:, t, :] = y.T
    tic = time.perf_counter()
    # re-wrapped, so the engine's outputs are checked finite before synthesis
    estimates = synthesize(Spectrogram(spec.data), stft_cfg, n_samples=n_samples)
    stft_s += time.perf_counter() - tic
    info = {
        "update_loop_s": update_s,
        "projection_s": project_s,
        "stft_s": stft_s,
        "total_s": update_s + project_s + stft_s,
        "frames": spec.n_frames,
        "degenerate_updates": engine.diagnostics.counts,
    }
    return estimates, info


def run_moving_experiment(
    truth: scenario.GroundTruth,
    stft_cfg: StftConfig,
    method: str,
    mode: str,
):
    """Run one arm of the moving-source comparison.

    ``mode`` is ``"all"`` (update every source throughout) or ``"one"``
    (update every source until the move, then only the output channel that
    was tracking the moving source).  The frame loop decides the channel
    just before the switch frame, scoring the estimates streamed so far
    against the known ground truth; that needs at least one hop of them,
    so the move must come at sample ``stft_cfg.frame_len`` or later.
    Everything before the switch is identical between the two modes, and a
    switch past the last frame decides nothing.  Returns ``(estimates,
    info)`` with the update-loop timing free of the one-off decision.
    """
    if mode not in ("all", "one"):
        raise ContractViolationError(f"mode must be 'all' or 'one', got {mode!r}")
    chosen: dict[str, int] = {}
    switch_frame = selector = None
    if mode == "one":
        if truth.move_sample is None:
            raise ContractViolationError("mode 'one' needs a scenario with a move")
        if truth.move_sample < stft_cfg.frame_len:
            raise ContractViolationError(
                f"mode 'one' needs the move at sample {stft_cfg.frame_len} (frame_len) or "
                f"later, to decide the moving channel; it is at sample {truth.move_sample}"
            )
        switch_frame = truth.move_sample // stft_cfg.hop + 1
        everyone = tuple(range(truth.mixtures.shape[0]))

        def selector(t: int):
            return everyone if t < switch_frame else (chosen["channel"],)

    def decide(pre_estimates: np.ndarray) -> None:
        chosen["channel"] = moving_output_channel(truth, pre_estimates)

    online_cfg = OnlineConfig(method=method, selector=selector)
    estimates, info = _run_pipeline(truth.mixtures, stft_cfg, online_cfg, switch_frame, decide)
    return estimates, {**info, "moving_channel": chosen.get("channel")}


def run_separation(mixtures: np.ndarray, stft_cfg: StftConfig, online_cfg: OnlineConfig):
    """STFT -> streaming separation -> back-projection -> inverse STFT.

    Returns ``(estimates (K, N), info dict)`` where info carries the
    update-loop/projection/STFT timings and the engine diagnostics.
    """
    return _run_pipeline(mixtures, stft_cfg, online_cfg)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _scenario_from_args(args) -> ScenarioConfig:
    # the stock scenario (3 sources, one of them moving) keeps its move by
    # default; any other source count defaults to a static scene
    move_raw = args.move_source
    if move_raw is None:
        move_raw = "3" if args.sources == 3 else "none"
    try:
        move_source = None if move_raw.lower() in ("none", "0", "") else int(move_raw)
    except ValueError as exc:
        raise ContractViolationError(f"move_source must be a 1-based index or 'none', got {move_raw!r}") from exc
    if move_source is not None:
        check_number("--move-source", move_source, 1, args.sources + 1)
    move_time_s = args.duration_s / 2.0 if args.move_time_s is None else args.move_time_s
    return ScenarioConfig(
        n_src=args.sources,
        duration_s=args.duration_s,
        sample_rate=args.sample_rate,
        seed=args.seed,
        mixing_mode="instantaneous" if args.mixing == "random" else "convolutive",
        move_source=None if move_source is None else move_source - 1,
        move_time_s=None if move_source is None else move_time_s,
    )


def _write_scenario(truth: scenario.GroundTruth, cfg: ScenarioConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"mixture": "mixture.wav", "sources": [], "images_mic1": []}
    write_wav(out_dir / "mixture.wav", cfg.sample_rate, truth.mixtures)
    for k in range(cfg.n_src):
        src_name = f"source_{k + 1}.wav"
        img_name = f"image_mic1_{k + 1}.wav"
        write_wav(out_dir / src_name, cfg.sample_rate, truth.sources[k])
        write_wav(out_dir / img_name, cfg.sample_rate, truth.images_mic1[k])
        files["sources"].append(src_name)
        files["images_mic1"].append(img_name)
    manifest = {
        "version": 1,
        "n_src": cfg.n_src,
        "sample_rate": cfg.sample_rate,
        "duration_s": cfg.duration_s,
        "seed": cfg.seed,
        "mixing_mode": cfg.mixing_mode,
        "mixing_pre": np.asarray(truth.mixing_pre).tolist(),
        "mixing_post": None if truth.mixing_post is None else np.asarray(truth.mixing_post).tolist(),
        "move": None
        if truth.move_source is None
        else {
            "source": truth.move_source + 1,
            "time_s": cfg.move_time_s,
            "sample": truth.move_sample,
        },
        "files": files,
    }
    metrics.write_summary_json(out_dir / "manifest.json", manifest)
    return manifest


def cmd_simulate(args) -> int:
    cfg = _scenario_from_args(args)
    truth = scenario.build(cfg)
    manifest = _write_scenario(truth, cfg, Path(args.output_dir))
    print(f"wrote {cfg.n_src}-channel scenario to {args.output_dir}")
    if manifest["move"]:
        print(f"source {manifest['move']['source']} moves at {manifest['move']['time_s']} s")
    return 0


def cmd_separate(args) -> int:
    switch_hint = None
    if args.manifest:
        manifest = _read_manifest(args.manifest)
        rate = manifest["sample_rate"]
        mixtures = _read_matching(args.mixture, rate, manifest["n_src"])
        if manifest["move"]:
            switch_hint = manifest["move"]["sample"]
    else:
        rate, mixtures = read_wav(args.mixture)
    stft_cfg = StftConfig(frame_len=args.frame_len, sample_rate=rate)
    n_src = mixtures.shape[0]
    online_cfg = OnlineConfig(
        alpha=args.alpha,
        n_iter=args.n_iter,
        method=args.method,
        selector=parse_selector(args.selector, n_src, switch_hint, stft_cfg),
    )
    estimates, info = run_separation(mixtures, stft_cfg, online_cfg)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(n_src):
        write_wav(out_dir / f"separated_{k + 1}.wav", rate, estimates[k])
    diagnostics = {
        "method": args.method,
        "selector": args.selector,
        "alpha": args.alpha,
        "n_iter": args.n_iter,
        "timing": {key: info[key] for key in ("update_loop_s", "projection_s", "stft_s", "total_s")},
        "frames": info["frames"],
        "degenerate_updates": info["degenerate_updates"],
    }
    metrics.write_summary_json(out_dir / "diagnostics.json", diagnostics)
    print(
        f"separated {n_src} sources in {info['update_loop_s']:.3f} s update loop "
        f"({info['total_s']:.3f} s total)"
    )
    return 0


def _load_truth_for_eval(manifest_path) -> tuple[dict, scenario.GroundTruth]:
    manifest = _read_manifest(manifest_path)
    base, rate = Path(manifest_path).parent, manifest["sample_rate"]
    mixtures = _read_matching(base / manifest["files"]["mixture"], rate, manifest["n_src"])
    images_mic1 = np.concatenate(
        [_read_matching(base / name, rate, 1, mixtures.shape[1]) for name in manifest["files"]["images_mic1"]]
    )
    truth = scenario.GroundTruth(
        sources=images_mic1,
        mixtures=mixtures,
        images=images_mic1[:, None, :],
        sample_rate=manifest["sample_rate"],
        mixing_pre=np.asarray(manifest["mixing_pre"]),
        move_source=None if not manifest["move"] else manifest["move"]["source"] - 1,
        move_sample=None if not manifest["move"] else manifest["move"]["sample"],
    )
    return manifest, truth


def cmd_evaluate(args) -> int:
    manifest, truth = _load_truth_for_eval(args.manifest)
    n_src, paths = manifest["n_src"], args.estimates
    if len(paths) == 1 and Path(paths[0]).is_dir():
        paths = [Path(paths[0]) / f"separated_{k + 1}.wav" for k in range(n_src)]
    if len(paths) != n_src:
        raise ContractViolationError(f"expected {n_src} estimate files, got {len(paths)}")
    # one mono WAV per source, at the mixture's rate and length
    n_samples = truth.mixtures.shape[1]
    estimates = np.concatenate([_read_matching(p, truth.sample_rate, 1, n_samples) for p in paths])
    report = metrics.sdr_improvement(truth, estimates, segment_len=args.segment_len)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_csv(out_dir / "segsdr.csv", metrics.improvement_rows(args.method_label, report))
    summary = {
        "method": args.method_label,
        "permutation": list(report.permutation),
        "overall_improvement_db": report.mean_overall_improvement,
        "per_source_improvement_db": report.overall_improvement.tolist(),
        "per_source_input_sdr_db": report.overall_input_sdr.tolist(),
        "segment_len": args.segment_len,
        "n_segments": report.n_segments,
    }
    metrics.write_summary_json(out_dir / "summary.json", summary)
    print(
        f"{args.method_label}: overall SI-SDR improvement "
        f"{report.mean_overall_improvement:.2f} dB over {report.n_segments} segments"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivastream",
        description="Streaming blind source separation with online auxiliary-function IVA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic ground-truth scenario")
    p.add_argument("--sources", type=int, default=ScenarioConfig.n_src)
    p.add_argument("--duration-s", dest="duration_s", type=float, default=ScenarioConfig.duration_s)
    p.add_argument("--sample-rate", dest="sample_rate", type=int, default=ScenarioConfig.sample_rate)
    p.add_argument("--seed", type=int, default=ScenarioConfig.seed)
    p.add_argument("--mixing", choices=("random", "echoes"), default="random")
    p.add_argument(
        "--move-source",
        dest="move_source",
        help="1-based index or 'none' (default: 3 with 3 sources, else none)",
    )
    p.add_argument(
        "--move-time-s", dest="move_time_s", type=float, help="default: half the duration"
    )
    p.add_argument("-o", "--output-dir", default="scenario_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("separate", help="run the streaming separator on a mixture WAV")
    p.add_argument("mixture", help="multichannel mixture WAV file")
    p.add_argument("--manifest", help="scenario manifest (enables selector switch 'auto')")
    p.add_argument("--method", choices=("ip", "iss"), default=OnlineConfig.method)
    p.add_argument(
        "--selector",
        default="all",
        help="'all' or 'one:<k>:<switch>' with <switch> a frame index, '<sec>s' or 'auto'",
    )
    p.add_argument("--alpha", type=float, default=OnlineConfig.alpha)
    p.add_argument("--n-iter", type=int, default=OnlineConfig.n_iter)
    p.add_argument("--frame-len", type=int, default=StftConfig.frame_len)
    p.add_argument("-o", "--output-dir", default="separated_out")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score separated signals against a manifest")
    p.add_argument("manifest")
    p.add_argument("estimates", nargs="+", help="estimate WAVs or one directory")
    p.add_argument("--method-label", default="method")
    p.add_argument("--segment-len", type=int, default=metrics.DEFAULT_SEGMENT_LEN)
    p.add_argument("-o", "--output-dir", default="evaluation_out")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateUpdateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
