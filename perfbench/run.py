"""Streaming-chain benchmark of ivastream.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload moving3_iss_one --seed 0 --seconds 45 --trace 0

The parent process builds the workload's scene from ``--seed`` with
``scenario.build`` and writes it as WAV (not timed), times several
fresh-interpreter set-ups, runs the program under test (``chain.py``) as one
child process, and scores the child's output afterwards.  Times are scaled to
a nominal host speed with the ``hostref`` blocks timed next to them.
``--trace 1`` runs the child twice for half of ``--seconds`` each, untraced
and traced, and reports per-layer metrics instead of end-to-end ones.  The
last line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is 0 only when every correctness check
passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One stream is one single-threaded process.  Set before numpy loads BLAS,
# and inherited by every child: with a second BLAS thread a frame waits on
# the busier of the host's cores, which made the latency tail follow the
# load of the other core.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import hostref  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

#: Seed kept out of development; confirm a later claim on it as well.
HELD_OUT_SEED = 104729

#: Seed of the mixing geometry (and of the move), that of the stock scene
#: ``ivastream demo`` builds by default.  Only the source signals follow
#: ``--seed``: with the geometry drawn per seed as well, the SI-SDR
#: improvement spread by about 30% between seeds, which would hide a
#: quality regression.
MIXING_SEED = 0

#: Timed fresh-interpreter set-ups per run, half before and half after the
#: streaming child so that they sample the host at two points in time.  The
#: parent has imported the package by then, so the page cache is warm.
SETUP_PROBES = 6

#: Reference blocks timed before and after each set-up probe.
SETUP_REF_BLOCKS = 25

CHILD_TIMEOUT_S = 150

#: Each workload: scene (K sources, duration, whether source 3 moves at
#: half time) and the engine's method and schedule.  ``BENCHMARK.json``
#: gates the two K=3 workloads; ``static8_iss_all`` is run by hand (see
#: README.md).
WORKLOADS = {
    "moving3_iss_one": dict(n_src=3, duration_s=60.0, moving=True, method="iss", mode="one"),
    "moving3_ip_all": dict(n_src=3, duration_s=60.0, moving=True, method="ip", mode="all"),
    "static8_iss_all": dict(n_src=8, duration_s=32.0, moving=False, method="iss", mode="all"),
}

#: Correctness floor on the mean overall SI-SDR improvement; every workload
#: scores above 13 dB on the seeds tried.
SDR_FLOOR_DB = 5.0

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import ivastream\n"
    "ivastream.OnlineAuxIva({n_bins}, {n_src}, ivastream.OnlineConfig(method={method!r}))\n"
    "print(time.perf_counter() - t0)\n"
)

class BenchError(RuntimeError):
    """The program under test could not be run to completion."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "python_dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
    }


def build_scene(wl: dict, seed: int):
    """The workload's scene: mixing geometry of the stock scene
    (``MIXING_SEED``), source signals drawn from ``seed``."""
    from ivastream import scenario

    cfg = scenario.ScenarioConfig(
        n_src=wl["n_src"],
        duration_s=wl["duration_s"],
        seed=MIXING_SEED,
        move_source=2 if wl["moving"] else None,
        move_time_s=wl["duration_s"] / 2.0 if wl["moving"] else None,
    )
    sources = scenario.synth_sources(wl["n_src"], wl["duration_s"], cfg.sample_rate, seed=seed)
    return scenario.build(cfg, sources=sources)


def write_scene(truth, scene: Path, with_images: bool) -> None:
    from ivastream import cli

    cli.write_wav(scene / "mixture.wav", truth.sample_rate, truth.mixtures)
    n_src = truth.mixtures.shape[0]
    if with_images:
        for k in range(n_src):
            cli.write_wav(scene / f"image_mic1_{k + 1}.wav", truth.sample_rate, truth.images_mic1[k])
    meta = {
        "n_src": n_src,
        "sample_rate": truth.sample_rate,
        "move_source": truth.move_source,
        "move_sample": truth.move_sample,
    }
    (scene / "scene.json").write_text(json.dumps(meta))


def setup_seconds(wl: dict, n_bins: int, count: int) -> tuple[list[float], list[float]]:
    """``count`` set-up probes: their raw times and their times at the
    nominal host speed, each scaled by the mean of the reference times
    taken just before and just after it."""
    code = SETUP_PROBE.format(n_bins=n_bins, n_src=wl["n_src"], method=wl["method"])
    times = []
    refs = [hostref.median_s(SETUP_REF_BLOCKS)]
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(hostref.median_s(SETUP_REF_BLOCKS))
    scaled = [t * 2 * hostref.NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    return times, scaled


def run_child(wl: dict, scene: Path, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "chain.py"), "--scene", str(scene), "--method", wl["method"],
           "--mode", wl["mode"], "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"chain exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((scene / "stats.json").read_text())


def host_scale(p: dict) -> np.ndarray:
    """Per-frame factor to the nominal host speed: ``hostref.NOMINAL_S``
    over the median of the five reference blocks nearest the frame."""
    ref = np.asarray(p["ref_s"])
    near = np.array([np.median(ref[max(0, b - 2):b + 3]) for b in range(len(ref))])
    return hostref.NOMINAL_S / near[np.arange(p["frames"]) // p["ref_every"]]


def scaled_pass(p: dict) -> tuple[float, np.ndarray]:
    """One pass at the nominal host speed: chain seconds, and per-frame
    latency in ms.  Chain time outside the frame calls (WAV read, STFT)
    is scaled by the pass's mean factor."""
    scale = host_scale(p)
    latency_ms = np.asarray(p["latency_ms"])
    outside_s = p["chain_s"] - latency_ms.sum() / 1e3
    return float((latency_ms * scale).sum() / 1e3 + outside_s * scale.mean()), latency_ms * scale


def rtf(stats: dict) -> float:
    """Chain seconds ÷ audio seconds at the nominal host speed, the median
    over passes."""
    return statistics.median(scaled_pass(p)[0] / p["audio_s"] for p in stats["passes"])


def frame_latency_ms(stats: dict, percentile: float) -> float:
    """Percentile of the per-frame latency (at the nominal host speed) of
    each pass (one stream), the median over passes.  A burst of host load
    that spans a pass or two moves a pooled percentile but not this
    median."""
    return float(statistics.median(np.percentile(scaled_pass(p)[1], percentile)
                                   for p in stats["passes"]))


def end_to_end(stats: dict, scores: dict, setup: list[float]) -> dict:
    return {
        "rtf": rtf(stats),
        "frame_p50_ms": frame_latency_ms(stats, 50),
        "frame_p99_ms": frame_latency_ms(stats, 99),
        "sdr_imp_db": scores["sdr_imp_db"],
        "sdr_imp_late_db": scores["sdr_imp_late_db"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": stats["ru_maxrss_kb"] / 1024.0,
    }


def per_layer(traced: dict, untraced: dict, score_s: float, build_s: float) -> dict:
    """Per-layer metrics of the traced child; ``.ms`` are per frame, ``.s``
    per pass of the chain."""
    passes = traced["passes"]
    frames = sum(p["frames"] for p in passes)
    spans = traced["spans"]

    def total(name, i=0):
        return spans.get(name, [0.0, 0.0, 0])[i]

    flops = passes[0]["flops"]
    frame_self_s = total("separator.OnlineAuxIva.process_frame", 1)
    out = {
        "separator.process_frame.ms": 1e3 * total("separator.OnlineAuxIva.process_frame") / frames,
        "separator.process_frame.self_ms": 1e3 * frame_self_s / frames,
        "separator.project_back.ms": 1e3 * total("separator.project_back") / frames,
        "linalg.inverse.ms": 1e3 * total("linalg.inverse") / frames,
        "linalg.inversions_per_frame": sum(p["inversions"] for p in passes) / frames,
        # outermost linalg calls; on the ISS workloads only inverse runs
        "linalg.ms": 1e3 * (total("linalg.masked_solve_unit") + total("linalg.inverse")) / frames,
        "linalg.lu_factor.ms": 1e3 * total("linalg.lu_factor") / frames,
        "linalg.lu_solve.ms": 1e3 * total("linalg.lu_solve") / frames,
        "linalg.solves_per_frame": sum(p["solves"] for p in passes) / frames,
    }
    for phase, count in flops.items():
        out[f"separator.cmacs_per_frame.{phase}"] = count / passes[0]["frames"]
    cmacs = sum(sum(p["flops"].values()) for p in passes)
    out["separator.gcmacs_per_s"] = cmacs / frame_self_s / 1e9
    out["separator.state_mb"] = passes[0]["state_bytes"] / 2**20
    out["separator.degenerate_frac"] = sum(p["degenerate_bins"] for p in passes) / sum(
        p["index_updates"] * p["n_bins"] for p in passes
    )
    out["separator.index_updates_per_frame"] = sum(p["index_updates"] for p in passes) / frames
    out["stft.analyze.s"] = total("stft.analyze") / len(passes)
    out["stft.synthesize.s"] = traced["final_synthesize_s"] / len(passes)
    out["cli.read_wav.s"] = total("cli.read_wav") / len(passes)
    out["metrics.score_s"] = score_s
    out["scenario.build_s"] = build_s
    out["trace.overhead_frac"] = rtf(traced) / rtf(untraced) - 1.0
    return out


def declared(trace: int) -> tuple[set, dict]:
    """The metric names ``BENCHMARK.json`` declares for this mode, and the
    unit of every declared metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return names, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def checks_for(wl, truth, children, estimates, scores) -> dict:
    """The per-run correctness gate: name -> passed."""
    from ivastream import metrics

    passes = [p for s in children for p in s["passes"]]
    checks = {
        "outputs_finite": all(s["estimates_finite"] for s in children),
        "no_failed_frames": sum(p["failed"] for p in passes) == 0,
        "estimates_shape": all(s["estimates_shape"] == list(truth.mixtures.shape) for s in children)
        and all(p["mixture_shape"] == list(truth.mixtures.shape) for p in passes),
        "passes_identical": all(s["passes_identical"] for s in children),
        "sdr_above_floor": bool(scores["sdr_imp_db"] >= SDR_FLOOR_DB)
        and bool(np.isfinite(scores["sdr_imp_late_db"])),
    }
    if wl["method"] == "iss":
        checks["iss_inverse_free"] = all(p["solves"] == 0 for p in passes)
    if truth.mixtures.shape[0] <= 6:
        brute = metrics.resolve_permutation(truth.images_mic1, estimates[0])
        checks["permutation_matches_bruteforce"] = tuple(brute) == tuple(scores["permutation"])
    if len(estimates) > 1:
        checks["traced_bit_identical"] = all(np.array_equal(e, estimates[0]) for e in estimates[1:])
    return checks


def measure(args, wl: dict) -> tuple[dict, dict]:
    from ivastream import stft

    import scoring

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "loadavg_before": loadavg(),
    }
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        scene = Path(tmp)
        tic = time.perf_counter()
        truth = build_scene(wl, args.seed)
        build_s = time.perf_counter() - tic
        write_scene(truth, scene, with_images=wl["mode"] == "one")
        n_bins = stft.StftConfig(sample_rate=truth.sample_rate).n_bins
        child_s = args.seconds / 2 if args.trace else args.seconds
        setup_raw, setup = [], []

        def probe_setup(count):
            raw, scaled = setup_seconds(wl, n_bins, count)
            setup_raw.extend(raw)
            setup.extend(scaled)

        if not args.trace:
            probe_setup(SETUP_PROBES // 2)
        children = [run_child(wl, scene, child_s, 0)]
        if not args.trace:
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        estimates = [np.load(scene / "estimates.npy")]
        if args.trace:
            children.append(run_child(wl, scene, child_s, 1))
            estimates.append(np.load(scene / "estimates.npy"))
            spans_path = RUNS / f"{args.workload}-seed{args.seed}-spans.jsonl"
            os.replace(scene / "spans.jsonl", spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        tic = time.perf_counter()
        scores = scoring.score(truth.images_mic1, truth.mixtures[0], estimates[0])
        score_s = time.perf_counter() - tic
        checks = checks_for(wl, truth, children, estimates, scores)
    passes = [p for s in children for p in s["passes"]]
    attempted = sum(p["frames"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # unbounded, so a per-layer metric, but printed on every run
    unbounded = {"failed_frac": failed / attempted}
    if args.trace:
        values = per_layer(children[1], children[0], score_s, build_s) | unbounded
    else:
        values = end_to_end(children[0], scores, setup)
        record["setup_samples_s"] = setup
        record["setup_raw_samples_s"] = setup_raw
    record.update(
        passes=len(children[0]["passes"]),
        pass_rtf=[scaled_pass(p)[0] / p["audio_s"] for p in passes],
        pass_p99_ms=[float(np.percentile(scaled_pass(p)[1], 99)) for p in passes],
        pass_raw_rtf=[p["chain_s"] / p["audio_s"] for p in passes],
        pass_raw_p99_ms=[float(np.percentile(p["latency_ms"], 99)) for p in passes],
        pass_ref_ms=[1e3 * float(np.median(p["ref_s"])) for p in passes],
        frames_per_pass=passes[0]["frames"],
        attempted=attempted,
        failed=failed,
        unbounded=unbounded,
        first_error=next((p["first_error"] for p in passes if p["first_error"]), None),
        moving_channel=passes[0]["moving_channel"],
        permutation=list(scores["permutation"]),
        sdr_imp_db=scores["sdr_imp_db"],
        checks=checks,
        metrics=values,
        loadavg_after=loadavg(),
    )
    return record, values, unbounded


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Streaming-chain benchmark of ivastream.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "ivastream" / "__init__.py").is_file():
        print(f"error: no ivastream package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        record, values, unbounded = measure(args, WORKLOADS[args.workload])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names, units = declared(args.trace)
    if names != set(values):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    correct = all(record["checks"].values())
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.workload} seed={args.seed} passes={record['passes']} "
          f"frames/pass={record['frames_per_pass']} trace={args.trace}")
    for name, value in (values | unbounded).items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print("record: " + json.dumps({k: record[k] for k in
                                   ("seed", "held_out_seed", "host", "loadavg_before", "loadavg_after")}))
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
