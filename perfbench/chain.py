"""The program under test: one stream through the chain a user runs.

``cli.read_wav`` -> ``stft.analyze`` -> per frame
``OnlineAuxIva.process_frame`` + ``separator.project_back`` ->
``stft.synthesize``, called through public names only, as in the README
quick start.  Run as a child of ``run.py``::

    python3 perfbench/chain.py --scene DIR --method iss --mode one \
        --seconds 45 --trace 0

It repeats the whole chain (a fresh engine each pass) at least once, and
then as long as one more pass of the mean length so far still ends within
``--seconds``, and writes ``stats.json`` and the first pass's
``estimates.npy`` into ``DIR``.  Every ``REF_EVERY`` frames it runs one
``hostref`` block between two frames, outside the timed chain, so that
``run.py`` can scale each frame's time to the nominal host speed.
``ivastream`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import hostref
import tracing
from ivastream import cli, linalg, scenario, separator, stft


#: Frames between two host-speed reference blocks: about 75 ms of ISS or
#: 180 ms of IP stream per block of about 2 ms.
REF_EVERY = 32


def load_oracle(scene: Path) -> scenario.GroundTruth:
    """Ground truth the ``one`` schedule needs to pick the moving output
    channel at the switch frame (read from the scene, never timed)."""
    meta = json.loads((scene / "scene.json").read_text())
    _, mixture = cli.read_wav(scene / "mixture.wav")
    images = np.stack(
        [cli.read_wav(scene / f"image_mic1_{k + 1}.wav")[1][0] for k in range(meta["n_src"])]
    )
    return scenario.GroundTruth(
        sources=images,
        mixtures=mixture,
        images=images[:, None, :],
        sample_rate=meta["sample_rate"],
        mixing_pre=np.eye(meta["n_src"]),
        move_source=meta["move_source"],
        move_sample=meta["move_sample"],
    )


def run_chain(mixture_path, method: str, oracle: scenario.GroundTruth | None = None, tracer=None):
    """One pass of the chain.  Returns ``(estimates (K, N), record)``.

    A ``hostref`` block runs before every ``REF_EVERY``-th frame; its time
    is recorded and left out of ``chain_s``.

    ``oracle`` selects the ``one`` schedule: every index until the move,
    then only the output channel ``cli.moving_output_channel`` picks at the
    switch frame, exactly as ``cli.run_moving_experiment`` does.  That
    decision is ground-truth oracle work and is left out of ``chain_s``.
    """
    tic = time.perf_counter()
    rate, mixture = cli.read_wav(mixture_path)
    cfg = stft.StftConfig(sample_rate=rate)
    spec = stft.analyze(mixture, cfg)
    n_src, n_frames, n_bins = spec.data.shape
    switch_frame = None
    chosen: dict[str, int] = {}
    if oracle is None:
        selector = separator.UpdateSchedule.all_sources(n_src)
        indices_at = selector.indices
    else:
        switch_frame = oracle.move_sample // cfg.hop + 1
        everyone = tuple(range(n_src))

        def selector(t: int):
            return everyone if t < switch_frame else (chosen["channel"],)

        indices_at = selector
    engine = separator.OnlineAuxIva(
        n_bins, n_src, separator.OnlineConfig(method=method, selector=selector)
    )
    out = np.empty_like(spec.data)
    latency_s = np.empty(n_frames)
    failed = 0
    first_error = None
    oracle_s = 0.0
    ref_s = []
    # only process_frame solves and only project_back inverts, so the
    # counter deltas over the loop are theirs
    solves0, inversions0 = linalg.op_counter.solves, linalg.op_counter.inversions
    for t in range(n_frames):
        if tracer is not None:
            tracer.frame = t
        if t % REF_EVERY == 0:
            ref_s.append(hostref.block())
        if t + 1 == switch_frame:
            o0 = time.perf_counter()
            pre = stft.synthesize(stft.Spectrogram(out[:, :t, :]), cfg)
            chosen["channel"] = cli.moving_output_channel(oracle, pre)
            oracle_s += time.perf_counter() - o0
        x = np.ascontiguousarray(spec.data[:, t, :].T)
        f0 = time.perf_counter()
        try:
            y = engine.process_frame(x)
            y = separator.project_back(engine.demix, y)
        except Exception as exc:  # a stream must not halt: count the frame as failed
            latency_s[t] = time.perf_counter() - f0
            failed += 1
            first_error = first_error or repr(exc)
            out[:, t, :] = 0.0
            continue
        latency_s[t] = time.perf_counter() - f0
        if np.all(np.isfinite(y)):
            out[:, t, :] = y.T
        else:
            failed += 1
            out[:, t, :] = 0.0
    if tracer is not None:
        tracer.frame = -1
    solves = linalg.op_counter.solves - solves0
    inversions = linalg.op_counter.inversions - inversions0
    estimates = stft.synthesize(stft.Spectrogram(out), cfg, n_samples=mixture.shape[1])
    chain_s = time.perf_counter() - tic - oracle_s - sum(ref_s)
    record = {
        "chain_s": chain_s,
        "audio_s": mixture.shape[1] / rate,
        "oracle_s": oracle_s,
        "frames": n_frames,
        "n_bins": n_bins,
        "failed": failed,
        "first_error": first_error,
        "solves": solves,
        "inversions": inversions,
        "index_updates": sum(
            engine.config.n_iter * len(indices_at(t)) for t in range(1, n_frames + 1)
        ),
        "degenerate_bins": engine.diagnostics.total,
        "flops": vars(engine.flops).copy(),
        "state_bytes": engine.demix.nbytes + engine.covariance.nbytes,
        "moving_channel": chosen.get("channel"),
        "mixture_shape": list(mixture.shape),
        "latency_ms": (1e3 * latency_s).tolist(),
        "ref_every": REF_EVERY,
        "ref_s": ref_s,
    }
    return estimates, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scene", required=True, type=Path)
    p.add_argument("--method", choices=("iss", "ip"), required=True)
    p.add_argument("--mode", choices=("all", "one"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    oracle = load_oracle(args.scene) if args.mode == "one" else None
    tracer = None
    if args.trace:
        tracer = tracing.install({"cli": cli, "stft": stft, "separator": separator, "linalg": linalg})
    passes = []
    digests = set()
    start = time.perf_counter()
    while True:
        estimates, record = run_chain(args.scene / "mixture.wav", args.method, oracle, tracer)
        if not passes:
            np.save(args.scene / "estimates.npy", estimates)
            shape, finite = list(estimates.shape), bool(np.all(np.isfinite(estimates)))
            # the peak of one stream: later passes reuse heap that glibc's
            # raised mmap threshold kept, so the peak would follow the pass count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # a digest, not a copy, so that no earlier pass stays resident
        digests.add(hashlib.sha256(estimates.tobytes()).hexdigest())
        del estimates
        passes.append(record)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    stats = {
        "passes": passes,
        "passes_identical": len(digests) == 1,
        "estimates_shape": shape,
        "estimates_finite": finite,
        "ru_maxrss_kb": peak_kb,
    }
    if tracer is not None:
        stats["spans"] = tracer.durations()
        stats["final_synthesize_s"] = tracer.total_s("stft.synthesize", frame=-1)
        tracer.write(args.scene / "spans.jsonl")
    (args.scene / "stats.json").write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
