"""Self-test of the benchmark on short scenes.

Checks that

* the benchmark's frame loop (``chain.run_chain``) reproduces
  ``cli.run_separation`` for the ``all`` schedules and
  ``cli.run_moving_experiment`` for ``iss_one`` to 1e-10, so the benchmark
  measures the shipped pipeline;
* traced and untraced passes produce bit-identical estimates, and the spans
  nest as the package calls them;
* the linear-sum-assignment alignment of ``scoring`` picks the permutation
  ``metrics.resolve_permutation`` picks, and scores K=8, where
  ``resolve_permutation`` refuses.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  Exit
code 0 when every check passes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import chain  # noqa: E402
import run  # noqa: E402
import scoring  # noqa: E402
import tracing  # noqa: E402
from ivastream import cli, linalg, metrics, scenario, separator, stft  # noqa: E402

TOLERANCE = 1e-10

#: name -> (K, duration s, moving, method, schedule)
CASES = {
    "iss_one": (3, 6.0, True, "iss", "one"),
    "ip_all": (3, 6.0, True, "ip", "all"),
    "iss_all_k8": (8, 2.0, False, "iss", "all"),
}


def shipped(scene: Path, method: str, mode: str, oracle) -> np.ndarray:
    """Estimates of the package's own pipeline on the scene's WAV mixture."""
    rate, mixture = cli.read_wav(scene / "mixture.wav")
    cfg = stft.StftConfig(sample_rate=rate)
    if mode == "one":
        estimates, _ = cli.run_moving_experiment(oracle, cfg, method, "one")
    else:
        online = separator.OnlineConfig(
            method=method, selector=separator.UpdateSchedule.all_sources(mixture.shape[0])
        )
        estimates, _ = cli.run_separation(mixture, cfg, online)
    return estimates


def main() -> int:
    results: dict[str, bool] = {}
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        scenes = {}
        for name, (k, duration, moving, method, mode) in CASES.items():
            scene = Path(tmp) / name
            scene.mkdir()
            truth = scenario.build(
                scenario.ScenarioConfig(
                    n_src=k, duration_s=duration, seed=3,
                    move_source=2 if moving else None,
                    move_time_s=duration / 2 if moving else None,
                )
            )
            run.write_scene(truth, scene, with_images=mode == "one")
            oracle = chain.load_oracle(scene) if mode == "one" else None
            scenes[name] = (scene, method, oracle, truth)
            ours, record = chain.run_chain(scene / "mixture.wav", method, oracle)
            theirs = shipped(scene, method, mode, oracle)
            err = float(np.max(np.abs(ours - theirs)))
            results[f"{name}: chain matches the shipped pipeline (max |diff| {err:.1e})"] = (
                ours.shape == theirs.shape and err <= TOLERANCE
            )
            if k <= 6:
                results[f"{name}: assignment matches resolve_permutation"] = scoring.align(
                    truth.images_mic1, ours
                ) == tuple(metrics.resolve_permutation(truth.images_mic1, ours))
            else:
                scores = scoring.score(truth.images_mic1, truth.mixtures[0], ours)
                results[f"{name}: assignment scores K={k}"] = sorted(scores["permutation"]) == list(
                    range(k)
                ) and bool(np.isfinite([scores["sdr_imp_db"], scores["sdr_imp_late_db"]]).all())
            if method == "iss":
                results[f"{name}: no solves in process_frame"] = record["solves"] == 0
            scenes[name] += (ours,)

        tracer = tracing.install({"cli": cli, "stft": stft, "separator": separator, "linalg": linalg})
        for name, (scene, method, oracle, truth, untraced) in scenes.items():
            tracer.spans.clear()
            traced, _ = chain.run_chain(scene / "mixture.wav", method, oracle, tracer)
            results[f"{name}: traced estimates bit-identical"] = bool(np.array_equal(traced, untraced))
            names = [s[0] for s in tracer.spans]
            parent_of = {s[0]: names[s[3]] if s[3] >= 0 else None for s in tracer.spans}
            nesting = parent_of.get("linalg.inverse") == "separator.project_back" and (
                method == "iss"
                or parent_of.get("linalg.masked_solve_unit") == "separator.OnlineAuxIva.process_frame"
            )
            results[f"{name}: spans nest as the package calls"] = nesting

    for label, ok in results.items():
        print(f"{'ok    ' if ok else 'FAILED'} {label}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
