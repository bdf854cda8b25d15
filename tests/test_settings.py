"""The one rule for numeric settings (``errors.check_number``), held at every
numeric setting of the public API: a value is accepted or raises
``ContractViolationError`` naming the setting, and never anything else."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivastream import ContractViolationError
from ivastream.batch import BatchProblem
from ivastream.metrics import check_segment_len
from ivastream.scenario import ScenarioConfig, synth_sources
from ivastream.separator import OnlineAuxIva, OnlineConfig, UpdateSchedule, ip_update_row, iss_apply, iss_vector
from ivastream.stft import Spectrogram, StftConfig, synthesize

SPEC = Spectrogram(np.ones((2, 4, 3), dtype=complex))  # 4 frames of a frame_len-4 STFT
W = np.tile(np.eye(3, dtype=complex), (2, 1, 1))  # K=3, two bins
U = np.tile(np.eye(3, dtype=complex), (3, 2, 1, 1))

#: Each setting: the name its error carries, a call that sets it to ``v``
#: with every other argument valid, and an integer inside its range.
SETTINGS = {
    "OnlineConfig.alpha": ("alpha", lambda v: OnlineConfig(alpha=v), 0),
    "OnlineConfig.n_iter": ("n_iter", lambda v: OnlineConfig(n_iter=v), 3),
    "OnlineAuxIva.n_bins": ("n_bins", lambda v: OnlineAuxIva(v, 2), 4),
    "OnlineAuxIva.n_src": ("n_src", lambda v: OnlineAuxIva(4, v), 2),
    "ip_update_row.k": ("k", lambda v: ip_update_row(W, U[0], v), 1),
    "iss_vector.k": ("k", lambda v: iss_vector(W, U, v), 1),
    "iss_apply.k": ("k", lambda v: iss_apply(W, np.zeros((2, 3)), v), 1),
    "switch_to.switch_frame": ("switch_frame", lambda v: UpdateSchedule.switch_to(3, 0, v), 5),
    "switch_to.moving": ("moving", lambda v: UpdateSchedule.switch_to(3, v, 5), 2),
    "switch_to.moving_in_a_tuple": ("moving", lambda v: UpdateSchedule.switch_to(3, (0, v), 5), 2),
    "StftConfig.frame_len": ("frame_len", lambda v: StftConfig(frame_len=v), 16),
    "StftConfig.sample_rate": ("sample_rate", lambda v: StftConfig(sample_rate=v), 8000),
    "synthesize.n_samples": ("n_samples", lambda v: synthesize(SPEC, StftConfig(frame_len=4), n_samples=v), 5),
    "ScenarioConfig.n_src": ("n_src", lambda v: ScenarioConfig(n_src=v), 2),
    "ScenarioConfig.duration_s": ("duration_s", lambda v: ScenarioConfig(duration_s=v), 2),
    "ScenarioConfig.sample_rate": ("sample_rate", lambda v: ScenarioConfig(sample_rate=v), 8000),
    "ScenarioConfig.seed": ("seed", lambda v: ScenarioConfig(seed=v), 7),
    "ScenarioConfig.move_source": ("move_source", lambda v: ScenarioConfig(move_source=v, move_time_s=30.0), 1),
    "ScenarioConfig.move_time_s": ("move_time_s", lambda v: ScenarioConfig(move_source=1, move_time_s=v), 30),
    "synth_sources.n_src": ("n_src", lambda v: synth_sources(v, 0.01, 1000), 2),
    "synth_sources.duration_s": ("duration_s", lambda v: synth_sources(2, v, 1000), 1),
    "synth_sources.sample_rate": ("sample_rate", lambda v: synth_sources(2, 1.0, v), 100),
    "synth_sources.seed": ("seed", lambda v: synth_sources(2, 0.01, 1000, v), 7),
    "BatchProblem.n_iter": ("n_iter", lambda v: BatchProblem(SPEC, n_iter=v), 4),
    "check_segment_len": ("segment_len", lambda v: check_segment_len(10**6, v), 100),
}

# integers span both sides of every range; they stay small because
# OnlineAuxIva and synth_sources allocate arrays of that size
INTEGERS = st.integers(-5, 20)
NUMPY_INTEGERS = st.tuples(st.sampled_from([np.int32, np.int64]), INTEGERS).map(lambda p: p[0](p[1]))


def values(floats):
    return st.one_of(
        st.booleans(), INTEGERS, NUMPY_INTEGERS, floats, floats.map(np.float64), st.text(max_size=3), st.none(),
    )


#: synth_sources allocates duration_s x sample_rate samples, so its duration
#: is drawn from a bounded range (at most 10 000 samples); every other
#: setting draws any float, and often one whose sample count overflows.
ANY_VALUE = values(st.floats() | st.sampled_from([1e305, -1e305]))
BOUNDED_VALUE = values(st.floats(-10.0, 10.0) | st.sampled_from([np.nan, np.inf, -np.inf]))


@pytest.mark.parametrize("key", SETTINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_setting_accepts_or_names_itself(key, data):
    name, build, _ = SETTINGS[key]
    value = data.draw(BOUNDED_VALUE if key == "synth_sources.duration_s" else ANY_VALUE, label=name)
    try:
        build(value)
    except ContractViolationError as exc:
        assert re.search(rf"\b{name}\b", str(exc))


@pytest.mark.parametrize("kind", [int, np.int32, np.int64])
@pytest.mark.parametrize("key", SETTINGS)
def test_in_range_integer_accepted(key, kind):
    _, build, inside = SETTINGS[key]
    build(kind(inside))
