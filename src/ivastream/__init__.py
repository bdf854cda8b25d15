"""Streaming blind source separation with online auxiliary-function IVA.

The package separates multichannel STFT-domain mixtures frame by frame
with either iterative-projection (IP) or inverse-free iterative source
steering (ISS) demixing updates, tracks weighted covariances with a
forgetting factor, and ships a batch solver, synthetic moving-source
scenarios and segmental SI-SDR evaluation for end-to-end experiments.
"""

from .batch import BatchProblem, BatchResult, batch_auxiva, batch_weighted_covariance, cost
from .errors import ContractViolationError, DegenerateUpdateError, SingularMatrixError
from .metrics import (
    SdrImprovementReport,
    SegmentedSdr,
    resolve_permutation,
    sdr_improvement,
    seg_sdr,
    si_sdr,
)
from .scenario import GroundTruth, ScenarioConfig, build, mix, synth_sources
from .separator import (
    ContrastModel,
    DiagnosticsLog,
    FlopCounter,
    OnlineAuxIva,
    OnlineConfig,
    UpdateSchedule,
    ip_update_row,
    iss_apply,
    iss_vector,
    project_back,
)
from .stft import Spectrogram, StftConfig, analyze, synthesize

__version__ = "0.1.0"

__all__ = [
    "BatchProblem",
    "BatchResult",
    "ContractViolationError",
    "ContrastModel",
    "DegenerateUpdateError",
    "DiagnosticsLog",
    "FlopCounter",
    "GroundTruth",
    "OnlineAuxIva",
    "OnlineConfig",
    "ScenarioConfig",
    "SdrImprovementReport",
    "SegmentedSdr",
    "SingularMatrixError",
    "Spectrogram",
    "StftConfig",
    "UpdateSchedule",
    "analyze",
    "batch_auxiva",
    "batch_weighted_covariance",
    "build",
    "cost",
    "ip_update_row",
    "iss_apply",
    "iss_vector",
    "mix",
    "project_back",
    "resolve_permutation",
    "sdr_improvement",
    "seg_sdr",
    "si_sdr",
    "synth_sources",
    "synthesize",
]
