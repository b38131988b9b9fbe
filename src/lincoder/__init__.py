"""Code-rate analysis of linear stochastic systems and data-based emulation.

The package computes the minimum number of bits per sample needed to
describe the state changes of a noisy linear system to a mean-square
fidelity, locates the sampling rate required by a fixed-capacity channel,
and emulates trajectories of unknown systems from observed data through
vector-field source codes.
"""

from .coderate import (
    NotNeeded,
    RateCurve,
    increment_rate,
    min_sampling_rate,
    rate_ceiling,
    rate_curve,
)
from .emulation import (
    EmulationResult,
    IntegerCode,
    SimplexCode,
    SourceFamily,
    StepCodes,
    compress_dataset,
    emulate,
    emulate_steps,
    endpoint_map,
    integer_code_count,
    integer_decompress,
    integer_quantize,
    onehot_code_rate_bits,
    onehot_compress,
    simplex_compress,
    simplex_decompress,
)
from .errors import (
    CapacityInfeasibleError,
    FastPathDomainError,
    InfeasibleTargetError,
    LincoderError,
    NoEquilibriumError,
    NotPositiveDefiniteError,
)
from .linalg import is_hurwitz, logdet_psd, lyapunov_solve
from .linearsystem import (
    ConstantDrift,
    IncrementDistribution,
    LinearSystemModel,
    increment_distribution,
    sample_paths,
)
from .presets import demo_model, demo_names, planar_grid_family
from .ratedistortion import RdfResult, rdf, rdf_small_distortion
from .trajectories import TrajectoryDataset

__version__ = "0.1.0"

__all__ = [
    "CapacityInfeasibleError",
    "ConstantDrift",
    "EmulationResult",
    "FastPathDomainError",
    "IncrementDistribution",
    "InfeasibleTargetError",
    "IntegerCode",
    "LinearSystemModel",
    "LincoderError",
    "NoEquilibriumError",
    "NotNeeded",
    "NotPositiveDefiniteError",
    "RateCurve",
    "RdfResult",
    "SimplexCode",
    "SourceFamily",
    "StepCodes",
    "TrajectoryDataset",
    "compress_dataset",
    "demo_model",
    "demo_names",
    "emulate",
    "emulate_steps",
    "endpoint_map",
    "increment_distribution",
    "increment_rate",
    "integer_code_count",
    "integer_decompress",
    "integer_quantize",
    "is_hurwitz",
    "logdet_psd",
    "lyapunov_solve",
    "min_sampling_rate",
    "onehot_code_rate_bits",
    "onehot_compress",
    "planar_grid_family",
    "rate_ceiling",
    "rate_curve",
    "rdf",
    "rdf_small_distortion",
    "sample_paths",
    "simplex_compress",
    "simplex_decompress",
]
