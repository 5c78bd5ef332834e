"""Road-graph hidden Markov localization.

Builds a directed road map with column-stochastic transitions, a noisy
place-observation model, runs scaled HMM filtering and forward-backward
smoothing, and replicates the accuracy comparison between the two on
simulated trajectories.
"""

from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    Table1Row,
    TrajectorySample,
    TrialTraces,
    accuracy,
    build_model,
    inverse_cdf_sample,
    replicate_table1,
    run_experiment,
    sample_trajectory,
    simulate_trials,
    splitmix64,
    trial_seed,
)
from .inference import (
    InferenceError,
    InferenceResult,
    ScaledMessages,
    backward_pass,
    forward_pass,
    map_estimate,
    point_mass_belief,
    run_smoother,
    smooth,
    uniform_belief,
)
from .oracle import enumerate_posteriors
from .roadmap import (
    DEFAULT_MAP_SEED,
    DEFAULT_NUM_NODES,
    MAIN_ROAD_NODES,
    Edge,
    MapError,
    RoadGraph,
    build_transition_matrix,
    generate_default_map,
    load_map,
    save_map,
)
from .sensor import (
    NoiseSpec,
    apply_gaussian_noise,
    build_confusion_base,
    gaussian_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAP_SEED",
    "DEFAULT_NUM_NODES",
    "MAIN_ROAD_NODES",
    "Edge",
    "ExperimentConfig",
    "ExperimentResult",
    "InferenceError",
    "InferenceResult",
    "MapError",
    "NoiseSpec",
    "RoadGraph",
    "ScaledMessages",
    "Table1Row",
    "TrajectorySample",
    "TrialTraces",
    "accuracy",
    "apply_gaussian_noise",
    "backward_pass",
    "build_confusion_base",
    "build_model",
    "build_transition_matrix",
    "enumerate_posteriors",
    "forward_pass",
    "gaussian_kernel",
    "generate_default_map",
    "inverse_cdf_sample",
    "load_map",
    "map_estimate",
    "point_mass_belief",
    "replicate_table1",
    "run_experiment",
    "run_smoother",
    "sample_trajectory",
    "save_map",
    "simulate_trials",
    "smooth",
    "splitmix64",
    "trial_seed",
    "uniform_belief",
]
