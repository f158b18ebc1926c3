"""Trainable biased quantum walks with distribution-shaped random numbers.

The package simulates 1D discrete-time quantum walks whose coin bias can be
set independently at every step and position, fits those biases by gradient
descent so the walk's output matches an arbitrary target distribution, and
turns the result into seeded, statistically validated random-number streams.
"""

from .analysis import (
    ChiSquareReport,
    RobustnessCurve,
    chi_square_p_value,
    chi_square_test,
    entropy_report,
    quantize_ratio,
    quantize_schedule,
    robustness_sweep,
)
from .fileio import load_target
from .oracle import dense_walk, fd_gradient
from .sampling import (
    SampleStream,
    SamplerState,
    build_sampler,
    counts_by_position,
    decode_bits,
    draw,
    empirical_distribution,
    encode_bits,
    pack_bits,
    unpack_bits,
)
from .targets import gaussian_target, target_from_spec, uniform_target
from .training import (
    TrainConfig,
    TrainReport,
    apply_update,
    fidelity,
    loss_gradient,
    mse_loss,
    train,
)
from .walk import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    WalkState,
    coin_from_ratio,
    initial_state,
    measure,
    run_walk,
    support_positions,
)

__version__ = "0.1.0"

__all__ = [
    "ChiSquareReport",
    "CoinSchedule",
    "Distribution",
    "NAMED_COIN_VECTORS",
    "RobustnessCurve",
    "SampleStream",
    "SamplerState",
    "TrainConfig",
    "TrainReport",
    "WalkState",
    "apply_update",
    "build_sampler",
    "chi_square_p_value",
    "chi_square_test",
    "coin_from_ratio",
    "counts_by_position",
    "decode_bits",
    "dense_walk",
    "draw",
    "empirical_distribution",
    "encode_bits",
    "entropy_report",
    "fd_gradient",
    "fidelity",
    "gaussian_target",
    "initial_state",
    "load_target",
    "loss_gradient",
    "measure",
    "mse_loss",
    "pack_bits",
    "quantize_ratio",
    "quantize_schedule",
    "robustness_sweep",
    "run_walk",
    "support_positions",
    "target_from_spec",
    "train",
    "uniform_target",
    "unpack_bits",
]
