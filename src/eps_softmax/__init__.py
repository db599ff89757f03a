"""Noise-tolerant classification via an amplified softmax output.

The core idea: add a constant m to the winning softmax probability and
renormalize. The output then sits within sqrt(1 - 1/K) / (m + 1) of a one-hot
vector, so cross entropy evaluated on it behaves like a bounded, nearly
symmetric loss, while its gradient still pulls mispredicted samples exactly
like plain CE. Pairing it with MAE gives a loss family that trains through
heavy label noise without giving up clean accuracy.

The names below are the library surface; the modules (transform, losses,
noise, mlp, theory, experiment, cli) hold the rest.
"""

from .errors import ConfigError, DataError, TrainingDiverged
from .losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss
from .transform import distance_to_one_hot, eps_bound, eps_softmax

__version__ = "0.1.0"
