"""Noise-tolerant classification via an amplified softmax output.

The core idea: add a constant m to the winning softmax probability and
renormalize. The output then sits within sqrt(1 - 1/K) / (m + 1) of a one-hot
vector. On rows whose argmax misses the label, the logit gradient of cross
entropy on it is plain CE's; on rows whose argmax hits the label, it is CE's
scaled by p_y / (p_y + m). Pairing it with MAE gives the amplified + MAE
losses.

The names below are the library surface; the modules (transform, losses,
noise, mlp, theory, experiment, cli) hold the rest.
"""

from .errors import ConfigError, DataError, TrainingDiverged
from .losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss
from .transform import distance_to_one_hot, eps_bound, eps_softmax

__version__ = "0.1.0"
