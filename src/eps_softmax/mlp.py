"""A small fully connected ReLU network with manual backprop, plus its optimizer.

Weights are stored (fan_out, fan_in) so a layer computes x @ W.T + b. The
update rule is SGD with classical momentum and decoupled-from-nothing weight
decay folded into the gradient:

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - lr * v

Every ParamSet (parameters, gradients, velocity) is one flat float64 buffer,
``flat``, holding all weight matrices in layer order and then all bias
vectors; ``weights`` and ``biases`` are views into it. The optimizer and the
gradient clip therefore run a few ufuncs over ``flat``, each in the same
elementwise order as the per-layer update written above, so they give the same
bits as a loop over layers.

All updates happen in place. Every network buffer comes from a Workspace
the caller builds and passes to each function that writes it (forward,
backward, clip_grad_norm, sgd_step, evaluate), so a step allocates no
per-layer arrays. Results computed through a workspace are views of its
buffers, overwritten by the next of those calls on it; callers that need
snapshots should copy. A run builds its workspace once, for the larger of
its batch and one evaluate chunk, and evaluate runs the test set through it
in chunks of that many rows.
Identical seeds give bitwise identical parameters and trajectories in
single-threaded use.

The BLAS thread rule lives here too: under ``blas_threads_for``, a net whose
largest per-step matrix product is below ONE_THREAD_BELOW multiply-adds runs
numpy's bundled OpenBLAS at one thread.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import check_labels, make_rng
from .errors import ConfigError, check_fields


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to output, e.g. (8, 64, 64, 4), and an init seed."""

    layer_sizes: tuple[int, ...]
    init_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))  # a file gives a list
        if len(self.layer_sizes) < 2:
            raise ConfigError("need at least an input and an output layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ConfigError("layer sizes must be positive")

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class OptimSpec:
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    clip_norm: float = 5.0
    epochs: int = 100
    batch_size: int = 128

    def __post_init__(self):
        check_fields(self)
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")


def n_params(layer_sizes) -> int:
    """Weights and biases of a network with these layer widths."""
    return sum(i * o + o for i, o in zip(layer_sizes, layer_sizes[1:]))


@dataclass
class ParamSet:
    """Per-layer weights and biases as views into one flat buffer; also the
    container for grads and velocity.

    ``flat`` holds the weights in layer order, then the biases, which is the
    order ``arrays()`` yields them in. Writing through a view writes ``flat``.
    """

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros(cls, layer_sizes) -> ParamSet:
        """A zero-filled set for a network with these layer widths."""
        shapes = list(zip(layer_sizes[1:], layer_sizes[:-1]))  # (fan_out, fan_in)
        flat = np.zeros(n_params(layer_sizes))
        weights, start = [], 0
        for shape in shapes:
            stop = start + shape[0] * shape[1]
            weights.append(flat[start:stop].reshape(shape))
            start = stop
        biases = []
        for fan_out, _ in shapes:
            biases.append(flat[start : start + fan_out])
            start += fan_out
        return cls(flat, weights, biases)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    def arrays(self):
        yield from self.weights
        yield from self.biases


#: Bytes of layer outputs one evaluate chunk may hold. A matrix product can
#: round differently at another row count (OpenBLAS picks its kernel by rows),
#: so this is sized to keep the 8-64-64-4 default net's test set in one pass
#: (3,971 rows fit) while a 128-512-512-10 net runs in chunks of its 512-row
#: batch, which round the same as one pass with OpenBLAS 0.3.31.
EVAL_CHUNK_BYTES = 4 * 2**20


class Workspace:
    """The one owner of a training step's buffers, reused across steps.

    Built for ``rows``, the most any forward through it holds, it makes at
    once one set of layer outputs and hidden-layer ReLU masks of that many
    rows; the gradient set backward writes into; and ``pending``, the
    (params, input) of the last forward, which backward consumes and evaluate
    clears. A smaller batch, such as the last partial batch or an evaluation
    chunk, gets leading-row views of the same buffers, cached per row count.

    The layer outputs are views into one float64 arena of
    max(rows x sum(layer_sizes[1:]), n_params) entries. ``scratch``, the
    arena's first n_params entries, takes the temporaries of clip_grad_norm
    and sgd_step, so call those between a backward, which has spent the
    outputs, and the next forward, as train_step does.
    """

    def __init__(self, layer_sizes, rows: int):
        self.layer_sizes = tuple(layer_sizes)
        self.rows = rows
        self.pending: tuple[ParamSet, np.ndarray] | None = None
        widths = self.layer_sizes[1:]
        arena = np.empty(max(rows * sum(widths), n_params(self.layer_sizes)))
        self._outputs, start = [], 0
        for n in widths:
            self._outputs.append(arena[start : start + rows * n].reshape(rows, n))
            start += rows * n
        self._masks = [np.empty((rows, n), dtype=bool) for n in widths[:-1]]
        self._views: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        self.grads = ParamSet.zeros(self.layer_sizes)
        self.scratch = arena[: self.grads.flat.size]

    def buffers(self, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each layer's output (hidden activations, then logits) and each
        hidden layer's ReLU mask for a batch of ``rows``; ValueError for more
        rows than the workspace was built for."""
        views = self._views.get(rows)
        if views is None:
            if rows > self.rows:
                raise ValueError(f"a batch of {rows} rows exceeds the workspace's {self.rows}")
            views = self._views[rows] = (
                [z[:rows] for z in self._outputs],
                [mask[:rows] for mask in self._masks],
            )
        return views


def eval_rows(layer_sizes, n: int) -> int:
    """Rows per evaluate chunk of n rows: EVAL_CHUNK_BYTES of layer outputs, in [1, n]."""
    return min(n, max(EVAL_CHUNK_BYTES // (8 * sum(layer_sizes[1:])), 1))


def init_params(spec: MlpSpec) -> ParamSet:
    """He-normal weights (std sqrt(2 / fan_in)) and zero biases."""
    rng = make_rng(spec.init_seed)
    params = ParamSet.zeros(spec.layer_sizes)
    for w in params.weights:
        fan_in = w.shape[1]
        w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / fan_in)
    return params


def forward(params: ParamSet, x, ws: Workspace) -> np.ndarray:
    """Logits for a batch, computed through ``ws``, which holds the batch for backward.

    Layer outputs are written into the leading rows of ``ws``'s buffers, and
    the batch becomes ``ws.pending``, replacing any earlier one. The returned
    logits alias the buffers until the next forward through the same
    workspace, whatever its row count, and until a clip_grad_norm or sgd_step
    on ``ws``, whose scratch shares their arena.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {a.shape}")
    if a.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input dim {a.shape[1]} does not match first layer fan-in "
            f"{params.weights[0].shape[1]}"
        )
    outputs, _ = ws.buffers(a.shape[0])
    ws.pending = (params, a)
    last = len(params.weights) - 1
    for i, (w, b, z) in enumerate(zip(params.weights, params.biases, outputs)):
        np.matmul(a, w.T, out=z)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        a = z
    return a


def backward(ws: Workspace, grad_logits: np.ndarray) -> ParamSet:
    """Exact parameter gradients for ``ws``'s pending forward, given
    d(loss)/d(logits) for the same batch.

    Pass the gradient of the batch-mean loss to get batch-mean parameter
    gradients. They are written into ``ws.grads``, which the next backward
    through ``ws`` overwrites. Backward consumes the pending forward: each
    hidden layer's backpropagated signal overwrites that layer's output. With
    no forward pending, as after an earlier backward or an evaluate through
    ``ws``, it raises ValueError.
    """
    if ws.pending is None:
        raise ValueError("no forward pending: a backward or evaluate spent it; stale cache?")
    params, x = ws.pending
    outputs, masks = ws.buffers(x.shape[0])
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != outputs[-1].shape:
        raise ValueError(
            f"grad_logits shape {g.shape} does not match the pending logits "
            f"{outputs[-1].shape}; stale cache?"
        )
    ws.pending = None
    grads = ws.grads
    for i in range(len(params.weights) - 1, -1, -1):
        inputs = outputs[i - 1] if i > 0 else x
        np.matmul(g.T, inputs, out=grads.weights[i])
        np.add.reduce(g, axis=0, out=grads.biases[i])
        if i > 0:
            # a hidden output is relu(z), which is positive exactly where z is;
            # nothing reads the output after its mask, so the signal overwrites it
            mask = masks[i - 1]
            np.greater(inputs, 0.0, out=mask)
            np.matmul(g, params.weights[i], out=inputs)
            np.multiply(inputs, mask, out=inputs)
            g = inputs
    return grads


def clip_grad_norm(ws: Workspace, max_norm: float) -> tuple[ParamSet, float]:
    """Rescale ``ws.grads`` in place if their global L2 norm exceeds max_norm.

    The squares go to ``ws.scratch`` (its layer-output arena; see Workspace),
    and each array's are summed over that array's range of them, weights then
    biases, so the norm has the same bits as summing each layer's gradient on
    its own. Returns ``ws.grads`` and the scale factor applied (1.0 when no
    clipping).
    """
    grads = ws.grads
    with np.errstate(over="ignore"):  # a finite gradient's squares may overflow
        squares = np.multiply(grads.flat, grads.flat, out=ws.scratch)
    total, start = 0.0, 0
    for a in grads.arrays():
        total += float(np.add.reduce(squares[start : start + a.size]))
        start += a.size
    norm, big = math.sqrt(total), 1.0
    if norm == math.inf and np.isfinite(grads.flat).all():
        # divided by its largest entry, the gradient's squares cannot overflow
        big = float(np.abs(grads.flat).max())
        shrunk = np.divide(grads.flat, big, out=squares)
        norm = math.sqrt(float(shrunk @ shrunk))  # in units of big
    scale = 1.0
    if norm > max_norm / big:
        scale = max_norm / big / norm
        grads.flat *= scale
    return grads, scale


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at epoch total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_step(
    params: ParamSet,
    ws: Workspace,
    velocity: ParamSet,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One momentum-SGD update of params and velocity by ``ws.grads``, in place.

    The update's temporary goes to ``ws.scratch``, its layer-output arena
    (see Workspace).
    """
    step = np.multiply(params.flat, weight_decay, out=ws.scratch)
    step += ws.grads.flat
    velocity.flat *= momentum
    velocity.flat += step
    np.multiply(velocity.flat, lr, out=step)
    params.flat -= step


def evaluate(params: ParamSet, x, labels, ws: Workspace) -> float:
    """Top-1 accuracy: the share of rows whose highest logit is their label's.

    Ties go to the lower class index, as np.argmax breaks them. The rows run
    through ``ws`` in chunks of ``ws.rows`` and leave no forward pending on
    it. The misses are summed over chunks as integers.
    Raises ValueError on non-integer labels, IndexError on labels outside
    [0, K) and FloatingPointError on non-finite logits, which have no argmax.
    """
    x = np.asarray(x, dtype=np.float64)
    y = check_labels(labels, params.layer_sizes[-1])
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if x.shape[:1] != y.shape:
        raise ValueError(f"features of shape {x.shape} do not match {y.size} labels")
    misses = 0
    for start in range(0, y.size, ws.rows):
        logits = forward(params, x[start : start + ws.rows], ws)
        ws.pending = None  # no backward may follow an evaluation's forward
        if not np.isfinite(logits).all():
            raise FloatingPointError("logits are not finite; the network has diverged")
        misses += int(np.count_nonzero(logits.argmax(axis=1) != y[start : start + ws.rows]))
    return 1.0 - misses / y.size


#: Multiply-adds (rows x fan_in x fan_out) in a run's largest per-step matrix
#: product below which it trains at one BLAS thread. Measured on 2 CPUs with
#: OpenBLAS 0.3.31, as the wall time at 2 threads over that at 1: 1.15 for
#: 8-64-64-4 at batch 128 (2**19), 1.06 and 0.95 for two nets at 2**21, and
#: 0.78 at 2**25. Below 2**20 a second thread costs more than it saves.
ONE_THREAD_BELOW = 2**20


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (``libscipy_openblas64_``) through ctypes, or
    None when numpy was built against another BLAS; looked up once."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def set_blas_threads(n: int) -> int | None:
    """Set numpy's bundled OpenBLAS to n threads and return the count it had;
    on any other BLAS build do nothing and return None. The setting is
    process-wide, so it is not safe to change from several threads at once."""
    lib = _openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    return previous


@contextlib.contextmanager
def blas_threads_for(layer_sizes: tuple[int, ...], rows: int):
    """Run the block at one BLAS thread when the net's largest per-step matrix
    product, rows x fan_in x fan_out, is below ONE_THREAD_BELOW multiply-adds,
    then restore the count found, also on an exception. At or above the
    threshold, or on a BLAS other than the bundled OpenBLAS, do nothing."""
    largest = max(rows * i * o for i, o in zip(layer_sizes, layer_sizes[1:]))
    previous = set_blas_threads(1) if largest < ONE_THREAD_BELOW else None
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
