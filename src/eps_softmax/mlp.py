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

All updates happen in place. A training loop passes a Workspace to forward
and evaluate: the workspace owns one set of layer outputs and ReLU masks,
sized to the largest batch it has served, and the gradient set, so a step
allocates no per-layer arrays. Smaller batches use the leading rows of the
same buffers, and backward writes each hidden layer's backpropagated signal
over that layer's output. Results computed through a workspace are views of
its buffers and are overwritten by its next forward; callers that need
snapshots should copy. Without a workspace every call gets fresh buffers.
evaluate runs the test set through the workspace in chunks, so a run's
working memory follows the batch size rather than the test-set size.
Identical seeds give bitwise identical parameters and trajectories in
single-threaded use.

The BLAS thread count of numpy's bundled OpenBLAS is set here too, through
``set_blas_threads``: a run whose largest per-step matrix product is below
ONE_THREAD_BELOW multiply-adds trains at one thread (see
``experiment.run_experiment``).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import make_rng
from .errors import ConfigError, check_finite_fields


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to output, e.g. (8, 64, 64, 4), and an init seed."""

    layer_sizes: tuple[int, ...]
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
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
        check_finite_fields(self, allow_inf="clip_norm")  # inf: no clipping
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
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scratch_parts: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def zeros(cls, layer_sizes) -> ParamSet:
        """A zero-filled set for a network with these layer widths."""
        shapes = list(zip(layer_sizes[1:], layer_sizes[:-1]))  # (fan_out, fan_in)
        flat = np.zeros(sum(o * i + o for o, i in shapes))
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

    def scratch(self) -> np.ndarray:
        """A buffer shaped like ``flat`` for in-place temporaries, made on the
        first call and returned again after; its contents are undefined."""
        if self._scratch is None:
            self._scratch = np.empty_like(self.flat)
        return self._scratch

    def scratch_parts(self) -> list[np.ndarray]:
        """Flat views of ``scratch()``, one per array in ``arrays()`` order,
        each over the range that array occupies in ``flat``; made once."""
        if self._scratch_parts is None:
            scratch, parts, start = self.scratch(), [], 0
            for a in self.arrays():
                parts.append(scratch[start : start + a.size])
                start += a.size
            self._scratch_parts = parts
        return self._scratch_parts


#: Bytes of layer outputs one evaluate chunk may hold. A matrix product can
#: round differently at another row count (OpenBLAS picks its kernel by rows),
#: so this is sized to keep the 8-64-64-4 default net's test set in one pass
#: (3,971 rows fit) while a 128-512-512-10 net runs in chunks of its 512-row
#: batch, which round the same as one pass with OpenBLAS 0.3.31.
EVAL_CHUNK_BYTES = 4 * 2**20


class Workspace:
    """Buffers a training loop reuses across steps.

    It keeps one set of layer outputs and hidden-layer ReLU masks, sized to
    the largest row count it has served, and the gradient set backward writes
    into. A smaller batch, such as the last partial batch or an evaluation
    chunk, gets leading-row views of the same buffers. The views are cached
    per row count, so repeated forwards with the same rows return the same
    arrays.
    """

    def __init__(self, layer_sizes):
        self.layer_sizes = tuple(layer_sizes)
        self.grads: ParamSet | None = None
        self._allocate(0)

    def _allocate(self, rows: int) -> None:
        widths = self.layer_sizes[1:]
        self.rows = rows
        self._outputs = [np.empty((rows, n)) for n in widths]
        self._masks = [np.empty((rows, n), dtype=bool) for n in widths[:-1]]
        self._views: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}

    def buffers(self, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each layer's output (hidden activations, then logits) and each
        hidden layer's ReLU mask for a batch of ``rows``."""
        views = self._views.get(rows)
        if views is None:
            if rows > self.rows:
                self._allocate(rows)
            views = self._views[rows] = (
                [z[:rows] for z in self._outputs],
                [mask[:rows] for mask in self._masks],
            )
        return views

    def eval_rows(self) -> int:
        """Rows per evaluate chunk: as many as EVAL_CHUNK_BYTES of layer
        outputs hold, and never fewer than the buffers already have."""
        return max(self.rows, EVAL_CHUNK_BYTES // (8 * sum(self.layer_sizes[1:])), 1)


@dataclass
class ForwardCache:
    """What backward needs from one forward; backward consumes it."""

    params: ParamSet
    x: np.ndarray
    outputs: list[np.ndarray]
    masks: list[np.ndarray]
    workspace: Workspace
    consumed: bool = False


def init_params(spec: MlpSpec) -> ParamSet:
    """He-normal weights (std sqrt(2 / fan_in)) and zero biases."""
    rng = make_rng(spec.init_seed)
    params = ParamSet.zeros(spec.layer_sizes)
    for w in params.weights:
        fan_in = w.shape[1]
        w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / fan_in)
    return params


def zeros_like_params(params: ParamSet) -> ParamSet:
    return ParamSet.zeros(params.layer_sizes)


def forward(params: ParamSet, x, ws: Workspace | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits for a batch plus the cache needed by backward.

    Layer outputs are written into the leading rows of ``ws``'s buffers: the
    returned logits and the cache alias them until the next forward through
    the same workspace, whatever its row count. Without ``ws`` they are fresh
    arrays.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {a.shape}")
    if a.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input dim {a.shape[1]} does not match first layer fan-in "
            f"{params.weights[0].shape[1]}"
        )
    if ws is None:
        ws = Workspace(params.layer_sizes)
    outputs, masks = ws.buffers(a.shape[0])
    cache = ForwardCache(params, a, outputs, masks, ws)
    last = len(params.weights) - 1
    for i, (w, b, z) in enumerate(zip(params.weights, params.biases, outputs)):
        np.matmul(a, w.T, out=z)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        a = z
    return a, cache


def backward(cache: ForwardCache, grad_logits: np.ndarray) -> ParamSet:
    """Exact parameter gradients given d(loss)/d(logits) for the same batch.

    Pass the gradient of the batch-mean loss to get batch-mean parameter
    gradients. They are written into the workspace's gradient set, which the
    next backward through the same workspace overwrites. Backward consumes the
    cache: each hidden layer's backpropagated signal overwrites that layer's
    cached output, so a second backward on the same cache raises ValueError.
    """
    params = cache.params
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != cache.outputs[-1].shape:
        raise ValueError(
            f"grad_logits shape {g.shape} does not match cached logits "
            f"{cache.outputs[-1].shape}; stale cache?"
        )
    if cache.consumed:
        raise ValueError("an earlier backward consumed this cache's layer outputs; stale cache?")
    cache.consumed = True
    ws = cache.workspace
    if ws.grads is None:
        ws.grads = zeros_like_params(params)
    grads = ws.grads
    for i in range(len(params.weights) - 1, -1, -1):
        inputs = cache.outputs[i - 1] if i > 0 else cache.x
        np.matmul(g.T, inputs, out=grads.weights[i])
        np.add.reduce(g, axis=0, out=grads.biases[i])
        if i > 0:
            # a hidden output is relu(z), which is positive exactly where z is;
            # nothing reads the output after its mask, so the signal overwrites it
            mask = cache.masks[i - 1]
            np.greater(inputs, 0.0, out=mask)
            np.matmul(g, params.weights[i], out=inputs)
            np.multiply(inputs, mask, out=inputs)
            g = inputs
    return grads


def clip_grad_norm(grads: ParamSet, max_norm: float = 5.0) -> tuple[ParamSet, float]:
    """Rescale all gradients in place if their global L2 norm exceeds max_norm.

    The squares go to ``grads.scratch()`` and are summed per array through
    ``grads.scratch_parts()``, weights then biases, so the norm has the same
    bits as summing each layer's gradient on its own. Returns the grads and
    the scale factor applied (1.0 when no clipping). An infinite max_norm
    returns at once, since no norm can exceed it.
    """
    if max_norm == math.inf:
        return grads, 1.0
    np.multiply(grads.flat, grads.flat, out=grads.scratch())
    total = 0.0
    for squares in grads.scratch_parts():
        total += float(np.add.reduce(squares))
    norm = math.sqrt(total)
    scale = 1.0
    if norm > max_norm:
        scale = max_norm / norm
        grads.flat *= scale
    return grads, scale


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at epoch total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_step(
    params: ParamSet,
    grads: ParamSet,
    velocity: ParamSet,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> tuple[ParamSet, ParamSet]:
    """One momentum-SGD update, in place; returns (params, velocity).

    The update's temporary lives in ``grads.scratch()``.
    """
    step = np.multiply(params.flat, weight_decay, out=grads.scratch())
    step += grads.flat
    velocity.flat *= momentum
    velocity.flat += step
    np.multiply(velocity.flat, lr, out=step)
    params.flat -= step
    return params, velocity


def evaluate(params: ParamSet, x, labels, max_k: int = 5, ws: Workspace | None = None) -> dict:
    """Top-1 accuracy and top-k error rates for k = 1..min(max_k, K).

    Ranking ties go to the lower class index, and top-k error is nonincreasing
    in k by construction. The rows run through ``ws`` (a fresh workspace
    without one) in chunks of ``ws.eval_rows()``, so the layer outputs held at
    once are bounded by EVAL_CHUNK_BYTES or the largest batch the workspace
    has served. Each chunk's ranks are counted class-major, on the (K, rows)
    transpose of its logits. Raises FloatingPointError on non-finite logits,
    which have no ranking.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if x.shape[:1] != y.shape:
        raise ValueError(f"features of shape {x.shape} do not match {y.size} labels")
    if ws is None:
        ws = Workspace(params.layer_sizes)
    n_classes = params.layer_sizes[-1]
    classes = np.arange(n_classes)[:, None]
    # rank_counts[r]: rows whose true label has rank r
    rank_counts = np.zeros(n_classes, dtype=np.int64)
    chunk = ws.eval_rows()
    for start in range(0, y.size, chunk):
        logits, _ = forward(params, x[start : start + chunk], ws)
        if not np.isfinite(logits).all():
            raise FloatingPointError("logits are not finite; the network has diverged")
        scores = np.ascontiguousarray(logits.T)
        yc = y[start : start + chunk]
        true = scores[yc, np.arange(yc.size)]
        # rank of the true label: classes scoring above it, plus equal ones at a lower index
        above = np.where(classes < yc, scores >= true, scores > true)
        rank = np.add.reduce(above, axis=0, dtype=np.intp)
        rank_counts += np.bincount(rank, minlength=n_classes)
    misses = y.size - np.cumsum(rank_counts)  # misses[k - 1]: rows outside the top k
    topk_errors = [int(misses[k - 1]) / y.size for k in range(1, min(max_k, n_classes) + 1)]
    return {"top1_accuracy": 1.0 - topk_errors[0], "topk_errors": topk_errors}


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
