"""The training loop against a copy of the per-layer step it replaced.

The reference below allocates fresh arrays for every layer in forward and
backward, clips with a per-array norm, updates each array on its own and ranks
with a stable argsort. The flat-buffer loop in run_experiment must write
byte-identical results to it: the rewrite changed where values live, never
the arithmetic. A full-batch loop written with the mlp primitives, with no
clip and no weight decay, pins train_step at those settings as well.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from eps_softmax.core import make_rng
from eps_softmax.data import DatasetSpec, build_dataset, generate_blobs
from eps_softmax.experiment import (
    EpochRecord,
    ExperimentConfig,
    RunSummary,
    config_to_dict,
    emit_results,
    run_experiment,
    train_step,
)
from eps_softmax.losses import LossSpec, batch_loss
from eps_softmax.mlp import (
    MlpSpec,
    OptimSpec,
    ParamSet,
    Workspace,
    backward,
    clip_grad_norm,
    cosine_lr,
    eval_rows,
    forward,
    init_params,
    sgd_step,
)
from eps_softmax.noise import NoiseSpec, corrupt_labels


def ref_forward(weights, biases, a):
    inputs, preacts = [], []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        a = z if i == last else np.maximum(z, 0.0)
    return a, inputs, preacts


def ref_backward(weights, inputs, preacts, g):
    """Gradients as one list: every weight matrix, then every bias vector."""
    gw, gb = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = g.T @ inputs[i]
        gb[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ weights[i]) * (preacts[i - 1] > 0.0)
    return gw + gb


def ref_clip(grads, max_norm):
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return scale


def ref_sgd(params, grads, velocity, lr, momentum, weight_decay):
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v


def ref_evaluate(weights, biases, x, y):
    logits = ref_forward(weights, biases, x)[0]
    order = np.argsort(-logits, axis=1, kind="stable")
    rank = np.argmax(order == y[:, None], axis=1)
    return 1.0 - float((rank >= 1).mean())


def reference_run(config):
    """(records, summary, clip scales) of the loop as it was before flat buffers."""
    train, test = build_dataset(config.dataset, config.seed)
    labels = corrupt_labels(train.labels, config.noise)
    rng = make_rng(config.mlp.init_seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.mlp.layer_sizes[:-1], config.mlp.layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    params = weights + biases
    velocity = [np.zeros_like(p) for p in params]
    shuffle_rng = make_rng(config.seed, stream=1)
    opt = config.optim
    n = labels.size
    records, scales = [], []
    for epoch in range(opt.epochs):
        lr = cosine_lr(epoch, opt.epochs, opt.lr0)
        order = shuffle_rng.permutation(n)
        loss_total = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start : start + opt.batch_size]
            logits, inputs, preacts = ref_forward(weights, biases, train.features[idx])
            values, grad_logits = batch_loss(logits, labels[idx], config.loss)
            loss_total += float(values.sum())
            grads = ref_backward(weights, inputs, preacts, grad_logits / idx.size)
            scales.append(ref_clip(grads, opt.clip_norm))
            ref_sgd(params, grads, velocity, lr, opt.momentum, opt.weight_decay)
        top1 = ref_evaluate(weights, biases, test.features, test.labels)
        records.append(EpochRecord(epoch, lr, loss_total / n, top1))
    best = max(records, key=lambda r: r.test_top1)
    flip_mask = labels != train.labels
    summary = RunSummary(
        config=config_to_dict(config),
        n_train=n,
        n_test=len(test),
        realized_noise_rate=float(flip_mask.mean()),
        n_flipped=int(flip_mask.sum()),
        flipped_indices=[int(i) for i in np.flatnonzero(flip_mask)],
        last_test_top1=records[-1].test_top1,
        best_test_top1=best.test_top1,
        best_epoch=best.epoch,
        final_train_loss=records[-1].train_loss,
    )
    return records, summary, scales


def config_for(kind, n_train=512, clip_norm=5.0):
    robust = {"m": 1e4, "alpha": 0.1} if kind in ("ce_eps_mae", "fl_eps_mae") else {}
    return ExperimentConfig(
        dataset=DatasetSpec(
            source="blobs", n_classes=4, n_train=n_train, n_test=300, dim=8, separation=10.0
        ),
        mlp=MlpSpec((8, 64, 64, 4), init_seed=5),
        loss=LossSpec(kind, **robust),
        noise=NoiseSpec("symmetric", eta=0.6, n_classes=4, seed=5),
        optim=OptimSpec(lr0=0.05, epochs=6, batch_size=128, clip_norm=clip_norm),
        seed=5,
    )


CASES = {
    "ce": config_for("ce"),
    "ce_eps_mae": config_for("ce_eps_mae"),
    "fl_eps_mae": config_for("fl_eps_mae"),
    "gce": config_for("gce"),
    "sce": config_for("sce"),
    "partial_batch": config_for("ce_eps_mae", n_train=600),
    "clipping": config_for("ce", n_train=600, clip_norm=2.0),
    "eval_chunks": dataclasses.replace(
        config_for("ce"),
        dataset=DatasetSpec(
            source="blobs", n_classes=4, n_train=512, n_test=1200, dim=8, separation=10.0
        ),
        mlp=MlpSpec((8, 512, 512, 4), init_seed=5),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_experiment_writes_the_reference_bytes(case, tmp_path):
    config = CASES[case]
    ref_records, ref_summary, scales = reference_run(config)
    emit_results(ref_records, ref_summary, str(tmp_path / "reference.jsonl"))
    emit_results(*run_experiment(config), str(tmp_path / "run.jsonl"))
    expected = (tmp_path / "reference.jsonl").read_bytes()
    assert (tmp_path / "run.jsonl").read_bytes() == expected
    if case == "partial_batch":
        assert config.dataset.n_train % config.optim.batch_size != 0
    if case == "clipping":
        fired = sum(s < 1.0 for s in scales)
        assert 0 < fired < len(scales)  # both branches of the clip ran
    if case == "eval_chunks":
        chunk = eval_rows(config.mlp.layer_sizes, config.dataset.n_test)
        assert config.optim.batch_size < chunk < config.dataset.n_test / 2


def random_sets(seed):
    """Parameters, a workspace holding gradients, and velocity of a small
    network, and the reference's per-array copies of the three sets."""
    rng = np.random.default_rng(seed)
    params = init_params(MlpSpec((7, 33, 19, 5), init_seed=seed))
    ws = Workspace(params.layer_sizes, 4)
    sets = [params, ws.grads, ParamSet.zeros(params.layer_sizes)]
    for s in sets:
        s.flat[...] = rng.normal(0.0, 3.0, size=s.flat.size)
    return (params, ws, sets[2]), [[a.copy() for a in s.arrays()] for s in sets]


@pytest.mark.parametrize("max_norm", [1e-3, 1e6])
def test_clip_grad_norm_matches_the_per_array_clip(max_norm):
    (_, ws, _), (_, ref_grads, _) = random_sets(0)
    _, scale = clip_grad_norm(ws, max_norm)
    assert scale == ref_clip(ref_grads, max_norm)
    assert ws.grads.flat.tobytes() == np.concatenate([g.ravel() for g in ref_grads]).tobytes()


def test_sgd_step_matches_the_per_array_update():
    (params, ws, velocity), (ref_p, ref_g, ref_v) = random_sets(1)
    for lr in (0.3, 0.01):
        sgd_step(params, ws, velocity, lr, momentum=0.9, weight_decay=1e-3)
        ref_sgd(ref_p, ref_g, ref_v, lr, 0.9, 1e-3)
    assert params.flat.tobytes() == np.concatenate([p.ravel() for p in ref_p]).tobytes()
    assert velocity.flat.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


def ref_full_batch_train(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    spec: LossSpec,
    seed: int,
    steps: int,
):
    """A linear softmax model after ``steps`` full-batch momentum-SGD updates
    at lr 0.2 and momentum 0.9, with no clip and no weight decay, written with
    the mlp primitives; returns the parameters and the velocity."""
    params = init_params(MlpSpec((features.shape[1], n_classes), init_seed=seed))
    velocity = ParamSet.zeros(params.layer_sizes)
    ws = Workspace(params.layer_sizes, labels.size)
    n = labels.size
    for _ in range(steps):
        logits = forward(params, features, ws)
        _, grad_logits = batch_loss(logits, labels, spec)
        backward(ws, grad_logits / n)
        sgd_step(params, ws, velocity, 0.2, 0.9, 0.0)
    return params, velocity


@pytest.mark.parametrize("spec", [LossSpec("ce"), LossSpec("ce_eps", m=1e4)], ids=["ce", "ce_eps"])
def test_train_step_without_clip_or_decay_is_the_excess_risk_trainer(spec):
    """train_step with no clip and no weight decay is, byte for byte, the
    full-batch reference loop. The name is kept from when the excess-risk
    check trained with that loop; no check trains with it now."""
    data = DatasetSpec(source="blobs", n_classes=4, n_train=200, n_test=4, dim=2, separation=8.0)
    train, _ = generate_blobs(data, 0)
    noise = NoiseSpec("symmetric", eta=0.4, n_classes=4, seed=0)
    labels = corrupt_labels(train.labels, noise)
    ref_params, ref_velocity = ref_full_batch_train(train.features, labels, 4, spec, 0, 300)

    params = init_params(MlpSpec((2, 4), init_seed=0))
    velocity = ParamSet.zeros(params.layer_sizes)
    ws = Workspace(params.layer_sizes, len(labels))
    # a clip bound that no gradient reaches: the largest double
    optim = OptimSpec(lr0=0.2, momentum=0.9, weight_decay=0.0, clip_norm=sys.float_info.max)
    for _ in range(300):
        train_step(params, velocity, ws, train.features, labels, spec, optim.lr0, optim)
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert velocity.flat.tobytes() == ref_velocity.flat.tobytes()
