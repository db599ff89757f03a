"""Network forward/backward, the optimizer pieces, and evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from eps_softmax import mlp
from eps_softmax.errors import ConfigError
from eps_softmax.mlp import (
    MlpSpec,
    OptimSpec,
    ParamSet,
    Workspace,
    backward,
    clip_grad_norm,
    cosine_lr,
    eval_rows,
    evaluate,
    forward,
    init_params,
    sgd_step,
)
from test_reference_loop import ref_clip


def test_mlp_spec_validation():
    with pytest.raises(ConfigError):
        MlpSpec((8,))
    with pytest.raises(ConfigError):
        MlpSpec((8, 0, 4))
    assert MlpSpec((8, 64, 4)).n_classes == 4


def test_mlp_spec_coerces_layer_sizes_to_tuple():
    spec = MlpSpec([8, 16, 4])
    assert spec.layer_sizes == (8, 16, 4)


def test_optim_spec_validation():
    with pytest.raises(ConfigError):
        OptimSpec(lr0=0.0)
    with pytest.raises(ConfigError):
        OptimSpec(momentum=1.0)
    with pytest.raises(ConfigError):
        OptimSpec(weight_decay=-1e-4)
    with pytest.raises(ConfigError):
        OptimSpec(epochs=0)
    with pytest.raises(ConfigError):
        OptimSpec(batch_size=0)
    with pytest.raises(ConfigError):
        OptimSpec(clip_norm=0.0)


def test_init_params_shapes_and_seeding():
    spec = MlpSpec((8, 16, 4), init_seed=3)
    params = init_params(spec)
    assert [w.shape for w in params.weights] == [(16, 8), (4, 16)]
    assert [b.shape for b in params.biases] == [(16,), (4,)]
    assert all((b == 0).all() for b in params.biases)
    again = init_params(spec)
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, again.weights))
    other = init_params(MlpSpec((8, 16, 4), init_seed=4))
    assert not np.array_equal(params.weights[0], other.weights[0])


def test_init_scale_tracks_fan_in():
    w = init_params(MlpSpec((100, 400, 4), init_seed=0)).weights[0]
    assert w.std() == pytest.approx(np.sqrt(2.0 / 100.0), rel=0.1)


def test_forward_matches_hand_computation():
    params = init_params(MlpSpec((2, 2, 2), init_seed=0))
    params.weights[0][:] = [[1.0, 0.0], [0.0, -1.0]]
    params.biases[0][:] = [0.0, 0.5]
    params.weights[1][:] = [[1.0, 1.0], [0.0, 2.0]]
    params.biases[1][:] = [0.1, 0.0]
    x = np.array([[2.0, 3.0]])
    ws = Workspace(params.layer_sizes, 1)
    logits = forward(params, x, ws)
    # hidden = relu([2.0, -2.5]) = [2.0, 0.0]; output = [2.1, 0.0]
    assert np.allclose(logits, [[2.1, 0.0]], atol=1e-15)
    assert ws.pending[0] is params and ws.pending[1].shape == (1, 2)


def test_forward_no_relu_on_the_output_layer():
    params = init_params(MlpSpec((1, 1), init_seed=0))
    params.weights[0][:] = [[-1.0]]
    logits = forward(params, [[3.0]], Workspace(params.layer_sizes, 1))
    assert logits[0, 0] == -3.0


def test_forward_validates_input():
    params = init_params(MlpSpec((4, 3), init_seed=0))
    ws = Workspace(params.layer_sizes, 4)
    with pytest.raises(ValueError):
        forward(params, [1.0, 2.0, 3.0, 4.0], ws)
    with pytest.raises(ValueError):
        forward(params, [[1.0, 2.0]], ws)


def test_backward_rejects_mismatched_grad():
    params = init_params(MlpSpec((4, 3), init_seed=0))
    ws = Workspace(params.layer_sizes, 2)
    forward(params, np.zeros((2, 4)), ws)
    with pytest.raises(ValueError):
        backward(ws, np.zeros((3, 3)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    spec = MlpSpec((3, 5, 2), init_seed=1)
    params = init_params(spec)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))
    ws = Workspace(spec.layer_sizes, 4)

    def loss_of(ps):
        out = forward(ps, x, ws)  # overwrites the layer outputs, not ws.grads
        return 0.5 * ((out - target) ** 2).sum() / 4.0

    logits = forward(params, x, ws)
    grads = backward(ws, (logits - target) / 4.0)
    h = 1e-6
    for g, p in zip(grads.arrays(), params.arrays()):
        flat_p = p.ravel()
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up = loss_of(params)
            flat_p[idx] = keep - h
            down = loss_of(params)
            flat_p[idx] = keep
            fd = (up - down) / (2.0 * h)
            assert g.ravel()[idx] == pytest.approx(fd, abs=1e-7)


def test_clip_leaves_small_gradients_untouched():
    ws = Workspace((2, 2), 1)
    grads = ws.grads
    grads.weights[0][:] = [[0.1, 0.0], [0.0, 0.1]]
    before = grads.weights[0].copy()
    _, scale = clip_grad_norm(ws, max_norm=5.0)
    assert scale == 1.0
    assert np.array_equal(grads.weights[0], before)


def test_clip_rescales_to_the_threshold():
    ws = Workspace((2, 2), 1)
    grads = ws.grads
    grads.weights[0][:] = [[30.0, 0.0], [0.0, 40.0]]  # global norm 50
    _, scale = clip_grad_norm(ws, max_norm=5.0)
    assert scale == pytest.approx(0.1)
    total = sum(float((g**2).sum()) for g in grads.arrays())
    assert np.sqrt(total) == pytest.approx(5.0)


def test_clip_rescales_a_finite_gradient_whose_squares_overflow():
    ws = Workspace((2, 3, 2), 1)
    grads = ws.grads
    grads.flat[...] = 1e200  # each square overflows; the pytest filter makes a warning an error
    grads.flat[0] = -3e199
    _, scale = clip_grad_norm(ws, max_norm=5.0)
    assert 0.0 < scale < 1.0
    assert np.isfinite(grads.flat).all()
    assert np.linalg.norm(grads.flat) == pytest.approx(5.0, rel=1e-12)
    # the direction is kept
    assert grads.flat[0] == pytest.approx(-0.3 * grads.flat[1], rel=1e-12)


def test_clip_at_an_infinite_norm_keeps_finite_grads_but_no_spec_takes_it():
    ws = Workspace((2, 3, 2), 1)
    grads = ws.grads
    grads.flat[...] = np.random.default_rng(0).standard_normal(grads.flat.size) * 1e150
    before = grads.flat.tobytes()
    out, scale = clip_grad_norm(ws, max_norm=math.inf)  # no finite norm exceeds it
    assert out is grads and scale == 1.0
    assert grads.flat.tobytes() == before
    with pytest.raises(ConfigError, match="^clip_norm must be a finite number, got inf$"):
        OptimSpec(clip_norm=math.inf)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.2) == 0.2
    assert cosine_lr(50, 100, 0.2) == pytest.approx(0.1)
    assert cosine_lr(99, 100, 0.2) == pytest.approx(0.2 * 0.5 * (1 + np.cos(np.pi * 0.99)))
    with pytest.raises(ValueError):
        cosine_lr(100, 100, 0.2)
    with pytest.raises(ValueError):
        cosine_lr(-1, 100, 0.2)


def test_cosine_lr_is_monotone_decreasing():
    lrs = [cosine_lr(e, 40, 0.5) for e in range(40)]
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


def test_sgd_step_matches_the_update_rule():
    params = init_params(MlpSpec((1, 1), init_seed=0))
    params.weights[0][:] = [[1.0]]
    vel = ParamSet.zeros(params.layer_sizes)
    ws = Workspace(params.layer_sizes, 1)
    ws.grads.weights[0][:] = [[2.0]]
    sgd_step(params, ws, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    # v = 0.9 * 0 + (2.0 + 0.01 * 1.0) = 2.01; w = 1.0 - 0.1 * 2.01
    assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.201)
    assert vel.weights[0][0, 0] == pytest.approx(2.01)
    sgd_step(params, ws, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    # second step folds the previous velocity back in
    v2 = 0.9 * 2.01 + (2.0 + 0.01 * (1.0 - 0.201))
    assert vel.weights[0][0, 0] == pytest.approx(v2)


def test_sgd_step_updates_in_place():
    params = init_params(MlpSpec((2, 2), init_seed=0))
    before = params.weights[0]
    ws = Workspace(params.layer_sizes, 1)
    ws.grads.weights[0][:] = 1.0
    vel = ParamSet.zeros(params.layer_sizes)
    sgd_step(params, ws, vel, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert params.weights[0] is before


def test_evaluate_counts_argmax_misses():
    params = init_params(MlpSpec((2, 3), init_seed=0))
    params.weights[0][:] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    x = np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
    # sample 3 has score order (1, 0, 2): its label 0 is a miss
    accuracy = evaluate(params, x, np.array([0, 1, 0]), Workspace(params.layer_sizes, 3))
    assert type(accuracy) is float and accuracy == 1.0 - 1 / 3


def test_evaluate_breaks_score_ties_toward_the_lowest_index():
    params = init_params(MlpSpec((1, 2), init_seed=0))
    params.weights[0][:] = [[0.0], [0.0]]  # both logits identical
    ws = Workspace(params.layer_sizes, 1)
    assert evaluate(params, [[1.0]], np.array([0]), ws) == 1.0
    assert evaluate(params, [[1.0]], np.array([1]), ws) == 0.0


def test_param_sets_are_views_of_one_flat_buffer():
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    for ps in (params, ParamSet.zeros(params.layer_sizes)):
        assert ps.flat.shape == (3 * 5 + 5 * 2 + 5 + 2,)
        assert all(np.shares_memory(a, ps.flat) for a in ps.arrays())
    # weights in layer order, then biases
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in params.arrays()]))
    params.biases[1][:] = 7.0
    assert params.flat[-2:].tolist() == [7.0, 7.0]


def identity_net(k):
    """A single linear layer whose logits are its inputs."""
    params = init_params(MlpSpec((k, k), init_seed=0))
    params.weights[0][...] = np.eye(k)
    return params


@pytest.mark.parametrize("k", [2, 4, 10])
@pytest.mark.parametrize("chunk", [1, 5, 20])
def test_evaluate_rank_count_matches_a_stable_argsort(k, chunk, monkeypatch):
    """The rows whose label ranks first in a stable argsort are the hits, at
    any chunk size (400 rows: 400, 80 or 20 chunks)."""
    rng = np.random.default_rng(100 * k + chunk)
    # three logit levels (with signed zeros) force ties in almost every row
    logits = rng.choice([-1.0, -0.0, 0.0, 2.5], size=(400, k))
    logits[:50] = 1.0  # rows where every class ties
    labels = rng.integers(0, k, size=400)
    monkeypatch.setattr(mlp, "EVAL_CHUNK_BYTES", 8 * k * chunk)
    ws = Workspace((k, k), eval_rows((k, k), 400))
    assert ws.rows == chunk
    order = np.argsort(-logits, axis=1, kind="stable")
    rank = np.argmax(order == labels[:, None], axis=1)
    assert evaluate(identity_net(k), logits, labels, ws=ws) == 1.0 - float((rank >= 1).mean())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_logits(bad):
    params = identity_net(4)
    params.biases[0][2] = bad
    with pytest.raises(FloatingPointError):
        evaluate(params, np.zeros((3, 4)), np.array([0, 1, 2]), Workspace((4, 4), 3))


@pytest.mark.parametrize(
    "x, labels, message",
    [
        (np.zeros((0, 4)), np.array([], dtype=np.int64), "empty dataset"),
        (np.zeros((3, 4)), np.array([0, 1]), r"features of shape \(3, 4\) do not match 2 labels"),
    ],
    ids=["empty", "mismatched"],
)
def test_evaluate_refuses_an_empty_or_mismatched_set(x, labels, message):
    with pytest.raises(ValueError, match=message):
        evaluate(identity_net(4), x, labels, Workspace((4, 4), 3))


@pytest.mark.parametrize(
    "labels, error, message",
    [
        # a negative label would index from the end and score as a valid class
        ([-4, -3, -2, -1, -4, -3], IndexError, r"labels must lie in \[0, 4\)"),
        ([0, 1, 2, 4, 0, 1], IndexError, r"labels must lie in \[0, 4\)"),
        ([0.0, 1.0, 2.0, 3.0, 0.0, 1.0], ValueError, "labels must be integers"),
    ],
    ids=["negative", "too_large", "not_integers"],
)
def test_evaluate_refuses_labels_outside_the_classes(labels, error, message):
    params = init_params(MlpSpec((2, 3, 4), init_seed=0))
    x = np.random.default_rng(0).standard_normal((6, 2))
    with pytest.raises(error, match=message):
        evaluate(params, x, np.array(labels), Workspace(params.layer_sizes, 6))


def test_forward_through_a_workspace_overwrites_its_buffers():
    """The aliasing contract in forward's docstring."""
    rng = np.random.default_rng(0)
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    ws = Workspace(params.layer_sizes, 4)
    x1, x2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    first = forward(params, x1, ws)
    kept = first.copy()
    second = forward(params, x2, ws)
    assert ws.pending[0] is params and ws.pending[1] is x2
    assert second is first and ws.buffers(4)[0][-1] is first
    assert np.array_equal(second, forward(params, x2, Workspace(params.layer_sizes, 4)))
    assert not np.array_equal(first, kept)
    # a smaller row count shares the leading rows
    other = forward(params, x1[:3], ws)
    assert np.shares_memory(other, first)
    # backward writes into the workspace's one gradient set
    grads = backward(ws, np.ones((3, 2)))
    forward(params, x1, ws)  # backward consumed the pending forward
    assert backward(ws, np.ones((4, 2))) is grads is ws.grads
    # two workspaces share no buffers
    a = forward(params, x1, Workspace(params.layer_sizes, 4))
    b = forward(params, x1, Workspace(params.layer_sizes, 4))
    assert not np.shares_memory(a, b)


def test_the_gradient_scratch_lives_in_the_workspace_arena():
    """The Workspace contract: ws.scratch is the leading entries of
    the layer-output arena, which the 8-512-512-4 net's parameters size in a
    workspace of 128 rows (269,316 > 128 x 1,028) and its outputs size in one
    of 510 rows (510 x 1,028 > 269,316)."""
    rng = np.random.default_rng(6)
    params = init_params(MlpSpec((8, 512, 512, 4), init_seed=6))
    x = rng.standard_normal((128, 8))
    for rows, arena in ((128, 269_316), (510, 510 * 1_028)):
        ws = Workspace(params.layer_sizes, rows)
        forward(params, x, ws)
        grads = backward(ws, rng.standard_normal((128, 4)))
        assert grads is ws.grads and ws.scratch.size == grads.flat.size
        assert ws.scratch.base.size == arena == max(rows * 1_028, 269_316)  # base: the arena
        assert np.shares_memory(ws.scratch, ws.buffers(128)[0][0])
        ref_grads = [g.copy() for g in grads.arrays()]
        assert clip_grad_norm(ws, 1e-3)[1] == ref_clip(ref_grads, 1e-3) < 1.0
        assert grads.flat.tobytes() == np.concatenate([g.ravel() for g in ref_grads]).tobytes()


def test_a_workspace_refuses_a_batch_larger_than_it_was_built_for():
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    ws = Workspace(params.layer_sizes, 4)
    with pytest.raises(ValueError, match="^a batch of 5 rows exceeds the workspace's 4$"):
        forward(params, np.ones((5, 3)), ws)
    assert forward(params, np.ones((4, 3)), ws).shape == (4, 2)


def test_an_evaluate_keeps_the_workspace_buffers():
    """A workspace built for a run's evaluation chunk serves it without being
    remade: the batch views and the gradient scratch stay the same arrays."""
    rng = np.random.default_rng(9)
    params = init_params(MlpSpec((8, 64, 64, 4), init_seed=9))
    ws = Workspace(params.layer_sizes, 1_000)
    outputs, masks = ws.buffers(128)
    scratch = ws.scratch
    x, y = rng.standard_normal((1_000, 8)), rng.integers(0, 4, size=1_000)
    evaluate(params, x, y, ws=ws)
    after_outputs, after_masks = ws.buffers(128)
    assert all(a is b for a, b in zip(after_outputs + after_masks, outputs + masks))
    assert ws.scratch is scratch


def test_a_second_backward_on_one_cache_raises():
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    ws = Workspace(params.layer_sizes, 4)
    forward(params, np.ones((4, 3)), ws)
    backward(ws, np.ones((4, 2)))
    with pytest.raises(ValueError, match="stale cache"):
        backward(ws, np.ones((4, 2)))


def test_a_backward_after_an_evaluate_through_the_workspace_raises():
    rng = np.random.default_rng(7)
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    ws = Workspace(params.layer_sizes, 6)
    xt, yt = rng.standard_normal((6, 3)), rng.integers(0, 2, size=6)
    xa = rng.standard_normal((4, 3))
    evaluate(params, xt, yt, ws=ws)
    forward(params, xa, ws)
    evaluate(params, xt, yt, ws=ws)  # its forwards overwrite the layer outputs of xa
    with pytest.raises(ValueError, match="stale cache"):
        backward(ws, np.ones((4, 2)))


def test_two_forwards_then_a_backward_give_the_gradients_of_the_second_batch():
    rng = np.random.default_rng(8)
    params = init_params(MlpSpec((3, 5, 5, 2), init_seed=8))
    ws = Workspace(params.layer_sizes, 4)
    x1, x2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    g = rng.standard_normal((4, 2))
    forward(params, x1, ws)
    forward(params, x2, ws)
    grads = backward(ws, g)

    def fresh_grads(x):
        fresh_ws = Workspace(params.layer_sizes, 4)
        forward(params, x, fresh_ws)
        return backward(fresh_ws, g)

    assert grads.flat.tobytes() == fresh_grads(x2).flat.tobytes()
    assert not np.array_equal(fresh_grads(x2).flat, fresh_grads(x1).flat)


def test_evaluate_in_chunks_gives_the_metrics_of_one_pass():
    rng = np.random.default_rng(3)
    params = init_params(MlpSpec((16, 256, 256, 10), init_seed=3))
    chunk = eval_rows(params.layer_sizes, 10_000)
    n = 2 * chunk + 37  # a partial last chunk
    x, y = rng.standard_normal((n, 16)), rng.integers(0, 10, size=n)
    one_pass = Workspace(params.layer_sizes, n)  # buffers for every row: no chunking
    assert eval_rows(params.layer_sizes, n) == chunk < n
    accuracy = evaluate(params, x, y, ws=Workspace(params.layer_sizes, chunk))
    assert accuracy == evaluate(params, x, y, ws=one_pass)
    logits = forward(params, x, one_pass)
    rank = np.argmax(np.argsort(-logits, axis=1, kind="stable") == y[:, None], axis=1)
    assert accuracy == 1.0 - float((rank >= 1).mean())
    assert 0.0 < accuracy < 1.0


def test_evaluate_holds_one_chunk_of_layer_outputs_not_the_test_set():
    rng = np.random.default_rng(4)
    params = init_params(MlpSpec((8, 64, 64, 10), init_seed=4))
    n = 20_000
    x, y = rng.standard_normal((n, 8)), rng.integers(0, 10, size=n)
    full_test_set = n * sum(params.layer_sizes[1:]) * 8  # bytes of every layer output
    tracemalloc.start()
    try:
        # a run's workspace: built for its 64-row batches and one evaluation chunk
        ws = Workspace(params.layer_sizes, max(64, eval_rows(params.layer_sizes, n)))
        forward(params, x[:64], ws)
        evaluate(params, x, y, ws=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_test_set / 3


def test_forward_of_an_empty_batch_through_a_fresh_workspace_gives_empty_logits():
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    logits = forward(params, np.zeros((0, 3)), Workspace(params.layer_sizes, 0))
    assert logits.shape == (0, 2)
