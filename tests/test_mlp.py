"""Network forward/backward, the optimizer pieces, and evaluation."""

import numpy as np
import pytest

from eps_softmax.errors import ConfigError
from eps_softmax.mlp import (
    MlpSpec,
    OptimSpec,
    Workspace,
    backward,
    clip_grad_norm,
    cosine_lr,
    evaluate,
    forward,
    init_params,
    sgd_step,
    zeros_like_params,
)


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
    logits, cache = forward(params, x)
    # hidden = relu([2.0, -2.5]) = [2.0, 0.0]; output = [2.1, 0.0]
    assert np.allclose(logits, [[2.1, 0.0]], atol=1e-15)
    assert cache.batch_size == 1


def test_forward_no_relu_on_the_output_layer():
    params = init_params(MlpSpec((1, 1), init_seed=0))
    params.weights[0][:] = [[-1.0]]
    logits, _ = forward(params, [[3.0]])
    assert logits[0, 0] == -3.0


def test_forward_validates_input():
    params = init_params(MlpSpec((4, 3), init_seed=0))
    with pytest.raises(ValueError):
        forward(params, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        forward(params, [[1.0, 2.0]])


def test_backward_rejects_mismatched_grad():
    params = init_params(MlpSpec((4, 3), init_seed=0))
    _, cache = forward(params, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        backward(cache, np.zeros((3, 3)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    spec = MlpSpec((3, 5, 2), init_seed=1)
    params = init_params(spec)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def loss_of(ps):
        out, _ = forward(ps, x)
        return 0.5 * ((out - target) ** 2).sum() / 4.0

    logits, cache = forward(params, x)
    grads = backward(cache, (logits - target) / 4.0)
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
    params = init_params(MlpSpec((2, 2), init_seed=0))
    grads = zeros_like_params(params)
    grads.weights[0][:] = [[0.1, 0.0], [0.0, 0.1]]
    before = grads.weights[0].copy()
    _, scale = clip_grad_norm(grads, max_norm=5.0)
    assert scale == 1.0
    assert np.array_equal(grads.weights[0], before)


def test_clip_rescales_to_the_threshold():
    params = init_params(MlpSpec((2, 2), init_seed=0))
    grads = zeros_like_params(params)
    grads.weights[0][:] = [[30.0, 0.0], [0.0, 40.0]]  # global norm 50
    _, scale = clip_grad_norm(grads, max_norm=5.0)
    assert scale == pytest.approx(0.1)
    total = sum(float((g**2).sum()) for g in grads.arrays())
    assert np.sqrt(total) == pytest.approx(5.0)


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
    vel = zeros_like_params(params)
    grads = zeros_like_params(params)
    grads.weights[0][:] = [[2.0]]
    sgd_step(params, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    # v = 0.9 * 0 + (2.0 + 0.01 * 1.0) = 2.01; w = 1.0 - 0.1 * 2.01
    assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.201)
    assert vel.weights[0][0, 0] == pytest.approx(2.01)
    sgd_step(params, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    # second step folds the previous velocity back in
    v2 = 0.9 * 2.01 + (2.0 + 0.01 * (1.0 - 0.201))
    assert vel.weights[0][0, 0] == pytest.approx(v2)


def test_sgd_step_updates_in_place():
    params = init_params(MlpSpec((2, 2), init_seed=0))
    before = params.weights[0]
    grads = zeros_like_params(params)
    grads.weights[0][:] = 1.0
    vel = zeros_like_params(params)
    sgd_step(params, grads, vel, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert params.weights[0] is before


def test_evaluate_top1_and_topk():
    params = init_params(MlpSpec((2, 3), init_seed=0))
    params.weights[0][:] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    x = np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
    labels = np.array([0, 1, 0])
    metrics = evaluate(params, x, labels, max_k=3)
    assert metrics["top1_accuracy"] == pytest.approx(2.0 / 3.0)
    # sample 3 has score order (1, 0, 2): its label 0 enters at k=2
    assert metrics["topk_errors"][0] == pytest.approx(1.0 / 3.0)
    assert metrics["topk_errors"][1] == 0.0
    assert metrics["topk_errors"][2] == 0.0


def test_evaluate_breaks_score_ties_toward_the_lowest_index():
    params = init_params(MlpSpec((1, 2), init_seed=0))
    params.weights[0][:] = [[0.0], [0.0]]  # both logits identical
    metrics = evaluate(params, [[1.0]], np.array([0]), max_k=2)
    assert metrics["top1_accuracy"] == 1.0


def test_param_sets_are_views_of_one_flat_buffer():
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    for ps in (params, zeros_like_params(params)):
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
@pytest.mark.parametrize("max_k", [1, 5, 20])
def test_evaluate_rank_count_matches_a_stable_argsort(k, max_k):
    rng = np.random.default_rng(100 * k + max_k)
    # three logit levels (with signed zeros) force ties in almost every row
    logits = rng.choice([-1.0, -0.0, 0.0, 2.5], size=(400, k))
    logits[:50] = 1.0  # rows where every class ties
    labels = rng.integers(0, k, size=400)
    metrics = evaluate(identity_net(k), logits, labels, max_k=max_k)
    order = np.argsort(-logits, axis=1, kind="stable")
    rank = np.argmax(order == labels[:, None], axis=1)
    expected = [float((rank >= j).mean()) for j in range(1, min(max_k, k) + 1)]
    assert metrics["topk_errors"] == expected
    assert metrics["top1_accuracy"] == 1.0 - expected[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_logits(bad):
    params = identity_net(4)
    params.biases[0][2] = bad
    with pytest.raises(FloatingPointError):
        evaluate(params, np.zeros((3, 4)), np.array([0, 1, 2]))


def test_forward_through_a_workspace_overwrites_its_buffers():
    """The aliasing contract in forward's docstring."""
    rng = np.random.default_rng(0)
    params = init_params(MlpSpec((3, 5, 2), init_seed=0))
    ws = Workspace(params.layer_sizes)
    x1, x2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    first, cache = forward(params, x1, ws)
    kept = first.copy()
    second, _ = forward(params, x2, ws)
    assert second is first and cache.outputs[-1] is first
    assert np.array_equal(second, forward(params, x2)[0])
    assert not np.array_equal(first, kept)
    # another row count has its own buffers
    other, _ = forward(params, x1[:3], ws)
    assert not np.shares_memory(other, first)
    # backward writes into the workspace's one gradient set
    grads = backward(cache, np.ones((4, 2)))
    assert backward(cache, np.ones((4, 2))) is grads is ws.grads
    # without a workspace every call gets fresh arrays
    a, _ = forward(params, x1)
    b, _ = forward(params, x1)
    assert not np.shares_memory(a, b)
