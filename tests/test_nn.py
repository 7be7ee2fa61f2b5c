import numpy as np
import pytest

from imputebench.nn import (
    Adam,
    LayerSpec,
    Network,
    mixed_loss,
)

from conftest import make_rng, mixed_schema
from gradcheck import check_input_gradients, check_param_gradients, rel_err, squared_loss
from nn_reference import ReferenceAdam, split_like


def _param_arrays(net):
    """Each layer's trainable arrays, in the order they sit in `params`."""
    keys = ("W", "b", "gamma", "beta")
    return [layer[key] for layer in net.layers for key in keys if key in layer]


def test_identity_network():
    net = Network(3, [LayerSpec(3, "linear")], seed=0)
    net.layers[0]["W"][...] = np.eye(3)
    net.layers[0]["b"][...] = 0.0
    net.mark_updated()
    X = make_rng(1).uniform(-1, 1, size=(5, 3))
    out, _ = net.forward(X, train=False)
    assert np.allclose(out, X)


def test_sigmoid_at_zero():
    net = Network(1, [LayerSpec(1, "sigmoid")], seed=0)
    net.layers[0]["W"][:] = 0.0
    net.layers[0]["b"][:] = 0.0
    out, _ = net.forward(np.array([[3.0]]), train=False)
    assert out[0, 0] == pytest.approx(0.5)


def test_forward_duplicate_computation_oracle():
    rng = make_rng(7)
    specs = [LayerSpec(4, "tanh"), LayerSpec(5, "relu"), LayerSpec(2, "sigmoid")]
    net = Network(3, specs, seed=3)
    X = rng.uniform(-1, 1, size=(6, 3))
    out, _ = net.forward(X, train=False)

    # straightforward loop-based recomputation
    a = X
    for spec, layer in zip(net.specs, net.layers):
        z = np.array([[row @ layer["W"][:, k] + layer["b"][k] for k in range(spec.width)] for row in a])
        if spec.activation == "tanh":
            a = np.tanh(z)
        elif spec.activation == "relu":
            a = np.where(z > 0, z, 0.0)
        elif spec.activation == "sigmoid":
            a = 1 / (1 + np.exp(-z))
        else:
            a = z
    assert np.max(np.abs(out - a)) < 1e-10


def test_forward_width_and_batchnorm_errors():
    net = Network(3, [LayerSpec(2, "relu", batch_norm=True)], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.ones((4, 2)), train=True)
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 3)), train=True)
    net.forward(np.ones((1, 3)), train=False)  # eval mode is fine


def test_batchnorm_train_statistics():
    net = Network(4, [LayerSpec(6, "linear", batch_norm=True)], seed=5)
    X = make_rng(2).uniform(-3, 3, size=(64, 4))
    _, cache = net.forward(X, train=True)
    xhat = cache["steps"][0]["xhat"]
    assert np.max(np.abs(xhat.mean(axis=0))) < 1e-6
    assert np.max(np.abs(xhat.var(axis=0) - 1.0)) < 1e-6


def test_eval_mode_is_pure():
    net = Network(3, [LayerSpec(4, "relu", batch_norm=True), LayerSpec(2, "sigmoid")], seed=1)
    X = make_rng(3).uniform(-1, 1, size=(8, 3))
    net.forward(X, train=True)  # populate running stats
    a, _ = net.forward(X, train=False)
    b, _ = net.forward(X, train=False)
    assert np.array_equal(a, b)


def test_zero_loss_grad_gives_zero_gradients():
    net = Network(3, [LayerSpec(4, "tanh", batch_norm=True), LayerSpec(2, "linear")], seed=2)
    X = make_rng(4).uniform(-1, 1, size=(6, 3))
    out, cache = net.forward(X, train=True)
    grad, grad_in = net.backward(cache, np.zeros_like(out))
    assert grad.shape == net.params.shape
    assert np.all(grad == 0)
    assert np.all(grad_in == 0)


def test_single_linear_unit_analytic_gradient():
    net = Network(1, [LayerSpec(1, "linear")], seed=0)
    w = 1.7
    net.layers[0]["W"][:] = w
    net.layers[0]["b"][:] = 0.3
    net.mark_updated()
    x = np.array([[2.0]])
    target = np.array([[1.0]])
    out, cache = net.forward(x, train=True)
    grad, _ = net.backward(cache, 2.0 * (out - target))
    pred = w * 2.0 + 0.3
    dW, db = grad  # params is [W, b] for one 1 -> 1 layer
    assert dW == pytest.approx(2.0 * (pred - 1.0) * 2.0)
    assert db == pytest.approx(2.0 * (pred - 1.0))


def test_stale_cache_rejected():
    net = Network(2, [LayerSpec(2, "linear")], seed=0)
    X = np.ones((3, 2))
    out, cache = net.forward(X, train=True)
    opt = Adam(net)
    grad, _ = net.backward(cache, np.ones_like(out))
    opt.step(grad)
    with pytest.raises(ValueError, match="stale"):
        net.backward(cache, np.ones_like(out))


@pytest.mark.parametrize("seed", range(5))
def test_gradients_vs_finite_differences(seed):
    rng = make_rng(100 + seed)
    specs = [
        LayerSpec(5, "tanh", batch_norm=True),
        LayerSpec(4, "sigmoid"),
        LayerSpec(3, "linear", batch_norm=True),
    ]
    net = Network(4, specs, seed=seed)
    X = rng.uniform(-1, 1, size=(7, 4))
    target = rng.uniform(-1, 1, size=(7, 3))
    check_param_gradients(net, X, squared_loss(target), train=True)
    check_input_gradients(net, X, squared_loss(target), train=True)


def test_gradients_eval_mode():
    rng = make_rng(55)
    net = Network(3, [LayerSpec(4, "tanh", batch_norm=True), LayerSpec(2, "linear")], seed=9)
    X = rng.uniform(-1, 1, size=(6, 3))
    net.forward(X, train=True)
    target = rng.uniform(-1, 1, size=(6, 2))
    check_param_gradients(net, X, squared_loss(target), train=False)


def test_adam_zero_gradient_noop():
    net = Network(2, [LayerSpec(2, "linear")], seed=3)
    before = net.params.copy()
    opt = Adam(net)
    opt.step(np.zeros_like(net.params))
    assert opt.t == 1
    assert np.array_equal(before, net.params)


def test_adam_first_step_magnitude():
    net = Network(1, [LayerSpec(1, "linear")], seed=0)
    opt = Adam(net, lr=0.05)
    w0 = net.layers[0]["W"].copy()
    opt.step(np.array([3.0, -2.0]))  # [dW, db]
    # bias-corrected first step moves each parameter by ~lr against the sign
    assert net.layers[0]["W"][0, 0] == pytest.approx(w0[0, 0] - 0.05, abs=1e-6)
    assert net.layers[0]["b"][0] == pytest.approx(0.05, abs=1e-6)


def test_adam_scalar_convergence():
    # minimize (x - 3)^2 starting from 0 with lr 0.1
    net = Network(1, [LayerSpec(1, "linear")], seed=0)
    net.layers[0]["W"][:] = 0.0
    net.mark_updated()
    opt = Adam(net, lr=0.1)
    for _ in range(100):
        x = net.layers[0]["W"][0, 0]
        opt.step(np.array([2.0 * (x - 3.0), 0.0]))
    assert abs(net.layers[0]["W"][0, 0] - 3.0) < 0.05


def test_adam_shape_mismatch():
    net = Network(2, [LayerSpec(2, "linear")], seed=0)
    opt = Adam(net)
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(net.params.size + 1))
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros((1, net.params.size)))


@pytest.mark.parametrize("batch_norm", [False, True])
def test_layer_arrays_are_views_of_params(batch_norm):
    net = Network(3, [LayerSpec(4, "relu", batch_norm), LayerSpec(2, "linear")], seed=0)
    arrays = _param_arrays(net)
    assert len(arrays) == (6 if batch_norm else 4)
    for a in arrays:
        assert np.shares_memory(a, net.params)
    assert sum(a.size for a in arrays) == net.params.size
    if batch_norm:
        assert not np.shares_memory(net.layers[0]["running_mean"], net.params)
        assert not np.shares_memory(net.layers[0]["running_var"], net.params)


@pytest.mark.parametrize("batch_norm", [False, True])
def test_flat_adam_matches_per_array_reference(batch_norm):
    rng = make_rng(40 + batch_norm)
    specs = [LayerSpec(5, "tanh", batch_norm), LayerSpec(4, "relu", batch_norm)]
    net = Network(3, specs + [LayerSpec(3, "linear")], seed=11)
    arrays = [a.copy() for a in _param_arrays(net)]
    opt = Adam(net, lr=0.01)
    reference = ReferenceAdam(arrays, lr=0.01)
    for _ in range(60):
        X = rng.uniform(-1, 1, size=(8, 3))
        out, cache = net.forward(X, train=True)
        grad, _ = net.backward(cache, out - rng.uniform(-1, 1, size=out.shape))
        opt.step(grad)
        reference.step(split_like(grad, arrays))
    for a, view in zip(arrays, _param_arrays(net), strict=True):
        assert np.array_equal(a, view)


def test_mixed_loss_values():
    value, grad = mixed_loss(np.array([[0.7]]), np.array([[0.4]]), mixed_schema(1, 0))
    assert value == pytest.approx(0.3)
    assert grad[0, 0] == pytest.approx(1.0)  # d|diff|/ddiff at rmse

    pred = np.array([[0.4, 1.0 - 1e-7]])
    target = np.array([[0.4, 1.0]])
    value, _ = mixed_loss(pred, target, mixed_schema(1, 1))
    assert value < 1e-6  # BCE floor at the clamp


def test_mixed_loss_weighted_branch_warning():
    with pytest.warns(UserWarning, match="numerical"):
        value, grad = mixed_loss(
            np.array([[0.9, 0.5]]), np.array([[0.1, 1.0]]), mixed_schema(1, 1),
            weights=np.array([[0.0, 1.0]]),
        )
    assert grad[0, 0] == 0.0
    assert value == pytest.approx(-np.log(0.5))


@pytest.mark.parametrize("seed", range(5))
def test_mixed_loss_finite_differences(seed):
    rng = make_rng(300 + seed)
    n_num, n_cat = 8, 7
    schema = mixed_schema(n_num, n_cat)
    pred = np.concatenate(
        [rng.uniform(-1, 1, size=(8, n_num)), rng.uniform(0.05, 0.95, size=(8, n_cat))],
        axis=1,
    )
    target = np.concatenate(
        [rng.uniform(-1, 1, size=(8, n_num)), rng.integers(0, 2, size=(8, n_cat)).astype(float)],
        axis=1,
    )
    weights = rng.integers(0, 2, size=pred.shape).astype(float)
    weights[0, :] = 1.0  # keep both branches populated
    _, grad = mixed_loss(pred, target, schema, weights)
    h = 1e-6
    worst = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            orig = pred[i, j]
            pred[i, j] = orig + h
            lp, _ = mixed_loss(pred, target, schema, weights)
            pred[i, j] = orig - h
            lm, _ = mixed_loss(pred, target, schema, weights)
            pred[i, j] = orig
            worst = max(worst, rel_err(grad[i, j], (lp - lm) / (2 * h)))
    assert worst < 1e-4

