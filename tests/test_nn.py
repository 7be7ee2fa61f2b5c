import numpy as np
import pytest

from imputebench.nn import (
    Adam,
    LayerSpec,
    MixedLossSpec,
    Network,
    mixed_loss,
)

from conftest import make_rng
from gradcheck import check_input_gradients, check_param_gradients, rel_err, squared_loss


def test_identity_network():
    net = Network(3, [LayerSpec(3, "linear")], seed=0)
    net.layers[0]["W"] = np.eye(3)
    net.layers[0]["b"] = np.zeros(3)
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
    grads, grad_in = net.backward(cache, np.zeros_like(out))
    for layer in grads:
        for arr in layer.values():
            assert np.all(arr == 0)
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
    grads, _ = net.backward(cache, 2.0 * (out - target))
    pred = w * 2.0 + 0.3
    assert grads[0]["W"][0, 0] == pytest.approx(2.0 * (pred - 1.0) * 2.0)
    assert grads[0]["b"][0] == pytest.approx(2.0 * (pred - 1.0))


def test_stale_cache_rejected():
    net = Network(2, [LayerSpec(2, "linear")], seed=0)
    X = np.ones((3, 2))
    out, cache = net.forward(X, train=True)
    opt = Adam(net)
    grads, _ = net.backward(cache, np.ones_like(out))
    opt.step(grads)
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
    before = [{k: v.copy() for k, v in p.items()} for p in net.parameters()]
    opt = Adam(net)
    zero = [{k: np.zeros_like(v) for k, v in p.items()} for p in net.parameters()]
    opt.step(zero)
    assert opt.t == 1
    for b, p in zip(before, net.parameters()):
        for k in b:
            assert np.array_equal(b[k], p[k])


def test_adam_first_step_magnitude():
    net = Network(1, [LayerSpec(1, "linear")], seed=0)
    opt = Adam(net, lr=0.05)
    w0 = net.layers[0]["W"].copy()
    grads = [{"W": np.array([[3.0]]), "b": np.array([-2.0])}]
    opt.step(grads)
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
        grads = [{"W": np.array([[2.0 * (x - 3.0)]]), "b": np.zeros(1)}]
        opt.step(grads)
    assert abs(net.layers[0]["W"][0, 0] - 3.0) < 0.05


def test_adam_shape_mismatch():
    net = Network(2, [LayerSpec(2, "linear")], seed=0)
    opt = Adam(net)
    with pytest.raises(ValueError):
        opt.step([{"W": np.zeros((3, 3)), "b": np.zeros(2)}])


def test_mixed_loss_spec_validation():
    with pytest.raises(ValueError):
        MixedLossSpec(np.array([0, 1]), np.array([1, 2]))


def test_mixed_loss_values():
    spec = MixedLossSpec(np.array([0]), np.array([], dtype=int))
    value, grad = mixed_loss(np.array([[0.7]]), np.array([[0.4]]), spec)
    assert value == pytest.approx(0.3)
    assert grad[0, 0] == pytest.approx(1.0)  # d|diff|/ddiff at rmse

    spec2 = MixedLossSpec(np.array([0]), np.array([1]))
    pred = np.array([[0.4, 1.0 - 1e-7]])
    target = np.array([[0.4, 1.0]])
    value, _ = mixed_loss(pred, target, spec2)
    assert value < 1e-6  # BCE floor at the clamp


def test_mixed_loss_weighted_branch_warning():
    spec = MixedLossSpec(np.array([0]), np.array([1]), weights=np.array([[0.0, 1.0]]))
    with pytest.warns(UserWarning, match="numerical"):
        value, grad = mixed_loss(np.array([[0.9, 0.5]]), np.array([[0.1, 1.0]]), spec)
    assert grad[0, 0] == 0.0
    assert value == pytest.approx(-np.log(0.5))


@pytest.mark.parametrize("seed", range(5))
def test_mixed_loss_finite_differences(seed):
    rng = make_rng(300 + seed)
    n_num, n_cat = 8, 7
    spec = MixedLossSpec(np.arange(n_num), np.arange(n_num, n_num + n_cat))
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
    wspec = MixedLossSpec(spec.numerical_indices, spec.categorical_indices, weights)
    _, grad = mixed_loss(pred, target, wspec)
    h = 1e-6
    worst = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            orig = pred[i, j]
            pred[i, j] = orig + h
            lp, _ = mixed_loss(pred, target, wspec)
            pred[i, j] = orig - h
            lm, _ = mixed_loss(pred, target, wspec)
            pred[i, j] = orig
            worst = max(worst, rel_err(grad[i, j], (lp - lm) / (2 * h)))
    assert worst < 1e-4

