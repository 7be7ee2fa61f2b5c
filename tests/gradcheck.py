"""Central finite-difference gradient checking used across nn tests."""

import numpy as np

H = 1e-5
TOL = 1e-4


def rel_err(a, b):
    # differences below float noise (e.g. an analytically-zero gradient vs.
    # cancellation error in the central difference) count as exact agreement
    if abs(a - b) < 1e-8:
        return 0.0
    return abs(a - b) / (abs(a) + abs(b))


def check_param_gradients(net, X, loss_of_output, train=True, tol=TOL, h=H):
    """Compare analytic parameter gradients with central differences,
    one entry of the flat `net.params` vector at a time.

    `loss_of_output` maps network outputs to (loss, dloss/doutput).
    Returns the worst relative error seen.
    """
    out, cache = net.forward(X, train)
    _, grad_out = loss_of_output(out)
    grad, _ = net.backward(cache, grad_out)
    assert grad.shape == net.params.shape
    worst = 0.0
    params = net.params
    for idx in range(params.size):
        orig = params[idx]
        params[idx] = orig + h
        lp, _ = loss_of_output(net.forward(X, train)[0])
        params[idx] = orig - h
        lm, _ = loss_of_output(net.forward(X, train)[0])
        params[idx] = orig
        numeric = (lp - lm) / (2 * h)
        worst = max(worst, rel_err(grad[idx], numeric))
    assert worst < tol, f"parameter gradient mismatch: rel err {worst:.3e}"
    return worst


def check_input_gradients(net, X, loss_of_output, train=True, tol=TOL, h=H):
    out, cache = net.forward(X, train)
    _, grad_out = loss_of_output(out)
    _, grad_in = net.backward(cache, grad_out)
    worst = 0.0
    X = X.copy()
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            orig = X[i, j]
            X[i, j] = orig + h
            lp, _ = loss_of_output(net.forward(X, train)[0])
            X[i, j] = orig - h
            lm, _ = loss_of_output(net.forward(X, train)[0])
            X[i, j] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, rel_err(grad_in[i, j], numeric))
    assert worst < tol, f"input gradient mismatch: rel err {worst:.3e}"
    return worst


def squared_loss(target):
    def loss(out):
        diff = out - target
        return float(np.sum(diff**2)), 2.0 * diff

    return loss
