"""Minimal dense-network engine: manual backprop, batch norm, Adam.

Layers apply affine -> batch norm (optional) -> activation (relu, sigmoid
or linear). Everything is float64 numpy; gradients are derived by hand and
validated against finite differences in the test suite. Only train-mode
passes are differentiated, and `backward` computes only the gradients its
caller asks for. The engine is shared by the autoencoder and adversarial
imputers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

__all__ = [
    "LayerSpec",
    "Network",
    "Adam",
    "mixed_loss",
]

BN_EPS = 1e-8
BN_MOMENTUM = 0.9
CLAMP_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "relu"  # relu | sigmoid | linear
    batch_norm: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if self.activation not in ("relu", "sigmoid", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation of relu or sigmoid, using output `a` where cheaper."""
    if name == "relu":
        return (z > 0.0).astype(float)
    return a * (1.0 - a)


def _batch_stats(z: np.ndarray):
    """Column means, deviations from them and variances of a batch, bit-identical
    to np.mean and np.var: the variance is np.var's sum of squared deviations
    over the count, and the deviations are kept for the normalized batch."""
    mu = z.mean(axis=0)
    centred = z - mu
    return mu, centred, np.square(centred).sum(axis=0) / z.shape[0]


class Network:
    """Stack of dense layers with optional per-layer batch normalization.

    Every trainable value lives in one float64 vector, `params`, laid out
    layer by layer as W, b and, with batch norm, gamma and beta;
    `layers[i]["W"]` and the others are views into it. The running
    batch-norm statistics are separate arrays.
    """

    def __init__(self, input_width: int, specs, seed: int = 0):
        self.input_width = input_width
        self.specs = list(specs)
        self.layers = []
        rng = make_rng(seed, "init")
        fan_in = input_width
        for spec in self.specs:
            bound = np.sqrt(6.0 / (fan_in + spec.width))
            layer = {
                "W": rng.uniform(-bound, bound, size=(fan_in, spec.width)),
                "b": np.zeros(spec.width),
            }
            if spec.batch_norm:
                layer["gamma"] = np.ones(spec.width)
                layer["beta"] = np.zeros(spec.width)
            self.layers.append(layer)
            fan_in = spec.width
        self.params = np.concatenate([a.ravel() for layer in self.layers for a in layer.values()])
        # backward writes the parameter gradient here, through views laid
        # out like the parameters', and returns a copy
        self._grad = np.empty_like(self.params)
        self._grad_layers = []
        offset = 0
        for spec, layer in zip(self.specs, self.layers):
            grad_layer = {}
            for key, a in layer.items():
                layer[key] = self.params[offset : offset + a.size].reshape(a.shape)
                grad_layer[key] = self._grad[offset : offset + a.size].reshape(a.shape)
                offset += a.size
            self._grad_layers.append(grad_layer)
            if spec.batch_norm:
                layer["running_mean"] = np.zeros(spec.width)
                layer["running_var"] = np.ones(spec.width)
        self._version = 0

    def forward(self, batch: np.ndarray, train: bool, *, track_running: bool = True):
        """Run the stack; returns (outputs, cache) for a later backward.

        A train-mode pass moves the running batch-norm statistics toward
        the batch's unless `track_running` is false; pass false for a
        network that never runs in eval mode.
        """
        x = np.asarray(batch, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ValueError(
                f"batch width {x.shape} incompatible with input width "
                f"{self.input_width}"
            )
        if train and x.shape[0] < 2 and any(s.batch_norm for s in self.specs):
            raise ValueError("batch norm in train mode needs batch size >= 2")
        steps = []
        for spec, layer in zip(self.specs, self.layers):
            x_in = x
            z = x_in @ layer["W"] + layer["b"]
            step = {"x_in": x_in, "z": z}
            if spec.batch_norm:
                if train:
                    mu, centred, var = _batch_stats(z)
                    if track_running:
                        m = BN_MOMENTUM
                        layer["running_mean"] = m * layer["running_mean"] + (1 - m) * mu
                        layer["running_var"] = m * layer["running_var"] + (1 - m) * var
                else:
                    centred = z - layer["running_mean"]
                    var = layer["running_var"]
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                xhat = centred * inv_std
                h = layer["gamma"] * xhat + layer["beta"]
                step.update(xhat=xhat, inv_std=inv_std, h=h)
            else:
                h = z
            a = _activate(spec.activation, h)
            step["h"] = h
            step["a"] = a
            steps.append(step)
            x = a
        cache = {"steps": steps, "train": train, "version": self._version}
        return x, cache

    def backward(
        self, cache, loss_grad: np.ndarray, *, params: bool = True, inputs: bool = True
    ):
        """Returns (parameter gradient, input gradient).

        The parameter gradient is one flat vector laid out like `params`.
        With `params` or `inputs` false that gradient is not computed and
        None is returned in its place; the other is bit-identical to the
        full pass's.

        `loss_grad` is dLoss/dOutput for the train-mode forward pass that
        produced `cache`. Batch-norm backward differentiates through the
        batch statistics.
        """
        if not cache["train"]:
            raise ValueError("backward needs a train-mode cache, not an eval-mode one")
        if cache["version"] != self._version:
            raise ValueError("stale cache: parameters changed since forward")
        grad = np.asarray(loss_grad, dtype=float)
        for i in range(len(self.layers) - 1, -1, -1):
            spec = self.specs[i]
            layer = self.layers[i]
            step = cache["steps"][i]
            slot = self._grad_layers[i]
            if spec.activation == "linear":
                dh = grad
            else:
                dh = grad * _activate_grad(spec.activation, step["h"], step["a"])
            if spec.batch_norm:
                xhat = step["xhat"]
                inv_std = step["inv_std"]
                if params:
                    (dh * xhat).sum(axis=0, out=slot["gamma"])
                    dh.sum(axis=0, out=slot["beta"])
                dxhat = dh * layer["gamma"]
                m = dh.shape[0]
                dz = (inv_std / m) * (
                    m * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                dz = dh
            if params:
                np.matmul(step["x_in"].T, dz, out=slot["W"])
                dz.sum(axis=0, out=slot["b"])
            if i > 0 or inputs:
                grad = dz @ layer["W"].T
        return self._grad.copy() if params else None, grad if inputs else None

    def mark_updated(self):
        self._version += 1


class Adam:
    """Adam with bias correction over a network's flat parameter vector."""

    def __init__(self, net: Network, lr=1e-3):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)

    def step(self, grad):
        params = self.net.params
        if grad.shape != params.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        # in place, each operation rounded as in m = b1 m + (1 - b1) g and
        # params -= lr m_hat / (sqrt(v_hat) + eps)
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * np.square(grad)
        update = self.m / correction1
        update *= self.lr
        denom = self.v / correction2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        params -= update
        self.net.mark_updated()


def mixed_loss(pred: np.ndarray, target: np.ndarray, schema, weights=None):
    """RMSE over the schema's numerical cells plus mean BCE over its categorical cells.

    Both branches honour the optional per-cell weight grid (used to
    restrict the loss to corrupted or observed cells); without one every
    cell counts once. Returns the scalar loss and its gradient w.r.t.
    `pred`. Categorical predictions are clamped to [eps, 1-eps] before the
    log terms.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    w = None if weights is None else np.asarray(weights, float)
    if w is not None and w.shape != pred.shape:
        raise ValueError("weight grid shape differs from pred")
    grad = np.zeros_like(pred)
    loss = 0.0

    num = schema.numerical_indices
    if num.size:
        wn = None if w is None else w[:, num]
        total = float(pred.shape[0] * num.size) if wn is None else wn.sum()
        if total == 0:
            warnings.warn("all numerical weights zero; RMSE branch skipped")
        else:
            diff = pred[:, num] - target[:, num]
            sq = diff**2
            mse = (sq if wn is None else wn * sq).sum() / total
            rmse = np.sqrt(mse)
            loss += rmse
            denom = max(rmse, 1e-12) * total
            grad[:, num] = (diff if wn is None else wn * diff) / denom

    cat = schema.categorical_indices
    if cat.size:
        wc = None if w is None else w[:, cat]
        total = float(pred.shape[0] * cat.size) if wc is None else wc.sum()
        if total == 0:
            warnings.warn("all categorical weights zero; BCE branch skipped")
        else:
            p = np.clip(pred[:, cat], CLAMP_EPS, 1.0 - CLAMP_EPS)
            t = target[:, cat]
            bce = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
            loss += (bce if wc is None else wc * bce).sum() / total
            inside = (pred[:, cat] > CLAMP_EPS) & (pred[:, cat] < 1.0 - CLAMP_EPS)
            dp = p - t if wc is None else wc * (p - t)
            grad[:, cat] = np.where(inside, dp / (p * (1.0 - p)) / total, 0.0)
    return float(loss), grad
