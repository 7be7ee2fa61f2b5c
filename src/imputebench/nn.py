"""Minimal dense-network engine: manual backprop, batch norm, Adam.

Layers apply affine -> batch norm (optional) -> activation. Everything is
float64 numpy; gradients are derived by hand and validated against finite
differences in the test suite. The engine is shared by the autoencoder and
adversarial imputers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .seeding import make_rng

__all__ = [
    "LayerSpec",
    "Network",
    "Adam",
    "MixedLossSpec",
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
    activation: str = "relu"  # relu | sigmoid | tanh | linear
    batch_norm: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if self.activation not in ("relu", "sigmoid", "tanh", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation, using output `a` where cheaper."""
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "tanh":
        return 1.0 - a**2
    return np.ones_like(z)


class Network:
    """Stack of dense layers with optional per-layer batch normalization."""

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
                layer["running_mean"] = np.zeros(spec.width)
                layer["running_var"] = np.ones(spec.width)
            self.layers.append(layer)
            fan_in = spec.width
        self.output_width = fan_in
        self._version = 0

    def parameters(self):
        """Trainable arrays per layer (running statistics excluded)."""
        out = []
        for spec, layer in zip(self.specs, self.layers):
            entry = {"W": layer["W"], "b": layer["b"]}
            if spec.batch_norm:
                entry["gamma"] = layer["gamma"]
                entry["beta"] = layer["beta"]
            out.append(entry)
        return out

    def forward(self, batch: np.ndarray, train: bool):
        """Run the stack; returns (outputs, cache) for a later backward."""
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
                    mu = z.mean(axis=0)
                    var = z.var(axis=0)
                    m = BN_MOMENTUM
                    layer["running_mean"] = m * layer["running_mean"] + (1 - m) * mu
                    layer["running_var"] = m * layer["running_var"] + (1 - m) * var
                else:
                    mu = layer["running_mean"]
                    var = layer["running_var"]
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                xhat = (z - mu) * inv_std
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

    def backward(self, cache, loss_grad: np.ndarray):
        """Gradients for all parameters plus the gradient w.r.t. the input.

        `loss_grad` is dLoss/dOutput for the forward pass that produced
        `cache`. Batch-norm backward differentiates through the batch
        statistics in train mode and through the frozen running statistics
        in eval mode.
        """
        if cache["version"] != self._version:
            raise ValueError("stale cache: parameters changed since forward")
        grad = np.asarray(loss_grad, dtype=float)
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            spec = self.specs[i]
            layer = self.layers[i]
            step = cache["steps"][i]
            dh = grad * _activate_grad(spec.activation, step["h"], step["a"])
            entry = {}
            if spec.batch_norm:
                xhat = step["xhat"]
                inv_std = step["inv_std"]
                entry["gamma"] = (dh * xhat).sum(axis=0)
                entry["beta"] = dh.sum(axis=0)
                dxhat = dh * layer["gamma"]
                if cache["train"]:
                    m = dh.shape[0]
                    dz = (inv_std / m) * (
                        m * dxhat
                        - dxhat.sum(axis=0)
                        - xhat * (dxhat * xhat).sum(axis=0)
                    )
                else:
                    dz = dxhat * inv_std
            else:
                dz = dh
            entry["W"] = step["x_in"].T @ dz
            entry["b"] = dz.sum(axis=0)
            grads[i] = entry
            grad = dz @ layer["W"].T
        return grads, grad

    def mark_updated(self):
        self._version += 1


class Adam:
    """Adam with bias correction over a network's parameter structure."""

    def __init__(self, net: Network, lr=1e-3):
        self.net = net
        self.lr = lr
        self.t = 0
        params = net.parameters()
        self.m = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]
        self.v = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]

    def step(self, grads):
        params = self.net.parameters()
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            for key, value in p.items():
                gk = g[key]
                if gk.shape != value.shape:
                    raise ValueError(
                        f"gradient shape {gk.shape} != parameter shape {value.shape}"
                    )
                m[key] = b1 * m[key] + (1 - b1) * gk
                v[key] = b2 * v[key] + (1 - b2) * gk**2
                m_hat = m[key] / correction1
                v_hat = v[key] / correction2
                value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        self.net.mark_updated()


@dataclass
class MixedLossSpec:
    """Which columns get the RMSE branch vs. the cross-entropy branch."""

    numerical_indices: np.ndarray
    categorical_indices: np.ndarray
    weights: np.ndarray | None = None  # per-cell; defaults to all ones

    def __post_init__(self):
        num = set(np.asarray(self.numerical_indices, dtype=int).tolist())
        cat = set(np.asarray(self.categorical_indices, dtype=int).tolist())
        if num & cat:
            raise ValueError("numerical and categorical index sets overlap")


def mixed_loss(pred: np.ndarray, target: np.ndarray, spec: MixedLossSpec):
    """RMSE over numerical cells plus mean BCE over categorical cells.

    Both branches honour the optional per-cell weight grid (used to
    restrict the loss to corrupted or observed cells). Returns the scalar
    loss and its gradient w.r.t. `pred`. Categorical predictions are
    clamped to [eps, 1-eps] before the log terms.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    w = np.ones_like(pred) if spec.weights is None else np.asarray(spec.weights, float)
    if w.shape != pred.shape:
        raise ValueError("weight grid shape differs from pred")
    grad = np.zeros_like(pred)
    loss = 0.0

    num = np.asarray(spec.numerical_indices, dtype=int)
    if num.size:
        wn = w[:, num]
        total = wn.sum()
        if total == 0:
            warnings.warn("all numerical weights zero; RMSE branch skipped")
        else:
            diff = pred[:, num] - target[:, num]
            mse = (wn * diff**2).sum() / total
            rmse = np.sqrt(mse)
            loss += rmse
            denom = max(rmse, 1e-12) * total
            grad[:, num] = wn * diff / denom

    cat = np.asarray(spec.categorical_indices, dtype=int)
    if cat.size:
        wc = w[:, cat]
        total = wc.sum()
        if total == 0:
            warnings.warn("all categorical weights zero; BCE branch skipped")
        else:
            p = np.clip(pred[:, cat], CLAMP_EPS, 1.0 - CLAMP_EPS)
            t = target[:, cat]
            bce = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
            loss += (wc * bce).sum() / total
            inside = (pred[:, cat] > CLAMP_EPS) & (pred[:, cat] < 1.0 - CLAMP_EPS)
            grad[:, cat] = np.where(
                inside, wc * (p - t) / (p * (1.0 - p)) / total, 0.0
            )
    return float(loss), grad
