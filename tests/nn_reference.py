"""Per-array Adam update: the oracle for the engine's flat-vector `Adam`.

Each parameter array keeps its own first and second moments and is updated
with the same elementwise operations, in the same order, as `nn.Adam` on
the whole vector, so both must give bit-identical parameters.
"""

import numpy as np

from imputebench.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


class ReferenceAdam:
    """Adam over a list of separate parameter arrays, updated in place."""

    def __init__(self, arrays, lr=1e-3):
        self.arrays = arrays
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, grads):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        for i, (value, g) in enumerate(zip(self.arrays, grads, strict=True)):
            if g.shape != value.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {value.shape}")
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g**2
            m_hat = self.m[i] / correction1
            v_hat = self.v[i] / correction2
            value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def split_like(flat, arrays):
    """Cut a flat vector into pieces shaped like `arrays`, in order."""
    pieces, offset = [], 0
    for a in arrays:
        pieces.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    assert offset == flat.size
    return pieces
