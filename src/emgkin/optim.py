"""Optimizers: SGD with momentum and ADAM, plus the stepped LR schedule.

Both stages use the paper's schedule: the learning rate drops by 90% every
10 epochs, i.e. lr(epoch) = lr0 * DROP_FACTOR ** floor(epoch / DROP_PERIOD)
with ``DROP_FACTOR`` = 0.1, ``DROP_PERIOD`` = 10 and epochs counted from
zero. Only ``lr0`` differs between the stages (``StageConfig.lr0``, which
checks that it is positive). The paper names SGDM and ADAM without their
coefficients, so these are the customary ones: ``MOMENTUM`` = 0.9 for SGDM,
and ``BETA1`` = 0.9, ``BETA2`` = 0.999, ``EPS`` = 1e-8 for ADAM (Kingma & Ba
2015).
"""

from __future__ import annotations

import numpy as np

DROP_FACTOR = 0.1
DROP_PERIOD = 10
MOMENTUM = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def lr_at(lr0: float, epoch: int) -> float:
    """Piecewise-constant schedule; epoch is zero-based."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr0 * DROP_FACTOR ** (epoch // DROP_PERIOD)


class Sgdm:
    """Classical momentum: v <- mu*v - lr*g; theta <- theta + v."""

    def __init__(self, params: dict[str, np.ndarray], lr0: float):
        self.lr0 = lr0
        self._velocity = {name: np.zeros_like(p) for name, p in params.items()}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        epoch: int,
    ) -> None:
        lr = lr_at(self.lr0, epoch)
        for name, p in params.items():
            v = self._velocity[name]
            v *= MOMENTUM
            v -= lr * grads[name]
            p += v


class Adam:
    """ADAM with bias-corrected first/second moments."""

    def __init__(self, params: dict[str, np.ndarray], lr0: float):
        self.lr0 = lr0
        self._m = {name: np.zeros_like(p) for name, p in params.items()}
        self._v = {name: np.zeros_like(p) for name, p in params.items()}
        self._t = 0

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        epoch: int,
    ) -> None:
        lr = lr_at(self.lr0, epoch)
        self._t += 1
        t = self._t
        for name, p in params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
