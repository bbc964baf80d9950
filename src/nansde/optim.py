"""First-order optimizers for lists of parameter arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias-corrected first and second moments.

    Operates in place on a fixed list of parameter arrays; ``step`` must be
    called with gradient arrays in the same order and shapes every time.
    """

    def __init__(self, shapes, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 < eps < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        """Update ``params`` in place from matching ``grads``."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient lists do not match optimizer state")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
