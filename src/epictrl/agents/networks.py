"""Small fully-connected networks with hand-written backprop.

The function approximators here are deliberately tiny (two tanh hidden
layers over an 8-dimensional observation), so explicit numpy forward/backward
passes are simpler and more transparent than pulling in an autodiff
framework, and they make the finite-difference gradient checks in the test
suite meaningful.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


class MLP:
    """Fully-connected network, tanh hidden activations, linear output."""

    def __init__(
        self,
        sizes: tuple[int, ...],
        rng: np.random.Generator,
        out_scale: float = 1.0,
    ):
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (n_in, n_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            limit = np.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-limit, limit, size=(n_in, n_out))
            if i == len(self.sizes) - 2:
                w *= out_scale
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, cache of post-activation values per layer)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cache = [x]
        h = x
        for i in range(self.n_layers):
            z = h @ self.weights[i] + self.biases[i]
            h = np.tanh(z) if i < self.n_layers - 1 else z
            cache.append(h)
        return h, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Backpropagate dL/dout; returns grads as [dW0, db0, dW1, db1, ...]."""
        grads: list[np.ndarray] = [np.empty(0)] * (2 * self.n_layers)
        delta = np.asarray(dout, dtype=np.float64)
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                delta = delta * (1.0 - cache[i + 1] ** 2)  # tanh'
            grads[2 * i] = cache[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


# -- the flat parameter codec (checkpoints, target networks, finite differences)


def flat_params(params: list[np.ndarray]) -> np.ndarray:
    """All parameters concatenated into one vector, in list order."""
    return np.concatenate([p.ravel() for p in params])


def load_flat_params(params: list[np.ndarray], flat: np.ndarray) -> None:
    """Write a flat_params vector back into the arrays, in place."""
    offset = 0
    for p in params:
        p[...] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    if offset != len(flat):
        raise ShapeError(f"flat vector length {len(flat)} != parameter count {offset}")


def params_state(params: list[np.ndarray]) -> dict:
    """JSON-ready shapes and flat values of a parameter list."""
    return {"shapes": [list(p.shape) for p in params], "flat": flat_params(params).tolist()}


def load_params_state(params: list[np.ndarray], state: dict) -> None:
    """Write a params_state back into the arrays, in place."""
    load_flat_params(params, np.asarray(state["flat"], dtype=np.float64))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place so their joint L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam over an explicit list of parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": [m.tolist() for m in self.m],
            "v": [v.tolist() for v in self.v],
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for m, new in zip(self.m, state["m"]):
            m[...] = np.asarray(new, dtype=np.float64).reshape(m.shape)
        for v, new in zip(self.v, state["v"]):
            v[...] = np.asarray(new, dtype=np.float64).reshape(v.shape)
