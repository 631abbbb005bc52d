"""Minimal numpy neural-network substrate.

The paper's learned components (deep Local EMD taggers, the Entity
Phrase Embedder's dense layer, the Entity Classifier, and the HIRE-NER
baseline's decoder) are feed-forward networks trained with Adam. No deep
learning framework ships in this container, so this module implements
exactly what those components need: dense ReLU/sigmoid/linear stacks,
binary cross-entropy and MSE objectives, minibatch Adam, and
validation-loss early stopping. Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dense", "MLP", "AdamState", "train_classifier", "train_regression"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Dense:
    """A fully connected layer ``y = act(xW + b)``.

    ``act`` is one of ``'relu' | 'sigmoid' | 'linear'``. Caches the
    forward pass for backprop.
    """

    W: np.ndarray
    b: np.ndarray
    act: str = "relu"
    _x: np.ndarray = field(default=None, repr=False, compare=False)
    _z: np.ndarray = field(default=None, repr=False, compare=False)

    @staticmethod
    def init(n_in: int, n_out: int, act: str, rng: np.random.Generator) -> "Dense":
        """He-style initialization scaled for the activation."""
        scale = np.sqrt(2.0 / n_in) if act == "relu" else np.sqrt(1.0 / n_in)
        return Dense(rng.normal(0.0, scale, (n_in, n_out)), np.zeros(n_out), act)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._z = x @ self.W + self.b
        return self._activate(self._z)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The forward pass without the backprop cache (inference)."""
        return self._activate(x @ self.W + self.b)

    def _activate(self, z: np.ndarray) -> np.ndarray:
        if self.act == "relu":
            return relu(z)
        if self.act == "sigmoid":
            return sigmoid(z)
        return z

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (grad_in, dW, db) for the cached forward batch."""
        if self.act == "relu":
            grad_z = grad_out * (self._z > 0)
        elif self.act == "sigmoid":
            s = sigmoid(self._z)
            grad_z = grad_out * s * (1.0 - s)
        else:
            grad_z = grad_out
        dW = self._x.T @ grad_z
        db = grad_z.sum(axis=0)
        return grad_z @ self.W.T, dW, db


@dataclass
class AdamState:
    """Per-parameter Adam moments (Kingma & Ba, as cited by the paper)."""

    m: list
    v: list
    t: int = 0

    @staticmethod
    def for_layers(layers: list[Dense]) -> "AdamState":
        return AdamState(
            m=[(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers],
            v=[(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers],
        )


@dataclass
class MLP:
    """A stack of :class:`Dense` layers with Adam training utilities."""

    layers: list

    @staticmethod
    def build(sizes: list[int], acts: list[str], seed: int = 0) -> "MLP":
        """``sizes=[in, h1, ..., out]``; ``acts`` has ``len(sizes)-1`` entries."""
        assert len(acts) == len(sizes) - 1
        rng = np.random.default_rng(seed)
        return MLP(
            [Dense.init(sizes[i], sizes[i + 1], acts[i], rng) for i in range(len(acts))]
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` without keeping activations for backprop."""
        for layer in self.layers:
            x = layer.predict(x)
        return x

    def penultimate(self, x: np.ndarray) -> np.ndarray:
        """Activations entering the final layer — the paper's
        'entity-aware embeddings' tap point."""
        for layer in self.layers[:-1]:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> list:
        """Backprop ``grad_out`` through the stack; returns per-layer grads."""
        grads = [None] * len(self.layers)
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, dW, db = self.layers[i].backward(g)
            grads[i] = (dW, db)
        return grads

    def adam_step(
        self,
        grads: list,
        state: AdamState,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        state.t += 1
        for i, layer in enumerate(self.layers):
            for j, (param, grad) in enumerate(
                ((layer.W, grads[i][0]), (layer.b, grads[i][1]))
            ):
                m = state.m[i][j]
                v = state.v[i][j]
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                mhat = m / (1 - beta1**state.t)
                vhat = v / (1 - beta2**state.t)
                param -= lr * mhat / (np.sqrt(vhat) + eps)

    # -- serialization (broadcast to Spark executors as plain arrays) ----
    def to_arrays(self) -> list:
        """Flatten to picklable (W, b, act) triples for Spark broadcast."""
        return [(l.W.copy(), l.b.copy(), l.act) for l in self.layers]

    @staticmethod
    def from_arrays(arrays: list) -> "MLP":
        return MLP([Dense(W, b, act) for W, b, act in arrays])


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with clipping."""
    p = np.clip(p, 1e-9, 1 - 1e-9)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def train_classifier(
    model: MLP,
    X: np.ndarray,
    y: np.ndarray,
    *,
    X_val: np.ndarray,
    y_val: np.ndarray,
    lr: float,
    batch_size: int,
    epochs: int,
    patience: int,
    seed: int = 0,
    verbose: bool = False,
) -> dict:
    """Train a sigmoid-output binary classifier with BCE + Adam.

    Implements the paper's recipe: fixed learning rate, minibatches,
    validation check each epoch, best-checkpoint restore, early stopping
    after ``patience`` epochs without validation-loss improvement.
    Returns a history dict with ``best_val_loss`` and ``best_epoch``.
    """
    rng = np.random.default_rng(seed)
    state = AdamState.for_layers(model.layers)
    best_val = np.inf
    best_arrays = model.to_arrays()
    best_epoch = 0
    stale = 0
    n = X.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            p = model.forward(xb).ravel()
            # d(BCE)/d(sigmoid-logit) simplifies, but we treat the final
            # sigmoid as a layer, so pass dL/dp through its backward.
            p_c = np.clip(p, 1e-9, 1 - 1e-9)
            grad = ((p_c - yb) / (p_c * (1 - p_c)))[:, None] / len(idx)
            grads = model.backward(grad)
            model.adam_step(grads, state, lr)
        val_p = model.forward(X_val).ravel()
        val_loss = bce_loss(val_p, y_val)
        if val_loss < best_val - 1e-6:
            best_val, best_epoch, stale = val_loss, epoch, 0
            best_arrays = model.to_arrays()
        else:
            stale += 1
            if stale >= patience:
                break
        if verbose and epoch % 10 == 0:
            print(f"epoch {epoch}: val_loss={val_loss:.4f}")
    model.layers = MLP.from_arrays(best_arrays).layers
    return {"best_val_loss": best_val, "best_epoch": best_epoch}


def train_regression(
    model: MLP,
    X: np.ndarray,
    y: np.ndarray,
    *,
    X_val: np.ndarray,
    y_val: np.ndarray,
    lr: float,
    batch_size: int,
    epochs: int,
    patience: int,
    seed: int = 0,
) -> dict:
    """Train a linear-output regressor with MSE + Adam (same recipe)."""
    rng = np.random.default_rng(seed)
    state = AdamState.for_layers(model.layers)
    best_val = np.inf
    best_arrays = model.to_arrays()
    best_epoch = 0
    stale = 0
    n = X.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            pred = model.forward(X[idx]).ravel()
            grad = (2.0 * (pred - y[idx]) / len(idx))[:, None]
            grads = model.backward(grad)
            model.adam_step(grads, state, lr)
        val_loss = float(((model.forward(X_val).ravel() - y_val) ** 2).mean())
        if val_loss < best_val - 1e-7:
            best_val, best_epoch, stale = val_loss, epoch, 0
            best_arrays = model.to_arrays()
        else:
            stale += 1
            if stale >= patience:
                break
    model.layers = MLP.from_arrays(best_arrays).layers
    return {"best_val_loss": best_val, "best_epoch": best_epoch}
