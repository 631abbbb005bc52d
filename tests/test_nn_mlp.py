"""Unit tests for the numpy NN substrate (repro.nn.mlp)."""
import numpy as np
import pytest

from repro.nn.mlp import (
    MLP,
    AdamState,
    Dense,
    bce_loss,
    relu,
    sigmoid,
    train_classifier,
    train_regression,
)


class TestActivations:
    def test_relu_positive_passthrough(self):
        assert np.allclose(relu(np.array([1.0, 2.5])), [1.0, 2.5])

    def test_relu_clips_negative(self):
        assert np.allclose(relu(np.array([-1.0, -0.1, 0.0])), [0.0, 0.0, 0.0])

    def test_sigmoid_zero_is_half(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_symmetry(self):
        x = np.array([-3.0, -1.0, 1.0, 3.0])
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestDense:
    def test_init_shapes(self):
        layer = Dense.init(4, 3, "relu", np.random.default_rng(0))
        assert layer.W.shape == (4, 3)
        assert layer.b.shape == (3,)

    def test_linear_forward_matches_matmul(self):
        layer = Dense.init(4, 3, "linear", np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 4))
        assert np.allclose(layer.forward(x), x @ layer.W + layer.b)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "linear"])
    def test_backward_matches_numeric_gradient(self, act):
        rng = np.random.default_rng(2)
        layer = Dense.init(3, 2, act, rng)
        x = rng.normal(size=(4, 3))
        # scalar loss L = sum(forward(x)); numeric dL/dW vs analytic
        out = layer.forward(x)
        _, dW, db = layer.backward(np.ones_like(out))
        eps = 1e-6
        for i in range(3):
            for j in range(2):
                layer.W[i, j] += eps
                up = layer.forward(x).sum()
                layer.W[i, j] -= 2 * eps
                down = layer.forward(x).sum()
                layer.W[i, j] += eps
                assert dW[i, j] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-6)

    def test_backward_grad_in_shape(self):
        layer = Dense.init(3, 2, "relu", np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        out = layer.forward(x)
        grad_in, _, _ = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape


class TestMLP:
    def test_build_layer_count_and_acts(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        assert len(m.layers) == 2
        assert m.layers[0].act == "relu"
        assert m.layers[1].act == "sigmoid"

    def test_build_requires_matching_acts(self):
        with pytest.raises(AssertionError):
            MLP.build([4, 8, 2], ["relu"], seed=0)

    def test_forward_shape(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        out = m.forward(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_predict_equals_forward_without_cache(self):
        m = MLP.build([4, 8, 3, 1], ["relu", "linear", "sigmoid"], seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        out = m.predict(x)
        assert all(l._x is None and l._z is None for l in m.layers)
        assert np.array_equal(out, m.forward(x))

    def test_penultimate_is_last_hidden(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        pen = m.penultimate(x)
        assert pen.shape == (5, 8)
        # feeding penultimate through the final layer = full forward
        assert np.allclose(m.layers[-1].forward(pen), m.forward(x))

    def test_serialization_roundtrip(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        m2 = MLP.from_arrays(m.to_arrays())
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(m.forward(x), m2.forward(x))

    def test_to_arrays_copies(self):
        m = MLP.build([2, 2], ["linear"], seed=0)
        arrays = m.to_arrays()
        m.layers[0].W += 1.0
        assert not np.allclose(arrays[0][0], m.layers[0].W)

    def test_deterministic_in_seed(self):
        a = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=7)
        b = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=7)
        assert np.allclose(a.layers[0].W, b.layers[0].W)

    def test_adam_step_moves_params(self):
        m = MLP.build([2, 1], ["linear"], seed=0)
        state = AdamState.for_layers(m.layers)
        W0 = m.layers[0].W.copy()
        m.adam_step([(np.ones((2, 1)), np.ones(1))], state, lr=0.1)
        assert not np.allclose(W0, m.layers[0].W)
        assert state.t == 1


class TestTraining:
    def _blobs(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        X0 = rng.normal(loc=-1.0, size=(n // 2, 4))
        X1 = rng.normal(loc=1.0, size=(n // 2, 4))
        X = np.vstack([X0, X1]).astype(np.float64)
        y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        idx = rng.permutation(n)
        return X[idx], y[idx]

    def test_classifier_learns_separable_blobs(self):
        X, y = self._blobs()
        m = MLP.build([4, 8, 1], ["relu", "sigmoid"], seed=1)
        hist = train_classifier(
            m, X[:300], y[:300], X_val=X[300:], y_val=y[300:],
            lr=0.01, batch_size=32, epochs=60, patience=10,
        )
        acc = ((m.forward(X[300:]).ravel() > 0.5) == y[300:]).mean()
        assert acc > 0.95
        assert hist["best_val_loss"] < 0.3

    def test_classifier_early_stops(self):
        X, y = self._blobs()
        m = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=1)
        hist = train_classifier(
            m, X[:300], y[:300], X_val=X[300:], y_val=y[300:],
            lr=0.05, batch_size=32, epochs=500, patience=3,
        )
        # with patience 3 on an easy problem, must stop well before 500
        assert hist["best_epoch"] < 490

    def test_classifier_restores_best_checkpoint(self):
        X, y = self._blobs()
        m = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=1)
        hist = train_classifier(
            m, X[:300], y[:300], X_val=X[300:], y_val=y[300:],
            lr=0.05, batch_size=32, epochs=40, patience=5,
        )
        val = bce_loss(m.forward(X[300:]).ravel(), y[300:])
        assert val == pytest.approx(hist["best_val_loss"], rel=1e-6)

    def test_regression_fits_linear_map(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 3))
        w = np.array([1.0, -2.0, 0.5])
        y = X @ w
        m = MLP.build([3, 1], ["linear"], seed=2)
        hist = train_regression(
            m, X[:400], y[:400], X_val=X[400:], y_val=y[400:],
            lr=0.05, batch_size=32, epochs=200, patience=20,
        )
        assert hist["best_val_loss"] < 1e-3

    def test_bce_loss_perfect_prediction_near_zero(self):
        assert bce_loss(np.array([1e-9, 1 - 1e-9]), np.array([0.0, 1.0])) < 1e-6

    def test_bce_loss_clips_exact_zero_one(self):
        assert np.isfinite(bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])))
