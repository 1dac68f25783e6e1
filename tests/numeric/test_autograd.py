"""Reverse-mode autodiff tests: analytic and finite-difference checks."""

import numpy as np
import pytest

import repro.numeric as rnp
from tests.numeric.autograd import DifferentiationError, grad
from repro.numeric.lazy import lazy


def finite_difference(f, x: np.ndarray, eps=1e-6) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += eps
        down[i] -= eps
        out[i] = (f(up) - f(down)) / (2 * eps)
    return out


class TestAnalytic:
    def test_quadratic(self, rt):
        xs = np.array([1.0, -2.0, 3.0])
        x = rnp.array(xs)
        loss, (g,) = grad(lazy(x) * lazy(x), wrt=[x])
        assert float(loss) == pytest.approx((xs**2).sum())
        np.testing.assert_allclose(g.to_numpy(), 2 * xs, rtol=1e-12)

    def test_mf_residual_gradient(self, rt):
        """The paper's generated gradient, rederived: d/dp sum((p-r)^2)."""
        rng = np.random.default_rng(0)
        preds = rng.random(16)
        obs = rng.random(16)
        p, r = rnp.array(preds), rnp.array(obs)
        diff = lazy(p) - lazy(r)
        loss, (gp,) = grad(diff * diff, wrt=[p])
        np.testing.assert_allclose(gp.to_numpy(), 2 * (preds - obs), rtol=1e-12)
        assert float(loss) == pytest.approx(((preds - obs) ** 2).sum())

    def test_division_rule(self, rt):
        xs = np.array([1.0, 2.0, 4.0])
        x = rnp.array(xs)
        ones = rnp.ones(3)
        _, (g,) = grad(lazy(ones) / lazy(x), wrt=[x])
        np.testing.assert_allclose(g.to_numpy(), -1.0 / xs**2, rtol=1e-12)

    def test_chain_rule_exp_log(self, rt):
        xs = np.array([0.5, 1.0, 1.5])
        x = rnp.array(xs)
        _, (g,) = grad(lazy(x).exp() * 2.0, wrt=[x])
        np.testing.assert_allclose(g.to_numpy(), 2 * np.exp(xs), rtol=1e-12)

    def test_pow_constant_exponent(self, rt):
        xs = np.array([1.0, 2.0, 3.0])
        x = rnp.array(xs)
        _, (g,) = grad(lazy(x) ** 3.0, wrt=[x])
        np.testing.assert_allclose(g.to_numpy(), 3 * xs**2, rtol=1e-12)

    def test_repeated_leaf_accumulates(self, rt):
        xs = np.array([1.0, 2.0])
        x = rnp.array(xs)
        # f = x*x + x  -> f' = 2x + 1
        _, (g,) = grad(lazy(x) * lazy(x) + lazy(x), wrt=[x])
        np.testing.assert_allclose(g.to_numpy(), 2 * xs + 1, rtol=1e-12)

    def test_multiple_wrt(self, rt):
        a = rnp.array(np.array([1.0, 2.0]))
        b = rnp.array(np.array([3.0, 4.0]))
        _, (ga, gb) = grad(lazy(a) * lazy(b), wrt=[a, b])
        np.testing.assert_allclose(ga.to_numpy(), [3.0, 4.0])
        np.testing.assert_allclose(gb.to_numpy(), [1.0, 2.0])


class TestFiniteDifference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_expression(self, rt, seed):
        rng = np.random.default_rng(seed)
        xs = rng.random(8) + 0.5
        bs = rng.random(8) + 0.5
        x = rnp.array(xs)
        b = rnp.array(bs)
        expr = (lazy(x) * 2.0 + lazy(b)).sqrt() * lazy(x) - lazy(x) / lazy(b)
        _, (g,) = grad(expr, wrt=[x])

        def f(v):
            return float(np.sum(np.sqrt(v * 2 + bs) * v - v / bs))

        np.testing.assert_allclose(
            g.to_numpy(), finite_difference(f, xs), rtol=1e-5, atol=1e-7
        )


class TestErrors:
    def test_wrt_not_in_expression(self, rt):
        x = rnp.ones(3)
        other = rnp.ones(3)
        with pytest.raises(DifferentiationError):
            grad(lazy(x) * 2.0, wrt=[other])

    def test_variable_exponent_rejected(self, rt):
        x = rnp.ones(3)
        with pytest.raises(DifferentiationError):
            grad(lazy(x) ** lazy(x), wrt=[x])

    def test_non_expression_rejected(self, rt):
        with pytest.raises(TypeError):
            grad(rnp.ones(3), wrt=[])


class TestTrainingLoop:
    def test_gradient_descent_converges(self, rt):
        """Fit y = w * x with autograd gradients (one-parameter-per-
        element least squares; closed form w = y/x)."""
        rng = np.random.default_rng(3)
        xs = rng.random(32) + 0.5
        ys = 3.0 * xs
        x, y = rnp.array(xs), rnp.array(ys)
        w = rnp.ones(32)
        for _ in range(60):
            resid = lazy(w) * lazy(x) - lazy(y)
            _, (gw,) = grad(resid * resid, wrt=[w])
            w = w - gw * 0.3
        np.testing.assert_allclose(w.to_numpy(), np.full(32, 3.0), rtol=1e-3)
