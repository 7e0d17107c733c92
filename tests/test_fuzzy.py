import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funneldsc.fuzzy import AdaptiveWeights, GaussianGrid


class TestReferenceGrid:
    def test_shape(self):
        g = GaussianGrid.reference_grid()
        assert g.m == 11
        assert g.dim == 1
        np.testing.assert_allclose(g.centers[:, 0], np.arange(-20.0, 20.5, 4.0))
        np.testing.assert_allclose(g.widths, math.sqrt(5.0))
        np.testing.assert_allclose(g.amplitudes, 10.0)

    def test_activation_matches_membership_product(self):
        # independent recomputation: mu_j(y) = 10 * exp(-(y - c_j)^2 / 10),
        # basis_j = mu_j / sum_k mu_k
        g = GaussianGrid.reference_grid()
        for y in (-25.0, -3.7, 0.0, 2.4, 19.0):
            mu = [10.0 * math.exp(-((y - c) ** 2) / 10.0) for c in np.arange(-20.0, 20.5, 4.0)]
            tot = sum(mu)
            expected = [v / tot for v in mu]
            np.testing.assert_allclose(g.basis(y), expected, rtol=1e-12, atol=1e-300)

    def test_two_dimensional_grid(self):
        g = GaussianGrid.reference_grid(dim=2)
        assert g.dim == 2
        phi = g.basis([1.0, -2.0])
        assert phi.shape == (11,)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)


class TestBasisInvariants:
    @given(y=st.floats(-40.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_probability_vector(self, y):
        g = GaussianGrid.reference_grid()
        phi = g.basis(y)
        assert np.all(phi >= 0.0)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)

    @given(y=st.floats(-40.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_energy_bounds(self, y):
        g = GaussianGrid.reference_grid()
        energy = g.regressor_energy(y)
        assert 1.0 / g.m - 1e-12 <= energy <= 1.0 + 1e-12

    def test_outer_product_eigenvalue_bound(self):
        g = GaussianGrid.reference_grid()
        for y in np.linspace(-30.0, 30.0, 101):
            phi = g.basis(float(y))
            eig_max = float(np.linalg.eigvalsh(np.outer(phi, phi)).max())
            assert eig_max <= g.m + 1e-12

    def test_underflow_fallback_is_one_hot(self):
        g = GaussianGrid.reference_grid()
        phi = g.basis(1e6)
        assert phi.sum() == 1.0
        assert np.count_nonzero(phi) == 1
        assert phi[-1] == 1.0  # nearest rule is the largest center

    def test_energy_extremes(self):
        g = GaussianGrid.reference_grid()
        # far outside the grid: one-hot, energy 1
        assert g.regressor_energy(1e6) == 1.0
        # at a center the dominant rule concentrates the mass
        assert g.regressor_energy(0.0) > 1.0 / g.m


class TestApproximation:
    def test_input_dimension_mismatch(self):
        g = GaussianGrid.reference_grid()
        with pytest.raises(ValueError):
            g.basis([1.0, 2.0])

    def test_zeros_constructor(self):
        w = AdaptiveWeights.zeros(11)
        assert w.theta_hat.shape == (11,)
        assert not w.theta_hat.any()


class TestValidation:
    def test_rejects_mismatched_rule_metadata(self):
        with pytest.raises(ValueError):
            GaussianGrid(centers=np.zeros((3, 1)), widths=np.ones(2), amplitudes=np.ones(3))

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            GaussianGrid(centers=np.zeros((2, 1)), widths=np.array([1.0, 0.0]), amplitudes=np.ones(2))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GaussianGrid(centers=np.zeros((0, 1)), widths=np.ones(0), amplitudes=np.ones(0))
