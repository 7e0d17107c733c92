import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funneldsc.fuzzy import GaussianGrid


class TestReferenceGrid:
    def test_shape(self):
        g = GaussianGrid.reference_grid()
        assert g.m == 11
        np.testing.assert_allclose(g.centers, np.arange(-20.0, 20.5, 4.0))
        assert g.basis(0.3).shape == (11,)
        assert g.basis(np.array([0.3, -2.0, 7.5])).shape == (3, 11)

    def test_empty_batch(self):
        # a 1-D batch of zero inputs is still a batch: zero rows of m
        assert GaussianGrid.reference_grid().basis(np.array([])).shape == (0, 11)

    def test_only_one_input_dimension(self):
        with pytest.raises(ValueError, match="dim=2"):
            GaussianGrid.reference_grid(dim=2)

    def test_exponent_scale_is_the_float_of_sqrt5(self):
        """The exponent is (y - c)^2 * (0.5 / sqrt(5)**2), the float
        0.09999999999999998: with 0.1 the runs' floats change."""
        g = GaussianGrid.reference_grid()
        ys = np.linspace(-30.0, 30.0, 61) + 0.37
        d = ys[:, None] - np.arange(-20.0, 20.5, 4.0)
        activation = 10.0 * np.exp(-(d * d * (0.5 / np.sqrt(5.0) ** 2)))
        np.testing.assert_array_equal(g.basis(ys), activation / activation.sum(axis=1)[:, None])

    def test_activation_matches_membership_product(self):
        # independent recomputation: mu_j(y) = 10 * exp(-(y - c_j)^2 / 10),
        # basis_j = mu_j / sum_k mu_k
        g = GaussianGrid.reference_grid()
        for y in (-25.0, -3.7, 0.0, 2.4, 19.0):
            mu = [10.0 * math.exp(-((y - c) ** 2) / 10.0) for c in np.arange(-20.0, 20.5, 4.0)]
            tot = sum(mu)
            expected = [v / tot for v in mu]
            np.testing.assert_allclose(g.basis(y), expected, rtol=1e-12, atol=1e-300)


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
        phi = g.basis(y)
        energy = (phi * phi).sum()
        assert 1.0 / g.m - 1e-12 <= energy <= 1.0 + 1e-12

    @given(ys=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_equal_scalar_rows(self, ys):
        # tabulate_basis reads the batch; the rows must be the scalar
        # basis float for float, whatever their neighbours in the batch
        g = GaussianGrid.reference_grid()
        rows = g.basis(np.array(ys))
        assert rows.shape == (len(ys), g.m)
        for y, row in zip(ys, rows):
            np.testing.assert_array_equal(row, g.basis(y))

    @given(y=st.floats(-40.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_mirror_symmetry(self, y):
        # the centers are symmetric about 0 and the rules share one width
        # and amplitude, so mirroring the input reverses the basis; only
        # the order of the normalising sum differs
        g = GaussianGrid.reference_grid()
        np.testing.assert_allclose(g.basis(-y), g.basis(y)[::-1], rtol=1e-15, atol=0.0)

    @given(y=st.floats(-40.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_mode_is_the_nearest_center(self, y):
        g = GaussianGrid.reference_grid()
        distance = np.abs(y - np.arange(-20.0, 20.5, 4.0))
        nearest = int(distance.argmin())
        assume(np.sort(distance)[1] - distance[nearest] > 1e-6)  # no tie
        assert int(g.basis(y).argmax()) == nearest

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
        # in a batch, dead rows fall back row by row: every row is the
        # scalar result float for float, and a dead row is one-hot at its
        # nearest rule
        ys = [-1e6, 0.0, 3.7, 1e6, -70.0, 150.0]
        rows = g.basis(np.array(ys))
        for y, row in zip(ys, rows):
            np.testing.assert_array_equal(row, g.basis(y))
        for j, nearest in ((0, 0), (3, g.m - 1), (5, g.m - 1)):
            assert np.array_equal(rows[j], np.eye(g.m)[nearest])
        assert np.count_nonzero(rows[1]) > 1 and np.count_nonzero(rows[2]) > 1

    def test_energy_extremes(self):
        g = GaussianGrid.reference_grid()
        far, centre = g.basis(1e6), g.basis(0.0)
        # far outside the grid: one-hot, energy 1
        assert (far * far).sum() == 1.0
        # at a center the dominant rule concentrates the mass
        assert (centre * centre).sum() > 1.0 / g.m


class TestHugeInputs:
    """An input whose squared distance to a center passes the floats is a
    dead row like any other: one-hot at its nearest rule, the end of the
    grid on its side, with no warning."""

    @pytest.mark.parametrize("y", [1e200, math.inf, -math.inf])
    def test_scalar(self, y):
        g = GaussianGrid.reference_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, mirrored = g.basis(y), g.basis(-y)
        assert np.array_equal(phi, np.eye(g.m)[g.m - 1 if y > 0 else 0])
        assert np.array_equal(mirrored, phi[::-1])

    def test_batch(self):
        g = GaussianGrid.reference_grid()
        ys = [1e200, -1e200, math.inf, -math.inf, 2.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = g.basis(np.array(ys))
        for y, row in zip(ys[:4], rows):
            assert np.array_equal(row, np.eye(g.m)[g.m - 1 if y > 0 else 0])
        np.testing.assert_array_equal(rows[4], g.basis(2.5))
