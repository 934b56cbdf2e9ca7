"""Type invariants, kernel construction and the prediction formula."""

import numpy as np
import pytest

from subsetgibbs import (
    BasisConfig,
    ChainState,
    DatasetView,
    FixedVariances,
    InvalidParameterError,
    SamplerConfig,
    SubsetMask,
    draw_srswor,
    kernel_matrix,
    make_rng,
    predict_mu,
)
from subsetgibbs.model import _BANDED_MIN_RHO_GAP, BandedKernel, banded_kernel


def make_data(N=10, p=1, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetView(
        y=rng.normal(size=N),
        x=np.ones((N, p)),
        index_coords=np.arange(N, dtype=float),
    )


class TestDatasetView:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            DatasetView(y=np.array([1.0, np.nan]), x=np.ones((2, 1)),
                        index_coords=np.arange(2.0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            DatasetView(y=np.ones(3), x=np.ones((2, 1)), index_coords=np.arange(3.0))
        with pytest.raises(InvalidParameterError):
            DatasetView(y=np.ones(3), x=np.ones((3, 1)), index_coords=np.arange(2.0))

    def test_accepts_latlon_coords(self):
        coords = np.column_stack([np.linspace(-60, 60, 4), np.linspace(0, 90, 4)])
        view = DatasetView(y=np.ones(4), x=np.ones((4, 1)), index_coords=coords)
        assert view.index_coords.shape == (4, 2)


class TestSubsetMask:
    def test_rejects_disagreement(self):
        with pytest.raises(InvalidParameterError):
            SubsetMask(delta=np.array([True, False, True]), active=np.array([0]))

    def test_rejects_unsorted_active(self):
        with pytest.raises(InvalidParameterError):
            SubsetMask(delta=np.array([True, True]), active=np.array([1, 0]))


class TestBasisConfig:
    def test_rejects_bad_rho_and_metric(self):
        with pytest.raises(InvalidParameterError):
            BasisConfig(rho=0.0)
        with pytest.raises(InvalidParameterError):
            BasisConfig(rho=1.0, metric="euclid")


class TestSamplerConfig:
    def test_rejects_bad_burn_in(self):
        with pytest.raises(InvalidParameterError):
            SamplerConfig(iterations=10, burn_in=10, prediction_set=[0],
                          basis=BasisConfig(rho=0.3), seed=0)

    def test_rejects_unsorted_prediction_set(self):
        with pytest.raises(InvalidParameterError):
            SamplerConfig(iterations=10, burn_in=0, prediction_set=[3, 1],
                          basis=BasisConfig(rho=0.3), seed=0)

    def test_rejects_unknown_refresh_policy(self):
        with pytest.raises(InvalidParameterError):
            SamplerConfig(iterations=10, burn_in=0, prediction_set=[0],
                          basis=BasisConfig(rho=0.3), seed=0,
                          prediction_refresh="hold")


class TestFixedVariances:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            FixedVariances(0.0, 1.0, 1.0, 1.0)


def subset_kernel(data, basis, active):
    coords = data.index_coords[active]
    return kernel_matrix(coords, coords, basis)


class TestBuildSubsetDesign:
    """The kernel matrix over a subset's coordinates."""

    def test_single_point_kernel_is_one(self):
        psi = subset_kernel(make_data(5), BasisConfig(rho=7.0), np.array([2]))
        np.testing.assert_array_equal(psi, [[1.0]])

    def test_adjacent_pair_off_diagonal(self):
        psi = subset_kernel(make_data(5), BasisConfig(rho=0.3), np.array([0, 1]))
        assert psi[0, 1] == pytest.approx(np.exp(-0.3))
        assert psi[0, 1] == pytest.approx(0.740818, abs=1e-6)

    def test_symmetric_with_unit_diagonal(self):
        data = make_data(30)
        rng = make_rng(4)
        for _ in range(10):
            mask = draw_srswor(7, 30, rng)
            psi = subset_kernel(data, BasisConfig(rho=0.55), mask.active)
            np.testing.assert_array_equal(psi, psi.T)
            np.testing.assert_array_equal(np.diag(psi), np.ones(7))

    def test_principal_submatrix_consistency(self):
        data = make_data(12)
        basis = BasisConfig(rho=0.4)
        full = subset_kernel(data, basis, np.arange(12))
        rng = make_rng(9)
        for _ in range(10):
            mask = draw_srswor(5, 12, rng)
            sub = subset_kernel(data, basis, mask.active)
            np.testing.assert_array_equal(sub, full[np.ix_(mask.active, mask.active)])

    def test_kernel_positive_semidefinite(self):
        psi = subset_kernel(make_data(9), BasisConfig(rho=0.2), np.arange(9))
        np.linalg.cholesky(psi)

    def test_great_circle_metric_on_latlon(self):
        coords = np.array([[0.0, 0.0], [0.0, 90.0], [90.0, 0.0]])
        kernel = kernel_matrix(coords, coords, BasisConfig(rho=1.0, metric="greatcircle"))
        # a quarter turn separates each pair, so all off-diagonals match
        np.testing.assert_allclose(kernel[0, 1], np.exp(-np.pi / 2.0), rtol=1e-12)
        np.testing.assert_allclose(kernel[0, 2], np.exp(-np.pi / 2.0), rtol=1e-12)
        np.testing.assert_array_equal(np.diag(kernel), np.ones(3))

    def test_great_circle_metric_on_scalar_angles(self):
        coords = np.array([0.0, np.pi / 2.0, 2.0 * np.pi])
        kernel = kernel_matrix(coords, coords, BasisConfig(rho=1.0, metric="greatcircle"))
        # 0 and 2*pi coincide on the circle
        np.testing.assert_allclose(kernel[0, 2], 1.0, rtol=1e-12)
        np.testing.assert_allclose(kernel[0, 1], np.exp(-np.pi / 2.0), rtol=1e-12)


def sorted_and_shuffled_coords(n, rho, seed, min_rho_gap=0.01):
    """Two copies of random scalar coordinates, increasing and permuted."""
    rng = np.random.default_rng(seed)
    gaps = (min_rho_gap + rng.exponential(0.5, size=n - 1)) / rho
    coords = np.concatenate([[rng.normal()], rng.normal() + np.cumsum(gaps)])
    coords.sort()
    return coords, coords[rng.permutation(n)]


class TestBandedKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("rho", [0.05, 0.7, 4.0])
    def test_inverse_times_kernel_is_identity(self, n, rho):
        basis = BasisConfig(rho=rho)
        for coords in sorted_and_shuffled_coords(n, rho, seed=n):
            kernel = banded_kernel(coords, basis)
            assert isinstance(kernel, BandedKernel)
            psi = kernel_matrix(coords, coords, basis)
            np.testing.assert_allclose(kernel.inverse_matvec(psi), np.eye(n), atol=1e-10)
            np.testing.assert_allclose(psi @ kernel.inverse_matvec(np.eye(n)), np.eye(n),
                                       atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_product_is_dense_kernel_product(self, n):
        basis = BasisConfig(rho=0.4)
        rng = np.random.default_rng(n)
        v = rng.normal(size=n)
        block = rng.normal(size=(n, 3))
        for coords in sorted_and_shuffled_coords(n, 0.4, seed=10 + n):
            kernel = banded_kernel(coords, basis)
            psi = kernel_matrix(coords, coords, basis)
            np.testing.assert_allclose(kernel @ v, psi @ v, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(kernel @ block, psi @ block, rtol=1e-10, atol=1e-12)

    def test_tridiagonal_entries(self):
        # a_i = exp(-rho gap_i): off-diagonal -a/(1-a^2), diagonal
        # 1 + a_{i-1}^2/(1-a_{i-1}^2) + a_i^2/(1-a_i^2)
        coords = np.array([0.0, 1.0, 3.0])
        kernel = banded_kernel(coords, BasisConfig(rho=0.5))
        a = np.exp(-0.5 * np.array([1.0, 2.0]))
        np.testing.assert_allclose(kernel.off, -a / (1.0 - a**2), rtol=1e-14)
        ratio = a**2 / (1.0 - a**2)
        np.testing.assert_allclose(kernel.diag, [1.0 + ratio[0], 1.0 + ratio.sum(),
                                                 1.0 + ratio[1]], rtol=1e-14)

    def test_far_apart_coordinates_give_the_identity(self):
        # gaps of rho * gap = 1e4 underflow a to 0 without overflow or NaN
        coords = np.array([0.0, 1e4, 2e4, 3e4])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            kernel = banded_kernel(coords, BasisConfig(rho=1.0))
            np.testing.assert_array_equal(kernel.diag, np.ones(4))
            np.testing.assert_array_equal(kernel.off, np.zeros(3))
            np.testing.assert_array_equal(kernel @ np.arange(4.0), np.arange(4.0))

    def test_threshold_is_inclusive(self):
        rho = 0.25
        at = np.array([0.0, _BANDED_MIN_RHO_GAP / rho, 1.0])
        below = np.array([0.0, 0.5 * _BANDED_MIN_RHO_GAP / rho, 1.0])
        assert banded_kernel(at, BasisConfig(rho=rho)) is not None
        assert banded_kernel(below, BasisConfig(rho=rho)) is None

    def test_dense_cases_get_no_banded_kernel(self):
        duplicates = np.array([0.0, 1.0, 1.0, 2.0])
        assert banded_kernel(duplicates, BasisConfig(rho=0.3)) is None
        assert banded_kernel(duplicates[::-1], BasisConfig(rho=0.3)) is None
        angles = np.array([0.0, 1.0, 2.0])
        assert banded_kernel(angles, BasisConfig(rho=0.3, metric="greatcircle")) is None
        latlon = np.array([[0.0, 0.0], [0.0, 90.0], [90.0, 0.0]])
        assert banded_kernel(latlon, BasisConfig(rho=0.3, metric="greatcircle")) is None


class TestPredictMu:
    def state(self, N, p=1, **overrides):
        state = ChainState.initial(N, p)
        for key, value in overrides.items():
            setattr(state, key, value)
        return state

    def test_zero_state_gives_zero(self):
        data = make_data(8)
        out = predict_mu(self.state(8), data, BasisConfig(rho=0.3), [0, 4, 7])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_intercept_plus_fine_scale(self):
        data = make_data(6)
        state = self.state(6, beta=np.array([2.0]))
        state.xi = np.full(6, 0.5)
        out = predict_mu(state, data, BasisConfig(rho=0.3), [1, 3])
        np.testing.assert_allclose(out, 2.5)

    def test_single_index_basis(self):
        data = make_data(4)
        state = self.state(4)
        state.eta = np.array([1.0, 0.0, 0.0, 0.0])
        out = predict_mu(state, data, BasisConfig(rho=0.3), [0])
        np.testing.assert_allclose(out, [1.0])

    def test_masked_eta_outside_prediction_set(self):
        # eta components not in the prediction set must not contribute
        data = make_data(5)
        state = self.state(5)
        state.eta = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
        out = predict_mu(state, data, BasisConfig(rho=0.3), [0, 2, 4])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_linear_superposition(self):
        data = make_data(10)
        basis = BasisConfig(rho=0.7)
        rng = np.random.default_rng(3)
        pred = [1, 4, 6, 9]
        s1 = self.state(10, beta=rng.normal(size=1))
        s1.eta = rng.normal(size=10)
        s1.xi = rng.normal(size=10)
        s2 = self.state(10, beta=rng.normal(size=1))
        s2.eta = rng.normal(size=10)
        s2.xi = rng.normal(size=10)
        combined = self.state(10, beta=s1.beta + s2.beta)
        combined.eta = s1.eta + s2.eta
        combined.xi = s1.xi + s2.xi
        np.testing.assert_allclose(
            predict_mu(combined, data, basis, pred),
            predict_mu(s1, data, basis, pred) + predict_mu(s2, data, basis, pred),
            rtol=1e-12,
        )

    def test_banded_prediction_matches_dense_kernel(self):
        # unsorted coordinates take the banded path through a permutation
        rng = np.random.default_rng(4)
        _, coords = sorted_and_shuffled_coords(12, 0.6, seed=4)
        data = DatasetView(y=rng.normal(size=12), x=rng.normal(size=(12, 2)),
                           index_coords=coords)
        basis = BasisConfig(rho=0.6)
        pred = np.array([0, 2, 3, 7, 11])
        state = self.state(12, beta=rng.normal(size=2))
        state.eta = rng.normal(size=12)
        state.xi = rng.normal(size=12)
        assert banded_kernel(coords[pred], basis) is not None
        psi = kernel_matrix(coords[pred], coords[pred], basis)
        expected = data.x[pred] @ state.beta + psi @ state.eta[pred] + state.xi[pred]
        np.testing.assert_allclose(predict_mu(state, data, basis, pred), expected,
                                   rtol=1e-10, atol=1e-12)

    def test_rejects_out_of_range_indices(self):
        data = make_data(4)
        with pytest.raises(InvalidParameterError):
            predict_mu(self.state(4), data, BasisConfig(rho=0.3), [2, 9])
