"""Type invariants and kernel construction."""

import warnings

import numpy as np
import pytest

import subsetgibbs
import subsetgibbs.oracle
from subsetgibbs import (
    BasisConfig,
    DatasetView,
    FixedVariances,
    InvalidParameterError,
    SamplerConfig,
    kernel_matrix,
    make_rng,
)
from subsetgibbs.distributions import sample_active_indices
from subsetgibbs.model import _BANDED_MIN_RHO_GAP, BandedKernel, banded_kernels


def make_data(N=10, p=1, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetView(
        y=rng.normal(size=N),
        x=np.ones((N, p)),
        index_coords=np.arange(N, dtype=float),
    )


def test_every_exported_name_imports():
    modules = [subsetgibbs, subsetgibbs.model, subsetgibbs.gibbs, subsetgibbs.calibrate,
               subsetgibbs.distributions, subsetgibbs.simdata, subsetgibbs.oracle]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


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


class TestBasisConfig:
    def test_rejects_bad_rho_and_metric(self):
        with pytest.raises(InvalidParameterError):
            BasisConfig(rho=0.0)
        with pytest.raises(InvalidParameterError, match="rho must be finite and > 0, got inf"):
            BasisConfig(rho=np.inf)
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

    @pytest.mark.parametrize("seed", [1.7, 2**64, -1])
    def test_rejects_seed_that_is_not_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            SamplerConfig(iterations=10, burn_in=0, prediction_set=[0],
                          basis=BasisConfig(rho=0.3), seed=seed)


    @pytest.mark.parametrize("field, value", [
        ("iterations", 20.0), ("iterations", 20.5), ("burn_in", 5.5), ("burn_in", 5.0),
        ("prediction_set", [0.5, 3.2]), ("prediction_set", [0.0, 3.0])])
    def test_rejects_non_integer_counts_and_indices(self, field, value):
        # int() would keep 15 of 20 sweeps at burn_in=5.5 and predict at
        # [0, 3] for [0.5, 3.2]
        fields = dict(iterations=20, burn_in=5, prediction_set=[0, 3],
                      basis=BasisConfig(rho=0.3), seed=0)
        fields[field] = value
        with pytest.raises(InvalidParameterError, match="integer"):
            SamplerConfig(**fields)

    def test_accepts_numpy_integers(self):
        config = SamplerConfig(iterations=np.int64(20), burn_in=np.int32(5),
                               prediction_set=np.array([0, 3], dtype=np.uint32),
                               basis=BasisConfig(rho=0.3), seed=np.uint64(0))
        assert config.prediction_set.dtype == np.int64
        np.testing.assert_array_equal(config.prediction_set, [0, 3])

    def test_empty_prediction_set_is_reported_as_empty(self):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            SamplerConfig(iterations=10, burn_in=0, prediction_set=[],
                          basis=BasisConfig(rho=0.3), seed=0)


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
        for active in sample_active_indices(7, 30, make_rng(4), 10):
            psi = subset_kernel(data, BasisConfig(rho=0.55), active)
            np.testing.assert_array_equal(psi, psi.T)
            np.testing.assert_array_equal(np.diag(psi), np.ones(7))

    def test_principal_submatrix_consistency(self):
        data = make_data(12)
        basis = BasisConfig(rho=0.4)
        full = subset_kernel(data, basis, np.arange(12))
        for active in sample_active_indices(5, 12, make_rng(9), 10):
            sub = subset_kernel(data, basis, active)
            np.testing.assert_array_equal(sub, full[np.ix_(active, active)])

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


def spread_coords(n, rho, seed, min_rho_gap=0.01):
    """Random increasing scalar coordinates, every rho * gap above min_rho_gap."""
    rng = np.random.default_rng(seed)
    gaps = (min_rho_gap + rng.exponential(0.5, size=n - 1)) / rho
    coords = np.concatenate([[rng.normal()], rng.normal() + np.cumsum(gaps)])
    coords.sort()
    return coords


class TestBandedKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("rho", [0.05, 0.7, 4.0])
    def test_inverse_times_kernel_is_identity(self, n, rho):
        basis = BasisConfig(rho=rho)
        coords = spread_coords(n, rho, seed=n)
        kernel = banded_kernels(coords[None], basis)[0]
        assert isinstance(kernel, BandedKernel)
        # T from its stored diagonals
        t = np.diag(kernel.diag) + np.diag(kernel.off, 1) + np.diag(kernel.off, -1)
        psi = kernel_matrix(coords, coords, basis)
        np.testing.assert_allclose(t @ psi, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(psi @ t, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_product_is_dense_kernel_product(self, n):
        basis = BasisConfig(rho=0.4)
        rng = np.random.default_rng(n)
        v = rng.normal(size=n)
        block = rng.normal(size=(n, 3))
        coords = spread_coords(n, 0.4, seed=10 + n)
        kernel = banded_kernels(coords[None], basis)[0]
        psi = kernel_matrix(coords, coords, basis)
        np.testing.assert_allclose(kernel @ v, psi @ v, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(kernel @ block, psi @ block, rtol=1e-10, atol=1e-12)

    def test_tridiagonal_entries(self):
        # a_i = exp(-rho gap_i): off-diagonal -a/(1-a^2), diagonal
        # 1 + a_{i-1}^2/(1-a_{i-1}^2) + a_i^2/(1-a_i^2)
        coords = np.array([0.0, 1.0, 3.0])
        kernel = banded_kernels(coords[None], BasisConfig(rho=0.5))[0]
        a = np.exp(-0.5 * np.array([1.0, 2.0]))
        np.testing.assert_allclose(kernel.off, -a / (1.0 - a**2), rtol=1e-14)
        ratio = a**2 / (1.0 - a**2)
        np.testing.assert_allclose(kernel.diag, [1.0 + ratio[0], 1.0 + ratio.sum(),
                                                 1.0 + ratio[1]], rtol=1e-14)

    def test_far_apart_coordinates_give_the_identity(self):
        # gaps of rho * gap = 1e4 underflow a to 0 without overflow or NaN
        coords = np.array([0.0, 1e4, 2e4, 3e4])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            kernel = banded_kernels(coords[None], BasisConfig(rho=1.0))[0]
            np.testing.assert_array_equal(kernel.diag, np.ones(4))
            np.testing.assert_array_equal(kernel.off, np.zeros(3))
            np.testing.assert_array_equal(kernel @ np.arange(4.0), np.arange(4.0))

    def test_huge_rho_gives_the_identity_without_warnings(self):
        # rho * gap overflows to inf: exp(-inf) = 0 and expm1(-inf) = -1 are
        # exact, so T, T^2 and the dense kernel are all the identity; the
        # unsorted row's gaps overflow to -inf, and it gets no kernel
        coords = np.array([0.0, 1.0, 2.5, 4.0])
        basis = BasisConfig(rho=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels = banded_kernels(np.array([coords, coords[[2, 0, 3, 1]]]), basis)
            dense = kernel_matrix(coords, coords, basis)
            latlon = np.array([[0.0, 0.0], [0.0, 90.0], [90.0, 0.0]])
            great_circle = kernel_matrix(latlon, latlon, BasisConfig(rho=1e308,
                                                                     metric="greatcircle"))
        np.testing.assert_array_equal(dense, np.eye(4))
        np.testing.assert_array_equal(great_circle, np.eye(3))
        kernel, unsorted = kernels
        assert unsorted is None
        np.testing.assert_array_equal(kernel.diag, np.ones(4))
        np.testing.assert_array_equal(kernel.off, np.zeros(3))
        np.testing.assert_array_equal(kernel.square_band, np.tile([1.0, 0.0, 0.0], (4, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_square_band_is_t_squared_in_the_lower_layout(self, n):
        # entry j of column k is T^2[j + k, j]; the last k entries are zero
        coords = spread_coords(n, 0.4, seed=30 + n)
        kernel = banded_kernels(coords[None], BasisConfig(rho=0.4))[0]
        t = np.diag(kernel.diag) + np.diag(kernel.off, 1) + np.diag(kernel.off, -1)
        square = t @ t
        for k in range(3):
            expected = np.zeros(n)
            expected[:max(n - k, 0)] = np.diag(square, -k)
            np.testing.assert_allclose(kernel.square_band[:, k], expected,
                                       rtol=1e-13, atol=0.0)

    def test_threshold_is_inclusive(self):
        rho = 0.25
        at = np.array([0.0, _BANDED_MIN_RHO_GAP / rho, 1.0])
        below = np.array([0.0, 0.5 * _BANDED_MIN_RHO_GAP / rho, 1.0])
        assert banded_kernels(at[None], BasisConfig(rho=rho))[0] is not None
        assert banded_kernels(below[None], BasisConfig(rho=rho))[0] is None

    def test_one_pass_over_sorted_permuted_and_too_close_rows(self):
        # a row that is not sorted has a negative gap, so like a row with a
        # gap below the threshold it comes back None; the sorted rows with
        # every gap at or above it are banded, in the order of the stack
        rho, n = 0.4, 30
        basis = BasisConfig(rho=rho)
        rng = np.random.default_rng(3)
        rows, banded = [], []
        for seed in range(3):
            coords = spread_coords(n, rho, seed=20 + seed)
            near = coords.copy()
            near[5] = near[4] + 0.5 * _BANDED_MIN_RHO_GAP / rho
            rows += [coords, coords[rng.permutation(n)], near, coords[::-1],
                     near[rng.permutation(n)]]
            banded += [True, False, False, False, False]
        kernels = banded_kernels(np.array(rows), basis)
        assert [kernel is not None for kernel in kernels] == banded
        v = rng.normal(size=n)
        for coords, kernel in zip(rows, kernels):
            if kernel is not None:
                np.testing.assert_allclose(kernel @ v, kernel_matrix(coords, coords, basis) @ v,
                                           rtol=1e-9, atol=1e-9)

    def test_stack_of_single_points(self):
        kernels = banded_kernels(np.array([[0.3], [-2.0], [0.3]]), BasisConfig(rho=0.4))
        for kernel in kernels:
            np.testing.assert_array_equal(kernel.diag, [1.0])
            np.testing.assert_array_equal(kernel @ np.array([1.5]), [1.5])

    def test_dense_cases_get_no_banded_kernel(self):
        duplicates = np.array([0.0, 1.0, 1.0, 2.0])
        assert banded_kernels(duplicates[None], BasisConfig(rho=0.3))[0] is None
        assert banded_kernels(duplicates[::-1][None], BasisConfig(rho=0.3))[0] is None
        unsorted = np.array([0.0, 2.0, 1.0, 3.0])
        assert banded_kernels(unsorted[None], BasisConfig(rho=0.3))[0] is None
        angles = np.array([0.0, 1.0, 2.0])
        assert banded_kernels(angles[None], BasisConfig(rho=0.3, metric="greatcircle"))[0] is None
        latlon = np.array([[0.0, 0.0], [0.0, 90.0], [90.0, 0.0]])
        assert banded_kernels(latlon[None], BasisConfig(rho=0.3, metric="greatcircle"))[0] is None

