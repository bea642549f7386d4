import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdsim import (
    HeterogeneousFamily,
    InvalidSpecError,
    NoiseModel,
    QuadraticObjective,
    finite_difference_gradient,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
)
from asgdsim import objectives
from asgdsim.rng import named_stream


class TestQuadratic:
    def test_eigenvalues_match_request(self):
        obj = make_quadratic(8, 0.5, 3.0, seed=1)
        eigs = np.linalg.eigvalsh(obj.matrix_a)
        assert eigs[0] == pytest.approx(0.5, rel=1e-12)
        assert eigs[-1] == pytest.approx(3.0, rel=1e-12)
        gaps = np.diff(eigs)
        assert np.allclose(gaps, gaps[0], rtol=1e-9)

    def test_smoothness_is_largest_squared_eigenvalue(self):
        obj = make_quadratic(6, 1.0, 2.0, seed=3)
        assert obj.smoothness == pytest.approx(4.0, rel=1e-12)

    def test_gradient_zero_at_solution(self):
        obj = make_quadratic(5, 1.0, 2.0, seed=9)
        x_star = np.linalg.solve(obj.matrix_a, obj.vector_b)
        assert np.linalg.norm(obj.gradient(x_star)) < 1e-12

    def test_value_and_gradient_consistent(self):
        # against 0.5 * ||A x - b||^2 and A^T (A x - b) written out here, since
        # value and gradient only read the kernel
        obj = make_quadratic(7, 1.0, 4.0, seed=2)
        x = named_stream(5, "probe").standard_normal(7)
        v, g = obj.value_and_gradient(x)
        r = obj.matrix_a @ x - obj.vector_b
        assert v == 0.5 * float(r @ r)
        np.testing.assert_array_equal(g, obj.matrix_a.T @ r)
        assert obj.value(x) == v
        np.testing.assert_array_equal(obj.gradient(x), g)

    def test_same_seed_same_instance(self):
        a = make_quadratic(4, 1.0, 2.0, seed=11)
        b = make_quadratic(4, 1.0, 2.0, seed=11)
        np.testing.assert_array_equal(a.matrix_a, b.matrix_a)
        np.testing.assert_array_equal(a.vector_b, b.vector_b)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(InvalidSpecError):
            make_quadratic(4, 2.0, 1.0, seed=0)
        with pytest.raises(InvalidSpecError):
            make_quadratic(4, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidSpecError):
            make_quadratic(1, 1.0, 2.0, seed=0)


def logistic_grad_bound(obj):
    """(1/m) sum_j ||a_j||: each sample's gradient is a_j times a sigmoid in [0, 1]."""
    return float(np.linalg.norm(obj.features, axis=1).mean())


class TestLogistic:
    def test_loss_at_zero_is_log_two(self):
        obj = make_logistic(50, 10, seed=4)
        assert obj.value(np.zeros(10)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_norm_never_exceeds_bound(self):
        obj = make_logistic(60, 8, seed=5)
        rng = named_stream(6, "probe")
        for _ in range(50):
            x = rng.standard_normal(8) * rng.uniform(0.1, 50.0)
            assert np.linalg.norm(obj.gradient(x)) <= logistic_grad_bound(obj) + 1e-12

    def test_value_stable_for_extreme_margins(self):
        obj = make_logistic(20, 4, seed=6)
        x = 1e4 * np.ones(4)
        v, g = obj.value_and_gradient(x)
        assert np.isfinite(v)
        assert np.all(np.isfinite(g))

    def test_value_and_gradient_consistent(self):
        # against the mean of log(1 + exp(-b_j a_j . x)) and its gradient
        # -(1/m) sum_j b_j a_j / (1 + exp(b_j a_j . x)), written out here
        obj = make_logistic(40, 6, seed=8)
        x = named_stream(9, "probe").standard_normal(6)
        v, g = obj.value_and_gradient(x)
        margins = obj.labels * (obj.features @ x)
        assert v == pytest.approx(np.mean(np.log1p(np.exp(-margins))), rel=1e-13)
        want = -(obj.features.T @ (obj.labels / (1.0 + np.exp(margins)))) / obj.n_samples
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-15)
        assert obj.value(x) == v
        np.testing.assert_array_equal(obj.gradient(x), g)

    def test_labels_are_plus_minus_one(self):
        obj = make_logistic(30, 5, seed=7)
        assert set(np.unique(obj.labels)) <= {-1.0, 1.0}


class TestHeterogeneous:
    def test_shifts_sum_to_zero(self):
        fam = make_heterogeneous(make_quadratic(6, 1.0, 2.0, seed=1), 5, 0.3, seed=2)
        np.testing.assert_allclose(fam.shifts.sum(axis=0), 0.0, atol=1e-12)

    def test_shift_magnitude_matches_zeta(self):
        fam = make_heterogeneous(make_quadratic(6, 1.0, 2.0, seed=1), 5, 0.3, seed=2)
        rms = np.sqrt(np.mean(np.sum(fam.shifts**2, axis=1)))
        assert rms == pytest.approx(0.3, rel=1e-12)

    def test_client_gradient_is_base_plus_shift(self):
        fam = make_heterogeneous(make_quadratic(4, 1.0, 2.0, seed=8), 3, 1.0, seed=9)
        x = named_stream(1, "probe").standard_normal(4)
        for i in range(3):
            np.testing.assert_allclose(
                fam.client_gradient(i, x), fam.base.gradient(x) + fam.shifts[i],
                atol=1e-14)

    def test_average_of_clients_recovers_base(self):
        fam = make_heterogeneous(make_quadratic(4, 1.0, 2.0, seed=8), 6, 2.0, seed=9)
        x = named_stream(2, "probe").standard_normal(4)
        avg = np.mean([fam.client_gradient(i, x) for i in range(6)], axis=0)
        np.testing.assert_allclose(avg, fam.base.gradient(x), atol=1e-12)

    def test_zero_zeta_means_identical_clients(self):
        fam = make_heterogeneous(make_quadratic(4, 1.0, 2.0, seed=8), 4, 0.0, seed=9)
        assert np.all(fam.shifts == 0.0)

    def test_mismatched_shifts_rejected(self):
        base = make_quadratic(4, 1.0, 2.0, seed=8)
        with pytest.raises(InvalidSpecError):
            HeterogeneousFamily(base, np.ones((3, 4)))  # does not sum to zero


class TestNoise:
    def test_sigma_zero_is_exact_zero(self):
        noise = NoiseModel(0.0)
        rng = named_stream(0, "noise-worker-0")
        assert np.all(noise.sample(5, rng) == 0.0)

    def test_expected_squared_norm_is_sigma_squared(self):
        noise = NoiseModel(2.0)
        rng = named_stream(3, "noise-worker-0")
        draws = np.sum(noise.sample((20000, 7), rng) ** 2, axis=1)
        assert draws.mean() == pytest.approx(4.0, rel=0.03)

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_a_block_equals_its_rows_drawn_one_at_a_time(self, sigma):
        noise = NoiseModel(sigma)
        block = noise.sample((300, 5), named_stream(4, "noise-worker-0"))
        twin = named_stream(4, "noise-worker-0")
        rows = np.array([noise.sample(5, twin) for _ in range(300)])
        assert block.shape == (300, 5)
        assert np.array_equal(block, rows)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidSpecError):
            NoiseModel(-0.1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidSpecError):
            NoiseModel(sigma)


class TestFiniteDifferences:
    @pytest.mark.parametrize("maker,dim", [
        (lambda: make_quadratic(6, 1.0, 2.0, seed=10), 6),
        (lambda: make_logistic(40, 9, seed=11), 9),
    ])
    def test_analytic_gradient_matches(self, maker, dim):
        obj = maker()
        rng = named_stream(12, "probe")
        for _ in range(5):
            x = rng.standard_normal(dim)
            num = finite_difference_gradient(obj.value, x)
            ana = obj.gradient(x)
            denom = max(1.0, np.linalg.norm(ana))
            assert np.linalg.norm(num - ana) / denom < 1e-6


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
def test_quadratic_value_never_negative(dim, seed):
    obj = make_quadratic(dim, 1.0, 2.0, seed=seed)
    x = named_stream(seed, "probe").standard_normal(dim)
    assert obj.value(x) >= 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 100.0))
def test_logistic_gradient_bound_property(seed, scale):
    obj = make_logistic(25, 6, seed=seed)
    x = scale * named_stream(seed, "probe").standard_normal(6)
    assert np.linalg.norm(obj.gradient(x)) <= logistic_grad_bound(obj) * (1 + 1e-12)


def _batches(dim, rng):
    """Iterate blocks of K in {1, 2, 29} rows, whole and after rows were dropped."""
    for k in (1, 2, 29):
        # rows spread over many magnitudes, as a grid of stepsizes leaves them
        xs = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-8, 3, size=(k, 1))
        yield xs
        if k > 1:
            yield xs[np.sort(rng.permutation(k)[: k // 2 + 1])]


# rows of a panel in the derived cases: one row short of the fewest panels, that
# many exactly, a one-row remainder after them and after one more panel, and a
# dim of 2 mod 4
PANEL = 64
LEAST = objectives._MIN_PANELS * PANEL
PANEL_DIMS = [LEAST - 1, LEAST, LEAST + 1, LEAST + PANEL + 1, LEAST + PANEL - 2]


def assert_whole_gemv_rows_equal(dims):
    """Under threaded BLAS: no panels, and every block row equals ``value_and_gradient``."""
    for dim in dims:
        assert objectives._panel_edges(dim) is None
        obj = make_quadratic(dim, 1.0, 2.0, seed=dim)
        for xs in _batches(dim, named_stream(dim, "batch-probe")):
            TestBatchedKernels.assert_rowwise_equal(obj, xs)


class TestBatchedKernels:
    """``values_and_gradients`` must give every row the bits of ``value_and_gradient``."""

    @staticmethod
    def assert_rowwise_equal(obj, xs):
        values, grads = obj.values_and_gradients(xs)
        assert values.shape == (xs.shape[0],) and grads.shape == xs.shape
        for x, value, grad in zip(xs, values, grads):
            v, g = obj.value_and_gradient(x)
            assert value == v
            np.testing.assert_array_equal(grad, g)

    @pytest.mark.parametrize("dim", [2, 10, 100, 1000])
    def test_quadratic(self, dim):
        obj = make_quadratic(dim, 1.0, 2.0, seed=dim)
        rng = named_stream(dim, "batch-probe")
        for xs in _batches(dim, rng):
            self.assert_rowwise_equal(obj, xs)
            # the np.dot kernel keeps the bits of the @ form
            r = obj.matrix_a @ xs[0] - obj.vector_b
            v, g = obj.value_and_gradient(xs[0])
            assert v == 0.5 * float(r @ r)
            np.testing.assert_array_equal(g, obj.matrix_a.T @ r)

    @pytest.mark.parametrize("m,dim", [(7, 1), (7, 3), (50, 10), (100, 20), (1000, 50)])
    def test_logistic(self, m, dim):
        obj = make_logistic(m, dim, seed=m + dim)
        rng = named_stream(m, "batch-probe")
        for xs in _batches(dim, rng):
            self.assert_rowwise_equal(obj, xs)
            margins = obj.labels * (obj.features @ xs[0])
            s = 0.5 * (1.0 - np.tanh(0.5 * margins))
            np.testing.assert_array_equal(
                obj.value_and_gradient(xs[0])[1],
                -(obj.features.T @ (obj.labels * s)) / obj.n_samples)

    @pytest.mark.parametrize("dim", PANEL_DIMS + [1000, 1001])
    def test_panels_keep_the_bits_of_each_row(self, dim, monkeypatch, one_blas_thread):
        """At one BLAS thread the kernel walks the matrix in row panels; every row of
        every block still equals the one-iterate kernel, on a C- and an F-ordered
        matrix and through a heterogeneous family."""
        if dim in PANEL_DIMS:  # a budget of exactly PANEL rows at this dim
            monkeypatch.setattr(objectives, "_PANEL_BYTES", 8 * dim * PANEL)
        assert (objectives._panel_edges(dim) is None) == (dim < LEAST)
        quad = make_quadratic(dim, 1.0, 2.0, seed=dim)
        fortran = QuadraticObjective(np.asfortranarray(quad.matrix_a), quad.vector_b)
        assert fortran.matrix_a.flags.f_contiguous
        for obj in (quad, fortran, make_heterogeneous(quad, 3, 0.5, seed=dim)):
            for xs in _batches(dim, named_stream(dim, "batch-probe")):
                self.assert_rowwise_equal(obj, xs)

    def test_threaded_blas_keeps_whole_gemvs(self, at_blas_threads):
        """A threaded gemv splits its rows at edges that panels would not keep, so at
        two threads the kernel runs whole gemvs and every row keeps its bits."""
        at_blas_threads(2, "import test_objectives as t\n"
                           "t.assert_whole_gemv_rows_equal([1001, 1500])")

    def test_heterogeneous_delegates_to_its_base(self):
        family = make_heterogeneous(make_quadratic(10, 1.0, 2.0, seed=3), 4, 0.5, seed=4)
        rng = named_stream(3, "batch-probe")
        for xs in _batches(10, rng):
            values, grads = family.values_and_gradients(xs)
            base_values, base_grads = family.base.values_and_gradients(xs)
            np.testing.assert_array_equal(values, base_values)
            np.testing.assert_array_equal(grads, base_grads)
            self.assert_rowwise_equal(family.base, xs)
