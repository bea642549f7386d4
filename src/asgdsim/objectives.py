"""Synthetic objective families with certified constants.

Three families are provided:

* ``QuadraticObjective``   f(x) = 0.5 * ||A x - b||^2 with symmetric A built
  from a prescribed spectrum, so the smoothness constant is known exactly.
* ``LogisticObjective``    logistic loss over a fixed design matrix with
  labels in {-1, +1}; carries certified upper bounds on smoothness and on
  the gradient norm.
* ``HeterogeneousFamily``  per-client tilts f_i(x) = f(x) + c_i . x with the
  tilt vectors summing to zero, so the mean objective stays f.

Gradient noise is modelled separately by ``NoiseModel`` (isotropic Gaussian
with E||noise||^2 equal to sigma^2 exactly, i.e. per-coordinate variance
sigma^2 / dim).

Each family computes value and gradient in one point kernel,
``value_and_gradient``, which every run steps with; ``value`` and
``gradient`` only read it.  The block kernel ``values_and_gradients``
evaluates a block of iterates at once (lockstep grid tuning): a broadcast
``np.matmul`` makes one gemv or ddot per row, so every row gets the bits of
``value_and_gradient``; a gemm over the block would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError
from .rng import named_stream

Array = np.ndarray


@dataclass
class QuadraticObjective:
    """Least-squares objective 0.5 * ||A x - b||^2.

    ``smoothness`` is the Lipschitz constant of the gradient, i.e. the
    largest eigenvalue of A^T A, computed on construction.
    """

    matrix_a: Array
    vector_b: Array
    smoothness: float = field(init=False)

    def __post_init__(self):
        self.matrix_a = np.array(self.matrix_a, dtype=float)
        self.vector_b = np.array(self.vector_b, dtype=float)
        if self.matrix_a.ndim != 2 or self.matrix_a.shape[0] != self.matrix_a.shape[1]:
            raise InvalidSpecError(f"matrix_a must be square, got shape {self.matrix_a.shape}")
        if self.vector_b.shape != (self.matrix_a.shape[0],):
            raise InvalidSpecError(
                f"vector_b shape {self.vector_b.shape} does not match matrix of "
                f"order {self.matrix_a.shape[0]}"
            )
        gram = self.matrix_a.T @ self.matrix_a
        self.smoothness = float(np.linalg.eigvalsh(gram)[-1])

    @property
    def dim(self) -> int:
        return self.vector_b.shape[0]

    def value(self, x: Array) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x: Array) -> Array:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        r = np.dot(self.matrix_a, x)
        r -= self.vector_b
        return 0.5 * float(np.dot(r, r)), np.dot(r, self.matrix_a)

    def values_and_gradients(self, xs: Array) -> tuple[Array, Array]:
        """``value_and_gradient`` of every row of ``xs``, bit for bit (one gemv per row)."""
        r = np.matmul(self.matrix_a, xs[:, :, None])[:, :, 0]
        r -= self.vector_b
        return 0.5 * _row_dots(r, r), np.matmul(self.matrix_a.T, r[:, :, None])[:, :, 0]


@dataclass
class LogisticObjective:
    """Mean logistic loss (1/m) sum_j log(1 + exp(-b_j a_j . x)).

    ``smoothness`` is the certified bound (1/(4m)) sum_j ||a_j||^2.
    """

    features: Array
    labels: Array
    smoothness: float = field(init=False)

    def __post_init__(self):
        self.features = np.array(self.features, dtype=float)
        self.labels = np.array(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise InvalidSpecError(f"features must be 2-d, got {self.features.ndim}-d")
        m = self.features.shape[0]
        if self.labels.shape != (m,):
            raise InvalidSpecError(
                f"labels shape {self.labels.shape} does not match {m} feature rows"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise InvalidSpecError("labels must all be -1 or +1")
        row_sq = np.einsum("ij,ij->i", self.features, self.features)
        self.smoothness = float(row_sq.sum() / (4.0 * m))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def value(self, x: Array) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x: Array) -> Array:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        margins = self.labels * np.dot(self.features, x)
        value = float(np.logaddexp(0.0, -margins).mean())
        # sigmoid(-margins), written through tanh for stability at large |margins|
        s = 0.5 * (1.0 - np.tanh(0.5 * margins))
        return value, -np.dot(self.labels * s, self.features) / self.n_samples

    def values_and_gradients(self, xs: Array) -> tuple[Array, Array]:
        """``value_and_gradient`` of every row of ``xs``, bit for bit (one gemv per row)."""
        margins = self.labels * np.matmul(self.features, xs[:, :, None])[:, :, 0]
        values = np.logaddexp(0.0, -margins).mean(axis=1)
        s = 0.5 * (1.0 - np.tanh(0.5 * margins))
        weighted = (self.labels * s)[:, None, :]
        return values, -np.matmul(weighted, self.features)[:, 0, :] / self.n_samples


@dataclass
class HeterogeneousFamily:
    """Client objectives f_i(x) = f(x) + shifts[i] . x with sum_i shifts[i] = 0.

    The base objective is the mean objective of the family.
    """

    base: QuadraticObjective
    shifts: Array

    def __post_init__(self):
        self.shifts = np.array(self.shifts, dtype=float)
        if self.shifts.ndim != 2 or self.shifts.shape[1] != self.base.dim:
            raise InvalidSpecError(
                f"shifts must have shape (n_clients, {self.base.dim}), got {self.shifts.shape}"
            )
        if self.shifts.shape[0] < 1:
            raise InvalidSpecError("need at least one client")
        total = self.shifts.sum(axis=0)
        scale = max(1.0, float(np.abs(self.shifts).max(initial=0.0)))
        if float(np.abs(total).max(initial=0.0)) > 1e-8 * scale:
            raise InvalidSpecError("client shifts must sum to zero")

    @property
    def n_clients(self) -> int:
        return self.shifts.shape[0]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def smoothness(self) -> float:
        return self.base.smoothness

    def value(self, x: Array) -> float:
        return self.base.value(x)

    def gradient(self, x: Array) -> Array:
        return self.base.gradient(x)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        return self.base.value_and_gradient(x)

    def values_and_gradients(self, xs: Array) -> tuple[Array, Array]:
        return self.base.values_and_gradients(xs)

    def client_value(self, client: int, x: Array) -> float:
        return self.base.value(x) + float(self.shifts[client] @ x)

    def client_gradient(self, client: int, x: Array) -> Array:
        return self.base.gradient(x) + self.shifts[client]


def _row_dots(a: Array, b: Array) -> Array:
    # one ddot per row, the bits of np.dot(a[i], b[i]) on each row alone
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian gradient noise.

    Draws have per-coordinate variance sigma^2 / dim, so the expected squared
    norm of a draw is exactly sigma^2.
    """

    sigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise InvalidSpecError(f"sigma must be finite and non-negative, got {self.sigma}")

    def sample(self, size: int | tuple[int, int], rng: np.random.Generator) -> Array:
        """One draw of ``dim`` coordinates, or with ``size=(rows, dim)`` that many
        draws in a block, equal row for row to ``rows`` calls on the same stream."""
        if self.sigma == 0.0:
            return np.zeros(size)
        dim = size[-1] if isinstance(size, tuple) else size
        return (self.sigma / math.sqrt(dim)) * rng.standard_normal(size)


def make_quadratic(dim: int, lambda_min: float, lambda_max: float, seed: int) -> QuadraticObjective:
    """Quadratic instance with eigenvalues of A equally spaced in [lambda_min, lambda_max].

    A = Q diag(lambda) Q^T for a random orthogonal Q (QR of a Gaussian matrix
    with the sign convention that makes the factorisation unique), and b is
    standard normal.  The smoothness constant is lambda_max^2.
    """
    if dim < 2:
        raise InvalidSpecError(f"dim must be at least 2, got {dim}")
    if lambda_min <= 0:
        raise InvalidSpecError(f"lambda_min must be positive, got {lambda_min}")
    if lambda_max < lambda_min:
        raise InvalidSpecError(f"lambda_max={lambda_max} is below lambda_min={lambda_min}")
    stream = named_stream(seed, "objective-gen")
    gauss = stream.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    eigs = np.linspace(lambda_min, lambda_max, dim)
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    b = stream.standard_normal(dim)
    return QuadraticObjective(a, b)


def make_logistic(n_samples: int, dim: int, seed: int) -> LogisticObjective:
    """Logistic instance with standard normal rows and uniform random labels."""
    if n_samples < 1:
        raise InvalidSpecError(f"n_samples must be at least 1, got {n_samples}")
    if dim < 1:
        raise InvalidSpecError(f"dim must be at least 1, got {dim}")
    stream = named_stream(seed, "objective-gen")
    features = stream.standard_normal((n_samples, dim))
    labels = stream.choice(np.array([-1.0, 1.0]), size=n_samples)
    return LogisticObjective(features, labels)


def make_heterogeneous(
    base: QuadraticObjective, n_clients: int, zeta: float, seed: int
) -> HeterogeneousFamily:
    """Family around ``base`` with tilt vectors of root-mean-square norm ``zeta``.

    Raw Gaussian directions are centred so they sum to zero, then rescaled so
    that sqrt(mean ||c_i||^2) equals ``zeta``.  A single client forces a zero
    tilt regardless of ``zeta``.
    """
    if n_clients < 1:
        raise InvalidSpecError(f"n_clients must be at least 1, got {n_clients}")
    if zeta < 0:
        raise InvalidSpecError(f"zeta must be non-negative, got {zeta}")
    dim = base.dim
    if n_clients == 1 or zeta == 0.0:
        return HeterogeneousFamily(base, np.zeros((n_clients, dim)))
    stream = named_stream(seed, "objective-gen")
    raw = stream.standard_normal((n_clients, dim))
    centred = raw - raw.mean(axis=0)
    rms = float(np.sqrt((centred**2).sum(axis=1).mean()))
    if rms == 0.0:
        raise InvalidSpecError("degenerate tilt draw; choose another seed")
    return HeterogeneousFamily(base, centred * (zeta / rms))


def finite_difference_gradient(fn, x: Array, step: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return out
