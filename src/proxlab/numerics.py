"""Dense finite-dimensional primitives: vectors, SPD metrics, sample points.

One flat array type serves both primal and dual vectors; in R^m the space and
its dual share a representation and only parameter names convey the role.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, NotSpd

MAX_DIM = 64
_TINY_NORM = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)

# one van der Corput base per coordinate: the first MAX_DIM primes
_HALTON_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
)


def as_vector(x, dim=None):
    """Coerce to a finite, contiguous 1-D float array (a copy only of a
    strided input), validating dimension when given."""
    v = np.ascontiguousarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if v.shape[0] == 0 or v.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {v.shape[0]} outside supported range 1..{MAX_DIM}")
    return require_finite(v)


def require_finite(v, name="vector"):
    """v itself, after checking that no entry is NaN or infinite (for derived
    vectors such as grad f(x), whose shape is known but which may overflow)."""
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


def row_dot(a, b):
    """<a, b> over the last axis: a float for two vectors, an array for the
    rows of (k, dim) stacks.  Each pair runs np.dot's kernel, so a row gets
    the same bits as the single-vector np.dot."""
    if a.ndim == 1 and b.ndim == 1:
        return float(np.dot(a, b))
    # matmul hands each (1, dim) @ (dim, 1) pair to the dot kernel
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def residual_norm(v):
    """Euclidean norm over the last axis, bit for bit np.linalg.norm per
    vector: the norm of a residual checked against a tolerance far above
    1e-146, where row_norm's rescaling of tiny vectors changes no outcome
    but would cost a pass over the exactly-zero rows residuals are full of."""
    sq = row_dot(v, v)
    return math.sqrt(sq) if v.ndim == 1 else np.sqrt(sq)


def row_norm(v):
    """residual_norm, except that a nonzero vector whose norm is below
    sqrt(tiny / eps) ~ 1e-146, where squaring loses digits, is scaled by its
    largest entry first, which keeps full precision down to the subnormals.
    A row gets the bits of the single-vector call."""
    norm = residual_norm(v)
    if v.ndim == 1:
        return float(row_norm(v[None])[0]) if norm < _TINY_NORM and np.count_nonzero(v) else norm
    # one argmin tells whether any row is small (or NaN)
    if norm.size and not norm.flat[norm.argmin()] >= _TINY_NORM:
        small = norm < _TINY_NORM
        if np.count_nonzero(v[small]):
            m = np.max(np.abs(v[small]), axis=-1)
            u = v[small] / np.where(m > 0.0, m, 1.0)[:, None]  # a zero row stays 0
            norm[small] = m * np.sqrt(row_dot(u, u))
    return norm


def pairing(a, b) -> float:
    """Duality pairing <a, b> = sum a_i b_i (Euclidean in finite dimension)."""
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return float(np.dot(a, b))


class SpdMetric:
    """Symmetric positive definite matrix M = L L^T with its Cholesky factor L.

    The SPD check is factorization-based: construction fails exactly when the
    (symmetrized) matrix is not positive definite.  Solves and M^{-1}-norms go
    through the inverse factor L^{-1}, computed on first use and cached, so a
    metric that never solves pays nothing for it.  The methods take trusted
    length-`dim` vectors, or (k, dim) stacks of them, and do not check them;
    each row gets the same bits as the single-vector call.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSpd(f"expected a square matrix, got shape {m.shape}")
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.T) > 1e-12 * scale:
            raise NotSpd("matrix is not symmetric to 1e-12 relative")
        m = 0.5 * (m + m.T)
        try:
            self._chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotSpd("Cholesky factorization failed; matrix is not SPD") from exc
        m.flags.writeable = False
        self._chol.flags.writeable = False
        self.matrix = m
        self.dim = m.shape[0]

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, diag):
        return cls(np.diag(np.asarray(diag, dtype=float)))

    # read-only matrix, so each flag and inverse is computed once, on first
    # use (the run loop builds a fresh metric per step and reads few of them)
    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(self.dim)))

    @cached_property
    def is_diagonal(self) -> bool:
        return bool(np.count_nonzero(self.matrix - np.diag(np.diagonal(self.matrix))) == 0)

    @cached_property
    def inv_chol(self):
        """L^{-1}, read-only: lower triangular with L^{-1} L = I."""
        inv = np.tril(np.linalg.inv(self._chol))
        inv.flags.writeable = False
        return inv

    @cached_property
    def inverse(self):
        """M^{-1} = L^{-T} L^{-1}, exactly symmetric and read-only."""
        inv = self.inv_chol.T @ self.inv_chol
        inv = 0.5 * (inv + inv.T)
        inv.flags.writeable = False
        return inv

    def apply(self, w):
        return (self.matrix @ np.asarray(w)[..., None])[..., 0]

    def solve(self, b):
        """Solve M x = b as x = L^{-T} (L^{-1} b)."""
        z = self.inv_chol @ np.asarray(b)[..., None]
        return (self.inv_chol.T @ z)[..., 0]

    def norm(self, w) -> float:
        """||w||_M = sqrt(<Mw, w>)."""
        return float(np.sqrt(max(pairing(self.apply(w), w), 0.0)))

    def inv_norm(self, w):
        """||w||_{M^{-1}} = ||L^{-1} w||."""
        return row_norm((self.inv_chol @ np.asarray(w)[..., None])[..., 0])

    def __repr__(self):
        return f"SpdMetric(dim={self.dim})"


_HALTON_PLAIN_COORDS = 8  # coordinates past these have their digits scrambled


@lru_cache(maxsize=MAX_DIM)
def _halton_digit_table(dim):
    """Row j maps a base-p_j digit to the digit written: the identity for the
    first _HALTON_PLAIN_COORDS coordinates, past them a fixed permutation of
    1..p_j - 1 drawn from default_rng(p_j).  Digit 0 maps to 0, so a point's
    digit expansion stays finite.  Read-only."""
    table = np.zeros((dim, _HALTON_PRIMES[dim - 1]), dtype=np.int64)
    for j, base in enumerate(_HALTON_PRIMES[:dim]):
        table[j, :base] = np.arange(base)
        if j >= _HALTON_PLAIN_COORDS:
            table[j, 1:base] = 1 + np.random.default_rng(base).permutation(base - 1)
    table.flags.writeable = False
    return table


def halton_points(count, dim):
    """Deterministic low-discrepancy points in [0, 1)^dim (van der Corput per
    axis), starting at index 20 to skip the sequence's aligned first points.

    Plain Halton degrades in high coordinates: with a few hundred points the
    large bases never wrap, so coordinate j is just n / p_j and neighbouring
    coordinates move together.  Past the first _HALTON_PLAIN_COORDS
    coordinates the digits are therefore scrambled (`_halton_digit_table`);
    the first ones keep the plain sequence."""
    if dim > len(_HALTON_PRIMES):
        raise DimensionMismatch(f"halton grid supports dim <= {len(_HALTON_PRIMES)}")
    bases = np.array(_HALTON_PRIMES[:dim])
    table, cols = _halton_digit_table(dim), np.arange(dim)
    n = np.repeat(np.arange(20, 20 + count)[:, None], dim, axis=1)
    f = np.ones(dim)  # base**-k at digit position k, the same for every point
    r = np.zeros((count, dim))
    # one pass per digit position; finished entries (n = 0) add zero digits
    while n.any():
        f /= bases
        r += f * table[cols, n % bases]
        n //= bases
    return r


def unit_directions(count, dim, seed):
    """Deterministic unit vectors; in 1-D collapses to the two signs."""
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    rng = np.random.default_rng(seed)
    return [_unit_normal(rng, dim) for _ in range(count)]


def _unit_normal(rng, dim):
    """A standard normal draw scaled to unit norm, redrawn while its norm is
    at most 1e-12."""
    while True:
        d = rng.standard_normal(dim)
        n = residual_norm(d)
        if n > 1e-12:
            return d / n


def random_spd_matrix(dim, eig_lo, eig_hi, rng):
    """Random SPD matrix with spectrum drawn uniformly from [eig_lo, eig_hi]."""
    if not (0.0 < eig_lo <= eig_hi):
        raise ValueError("eigenvalue range must satisfy 0 < lo <= hi")
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return (q * eigs) @ q.T
