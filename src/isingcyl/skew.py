"""Skew-symmetric linear algebra: Pfaffians and inverses.

The Pfaffian is computed by Parlett-Reid elimination: a congruence
transform built from rank-2 updates brings the matrix to skew tridiagonal
form, and the Pfaffian is the product of the (2k, 2k+1) pivots times the
sign of the row/column interchanges.  Partial pivoting keeps the sweep
stable; the pivot magnitudes double as a singularity certificate for
`skew_inverse`.

For cross-validation a combinatorial evaluator is provided that expands
the Pfaffian over perfect matchings.  It is exponential and restricted to
dimension <= 8; it is a test oracle, never called by the library.

Partition functions need Pf A of the 4LM x 4LM action matrix.  `exact`
block-diagonalizes A by ring translation invariance, takes each real
8M x 8M block's Pfaffian as the determinant of a complex 4M x 4M matrix
and that determinant from a Schur sweep over its rows, so the
elimination is not on that path.  On the dense action matrix,
`pfaffian_sign_logabs` and `skew_inverse` are the oracles the tests
check that route against; the (sign, log|Pf|) form keeps them safe
where the product of pivots over- or underflows double precision.
`energy` takes its lattice cumulants as cycle sums of 2 x 2 Wick blocks,
with no Pfaffian, so `scal_energy_correlation` is the one library caller
of `pfaffian`.
"""

from __future__ import annotations

import math

import numpy as np


# smallest relative singularity measure that certifies a matrix invertible:
# a sweep pivot over the largest entry (`skew_inverse`), or a ring block's
# certified lower bound 1 / (||C||_1 ||C^-1||_F) on sigma_min / sigma_max
# (`exact.PropagatorCache`)
PIVOT_TOL = 1e-12


class SingularSkewError(ValueError):
    """Raised when a matrix is numerically singular relative to PIVOT_TOL.

    Attributes:
        pivot: the offending relative measure: an elimination pivot over
            the largest entry of the input matrix, or a ring block's lower
            bound 1 / (||C||_1 ||C^-1||_F) on sigma_min / sigma_max (0 at
            an exactly zero pivot).
    """

    def __init__(self, pivot):
        self.pivot = pivot
        super().__init__(f"skew matrix numerically singular, relative measure {pivot:.3e}")


class SkewMatrix:
    """Dense skew-symmetric matrix with antisymmetry guaranteed by storage.

    Only the strict upper triangle is stored; the full matrix is
    synthesized as U - U^T, so a[i, j] == -a[j, i] holds exactly in
    floating point no matter how the entries were accumulated.
    """

    def __init__(self, upper):
        u = np.asarray(upper)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"expected a square array, got shape {u.shape}")
        self._upper = np.triu(u, k=1)

    @classmethod
    def zeros(cls, n, dtype=float):
        return cls(np.zeros((n, n), dtype=dtype))

    @property
    def n(self):
        return self._upper.shape[0]

    def dense(self):
        return self._upper - self._upper.T

    def add_pair(self, i, j, value):
        """Accumulate value at (i, j) and -value at (j, i)."""
        if i == j:
            raise ValueError("diagonal entries of a skew matrix are zero")
        if i < j:
            self._upper[i, j] += value
        else:
            self._upper[j, i] -= value


def _as_dense_skew(m):
    if isinstance(m, SkewMatrix):
        return m.dense()
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a + a.T)) if a.size else 0.0
    scale = np.max(np.abs(a)) if a.size else 0.0
    if defect > 1e-13 * max(scale, 1.0):
        raise ValueError(f"matrix is not antisymmetric, max|a + a^T| = {defect:.3e}")
    return a.copy()


def _parlett_reid_sweep(a):
    """Eliminate to skew tridiagonal form, returning pivot data.

    Returns:
        (sign, logabs, min_rel_pivot): sign in {-1, 0, +1} (complex phase
        for complex input), log of |Pf|, and the smallest pivot magnitude
        seen relative to the largest entry of the input.  sign == 0 means
        an exactly zero pivot, i.e. Pf = 0.
    """
    m = a.copy()
    n = m.shape[0]
    if n == 0:
        return 1.0, 0.0, np.inf
    scale = np.max(np.abs(m))
    if scale == 0:
        return 0.0, -np.inf, 0.0
    sign = 1.0 + 0.0j if np.iscomplexobj(m) else 1.0
    logabs = 0.0
    min_rel = np.inf
    for k in range(0, n - 1, 2):
        # largest entry in the working column becomes the pivot
        kp = k + 1 + int(np.argmax(np.abs(m[k + 1:, k])))
        if kp != k + 1:
            m[[k + 1, kp], :] = m[[kp, k + 1], :]
            m[:, [k + 1, kp]] = m[:, [kp, k + 1]]
            sign = -sign
        piv = m[k, k + 1]
        apiv = abs(piv)
        min_rel = min(min_rel, apiv / scale)
        if apiv == 0:
            return 0.0, -np.inf, 0.0
        sign *= piv / apiv
        logabs += math.log(apiv)
        if k + 2 < n:
            tau = m[k, k + 2:] / piv
            col = m[k + 2:, k + 1]
            m[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return sign, logabs, min_rel


def pfaffian_sign_logabs(m):
    """Pfaffian in (sign, log|Pf|) form, safe against overflow.

    Args:
        m: SkewMatrix or antisymmetric ndarray of even dimension.

    Returns:
        (sign, logabs) with Pf = sign * exp(logabs); sign is 0 (with
        logabs = -inf) for a singular matrix.
    """
    a = _as_dense_skew(m)
    if a.shape[0] % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {a.shape[0]}")
    sign, logabs, _ = _parlett_reid_sweep(a)
    return sign, logabs


def pfaffian(m):
    """Pfaffian of an even-dimensional skew-symmetric matrix."""
    sign, logabs = pfaffian_sign_logabs(m)
    if sign == 0:
        return 0.0 * sign
    return sign * math.exp(logabs)


def pfaffian_combinatorial(m):
    """Pfaffian by expansion over perfect matchings (n <= 8 only).

    Recursive expansion along the first remaining row:
    Pf(A) = sum_j (-1)^j A[i0, ij] Pf(A with rows/cols i0, ij removed).
    Exponential cost; exists to pin the sign convention of the
    elimination-based code.
    """
    a = _as_dense_skew(m)
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError(f"Pfaffian needs even dimension, got {n}")
    if n > 8:
        raise ValueError("combinatorial Pfaffian limited to n <= 8")

    def rec(ix):
        if not ix:
            return 1.0
        i0 = ix[0]
        total = 0.0
        for j in range(1, len(ix)):
            rest = ix[1:j] + ix[j + 1:]
            term = a[i0, ix[j]] * rec(rest)
            total += term if j % 2 == 1 else -term
        return total

    return rec(tuple(range(n)))


def skew_inverse(m):
    """Inverse of a skew-symmetric matrix, antisymmetrized in storage.

    The elimination sweep is run first purely to certify invertibility;
    a pivot below PIVOT_TOL (relative to the largest entry)
    raises SingularSkewError carrying the pivot magnitude.  The inverse
    itself comes from LAPACK and is then exactly antisymmetrized,
    x -> (x - x^T)/2, asserting the symmetrization defect is roundoff.

    Returns:
        SkewMatrix holding the inverse.
    """
    a = _as_dense_skew(m)
    n = a.shape[0]
    if n % 2 != 0:
        # odd-dimensional skew matrices are always singular
        raise SingularSkewError(0.0)
    sign, _, min_rel = _parlett_reid_sweep(a)
    if sign == 0 or min_rel < PIVOT_TOL:
        raise SingularSkewError(min_rel if sign != 0 else 0.0)
    inv = np.linalg.inv(a)
    anti = (inv - inv.T) / 2.0
    defect = np.max(np.abs(inv - anti))
    norm = np.max(np.abs(anti))
    if defect > 1e-10 * norm:
        raise AssertionError(
            f"inverse symmetrization defect {defect:.3e} exceeds 1e-10 * {norm:.3e}"
        )
    return SkewMatrix(np.triu(anti, k=1))
