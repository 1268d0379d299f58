"""Reference implementations that the library no longer runs.

- `bisection_roots`: the per-B bisection for the transverse roots, the
  oracle for the array Newton solve of `spectral.transverse_roots`;
- `b_of_k1_critical_form`: the critical-line closed form of B(k1);
- `horizontal_kernel_infinite`: the infinite-volume horizontal kernel,
  the L -> infinity limit of `exact.horizontal_kernel`;
- `plane_block_trapezoid`: the N x N periodic trapezoid rule for the
  infinite-plane single-scale propagator, the oracle for the separable
  heat-kernel sum of `multiscale.plane_block_batch`;
- `pfaffian_minor` and `minor_cumulant`: each subset moment of the bonds
  as a Pfaffian minor of the Wick matrix, then Moebius inversion over
  set partitions, the oracle for the cycle sum of
  `energy.truncated_energy_correlation`.
"""

import numpy as np

from isingcyl.energy import cumulant_from_moments
from isingcyl.multiscale import eta_window
from isingcyl.skew import pfaffian
from isingcyl.spectral import dispersion, symbol_numerator


def bisection_roots(B, M):
    """All M roots of sin(k2 (M+1)) = B sin(k2 M) in (0, pi), one B.

    Bisection on each bracket I_n = (pi/(M+1)) (n + 1/2, n + 1), whose
    endpoints carry opposite signs, then three Newton steps, each
    rejected whenever it leaves the bracket.
    """
    if not 0.0 < B <= 1.0:
        raise ValueError(f"B must lie in (0, 1], got {B}")
    tol = 1e-14 * np.pi / (M + 1)

    def resid(k):
        return B * np.sin(M * k) - np.sin((M + 1) * k)

    n = np.arange(M)
    lo = np.pi / (M + 1) * (n + 0.5)
    hi = np.pi / (M + 1) * (n + 1.0)
    flo = resid(lo)
    # sign(resid) at the left endpoint is (-1)^{n+1}, at the right (-1)^n
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fmid = resid(mid)
        left = flo * fmid > 0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
        if np.max(hi - lo) < tol:
            break
    k = 0.5 * (lo + hi)
    for _ in range(3):
        dr = B * M * np.cos(M * k) - (M + 1) * np.cos((M + 1) * k)
        step = np.where(dr != 0, resid(k) / np.where(dr != 0, dr, 1.0), 0.0)
        cand = k - step
        inside = (cand > lo) & (cand < hi)
        k = np.where(inside, cand, k)
    return k


def b_of_k1_critical_form(k1, couplings):
    """B(k1) on the critical line in closed form: 1 - kappa (1 - cos k1)."""
    t1, t2 = couplings.t1, couplings.t2
    kappa = 2.0 * t1 * t2 / (1.0 - t1 * t1)
    return 1.0 - kappa * (1.0 - np.cos(k1))


def horizontal_kernel_infinite(y, t1):
    """Infinite-volume Schur kernel s_{infinity,+}(y) = (-t1)^y for y >= 0.

    The mirrored kernel s_{infinity,-}(y) equals s_{infinity,+}(-y).
    """
    if y < 0:
        return 0.0
    return (-t1) ** y


def plane_block_trapezoid(couplings, h, dzs, N):
    """g_infinity^{(h)} at (P, 2) displacements by the N x N trapezoid rule.

    The Brillouin-zone integral of e^{-i k.dz} numerator(k) w_h(D)/D,
    with w_h(D)/D = (e^{-aD} - e^{-bD})/D in closed form over the eta
    window [a, b); streamed over 256 k1 rows at a time.

    Returns:
        (P, 2, 2) complex array; the imaginary part is rounding.
    """
    a, b = eta_window(h)
    k = 2.0 * np.pi * np.arange(N) / N - np.pi
    dz = np.asarray(dzs, dtype=float)
    V = np.exp(-1j * np.outer(k, dz[:, 1]))                  # (N, P)
    out = np.zeros((len(dz), 4), dtype=complex)
    for lo in range(0, N, 256):
        k1 = k[lo:lo + 256, None]
        D = dispersion(couplings, k1, k[None, :])
        safe = np.where(D == 0.0, 1.0, D)
        wD = np.where(D == 0.0, b - a, np.exp(-a * D) * -np.expm1(-(b - a) * safe) / safe)
        ph1 = np.exp(-1j * np.outer(k1[:, 0], dz[:, 0]))     # (256, P)
        for e, num in enumerate(symbol_numerator(couplings, k1, k[None, :])):
            out[:, e] += np.sum(ph1 * ((num * wD) @ V), axis=0)
    return out.reshape(-1, 2, 2) / (N * N)


def pfaffian_minor(m, indices):
    """Pfaffian of the submatrix picked out by an ordered index tuple.

    The order matters: swapping two indices flips the sign, exactly as a
    fermionic Wick contraction requires.  Indices should be distinct (a
    repeated index makes the minor singular and the result 0).

    Args:
        m: antisymmetric ndarray.
        indices: ordered sequence of row/column indices, even length.
    """
    ix = np.asarray(indices, dtype=int)
    if ix.size % 2 != 0:
        raise ValueError(f"need an even number of indices, got {ix.size}")
    return pfaffian(np.asarray(m)[np.ix_(ix, ix)])


def minor_cumulant(w):
    """Cumulant of m quadratic monomials from their 2m x 2m Wick matrix w:
    the moment of a bond subset is the Pfaffian minor of its fields, kept
    in bond order, and the 2^m - 1 moments are Moebius-inverted."""

    def moment(block):
        return pfaffian_minor(w, [2 * x + k for x in block for k in (0, 1)])

    return cumulant_from_moments(moment, range(w.shape[0] // 2))
