"""Reference implementations that the library no longer runs.

- `bisection_roots`: the per-B bisection for the transverse roots, the
  oracle for the array Newton solve of `spectral.transverse_roots`;
- `b_of_k1_critical_form`: the critical-line closed form of B(k1);
- `horizontal_kernel_infinite`: the infinite-volume horizontal kernel,
  the L -> infinity limit of `exact.horizontal_kernel`.
"""

import numpy as np


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
