"""Spectral diagonalization of the critical vertical-sector propagator.

At criticality the (Vbar, V) = (phi_+, phi_-) two-point function of the
cylinder has an explicit eigenmode expansion.  Horizontal momenta are
antiperiodic, k1 in D_L = {pi(2m-1)/L}; for each k1 the vertical modes
are the M roots k2 in (0, pi) of the transcendental equation

    sin(k2 (M+1)) = B(k1) sin(k2 M),

with B(k1) = t2 |1 + t1 e^{i k1}|^2 / (1 - t1^2), which lies in (0, 1) on
D_L at criticality.  Exactly one root lives in each interval
I_n = (pi/(M+1)) (n + 1/2, n + 1), so bracketed bisection (plus a Newton
polish that never leaves the bracket) finds all of them with guaranteed
sign changes at the endpoints.

The propagator is a double mode sum of the momentum-space symbol

    ghat(k) = (1/D(k)) [[-2 i t1 sin k1,            -(1-t1^2)(1 - B e^{-i k2})],
                        [(1-t1^2)(1 - B e^{i k2}),  +2 i t1 sin k1           ]],

    D(k) = 2 (1-t2)^2 (1 - cos k1) + 2 (1-t1)^2 (1 - cos k2),

with a translation-invariant term in z2 - z2' and an image term in
z2 + z2' that enforces the open boundary.  Discrete forward derivatives
in either argument become exact phase multipliers on the two terms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import PropagatorBlock
from .exact import Couplings

IMAG_RESIDUE_TOL = 1e-10


def antiperiodic_momenta(L):
    """D_L = {pi(2m - 1)/L : m = -L/2 + 1, ..., L/2}, ascending."""
    m = np.arange(-L // 2 + 1, L // 2 + 1)
    return np.pi * (2 * m - 1) / L


def b_of_k1(k1, couplings):
    """B(k1) = t2 |1 + t1 e^{i k1}|^2 / (1 - t1^2)."""
    t1, t2 = couplings.t1, couplings.t2
    return t2 * (1.0 + 2.0 * t1 * np.cos(k1) + t1 * t1) / (1.0 - t1 * t1)


def b_of_k1_critical_form(k1, couplings):
    """Equivalent closed form on the critical line: 1 - kappa (1 - cos k1)."""
    t1, t2 = couplings.t1, couplings.t2
    kappa = 2.0 * t1 * t2 / (1.0 - t1 * t1)
    return 1.0 - kappa * (1.0 - np.cos(k1))


def transverse_roots(B, M, tol=None, polish=True):
    """All M roots of sin(k2 (M+1)) = B sin(k2 M) in (0, pi).

    Args:
        B: coefficient in (0, 1] (the B = 1 edge case, k1 -> 0, is allowed
            and keeps its sign changes).
        M: number of rows.
        tol: root location tolerance; default 1e-14 * pi / (M + 1).
        polish: run Newton steps after bisection, rejected whenever they
            step outside the bracket.

    Returns:
        Array of M roots, strictly increasing, root n inside
        (pi/(M+1))(n + 1/2, n + 1).
    """
    if not 0.0 < B <= 1.0:
        raise ValueError(f"B must lie in (0, 1], got {B}")
    if tol is None:
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
    if polish:
        for _ in range(3):
            dr = B * M * np.cos(M * k) - (M + 1) * np.cos((M + 1) * k)
            step = np.where(dr != 0, resid(k) / np.where(dr != 0, dr, 1.0), 0.0)
            cand = k - step
            inside = (cand > lo) & (cand < hi)
            k = np.where(inside, cand, k)
    return k


def mode_normalization(B, M, k2):
    """N_M = 2 sum_{x=1..M} sin^2(k2 x) in closed trigonometric form."""
    return M + 0.5 - np.sin((2 * M + 1) * k2) / (2.0 * np.sin(k2))


def mode_normalization_ratio_form(B, M, k2):
    """Same quantity through the root identity; only valid at the roots."""
    num = B * M * np.cos(M * k2) - (M + 1) * np.cos((M + 1) * k2)
    den = B * np.cos(M * k2) - np.cos((M + 1) * k2)
    return num / den


def dispersion(couplings, k1, k2):
    """D(k) = 2(1 - t2)^2 (1 - cos k1) + 2(1 - t1)^2 (1 - cos k2)."""
    t1, t2 = couplings.t1, couplings.t2
    return 2.0 * (1.0 - t2) ** 2 * (1.0 - np.cos(k1)) + 2.0 * (1.0 - t1) ** 2 * (
        1.0 - np.cos(k2)
    )


def symbol_numerator(couplings, k1, k2):
    """Numerator entries of ghat: (npp, npm, nmp, nmm), entire in k."""
    t1 = couplings.t1
    B = b_of_k1(k1, couplings)
    one = 1.0 - t1 * t1
    npp = -2j * t1 * np.sin(k1) * np.ones_like(np.asarray(k2, dtype=float))
    npm = -one * (1.0 - B * np.exp(-1j * np.asarray(k2)))
    nmp = one * (1.0 - B * np.exp(1j * np.asarray(k2)))
    nmm = -npp
    return npp, npm, nmp, nmm


def symbol_entries(couplings, k1, k2):
    """ghat entries (gpp, gpm, gmp, gmm) = numerator / D."""
    D = dispersion(couplings, k1, k2)
    npp, npm, nmp, nmm = symbol_numerator(couplings, k1, k2)
    return npp / D, npm / D, nmp / D, nmm / D


class SpectralData:
    """Root and normalization tables for one (geometry, couplings) pair.

    Attributes:
        k1: (L,) antiperiodic momenta.
        B: (L,) values of B(k1), all in (0, 1).
        roots: (L, M) positive transverse roots, row i for k1[i].
        norms: (L, M) mode normalizations N_M(k1, k2) >= M.

    Construction validates the residuals of every root (<= 1e-13), the
    interval bracketing, monotonicity, agreement of the two N_M formulas,
    and that no root collides with pi.
    """

    def __init__(self, geometry, couplings):
        if not couplings.is_critical:
            raise ValueError(
                "spectral diagonalization requires critical couplings; "
                "use the dense inverse for off-critical models"
            )
        L, M = geometry.L, geometry.M
        self.geometry = geometry
        self.couplings = couplings
        self.k1 = antiperiodic_momenta(L)
        self.B = b_of_k1(self.k1, couplings)
        if np.any(self.B <= 0.0) or np.any(self.B >= 1.0):
            raise AssertionError("B(k1) left (0, 1) on the antiperiodic momenta")
        roots = np.empty((L, M))
        norms = np.empty((L, M))
        n = np.arange(M)
        lo = np.pi / (M + 1) * (n + 0.5)
        hi = np.pi / (M + 1) * (n + 1.0)
        for i, B in enumerate(self.B):
            k = transverse_roots(B, M)
            resid = np.abs(B * np.sin(M * k) - np.sin((M + 1) * k))
            if np.max(resid) > 1e-13:
                raise AssertionError(f"root residual {np.max(resid):.2e} too large")
            if np.any(k <= lo) or np.any(k >= hi):
                raise AssertionError("root escaped its bracketing interval")
            if np.any(np.diff(k) <= 0):
                raise AssertionError("roots not strictly increasing")
            if np.min(np.abs(k - np.pi)) < 1e-9:
                raise AssertionError("root collided with pi")
            nm = mode_normalization(B, M, k)
            nm_ratio = mode_normalization_ratio_form(B, M, k)
            if np.max(np.abs(nm - nm_ratio)) > 1e-11 * max(1.0, M):
                raise AssertionError("the two N_M formulas disagree")
            if np.any(nm < M):
                raise AssertionError("mode normalization dropped below M")
            roots[i] = k
            norms[i] = nm
        self.roots = roots
        self.norms = norms
        # flat per-mode views used by the propagator sums
        self._k1_flat = np.repeat(self.k1, M)
        self._k2_flat = roots.reshape(-1)
        self._norm_flat = norms.reshape(-1)
        for arr in (self.k1, self.B, self.roots, self.norms):
            arr.setflags(write=False)

    @property
    def n_modes(self):
        return self._k1_flat.size


@lru_cache(maxsize=32)
def spectral_data(geometry, couplings):
    return SpectralData(geometry, couplings)


def _phase_power(phase, order):
    """(e^{i a} - 1)^order for the derivative multipliers, order in 0..2."""
    if order == 0:
        return 1.0
    return (phase - 1.0) ** order


def mode_sum(data, z, zp, weight=None, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Evaluate the eigenmode double sum for one pair of sites.

    The +k2 and -k2 members of each mode pair are combined explicitly, so
    the imaginary parts cancel to roundoff before the result is inspected.

    Args:
        data: SpectralData.
        z, zp: sites; the vertical coordinate may take the extended values
            0 and M + 1 (where boundary identities hold).
        weight: optional per-mode multiplicative weight, an array of
            shape (n_modes,) evaluated on (k1, k2) -- used for the
            single-scale cutoffs.  None means the full propagator.
        deriv_z: forward-difference orders (r1, r2) in the first argument.
        deriv_zp: same for the second argument.

    Returns:
        Complex (2, 2) block; `real_block` checks the imaginary residue.
    """
    geom, cpl = data.geometry, data.couplings
    if not (geom.contains_extended(z) and geom.contains_extended(zp)):
        raise ValueError(f"sites {z}, {zp} outside the extended lattice")
    L, M = geom.L, geom.M
    k1 = data._k1_flat
    k2 = data._k2_flat
    nrm = data._norm_flat

    gpp, gpm, gmp, gmm = symbol_entries(cpl, k1, k2)
    gpp_m, gpm_m, gmp_m, gmm_m = symbol_entries(cpl, k1, -k2)

    dz1 = z[0] - zp[0]
    ph_k1 = np.exp(-1j * k1 * dz1)
    d1 = _phase_power(np.exp(-1j * k1), deriv_z[0]) * _phase_power(
        np.exp(1j * k1), deriv_zp[0]
    )

    out = np.zeros((2, 2), dtype=complex)
    for sgn in (+1.0, -1.0):
        q2 = sgn * k2
        gq = (gpp, gpm, gmp, gmm) if sgn > 0 else (gpp_m, gpm_m, gmp_m, gmm_m)
        gq_opp = (gpp_m, gpm_m, gmp_m, gmm_m) if sgn > 0 else (gpp, gpm, gmp, gmm)
        # translation-invariant part: e^{-i q2 (z2 - z2')} ghat(k1, q2)
        ph_trans = np.exp(-1j * q2 * (z[1] - zp[1]))
        mult_trans = _phase_power(np.exp(-1j * q2), deriv_z[1]) * _phase_power(
            np.exp(1j * q2), deriv_zp[1]
        )
        # image part: e^{-i q2 (z2 + z2')} with the reflected symbol matrix
        ph_img = np.exp(-1j * q2 * (z[1] + zp[1]))
        mult_img = _phase_power(np.exp(-1j * q2), deriv_z[1]) * _phase_power(
            np.exp(-1j * q2), deriv_zp[1]
        )
        img_pp = gq[0]
        img_pm = gq_opp[1]
        img_mp = gq[2]
        img_mm = np.exp(2j * q2 * (M + 1)) * gq[3]

        base = ph_k1 * d1 / (2.0 * nrm)
        if weight is not None:
            base = base * weight
        wt = base * ph_trans * mult_trans
        wi = base * ph_img * mult_img
        out[0, 0] += np.sum(wt * gq[0] - wi * img_pp)
        out[0, 1] += np.sum(wt * gq[1] - wi * img_pm)
        out[1, 0] += np.sum(wt * gq[2] - wi * img_mp)
        out[1, 1] += np.sum(wt * gq[3] - wi * img_mm)
    return out / L


def real_block(out, deriv_z, deriv_zp):
    """Real PropagatorBlock of a `mode_sum` result.

    Raises:
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL.
    """
    residue = float(np.max(np.abs(out.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"imaginary residue {residue:.2e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    return PropagatorBlock(out.real, deriv_z, deriv_zp)


def critical_propagator(geometry, couplings, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Exact critical cylinder propagator block <phi_omega,z phi_omega',z'>.

    phi_+ = Vbar and phi_- = V, so this block matches the corresponding
    rows and columns of -A^{-1} from the dense representation.

    Raises:
        ValueError: off-critical couplings (the eigenbasis only closes on
            the critical line; use `propagator_from_A` instead).
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL after the
            explicit +-k2 pairing.
    """
    data = spectral_data(geometry, couplings)
    return real_block(mode_sum(data, z, zp, None, deriv_z, deriv_zp), deriv_z, deriv_zp)
