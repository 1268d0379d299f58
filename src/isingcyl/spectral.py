"""Spectral diagonalization of the critical vertical-sector propagator.

At criticality the (Vbar, V) = (phi_+, phi_-) two-point function of the
cylinder has an explicit eigenmode expansion.  Horizontal momenta are
antiperiodic, k1 in D_L = {pi(2m-1)/L}; for each k1 the vertical modes
are the M roots k2 in (0, pi) of the transcendental equation

    sin(k2 (M+1)) = B(k1) sin(k2 M),

with B(k1) = t2 |1 + t1 e^{i k1}|^2 / (1 - t1^2), which lies in (0, 1) on
D_L at criticality.  Exactly one root lives in each interval
I_n = (pi/(M+1)) (n + 1/2, n + 1), where it solves the phase equation
F(k2) = M k2 + arg(e^{i k2} - B) = (n + 1) pi.  F is strictly increasing,
F' = M + (1 - B cos k2)/(1 - 2 B cos k2 + B^2) > M, so Newton's method
from the midpoints of the I_n finds every root of every k1 row at once.

The propagator is a double mode sum of the momentum-space symbol

    ghat(k) = (1/D(k)) [[-2 i t1 sin k1,            -(1-t1^2)(1 - B e^{-i k2})],
                        [(1-t1^2)(1 - B e^{i k2}),  +2 i t1 sin k1           ]],

    D(k) = 2 (1-t2)^2 (1 - cos k1) + 2 (1-t1)^2 (1 - cos k2),

over k1 in D_L and q2 = +-k2, with a translation-invariant term in
z2 - z2' and an image term in z2 + z2' that enforces the open boundary.
Discrete forward derivatives in either argument become exact phase
multipliers on the two terms.

The sum runs over the quarter k1 > 0, q2 = +k2 of the modes, real by
construction.  With sigma = (-, +, +, -) on (pp, pm, mp, mm), the
coefficients T_a of either term obey T_a(k1, -k2) = sigma_a conj T_a(k1, k2)
(pp, mm are imaginary and even in q2; pm, mp and the image phase
e^{2 i q2 (M+1)} are conjugated; D and N_M are even) and
T_a(-k1, q2) = sigma_a T_a(k1, q2) (pp, mm are odd through sin k1).  The
plane waves, the derivative multipliers and the ring factor r(k1) turn
into their conjugates under q2 -> -q2 and k1 -> -k1; scale weights are
even.  So if Y_a(k1) sums the q2 = +k2 modes of row k1, the whole row
gives Y_a + sigma_a conj Y_a and the rows +-k1 add r + sigma_a conj r:

    block_a = 4 Re sum_{k1 > 0} r Z_a,   Z_a = (Y_a + sigma_a conj Y_a)/2,

that is 4 sum Re r Re Y_a for pm, mp and -4 sum Im r Im Y_a for pp, mm.
`quarter_fold` does this sum, for `mode_sum` and the Gram rows of `multiscale`.

Every two-point function of the package follows one convention: a real
array indexed [omega, omega'] by the species pair, row/column 0 the +
component and 1 the - component, of shape (2, 2) for one site pair and
(P, 2, 2) for (P, 2) site arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# bound on a transverse root's forward error |resid / resid'|; measured
# values stay at 1-2 eps pi for every M and critical coupling tried
ROOT_TOL = 8.0 * np.finfo(float).eps * np.pi
# Newton steps on the phase equation; five reach the fixed point for every
# M and B tried, and `SpectralData` certifies the result through ROOT_TOL
_NEWTON_STEPS = 6
# complex entries per transient phase array in `mode_sum` (2 MB)
_CHUNK_ENTRIES = 1 << 17
# sign of each coefficient (pp, pm, mp, mm) under q2 -> -q2 (with
# conjugation) and under k1 -> -k1 (module docstring)
SIGMA = np.array([-1.0, 1.0, 1.0, -1.0])


def antiperiodic_momenta(L):
    """D_L = {pi(2m - 1)/L : m = -L/2 + 1, ..., L/2}, ascending."""
    m = np.arange(-L // 2 + 1, L // 2 + 1)
    return np.pi * (2 * m - 1) / L


def b_of_k1(k1, couplings):
    """B(k1) = t2 |1 + t1 e^{i k1}|^2 / (1 - t1^2)."""
    t1, t2 = couplings.t1, couplings.t2
    return t2 * (1.0 + 2.0 * t1 * np.cos(k1) + t1 * t1) / (1.0 - t1 * t1)


def transverse_roots(B, M):
    """All M roots of sin(k2 (M+1)) = B sin(k2 M) in (0, pi), per B.

    Newton's method on the phase equation (module docstring) from the
    midpoint of each bracket I_n, for all B values at once.

    Args:
        B: a scalar or an array of coefficients in (0, 1] (B = 1 is the
            k1 -> 0 edge case).
        M: number of rows.

    Returns:
        Array of shape B.shape + (M,): per B the M roots, strictly
        increasing, root n inside (pi/(M+1))(n + 1/2, n + 1).
    """
    B = np.asarray(B, dtype=float)[..., None]
    if not np.all((B > 0.0) & (B <= 1.0)):
        raise ValueError(f"B must lie in (0, 1], got values in [{B.min()}, {B.max()}]")
    n = np.arange(M)
    target = (n + 1.0) * np.pi
    k = np.pi / (M + 1) * (n + 0.75) * np.ones_like(B)
    for _ in range(_NEWTON_STEPS):
        c = np.cos(k)
        phase = M * k + np.arctan2(np.sin(k), c - B) - target
        k = k - phase / (M + (1.0 - B * c) / (1.0 - 2.0 * B * c + B * B))
    return k


def mode_normalization(B, M, k2):
    """N_M = 2 sum_{x=1..M} sin^2(k2 x) in closed trigonometric form."""
    return M + 0.5 - np.sin((2 * M + 1) * k2) / (2.0 * np.sin(k2))


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


def _mode_roots(B, M):
    """Gated (L/2, M) roots and normalizations for the k1 > 0 values B of B(k1)."""
    B = B[:, None]
    k = transverse_roots(B[:, 0], M)
    # cos(M k) and cos((M+1) k) serve the slope and the ratio form of N_M
    # (B M cos(M k) - (M+1) cos((M+1) k)) / (B cos(M k) - cos((M+1) k))
    cos_m, cos_m1 = np.cos(M * k), np.cos((M + 1) * k)
    resid = B * np.sin(M * k) - np.sin((M + 1) * k)
    slope = B * M * cos_m - (M + 1) * cos_m1
    error = np.max(np.abs(resid / slope))
    if not error <= ROOT_TOL:
        raise AssertionError(f"root forward error {error:.2e} exceeds {ROOT_TOL:.2e}")
    # the top bracket ends at pi M/(M+1), so a bracketed root keeps at least
    # pi/(M+1) from the spurious solution k2 = pi of the root equation
    lo, hi = np.pi / (M + 1) * (np.arange(M) + [[0.5], [1.0]])
    if np.any(k <= lo) or np.any(k >= hi):
        raise AssertionError("root escaped its bracketing interval")
    if np.any(np.diff(k, axis=1) <= 0):
        raise AssertionError("roots not strictly increasing")
    nm = mode_normalization(B, M, k)
    if np.any(nm < M):
        raise AssertionError("mode normalization dropped below M")
    if not np.max(np.abs(nm - slope / (B * cos_m - cos_m1)) / nm) <= 1e-11:
        raise AssertionError("the two N_M formulas disagree")
    return k, nm


def _mode_tables(couplings, L, k1, B, roots, norms, D):
    """(trans, image) of `SpectralData` on the quarter, from cos/sin of
    real arguments; the image pm is -mp, as npm(-q2) = -nmp(q2)."""
    M = roots.shape[1]
    one = 1.0 - couplings.t1 ** 2
    B = B[:, None]
    w = 1.0 / (2.0 * L * norms * D)
    pp = (-2j * couplings.t1 * np.sin(k1))[:, None] * w
    mp = one * w * (1.0 - B * np.cos(roots)) - 1j * (one * w * B * np.sin(roots))
    arg = 2.0 * (M + 1) * roots
    trans = np.empty(roots.shape + (4,), dtype=complex)
    image = np.empty_like(trans)
    trans[..., 0] = image[..., 0] = pp
    trans[..., 2] = image[..., 2] = mp
    trans[..., 1] = -np.conj(mp)
    trans[..., 3] = -pp
    image[..., 1] = -mp
    image[..., 3] = pp.imag * np.sin(arg) - 1j * (pp.imag * np.cos(arg))
    return trans, image


class SpectralData:
    """Root, normalization and mode tables for one (geometry, couplings) pair.

    Attributes:
        k1: (L/2,) antiperiodic momenta k1 > 0, ascending: the quarter
            rows.  B, the roots and N_M are even in k1, so the rows
            k1 < 0 are not stored.
        B: (L/2,) values of B(k1), all in (0, 1).
        roots: (L/2, M) positive transverse roots, row i for k1[i].
        norms: (L/2, M) mode normalizations N_M(k1, k2) >= M.
        D: (L/2, M) dispersion D(k1, k2) on the quarter k1 > 0, q2 = +k2,
            the argument of the scale weights.
        trans, image: (L/2, M, 4) complex mode coefficients on the same
            quarter, entries (pp, pm, mp, mm) over 2 L N_M: ghat(k1, k2),
            and ghat with pm taken at -k2 and mm times e^{2 i k2 (M+1)}.

    The roots come from one `transverse_roots` call on the L/2 rows.
    Construction validates their forward error |resid / resid'|
    (<= ROOT_TOL, independent of M), bracketing (which keeps every root at
    least pi/(M+1) below the spurious solution pi), monotonicity, and the
    agreement of the two N_M formulas relative to N_M.
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
        self.k1 = antiperiodic_momenta(L)[L // 2:]
        self.B = b_of_k1(self.k1, couplings)
        if np.any(self.B <= 0.0) or np.any(self.B >= 1.0):
            raise AssertionError("B(k1) left (0, 1) on the antiperiodic momenta")
        self.roots, self.norms = _mode_roots(self.B, M)
        self.D = dispersion(couplings, self.k1[:, None], self.roots)
        self.trans, self.image = _mode_tables(couplings, L, self.k1, self.B, self.roots,
                                              self.norms, self.D)
        for arr in (self.k1, self.B, self.roots, self.norms, self.D, self.trans, self.image):
            arr.setflags(write=False)

    @property
    def n_modes(self):
        """Number of (k1, k2) modes, L * M."""
        return 2 * self.roots.size


@lru_cache(maxsize=32)
def spectral_data(geometry, couplings):
    return SpectralData(geometry, couplings)


def forward_difference(k, order):
    """(e^{i k} - 1)^order: the multiplier of an order-`order` forward
    difference on a plane wave e^{i k x}; the scalar 1 at order 0."""
    return 1.0 if order == 0 else (np.exp(1j * k) - 1.0) ** order


def _row_sums(data, table, mult, values):
    """Y[..., i, n, a] = sum over k2 of quarter row i of e^{-i k2 values[n]}
    mult table[i, k2, a], one matmul per (stack, row); `mult` is None,
    (L/2, M) or a stack (H, L/2, M)."""
    half, M = data.D.shape
    stack = () if mult is None else mult.shape[:-2]
    out = np.empty(stack + (half, len(values), 4), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // (math.prod(stack) * half * M))
    for lo in range(0, len(values), step):
        arg = data.roots[:, None, :] * -values[None, lo:lo + step, None]     # (L/2, n, M)
        wave = np.empty(arg.shape, dtype=complex)                        # e^{-i k2 v}
        np.cos(arg, out=wave.real)
        np.sin(arg, out=wave.imag)
        if mult is not None:
            wave = wave * mult[..., None, :]                              # (..., L/2, n, M)
        out[..., lo:lo + step, :] = np.matmul(wave, table)
    return out


def _mode_factor(*factors):
    """Product of the per-mode array factors, skipping scalars (the
    order-0 `forward_difference`) and None; None when none is an array.
    Multiplies left to right into one new array after the first product."""
    arrays = [f for f in factors if np.ndim(f)]
    if len(arrays) < 2:
        return arrays[0] if arrays else None
    out = arrays[0] * arrays[1]
    for f in arrays[2:]:
        out *= f
    return out


def quarter_fold(ring, rows):
    """(..., n1, n2, 4) sums over the quarter rows k1 of 4 Re r Re Y for pm,
    mp and -4 Im r Im Y for pp, mm (module docstring), from ring = 4 r,
    (..., n1, L/2), and the complex row sums Y, (..., L/2, n2, 4)."""
    n1 = ring.shape[-2]
    *stack, half, n2, _ = rows.shape
    kern = np.concatenate([ring.real, -ring.imag], axis=-2)
    parts = np.where(SIGMA > 0, rows.real, rows.imag).reshape(*stack, half, 4 * n2)
    sums = np.matmul(kern, parts).reshape(*stack, 2 * n1, n2, 4)
    sums[..., :n1, :, ::3] = sums[..., n1:, :, ::3]
    return sums[..., :n1, :, :]


def _pair_sum(data, z, zp, weight, diff_z, d1, order_zp2):
    """`mode_sum` for one site pair: the row sums of both terms, and
    Y_trans - Y_image folded once with the ring factor.  Every weight of
    a stack gets the same row products as a weight alone, so stacking
    does not change a block."""
    k2 = data.roots
    rows = _row_sums(data, data.trans, _mode_factor(weight, diff_z, forward_difference(
        k2, order_zp2)), np.array([z[1] - zp[1]]))
    rows -= _row_sums(data, data.image, _mode_factor(weight, diff_z, forward_difference(
        -k2, order_zp2)), np.array([z[1] + zp[1]]))                        # (..., L/2, 1, 4)
    ring = 4.0 * np.exp(-1j * (z[0] - zp[0]) * data.k1) * d1
    out = quarter_fold(ring[None, :], rows)
    return out.reshape(out.shape[:-3] + (2, 2))


def mode_sum(data, z, zp, weight=None, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Evaluate the eigenmode double sum for one site pair or a batch.

    The sum runs over the quarter k1 > 0, q2 = +k2 (module docstring): per
    k1 row, one matmul against the tables of `data` for each distinct
    z2 -+ z2' of the batch (translation-invariant and image terms, phase
    arrays chunked to a few MB), then one real matmul over the distinct
    z1 - z1'.  Cost grows with the number of distinct offsets (at most
    (2L - 1)(2M + 3)), not with the batch size.  One site pair (alone or
    as a batch of one) skips the offset bookkeeping and the gathers, and
    folds the difference of its two terms once (`_pair_sum`); it agrees
    with the batched route to roundoff.

    Args:
        data: SpectralData.
        z, zp: one site each, or (P, 2) arrays of sites; the vertical
            coordinate may take the extended values 0 and M + 1 (where
            boundary identities hold).
        weight: optional per-mode weight (L/2, M), an even function of
            the modes evaluated on `data.D` -- the single-scale cutoffs --
            or a stack (H, L/2, M) of them, which share the phases.  None
            means the full propagator.
        deriv_z: forward-difference orders (r1, r2) in the first argument.
        deriv_zp: same for the second argument.

    Returns:
        Real (2, 2) block for one pair, (P, 2, 2) for a batch; with a
        weight stack, (H, 2, 2) and (H, P, 2, 2).
    """
    single = np.shape(z) == (2,)
    z, zp = data.geometry.site_arrays(z, zp, extended=True)
    k1, k2 = data.k1, data.roots
    diff_z = forward_difference(-k2, deriv_z[1])
    d1 = forward_difference(-k1, deriv_z[0]) * forward_difference(k1, deriv_zp[0])
    if len(z) == 1:
        out = _pair_sum(data, z[0], zp[0], weight, diff_z, d1, deriv_zp[1])
        return out if single else out[..., None, :, :]
    dz1, i1 = np.unique(z[:, 0] - zp[:, 0], return_inverse=True)
    ring = 4.0 * np.exp(-1j * np.outer(dz1, k1)) * d1                  # (n1, L/2)
    out = 0.0
    for sign, table, q2, offsets in ((1.0, data.trans, k2, z[:, 1] - zp[:, 1]),
                                     (-1.0, data.image, -k2, z[:, 1] + zp[:, 1])):
        values, index = np.unique(offsets, return_inverse=True)
        mult = _mode_factor(weight, diff_z, forward_difference(q2, deriv_zp[1]))
        sums = quarter_fold(ring, _row_sums(data, table, mult, values))  # (..., n1, n2, 4)
        out = out + sign * sums[..., i1, index, :]                       # (..., P, 4)
    out = out.reshape(out.shape[:-1] + (2, 2))
    return out[..., 0, :, :] if single else out


def critical_propagator(geometry, couplings, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Exact critical cylinder propagator block <phi_omega,z phi_omega',z'>.

    phi_+ = Vbar and phi_- = V, so this block matches the corresponding
    rows and columns of -A^{-1} from the dense representation.  The
    result is a real (2, 2) array for one site pair and a real (P, 2, 2)
    array for (P, 2) site arrays z, zp, one `mode_sum` call either way.

    Raises:
        ValueError: off-critical couplings (the eigenbasis only closes on
            the critical line; use `propagator_from_A` instead).
    """
    data = spectral_data(geometry, couplings)
    return mode_sum(data, z, zp, None, deriv_z, deriv_zp)
