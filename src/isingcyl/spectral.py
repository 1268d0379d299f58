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

with a translation-invariant term in z2 - z2' and an image term in
z2 + z2' that enforces the open boundary.  Discrete forward derivatives
in either argument become exact phase multipliers on the two terms.

Every two-point function of the package follows one convention: a real
array indexed [omega, omega'] by the species pair, row/column 0 the +
component and 1 the - component, of shape (2, 2) for one site pair and
(P, 2, 2) for (P, 2) site arrays.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

import numpy as np

IMAG_RESIDUE_TOL = 1e-10
# bound on a transverse root's forward error |resid / resid'|; measured
# values stay at 1-2 eps pi for every M and critical coupling tried
ROOT_TOL = 8.0 * np.finfo(float).eps * np.pi
# Newton steps on the phase equation; five reach the fixed point for every
# M and B tried, and `SpectralData` certifies the result through ROOT_TOL
_NEWTON_STEPS = 6
# complex entries per transient array in `mode_sum` (2 MB)
_CHUNK_ENTRIES = 1 << 17


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


def _mode_roots(B, M):
    """Gated (L, M) roots and normalizations for B(k1) on D_L (`SpectralData`)."""
    B = B[len(B) // 2:, None]
    k = transverse_roots(B[:, 0], M)
    resid = B * np.sin(M * k) - np.sin((M + 1) * k)
    slope = B * M * np.cos(M * k) - (M + 1) * np.cos((M + 1) * k)
    error = np.max(np.abs(resid / slope))
    if not error <= ROOT_TOL:
        raise AssertionError(f"root forward error {error:.2e} exceeds {ROOT_TOL:.2e}")
    lo, hi = np.pi / (M + 1) * (np.arange(M) + [[0.5], [1.0]])
    if np.any(k <= lo) or np.any(k >= hi):
        raise AssertionError("root escaped its bracketing interval")
    if np.any(np.diff(k, axis=1) <= 0):
        raise AssertionError("roots not strictly increasing")
    if np.min(np.abs(k - np.pi)) < 1e-9:
        raise AssertionError("root collided with pi")
    nm = mode_normalization(B, M, k)
    if np.max(np.abs(nm - mode_normalization_ratio_form(B, M, k))) > 1e-11 * max(1.0, M):
        raise AssertionError("the two N_M formulas disagree")
    if np.any(nm < M):
        raise AssertionError("mode normalization dropped below M")
    return np.concatenate([k[::-1], k]), np.concatenate([nm[::-1], nm])


def _mode_tables(couplings, k1, B, roots, norms, D):
    """(trans, image) tables of `SpectralData`, each (L, 2M, 4) complex.

    On the q2 = +k2 half, with w = 1/(2 L N_M D): trans holds ghat w, and
    image the same with pm -> -mp (the pm numerator at -q2 is minus the
    mp numerator at q2, and D is even) and mm times e^{2 i q2 (M+1)}.
    On the q2 = -k2 half the pm and mp entries and the image phase are
    conjugated while the imaginary pp and mm = -pp entries stay: the
    half is conj(+ half) with the pp and mm entries negated.
    """
    L, M = roots.shape
    one = 1.0 - couplings.t1 ** 2
    B = B[:, None]
    w = 1.0 / (2.0 * L * norms * D)
    pp = (-2j * couplings.t1 * np.sin(k1))[:, None] * w
    mp = one * w * (1.0 - B * np.cos(roots)) - 1j * (one * w * B * np.sin(roots))
    arg = 2.0 * (M + 1) * roots
    trans = np.empty((L, 2 * M, 4), dtype=complex)
    image = np.empty_like(trans)
    for table in (trans, image):
        table[:, :M, 0] = pp
        table[:, :M, 2] = mp
    trans[:, :M, 1] = -np.conj(mp)
    trans[:, :M, 3] = -pp
    image[:, :M, 1] = -mp
    image[:, :M, 3] = pp.imag * np.sin(arg) - 1j * (pp.imag * np.cos(arg))
    for table in (trans, image):
        np.conjugate(table[:, :M], out=table[:, M:])
        table[:, M:, ::3] *= -1.0
    return trans, image


class SpectralData:
    """Root, normalization and mode tables for one (geometry, couplings) pair.

    Attributes:
        k1: (L,) antiperiodic momenta.
        B: (L,) values of B(k1), all in (0, 1).
        roots: (L, M) positive transverse roots, row i for k1[i].
        norms: (L, M) mode normalizations N_M(k1, k2) >= M.
        q2, D: (L, 2M) signed transverse momenta [roots, -roots] and the
            dispersion D(k1, q2), the argument of the scale weights.
        trans, image: (L, 2M, 4) mode coefficients of the translation-
            invariant and image terms, entries (pp, pm, mp, mm) over
            2 L N_M: ghat(k1, q2), and ghat with pm taken at -q2 (that
            is, -mp) and mm times e^{2 i q2 (M+1)}.
        sqrt_trans, sqrt_image: their principal square roots (Gram factors),
            built on first use.

    The roots solve the strictly increasing phase equation (module
    docstring) by Newton's method, in one `transverse_roots` call on the
    L/2 rows with k1 > 0; B is even in k1, so the rows with k1 < 0 are
    their mirror image.  Construction validates the forward error
    |resid / resid'| of every root (<= ROOT_TOL, a bound independent of
    M), the interval bracketing, monotonicity, agreement of the two N_M
    formulas, and that no root collides with pi.  The tables are
    evaluated once on the q2 = +k2 half, with cos/sin of real arguments,
    and written straight into their final (L, 2M, 4) arrays; the
    q2 = -k2 half follows by conjugation (`_mode_tables`).
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
        self.roots, self.norms = _mode_roots(self.B, M)

        self.q2 = np.concatenate([self.roots, -self.roots], axis=1)
        self.D = np.tile(dispersion(couplings, self.k1[:, None], self.roots), 2)
        self.trans, self.image = _mode_tables(couplings, self.k1, self.B, self.roots,
                                              self.norms, self.D[:, :M])
        for arr in (self.k1, self.B, self.roots, self.norms, self.q2, self.D,
                    self.trans, self.image):
            arr.setflags(write=False)

    sqrt_trans = cached_property(lambda self: _read_only(np.sqrt(self.trans)))
    sqrt_image = cached_property(lambda self: _read_only(np.sqrt(self.image)))

    @property
    def n_modes(self):
        """Number of (k1, k2) modes, L * M."""
        return self.roots.size


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def spectral_data(geometry, couplings):
    return SpectralData(geometry, couplings)


def forward_difference(k, order):
    """(e^{i k} - 1)^order: the multiplier of an order-`order` forward
    difference on a plane wave e^{i k x}; the scalar 1 at order 0."""
    return 1.0 if order == 0 else (np.exp(1j * k) - 1.0) ** order


def _row_sums(data, coef, mult, values):
    """S[..., i, n, a] = sum over q2 in row i of e^{-i q2 values[n]} mult coef[i, q2, a].

    `mult` is None, a per-mode factor (L, 2M) or a stack (H, L, 2M) of them."""
    L, width = data.q2.shape
    M = width // 2
    stack = ()
    if mult is not None:
        stack = mult.shape[:-2]
        mult = mult[..., None, :]                                       # (..., L, 1, 2M)
    out = np.empty(stack + (L, len(values), 4), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // (np.prod(stack, dtype=int) * L * width))
    for lo in range(0, len(values), step):
        arg = data.roots[:, None, :] * values[None, lo:lo + step, None]  # (L, n, M)
        # e^{-i q2 v} on q2 = +k2, its conjugate on q2 = -k2
        phase = np.empty(arg.shape[:-1] + (width,), dtype=complex)
        np.cos(arg, out=phase.real[..., :M])
        phase.real[..., M:] = phase.real[..., :M]
        np.sin(arg, out=phase.imag[..., M:])
        np.negative(phase.imag[..., M:], out=phase.imag[..., :M])
        out[..., lo:lo + step, :] = np.matmul(phase if mult is None else phase * mult, coef)
    return out


def _mode_factor(*factors):
    """Product of the per-mode array factors, skipping scalars (the
    order-0 `forward_difference`) and None; None when none is an array."""
    arrays = [f for f in factors if np.ndim(f)]
    return None if not arrays else reduce(np.multiply, arrays)


def mode_sum(data, z, zp, weight=None, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Evaluate the eigenmode double sum for one site pair or a batch.

    The q2 = +-k2 sum of each k1 row is a matmul against the tables of
    `data`, once per distinct z2 - z2' (translation-invariant term) and
    z2 + z2' (image term) in the batch, chunked so its phase arrays stay
    at a few MB; the k1 sum is a second matmul over the distinct
    z1 - z1'.  Work and memory thus grow with the number of distinct
    offsets (at most (2L - 1)(2M + 3)), not with the batch size.
    Imaginary parts cancel to roundoff between +k2 and -k2.

    Args:
        data: SpectralData.
        z, zp: one site each, or (P, 2) arrays of sites; the vertical
            coordinate may take the extended values 0 and M + 1 (where
            boundary identities hold).
        weight: optional per-mode multiplicative weight of shape (L, 2M),
            evaluated on (k1, q2) like `data.D` -- the single-scale
            cutoffs -- or a stack (H, L, 2M) of them, which share the
            phases.  None means the full propagator.
        deriv_z: forward-difference orders (r1, r2) in the first argument.
        deriv_zp: same for the second argument.

    Returns:
        Complex (2, 2) block for one pair, (P, 2, 2) for a batch; with a
        weight stack, (H, 2, 2) and (H, P, 2, 2).
    """
    single = np.shape(z) == (2,)
    z, zp = data.geometry.site_arrays(z, zp, extended=True)
    q2 = data.q2
    diff_z = forward_difference(-q2, deriv_z[1])
    mult_trans = _mode_factor(weight, diff_z, forward_difference(q2, deriv_zp[1]))
    mult_img = _mode_factor(weight, diff_z, forward_difference(-q2, deriv_zp[1]))
    d1 = forward_difference(-data.k1, deriv_z[0]) * forward_difference(data.k1, deriv_zp[0])

    dz1, i1 = np.unique(z[:, 0] - zp[:, 0], return_inverse=True)
    v_trans, i_trans = np.unique(z[:, 1] - zp[:, 1], return_inverse=True)
    v_img, i_img = np.unique(z[:, 1] + zp[:, 1], return_inverse=True)
    ring = np.exp(-1j * np.outer(dz1, data.k1)) * d1                  # (n1, L)
    # (n1, ..., n2, 4) tables over the distinct offsets, then one gather per pair
    trans = np.tensordot(ring, _row_sums(data, data.trans, mult_trans, v_trans), (1, -3))
    image = np.tensordot(ring, _row_sums(data, data.image, mult_img, v_img), (1, -3))
    out = trans[i1, ..., i_trans, :] - image[i1, ..., i_img, :]          # (P, ..., 4)
    out = np.moveaxis(out.reshape(out.shape[:-1] + (2, 2)), 0, -3)
    return out[..., 0, :, :] if single else out


def real_block(out):
    """Real part of a `mode_sum` result, checked.

    Raises:
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL anywhere
            in the batch.
    """
    residue = float(np.max(np.abs(out.imag), initial=0.0))
    if residue > IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"imaginary residue {residue:.2e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    return out.real


def critical_propagator(geometry, couplings, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Exact critical cylinder propagator block <phi_omega,z phi_omega',z'>.

    phi_+ = Vbar and phi_- = V, so this block matches the corresponding
    rows and columns of -A^{-1} from the dense representation.  The
    result is a real (2, 2) array for one site pair and a real (P, 2, 2)
    array for (P, 2) site arrays z, zp, one `mode_sum` call either way.

    Raises:
        ValueError: off-critical couplings (the eigenbasis only closes on
            the critical line; use `propagator_from_A` instead).
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL after the
            explicit +-k2 pairing.
    """
    data = spectral_data(geometry, couplings)
    return real_block(mode_sum(data, z, zp, None, deriv_z, deriv_zp))
