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

from functools import lru_cache

import numpy as np

from .blocks import PropagatorBlock

IMAG_RESIDUE_TOL = 1e-10
# bound on a transverse root's forward error |resid / resid'|; measured
# values stay at 1-2 eps pi for every M and critical coupling tried
ROOT_TOL = 8.0 * np.finfo(float).eps * np.pi
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
            2 L N_M: ghat(k1, q2), and ghat with pm taken at -q2 and mm
            times e^{2 i q2 (M+1)}.
        sqrt_trans, sqrt_image: their principal square roots (Gram factors).

    Construction validates the forward error |resid / resid'| of every
    root (<= ROOT_TOL, a bound independent of M), the interval
    bracketing, monotonicity, agreement of the two N_M formulas, and that
    no root collides with pi.
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
            resid = B * np.sin(M * k) - np.sin((M + 1) * k)
            slope = B * M * np.cos(M * k) - (M + 1) * np.cos((M + 1) * k)
            error = np.max(np.abs(resid / slope))
            if not error <= ROOT_TOL:
                raise AssertionError(
                    f"root forward error {error:.2e} exceeds {ROOT_TOL:.2e}")
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

        k1 = self.k1[:, None]
        q2 = np.concatenate([roots, -roots], axis=1)
        measure = 1.0 / (2.0 * L * np.concatenate([norms, norms], axis=1))
        gpp, gpm, gmp, gmm = symbol_entries(couplings, k1, q2)
        gpm_reflected = symbol_entries(couplings, k1, -q2)[1]
        self.q2 = q2
        self.D = dispersion(couplings, k1, q2)
        self.trans = np.stack([gpp, gpm, gmp, gmm], axis=-1) * measure[..., None]
        self.image = np.stack(
            [gpp, gpm_reflected, gmp, np.exp(2j * q2 * (M + 1)) * gmm], axis=-1
        ) * measure[..., None]
        self.sqrt_trans = np.sqrt(self.trans)
        self.sqrt_image = np.sqrt(self.image)
        for arr in (self.k1, self.B, self.roots, self.norms, self.q2, self.D,
                    self.trans, self.image, self.sqrt_trans, self.sqrt_image):
            arr.setflags(write=False)

    @property
    def n_modes(self):
        """Number of (k1, k2) modes, L * M."""
        return self.roots.size


@lru_cache(maxsize=32)
def spectral_data(geometry, couplings):
    return SpectralData(geometry, couplings)


def forward_difference(k, order):
    """(e^{i k} - 1)^order: the multiplier of an order-`order` forward
    difference on a plane wave e^{i k x}; the scalar 1 at order 0."""
    return 1.0 if order == 0 else (np.exp(1j * k) - 1.0) ** order


def _sites(data, z, zp):
    """Both arguments as (P, 2) integer arrays inside the extended lattice."""
    z = np.asarray(z, dtype=int).reshape(-1, 2)
    zp = np.asarray(zp, dtype=int).reshape(-1, 2)
    L, M = data.geometry.L, data.geometry.M
    both = np.stack([z, zp], axis=1)
    bad = ~np.all((both >= (1, 0)) & (both <= (L, M + 1)), axis=(1, 2))
    if np.any(bad):
        p = int(np.argmax(bad))
        raise ValueError(f"sites {tuple(z[p].tolist())}, {tuple(zp[p].tolist())} "
                         "outside the extended lattice")
    return z, zp


def _row_sums(data, coef, mult, values):
    """S[i, n, a] = sum over q2 in row i of e^{-i q2 values[n]} mult coef[i, q2, a].

    `mult` is a per-mode factor of shape (L, 2M), or a scalar."""
    L, width = data.q2.shape
    out = np.empty((L, len(values), 4), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // (L * width))
    for lo in range(0, len(values), step):
        half = np.exp(-1j * (values[lo:lo + step, None, None] * data.roots))
        phase = np.concatenate([half, np.conj(half)], axis=-1) * mult   # q2 = +-k2
        out[:, lo:lo + step] = np.matmul(phase.transpose(1, 0, 2), coef)
    return out


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
            cutoffs.  None means the full propagator.
        deriv_z: forward-difference orders (r1, r2) in the first argument.
        deriv_zp: same for the second argument.

    Returns:
        Complex (2, 2) block for one pair, (P, 2, 2) for a batch.
    """
    single = np.shape(z) == (2,)
    z, zp = _sites(data, z, zp)
    q2 = data.q2
    lead = (1.0 if weight is None else weight) * forward_difference(-q2, deriv_z[1])
    mult_trans = lead * forward_difference(q2, deriv_zp[1])
    mult_img = lead * forward_difference(-q2, deriv_zp[1])
    d1 = forward_difference(-data.k1, deriv_z[0]) * forward_difference(data.k1, deriv_zp[0])

    dz1, i1 = np.unique(z[:, 0] - zp[:, 0], return_inverse=True)
    v_trans, i_trans = np.unique(z[:, 1] - zp[:, 1], return_inverse=True)
    v_img, i_img = np.unique(z[:, 1] + zp[:, 1], return_inverse=True)
    ring = np.exp(-1j * np.outer(dz1, data.k1)) * d1                  # (n1, L)
    # (n1, n2, 4) tables over the distinct offsets, then one gather per pair
    trans = np.tensordot(ring, _row_sums(data, data.trans, mult_trans, v_trans), 1)
    image = np.tensordot(ring, _row_sums(data, data.image, mult_img, v_img), 1)
    out = trans[i1, i_trans] - image[i1, i_img]
    out = out.reshape(-1, 2, 2)
    return out[0] if single else out


def real_block(out, deriv_z, deriv_zp):
    """Real part of a `mode_sum` result, checked.

    Returns:
        A PropagatorBlock for one pair, a real (P, 2, 2) array for a batch.

    Raises:
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL anywhere
            in the batch.
    """
    residue = float(np.max(np.abs(out.imag), initial=0.0))
    if residue > IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"imaginary residue {residue:.2e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    if out.ndim == 2:
        return PropagatorBlock(out.real, deriv_z, deriv_zp)
    return out.real


def critical_propagator(geometry, couplings, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Exact critical cylinder propagator block <phi_omega,z phi_omega',z'>.

    phi_+ = Vbar and phi_- = V, so this block matches the corresponding
    rows and columns of -A^{-1} from the dense representation.  For
    (P, 2) site arrays z, zp the result is a real (P, 2, 2) array, one
    `mode_sum` call for the whole batch.

    Raises:
        ValueError: off-critical couplings (the eigenbasis only closes on
            the critical line; use `propagator_from_A` instead).
        AssertionError: imaginary residue above IMAG_RESIDUE_TOL after the
            explicit +-k2 pairing.
    """
    data = spectral_data(geometry, couplings)
    return real_block(mode_sum(data, z, zp, None, deriv_z, deriv_zp), deriv_z, deriv_zp)
