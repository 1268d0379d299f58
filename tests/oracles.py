"""Reference implementations that the library no longer runs.

- `bisection_roots`: the per-B bisection for the transverse roots, the
  oracle for the array Newton solve of `spectral.transverse_roots`;
- `b_of_k1_critical_form`: the critical-line closed form of B(k1);
- `mode_normalization_ratio_form`: N_M through the root identity, the
  second formula of the N_M gate of `spectral.SpectralData`;
- `horizontal_kernel_infinite`: the infinite-volume horizontal kernel,
  the L -> infinity limit of `exact.horizontal_kernel`;
- `plane_block_trapezoid`: the N x N periodic trapezoid rule for the
  infinite-plane single-scale propagator, the oracle for the separable
  heat-kernel sum of `multiscale.plane_block_batch`;
- `pfaffian_minor` and `minor_cumulant`: each subset moment of the bonds
  as a Pfaffian minor of the Wick matrix, then Moebius inversion over
  set partitions, the oracle for the cycle sum of
  `energy.truncated_energy_correlation`;
- `full_mode_tables` and `full_mode_sum`: the eigenmode double sum over
  all L x 2M modes in complex arithmetic, with its imaginary-residue
  check, the oracle for the quarter-mode real sum of `spectral.mode_sum`;
- `unfold`, `sqrt_tables` and `full_gram_rows`: the Gram vectors on all
  (L, 2M) modes and all four slots, the oracle for the quarter rows,
  closed-form norms and folded inner products of `multiscale`;
- `full_ring_blocks`, `slogdet_log_pf` and `dense_ring_kernel`: the
  dense 4M x 4M ring blocks X_k + i Y_k, their determinants by LU and
  their inverses back-transformed to the offset kernel, the oracles for
  the transfer-matrix powers of `exact.partition_function_log` and the
  row Schur sweeps of `exact.PropagatorCache`;
- `sweep_log_pf`: log|Pf A| by the M-step left Schur sweep over the rows,
  the oracle for the transfer-matrix powers of
  `exact.partition_function_log`;
- `right_sweep`: the right Schur sweep eliminated from the top row down,
  the oracle for the reflected left sweep of `exact.PropagatorCache`;
- `diagonal_blocks`: the diagonal blocks G_jj of the ring inverses by one
  LU inverse of the repeated D_k stack, the oracle for the two
  Sherman-Morrison steps of `exact.PropagatorCache`;
- `g_scal`, `g1_scal`, `g2_scal` and `plane_scal_block`: the
  infinite-plane scaling profile, the single image that
  `scaling.cylinder_scal_block` sums over; `rescaling_residual`, its
  scale covariance; `fourier_profile_check`, the profile against its
  defining k-integral;
- `mass_monomial` and `kinetic_monomial`: the symmetrized marginal and
  relevant local monomials, the span of `kernels.localization_operator`.
"""

import math

import numpy as np

from isingcyl.energy import cumulant_from_moments
from isingcyl.exact import (
    _LOCAL_MONOMIALS,
    PHASE_TOL,
    Species,
    _schur_sweep,
    ring_blocks,
    ring_momenta,
)
from isingcyl.kernels import _ORIGIN, Kernel, symmetrize
from isingcyl.multiscale import eta_window, scale_weight
from isingcyl.scaling import IMAGE_TOL, ContinuumCylinder, cylinder_scal_block
from isingcyl.skew import pfaffian
from isingcyl.spectral import (
    SIGMA,
    dispersion,
    forward_difference,
    spectral_data,
    symbol_numerator,
)

# absolute bound on the imaginary part left by the +-q2, +-k1 cancellation
IMAG_RESIDUE_TOL = 1e-10
# Gaussian regulator, Gauss-Legendre panel width and nodes per panel of
# `fourier_profile_check`
_FOURIER_REGULATOR = 1e-3
_FOURIER_PANEL_WIDTH = 2.0
_FOURIER_NODES = 16


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


def mode_normalization_ratio_form(B, M, k2):
    """N_M = 2 sum_{x=1..M} sin^2(k2 x) through the root identity; only
    valid at the roots."""
    num = B * M * np.cos(M * k2) - (M + 1) * np.cos((M + 1) * k2)
    den = B * np.cos(M * k2) - np.cos((M + 1) * k2)
    return num / den


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


def full_modes(data):
    """k1 (L, 1), ascending, q2 = [roots, -roots] (L, 2M) and N_M on the
    same (L, 2M) grid, over all modes: `SpectralData` keeps the rows
    k1 > 0 only, and B, the roots and N_M are even in k1."""
    k1 = np.concatenate([-data.k1[::-1], data.k1])[:, None]
    roots = np.concatenate([data.roots[::-1], data.roots])
    return k1, np.concatenate([roots, -roots], axis=1), unfold(data.norms)


def full_mode_tables(data):
    """(trans, image) on all (L, 2M) modes, rows k1 and columns
    q2 = [roots, -roots], straight from `symbol_numerator` over
    2 L N_M D: ghat, and ghat with pm taken at -q2 and mm times
    e^{2 i q2 (M+1)}."""
    couplings, L, M = data.couplings, data.geometry.L, data.geometry.M
    k1, q2, norms = full_modes(data)
    scale = 1.0 / (2 * L * norms * dispersion(couplings, k1, q2))
    npp, npm, nmp, nmm = symbol_numerator(couplings, k1, q2)
    npm_reflected = symbol_numerator(couplings, k1, -q2)[1]
    trans = np.stack([npp, npm, nmp, nmm], axis=-1) * scale[..., None]
    image = np.stack([npp, npm_reflected, nmp, nmm * np.exp(2j * (M + 1) * q2)],
                     axis=-1) * scale[..., None]
    return trans, image


def full_mode_sum(data, z, zp, weight=None, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """The eigenmode double sum over every mode (k1, q2 = +-k2), complex.

    The coefficients are `full_mode_tables`.  `weight` is given on the
    quarter like `data.D`, (L/2, M) or (H, L/2, M), and extended evenly in
    k1 and q2.  Arguments and shapes are those of `spectral.mode_sum`.

    Raises:
        AssertionError: an imaginary part above IMAG_RESIDUE_TOL.
    """
    L, M = data.geometry.L, data.geometry.M
    single = np.shape(z) == (2,)
    z, zp = data.geometry.site_arrays(z, zp, extended=True)
    k1, q2, _ = full_modes(data)                                         # (L, 1), (L, 2M)
    trans, image = full_mode_tables(data)
    if weight is None:
        weight = np.ones((L // 2, M))
    weight = np.concatenate([weight[..., ::-1, :], weight], axis=-2)
    weight = np.concatenate([weight, weight], axis=-1)                    # (..., L, 2M)
    diff = (weight * forward_difference(-k1, deriv_z[0]) * forward_difference(-q2, deriv_z[1])
            * forward_difference(k1, deriv_zp[0]))
    mult_trans = diff * forward_difference(q2, deriv_zp[1])
    mult_img = diff * forward_difference(-q2, deriv_zp[1])
    dz = z - zp
    wave_trans = np.exp(-1j * (dz[:, 0, None, None] * k1 + dz[:, 1, None, None] * q2))
    wave_img = np.exp(-1j * (dz[:, 0, None, None] * k1
                             + (z + zp)[:, 1, None, None] * q2))          # (P, L, 2M)
    out = (np.einsum("pij,...ij,ija->...pa", wave_trans, mult_trans, trans)
           - np.einsum("pij,...ij,ija->...pa", wave_img, mult_img, image))
    residue = float(np.max(np.abs(out.imag), initial=0.0))
    if residue > IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"imaginary residue {residue:.2e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    out = out.real.reshape(out.shape[:-1] + (2, 2))
    return out[..., 0, :, :] if single else out


def unfold(quarter, sign=1.0):
    """The (L, 2M, ...) array on rows k1 and columns q2 = [roots, -roots]
    from its (L/2, M, ...) quarter: mirrored rows and conjugated columns,
    times `sign` (1 for even functions such as D, SIGMA for the tables);
    exact, as both steps are negations and conjugations."""
    half, M = quarter.shape[:2]
    full = np.empty((2 * half, 2 * M) + quarter.shape[2:], dtype=quarter.dtype)
    full[half:, :M] = quarter
    np.multiply(quarter[::-1], sign, out=full[:half, :M])
    np.conjugate(full[:, :M], out=full[:, M:])
    full[:, M:] *= sign
    return full


def sqrt_tables(data):
    """Principal square roots of the tables unfolded to all (L, 2M) modes."""
    return np.sqrt(unfold(data.trans, SIGMA)), np.sqrt(unfold(data.image, SIGMA))


# Gram slots sigma filled by each species, per side, and the phase of the
# # = - slice per side
GRAM_SLOTS = {"left": {+1: [0, 1], -1: [2, 3]}, "right": {+1: [0, 2], -1: [1, 3]}}
SHARP_PHASE = {"left": -1j, "right": 1j}


def full_gram_rows(geometry, couplings, h, z, side, rows, slots=GRAM_SLOTS,
                   phases=SHARP_PHASE):
    """Gram vectors of shape (len(rows), L, 2M, 4, 2) over (k1, q2, sigma, #)
    at scale h, or with weight 1 for h None; the reconstruction is
    np.vdot(left row, right row).  `slots` and `phases` replace the
    assignment of slots and # phases."""
    data = spectral_data(geometry, couplings)
    k1, q2, _ = full_modes(data)                                 # (L, 1), (L, 2M)
    sqrt_w = 1.0 if h is None else unfold(np.sqrt(scale_weight(h, data.D)))
    out = np.zeros((len(rows),) + q2.shape + (4, 2), dtype=complex)
    left = side == "left"
    # sharp = + uses ghat itself; sharp = - uses the reflected matrix
    for si, (sharp, table) in enumerate(zip((+1, -1), sqrt_tables(data))):
        q = q2 if left else sharp * q2
        wave = np.exp(1j * (k1 * z[0] + q * z[1])) * sqrt_w
        phase = 1.0 if sharp > 0 else phases[side]
        comps = np.conj(table) if left else table
        for row, (omega, s) in zip(out, rows):
            sigmas = slots[side][omega]
            scalar = wave * forward_difference(k1, s[0]) * forward_difference(q, s[1]) * phase
            row[:, :, sigmas, si] = scalar[:, :, None] * comps[:, :, sigmas]
    return out


def full_ring_blocks(geometry, couplings, momenta):
    """X_k, Y_k of the 4M x 4M ring blocks X_k + i Y_k = A0 + e^{ik} A1 -
    e^{-ik} A1^T at the given momenta, rows ordered (z2, species): two
    real (K, 4M, 4M) arrays, X exactly skew and Y exactly symmetric."""
    n = 4 * geometry.M
    base = 4 * np.arange(geometry.M)
    a0 = np.zeros((n, n))
    for i, j in _LOCAL_MONOMIALS:
        a0[base + i, base + j] = 1.0
        a0[base + j, base + i] = -1.0
    a0[base[:-1] + Species.VBAR, base[1:] + Species.V] = couplings.t2
    a0[base[1:] + Species.V, base[:-1] + Species.VBAR] = -couplings.t2
    a1 = np.zeros((n, n))
    a1[base + Species.HBAR, base + Species.H] = couplings.t1
    k = np.asarray(momenta)[:, None, None]
    return a0 + np.cos(k) * (a1 - a1.T), np.sin(k) * (a1 + a1.T)


def slogdet_log_pf(geometry, couplings):
    """(sign, log|Pf A|) as the product of the ring-block determinants,
    each by LU (`numpy.linalg.slogdet`), a few momenta per batch so the
    4M x 4M stack stays small."""
    sign, log_pf = 1.0, 0.0
    for momenta in np.array_split(ring_momenta(geometry.L), max(1, geometry.L // 16)):
        x, y = full_ring_blocks(geometry, couplings, momenta)
        phase, logabs = np.linalg.slogdet(x + 1j * y)
        assert np.max(np.abs(phase.imag)) <= 1e-8
        sign *= float(np.prod(np.sign(phase.real)))
        log_pf += float(np.sum(logabs))
    return sign, log_pf


def dense_ring_kernel(geometry, couplings):
    """The offset kernel -(2/L) Re sum_k e^{ikd} (X_k + i Y_k)^{-1} for
    d = 1 - L .. L - 1 from dense inverses: (2L - 1, 4M, 4M)."""
    L, M = geometry.L, geometry.M
    k = ring_momenta(L)
    x, y = full_ring_blocks(geometry, couplings, k)
    inv = np.linalg.inv(x + 1j * y).reshape(L // 2, -1)
    phase = np.exp(1j * np.outer(np.arange(1 - L, L), k))
    return ((-2.0 / L) * (phase @ inv).real).reshape(2 * L - 1, 4 * M, 4 * M)


def sweep_log_pf(geometry, couplings):
    """(sign, log|Pf A|) from Pf A = prod_k (det D_k)^M prod_j f_j, the
    Schur factors f_j of the left sweep over the M rows of every ring
    block (the recursion that T_k^M sums up), with the phase gate of
    `exact.PHASE_TOL` on det D_k and on each f_j."""
    M = geometry.M
    x, y = ring_blocks(geometry, couplings)
    d = x + 1j * y
    det = np.linalg.det(d)
    _, f = _schur_sweep(np.linalg.inv(d), couplings.t2, M)
    assert np.all(det != 0) and np.all(f != 0)
    phase = max(np.max(np.abs(det.imag) / np.abs(det)), np.max(np.abs(f.imag) / np.abs(f)))
    assert phase <= PHASE_TOL
    negative = M * np.count_nonzero(det.real < 0) + np.count_nonzero(f.real < 0)
    return (-1.0 if negative % 2 else 1.0,
            float(M * np.sum(np.log(np.abs(det))) + np.sum(np.log(np.abs(f)))))


def right_sweep(geometry, couplings):
    """tau_j of the right Schur complements D_k + tau_j e_b e_b^T, rows
    j = 1..M, from the top row down: tau_M = 0 and
    tau_j = t2^2 [(D_k + tau_{j+1} e_b e_b^T)^{-1}]_vv, each inverse by
    LU.  Returns a complex (M, L/2) array."""
    x, y = ring_blocks(geometry, couplings)
    d = x + 1j * y
    tau = np.zeros((geometry.M, len(d)), dtype=complex)
    for j in range(geometry.M - 2, -1, -1):
        s = d.copy()
        s[:, Species.VBAR, Species.VBAR] += tau[j + 1]
        tau[j] = couplings.t2 ** 2 * np.linalg.inv(s)[:, Species.V, Species.V]
    return tau


def diagonal_blocks(geometry, couplings):
    """G_jj = (D_k + sigma_j e_v e_v^T + tau_j e_b e_b^T)^{-1} with
    tau_j = -sigma_{M+1-j}, for every row j and ring momentum k, each
    inverse by LU.  Returns a complex (M, L/2, 4, 4) array."""
    x, y = ring_blocks(geometry, couplings)
    d = x + 1j * y
    sigma, _ = _schur_sweep(np.linalg.inv(d), couplings.t2, geometry.M)
    g = np.repeat(d[None], geometry.M, axis=0)
    g[..., Species.V, Species.V] += sigma
    g[..., Species.VBAR, Species.VBAR] -= sigma[::-1]
    return np.linalg.inv(g)


def g_scal(couplings, z1, z2):
    """Scaling profile -z1 / (2 pi t2 (1 - t2) (z1^2 + z2^2))."""
    r2 = z1 * z1 + z2 * z2
    if r2 == 0.0:
        raise ZeroDivisionError("scaling profile is singular at the origin")
    return -z1 / (2.0 * math.pi * couplings.t2 * (1.0 - couplings.t2) * r2)


def g1_scal(couplings, z1, z2):
    return g_scal(couplings, z1 / (1.0 - couplings.t2), z2 / (1.0 - couplings.t1))


def g2_scal(couplings, z1, z2):
    return g_scal(couplings, z2 / (1.0 - couplings.t1), z1 / (1.0 - couplings.t2))


def plane_scal_block(couplings, z1, z2):
    """Infinite-plane scaling block [[g1, g2], [g2, -g1]]."""
    a = g1_scal(couplings, z1, z2)
    b = g2_scal(couplings, z1, z2)
    return np.array([[a, b], [b, -a]])


def rescaling_residual(cylinder, couplings, z, zp, xi, tol=IMAGE_TOL):
    """sup norm of xi*g(l1,l2; xi z, xi z') - g(l1/xi, l2/xi; z, z')."""
    big = cylinder_scal_block(
        cylinder, couplings, (xi * z[0], xi * z[1]), (xi * zp[0], xi * zp[1]), tol
    )
    shrunk = ContinuumCylinder(cylinder.ell1 / xi, cylinder.ell2 / xi)
    small = cylinder_scal_block(shrunk, couplings, z, zp, tol)
    return float(np.max(np.abs(xi * big - small)))


def fourier_profile_check(couplings, points):
    """Cross-check the closed-form profile against its defining k-integral.

    Evaluates (1/(t2(1-t2))) * (2pi)^-2 * int e^{-ik.z} (-i k1)/|k|^2 with
    a Gaussian regulator e^{-eps |k|^2} by panelwise Gauss-Legendre
    quadrature, reduced to the first quadrant:

        -4 int_0^K int_0^K k1 sin(k1 z1) cos(k2 z2) / |k|^2 e^{-eps|k|^2}

    The profile z1/|z|^2 is harmonic away from the origin, so the
    Gaussian smoothing is exact up to heat leakage from the singularity,
    which is negligible at |z| >= 1 for _FOURIER_REGULATOR.

    Returns:
        max absolute difference over the points.
    """
    width = _FOURIER_PANEL_WIDTH
    K = math.sqrt(34.0 / _FOURIER_REGULATOR)
    n_panels = int(math.ceil(K / width))
    xs, ws = np.polynomial.legendre.leggauss(_FOURIER_NODES)
    k = np.concatenate([
        (xs + 1.0) * 0.5 * width + i * width for i in range(n_panels)
    ])
    w = np.concatenate([ws * 0.5 * width for _ in range(n_panels)])
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    W = np.outer(w, w)
    base = K1 / (K1 ** 2 + K2 ** 2) * np.exp(-_FOURIER_REGULATOR * (K1 ** 2 + K2 ** 2))
    worst = 0.0
    for z1, z2 in points:
        integrand = base * np.sin(K1 * z1) * np.cos(K2 * z2)
        val = -4.0 * float(np.sum(W * integrand)) / (
            (2.0 * math.pi) ** 2 * couplings.t2 * (1.0 - couplings.t2)
        )
        worst = max(worst, abs(val - g_scal(couplings, z1, z2)))
    return worst


def mass_monomial():
    """Symmetrized local pairing of opposite-omega fields."""
    k = Kernel(translation_invariant=True)
    for om in (1, -1):
        k.add(((om, _ORIGIN, _ORIGIN), (-om, _ORIGIN, _ORIGIN)), om / 2.0)
    return symmetrize(k)


def kinetic_monomial(direction):
    """Symmetrized local field-times-derivative pairing.

    Direction 1 pairs equal omegas through the symmetric horizontal
    difference, direction 2 opposite omegas through the vertical one
    (each symmetric difference splits into forward differences at the
    site and at the shifted site, both with weight one half).
    """
    if direction == 1:
        d, shift, swap = (1, 0), (-1, 0), 1
    elif direction == 2:
        d, shift, swap = (0, 1), (0, -1), -1
    else:
        raise ValueError("direction must be 1 or 2")
    k = Kernel(translation_invariant=True)
    for om in (1, -1):
        weight = om / 2.0 if direction == 1 else 0.5
        k.add(((om, _ORIGIN, _ORIGIN), (swap * om, d, _ORIGIN)), weight)
        k.add(((om, _ORIGIN, _ORIGIN), (swap * om, d, shift)), weight)
    return symmetrize(k)
