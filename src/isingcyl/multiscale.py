"""Multiscale decomposition of the critical propagator.

The propagator is sliced into scales through the heat-kernel family
f_eta = D e^{-eta D} acting multiplicatively on the momentum-space
symbol: integrating eta over [0, 1) gives scale h = 0, over
[4^{-h-1}, 4^{-h}) gives scale h < 0, and the tail [4^{-h-1}, infinity)
gives the infrared remainder g^{(<= h)}.  All eta integrals are done in
closed form, so the scale weights are

    w_0(D)    = 1 - e^{-D},
    w_h(D)    = e^{-4^{-h-1} D} - e^{-4^{-h} D},      h < 0,
    w_<=h(D)  = e^{-4^{-h-1} D},

and the telescoping w_<=h + sum_{j>h} w_j = 1 holds exactly, term by
term, in floating point.  The deepest useful scale is
h* = -floor(log2 min(L, M)); h = +1 denotes the massive (horizontal
sector) propagator.

Each single-scale cylinder propagator splits into a bulk part, the
infinite-plane single-scale propagator evaluated at the folded
displacement and weighted by the ring sign, plus an edge part that decays
in the distance to the boundary.  The infinite-plane propagator is a
Brillouin-zone integral evaluated by the periodic trapezoid rule with
adaptive grid doubling (the integrand is entire, so convergence is
superexponential once the grid resolves the scale-h bump).

The Gram representation realizes every derivative block of g^{(h)} as an
inner product of two explicit vectors in a finite-dimensional Hilbert
space indexed by (k1, k2, sigma, #); it exists to verify, numerically,
the reconstruction identity, the Cauchy-Schwarz bounds, and the 2^h
scaling of the vector norms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import PropagatorBlock
from .exact import horizontal_kernel_infinite
from .lattice import per_range, ring_sign
from .spectral import (
    critical_propagator,
    dispersion,
    forward_difference,
    mode_sum,
    real_block,
    spectral_data,
    symbol_numerator,
)

PLANE_TOL = 1e-11
_PLANE_N_MAX = 4096


def h_star(geometry):
    """Deepest scale index: -floor(log2 min(L, M))."""
    return -int(math.floor(math.log2(min(geometry.L, geometry.M))))


def scale_indices(geometry):
    """All single-scale indices h* .. 0, infrared to ultraviolet."""
    return list(range(h_star(geometry), 1))


def eta_window(h):
    """Heat-kernel time window [eta_lo, eta_hi) covered by scale h <= 0."""
    if h > 0:
        raise ValueError(f"eta windows exist for h <= 0, got h={h}")
    if h == 0:
        return 0.0, 1.0
    return 4.0 ** (-h - 1), 4.0 ** (-h)


def scale_weight(h, D):
    """w_h(D) = integral of D e^{-eta D} over the scale-h window."""
    D = np.asarray(D, dtype=float)
    if h == 0:
        return -np.expm1(-D)
    a, b = eta_window(h)
    return np.exp(-a * D) - np.exp(-b * D)


def tail_weight(h, D):
    """w_<=h(D): everything at times beyond the scale-h window start."""
    a, _ = eta_window(h)
    return np.exp(-a * np.asarray(D, dtype=float))


def _window_weight_over_dispersion(a, b, D):
    """(e^{-aD} - e^{-bD}) / D without cancellation, finite at D = 0."""
    D = np.asarray(D, dtype=float)
    safe = np.where(D == 0.0, 1.0, D)
    val = np.exp(-a * D) * (-np.expm1(-(b - a) * safe)) / safe
    return np.where(D == 0.0, b - a, val)


def _weighted_propagator(weight, geometry, couplings, h, z, zp, deriv_z, deriv_zp):
    if not h_star(geometry) <= h <= 0:
        raise ValueError(f"h={h} outside [{h_star(geometry)}, 0]")
    data = spectral_data(geometry, couplings)
    return real_block(mode_sum(data, z, zp, weight(h, data.D), deriv_z, deriv_zp),
                      deriv_z, deriv_zp)


def single_scale_propagator(geometry, couplings, h, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Scale-h cylinder propagator block, h* <= h <= 0.

    Same eigenmode sum as the full critical propagator with the w_h(D)
    weight inserted per mode; boundary cancellations survive because the
    weight is even in k2.  Site arrays give a (P, 2, 2) batch, as in
    `critical_propagator`.
    """
    return _weighted_propagator(scale_weight, geometry, couplings, h, z, zp, deriv_z, deriv_zp)


def tail_propagator(geometry, couplings, h, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Infrared remainder g^{(<= h)} on the cylinder (batches as above)."""
    return _weighted_propagator(tail_weight, geometry, couplings, h, z, zp, deriv_z, deriv_zp)


def telescoping_residual(geometry, couplings, z, zp, h=None):
    """max |g_c - g^{(<=h)} - sum_{j=h+1..0} g^{(j)}| at one pair."""
    if h is None:
        h = h_star(geometry)
    total = tail_propagator(geometry, couplings, h, z, zp).matrix.copy()
    for j in range(h + 1, 1):
        total += single_scale_propagator(geometry, couplings, j, z, zp).matrix
    full = critical_propagator(geometry, couplings, z, zp).matrix
    return float(np.max(np.abs(total - full)))


# ---------------------------------------------------------------------------
# infinite-plane single-scale propagator (Brillouin-zone quadrature)
# ---------------------------------------------------------------------------


def _plane_batch_fixed(couplings, h, dzs, deriv_z, deriv_zp, N, chunk=256):
    """Trapezoid evaluation of g_infinity^{(h)} at a batch of displacements.

    Streams over k1 rows so the (N x N) grid is never materialized whole;
    the k2 contraction is a BLAS matmul against the dz2 phase matrix.
    """
    a, b = eta_window(h)
    k = 2.0 * np.pi * np.arange(N) / N - np.pi
    dz = np.asarray(dzs, dtype=int)
    dz1 = dz[:, 0].astype(float)
    dz2 = dz[:, 1].astype(float)
    P = dz.shape[0]

    m2 = forward_difference(-k, deriv_z[1]) * forward_difference(k, deriv_zp[1])
    V = np.exp(-1j * np.outer(k, dz2)) * np.reshape(m2, (-1, 1))  # (N, P)

    out = np.zeros((P, 2, 2), dtype=complex)
    for lo in range(0, N, chunk):
        k1c = k[lo:lo + chunk]
        K1 = k1c[:, None]
        D = dispersion(couplings, K1, k[None, :])
        wD = _window_weight_over_dispersion(a, b, D)
        npp, npm, nmp, _ = symbol_numerator(couplings, K1, k[None, :])
        m1 = forward_difference(-k1c, deriv_z[0]) * forward_difference(k1c, deriv_zp[0])
        ph1 = np.exp(-1j * np.outer(k1c, dz1)) * np.reshape(m1, (-1, 1))
        tpp = (npp * wD) @ V
        tpm = (npm * wD) @ V
        tmp = (nmp * wD) @ V
        out[:, 0, 0] += np.sum(ph1 * tpp, axis=0)
        out[:, 0, 1] += np.sum(ph1 * tpm, axis=0)
        out[:, 1, 0] += np.sum(ph1 * tmp, axis=0)
        out[:, 1, 1] += np.sum(ph1 * (-tpp), axis=0)
    return out / (N * N)


def plane_block_batch(couplings, h, dzs, deriv_z=(0, 0), deriv_zp=(0, 0), tol=PLANE_TOL, n_start=32):
    """g_infinity^{(h)} at many displacements, with adaptive grid doubling.

    Doubles the trapezoid grid from n_start until two successive grids
    agree entrywise to `tol` on the whole batch.

    Returns:
        (P, 2, 2) real array.

    Raises:
        RuntimeError: the grid cap was reached before the tolerance.
    """
    if h > 0:
        raise ValueError("plane quadrature applies to h <= 0; h = 1 is the massive kernel")
    N = n_start
    prev = _plane_batch_fixed(couplings, h, dzs, deriv_z, deriv_zp, N)
    while True:
        N *= 2
        if N > _PLANE_N_MAX:
            raise RuntimeError(f"plane quadrature failed to reach {tol} by N={_PLANE_N_MAX}")
        cur = _plane_batch_fixed(couplings, h, dzs, deriv_z, deriv_zp, N)
        if np.max(np.abs(cur - prev)) <= tol:
            resid = float(np.max(np.abs(cur.imag)))
            if resid > 1e-9:
                raise AssertionError(f"imaginary residue {resid:.2e} in plane quadrature")
            return cur.real
        prev = cur


@lru_cache(maxsize=4096)
def _plane_single_cached(couplings, h, dz, deriv_z, deriv_zp):
    return plane_block_batch(couplings, h, [dz], deriv_z, deriv_zp)[0]


def infinite_plane_propagator(couplings, h, dz, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Single-scale infinite-plane propagator at displacement dz.

    For h <= 0 this is the adaptive Brillouin-zone integral; h = 1 is the
    closed-form massive block (nonzero only on the row dz2 = 0).
    """
    dz = (int(dz[0]), int(dz[1]))
    if h == 1:
        return PropagatorBlock(
            _massive_plane_deriv(couplings, dz, deriv_z, deriv_zp), deriv_z, deriv_zp
        )
    m = _plane_single_cached(couplings, h, dz, tuple(deriv_z), tuple(deriv_zp))
    return PropagatorBlock(m, deriv_z, deriv_zp)


def massive_plane_block(couplings, dz):
    """Infinite-plane massive block: delta_{dz2,0} [[0, s+], [-s-, 0]]."""
    m = np.zeros((2, 2))
    if dz[1] == 0:
        m[0, 1] = horizontal_kernel_infinite(dz[0], couplings.t1)
        m[1, 0] = -horizontal_kernel_infinite(-dz[0], couplings.t1)
    return m


def _massive_plane_deriv(couplings, dz, deriv_z, deriv_zp):
    """Forward differences of the massive plane block, taken literally."""

    def ff(d):
        return massive_plane_block(couplings, d)

    def diff(f, axis, first_arg):
        step = (1, 0) if axis == 0 else (0, 1)
        if first_arg:
            return lambda d: f((d[0] + step[0], d[1] + step[1])) - f(d)
        return lambda d: f((d[0] - step[0], d[1] - step[1])) - f(d)

    f = ff
    for axis in (0, 1):
        for _ in range(deriv_z[axis]):
            f = diff(f, axis, True)
        for _ in range(deriv_zp[axis]):
            f = diff(f, axis, False)
    return f(dz)


# ---------------------------------------------------------------------------
# bulk / edge decomposition
# ---------------------------------------------------------------------------


def bulk_block(geometry, couplings, h, z, zp, plane=None):
    """Bulk part: ring_sign(dz1) * g_infinity^{(h)}(per(dz1), dz2)."""
    dz1 = z[0] - zp[0]
    s = ring_sign(dz1, geometry.L)
    if s == 0:
        return np.zeros((2, 2))
    folded = (per_range(dz1, geometry.L), z[1] - zp[1])
    if plane is not None:
        m = plane(folded)
    elif h == 1:
        m = massive_plane_block(couplings, folded)
    else:
        m = _plane_single_cached(couplings, h, folded, (0, 0), (0, 0))
    return s * m


def bulk_edge_split(geometry, couplings, h, z, zp):
    """Split the scale-h cylinder propagator into (bulk, edge) blocks.

    bulk + edge reproduces g^{(h)}(z, z') by construction; the content of
    the decomposition is that the edge part decays in the boundary
    distance, which `edge_decay_report` quantifies.
    """
    if h == 1:
        from .exact import massive_propagator

        full = massive_propagator(geometry, couplings, z, zp).matrix
    else:
        full = single_scale_propagator(geometry, couplings, h, z, zp).matrix
    bulk = bulk_block(geometry, couplings, h, z, zp)
    edge = full - bulk
    return PropagatorBlock(bulk), PropagatorBlock(edge)


# ---------------------------------------------------------------------------
# decay-bound fits
# ---------------------------------------------------------------------------


def _fit_exponential(samples, shrink=0.95):
    """Least squares c from log n = const - c x over (x, n) samples."""
    xs = np.array([x for x, n in samples if n > 0.0])
    ys = np.log(np.array([n for x, n in samples if n > 0.0]))
    if xs.size < 3:
        raise ValueError("not enough nonzero samples for a decay fit")
    A = np.vstack([np.ones_like(xs), -xs]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return shrink * coef[1]


_FIT_X_RANGE = (0.5, 4.0)
_FIT_NOISE_FLOOR = 1e-8


def _bulk_sample_displacements(h):
    """l1 shells along fixed directions, covering the same rescaled
    distance range 2^h |dz|_1 in [0.5, 4] at every scale.

    A fixed rescaled window keeps the per-scale envelopes comparable (the
    scale-h propagator is approximately self-similar in 2^h dz) and keeps
    every sampled value well above the quadrature tolerance; far samples
    would otherwise be pure quadrature noise at shallow scales.
    """
    lo, hi = _FIT_X_RANGE
    dists = sorted(
        set(int(round(x * 2.0 ** (-h))) for x in np.linspace(lo, hi, 10))
    )
    out = []
    for d in dists:
        if d == 0:
            continue
        for ux, uy in ((1, 0), (0, 1), (1, 1), (2, 1)):
            nrm = abs(ux) + abs(uy)
            dz = (round(d * ux / nrm), round(d * uy / nrm))
            if dz != (0, 0):
                out.append(dz)
    return sorted(set(out))


def bulk_decay_report(couplings, h_list, shrink=0.9):
    """Fit C, c in  sup|g_inf^{(h)}(dz)| <= C 2^h exp(-c 2^h |dz|_1).

    The rate c is fitted per scale by least squares and the smallest
    (shrunk) value is shared across scales; C is then the smallest
    constant making every sample margin nonnegative, reported per scale
    so stability in h can be checked.

    Returns:
        list of dicts {h, fitted_C, fitted_c, max_residual, n_samples}.
    """
    per_h = {}
    for h in h_list:
        dzs = _bulk_sample_displacements(h)
        blocks = plane_block_batch(couplings, h, dzs)
        samples = []
        for dz, blk in zip(dzs, blocks):
            n = float(np.max(np.abs(blk)))
            if n < _FIT_NOISE_FLOOR:
                continue
            x = 2.0 ** h * (abs(dz[0]) + abs(dz[1]))
            samples.append((x, n))
        per_h[h] = samples
    c = min(_fit_exponential(s, shrink) for s in per_h.values())
    if c <= 0:
        raise AssertionError(f"fitted decay rate nonpositive: {c}")
    reports = []
    for h, samples in per_h.items():
        logC = max(
            math.log(n) - h * math.log(2.0) + c * x for x, n in samples if n > 0
        )
        C = math.exp(logC)
        resid = max(
            math.log(n) - (logC + h * math.log(2.0) - c * x)
            for x, n in samples
            if n > 0
        )
        reports.append(
            dict(h=h, fitted_C=C, fitted_c=c, max_residual=resid, n_samples=len(samples))
        )
    return reports


_EDGE_RATE_X_RANGE = (1.0, 2.5)
_EDGE_AMP_X_RANGE = (1.0, 1.5)


def _edge_sample_pairs(geometry, h, rng, window, per_distance=5):
    """Construct pairs whose edge distance covers a rescaled window.

    The edge distance is realized explicitly through the boundary branch
    (ring offset plus combined boundary depth); rejection sampling would
    essentially never land near the boundary at shallow scales on a large
    cylinder.  The ring offset is kept below L/8 so the boundary branch
    of the distance, not the wrap-around branch, is the binding one.
    """
    L, M = geometry.L, geometry.M
    lo, hi = window
    pairs = []
    for x in np.linspace(lo, hi, 8):
        d = max(2, int(round(x * 2.0 ** (-h))))
        b_lo = max(2, d - L // 8)
        b_hi = min(d, 2 * M - 1)
        if b_lo > b_hi:
            continue
        placed = 0
        attempts = 0
        while placed < per_distance and attempts < 60:
            attempts += 1
            b = int(rng.integers(b_lo, b_hi + 1))
            u = max(1, min(M, int(rng.integers(1, b))))
            v = b - u
            if not 1 <= v <= M:
                continue
            a1 = d - b
            z1 = int(rng.integers(1, L + 1))
            w1 = (z1 - 1 + a1) % L + 1
            if rng.random() < 0.5:
                z, zp = (z1, u), (w1, v)
            else:
                z, zp = (z1, M + 1 - u), (w1, M + 1 - v)
            if geometry.edge_distance(z, zp) != d:
                continue
            pairs.append((z, zp))
            placed += 1
    if len(pairs) < 12:
        raise ValueError(f"could not place enough edge samples at h={h}")
    return pairs


def _edge_samples(geometry, couplings, h, pairs):
    folded = [
        (per_range(z[0] - zp[0], geometry.L), z[1] - zp[1]) for z, zp in pairs
    ]
    needed = sorted(set(folded))
    plane = dict(zip(needed, plane_block_batch(couplings, h, needed)))
    full = single_scale_propagator(geometry, couplings, h,
                                   [z for z, _ in pairs], [zp for _, zp in pairs])
    samples = []
    for (z, zp), f, blk in zip(pairs, folded, full):
        edge = blk - ring_sign(z[0] - zp[0], geometry.L) * plane[f]
        n = float(np.max(np.abs(edge)))
        if n < _FIT_NOISE_FLOOR:
            continue
        samples.append((2.0 ** h * geometry.edge_distance(z, zp), n))
    return samples


def edge_decay_report(geometry, couplings, h_list, seed=0, shrink=0.9):
    """Fit C, c in  sup|edge^{(h)}(z, z')| <= C 2^h exp(-c 2^h d_E(z, z')).

    The rate is fitted on the shallowest three scales over a wide
    rescaled window, where wrap-around images are negligible against the
    boundary signal; the per-scale envelope constants are then compared
    on a narrow window common to all scales.  Near the bottom scale
    (2^-h approaching L/2) wrap images contaminate large rescaled
    distances, which would tilt a fit done there.
    """
    rng = np.random.default_rng(seed)
    rate_hs = sorted(h_list, reverse=True)[: min(3, len(h_list))]
    c_fits = []
    rate_samples = {}
    for h in rate_hs:
        pairs = _edge_sample_pairs(geometry, h, rng, _EDGE_RATE_X_RANGE)
        samples = _edge_samples(geometry, couplings, h, pairs)
        rate_samples[h] = samples
        c_fits.append(_fit_exponential(samples, shrink))
    c = min(c_fits)
    if c <= 0:
        raise AssertionError(f"fitted edge decay rate nonpositive: {c}")
    reports = []
    for h in h_list:
        pairs = _edge_sample_pairs(geometry, h, rng, _EDGE_AMP_X_RANGE)
        samples = _edge_samples(geometry, couplings, h, pairs)
        samples += rate_samples.get(h, [])
        logC = max(math.log(n) - h * math.log(2.0) + c * x for x, n in samples if n > 0)
        resid = max(
            math.log(n) - (logC + h * math.log(2.0) - c * x) for x, n in samples if n > 0
        )
        reports.append(
            dict(h=h, fitted_C=math.exp(logC), fitted_c=c, max_residual=resid,
                 n_samples=len(samples))
        )
    return sorted(reports, key=lambda r: r["h"])


_TAIL_X_RANGE = (0.25, 2.5)


def _tail_sample_pairs(geometry, h, rng, per_distance=6):
    """Pairs at cylinder distances covering the binding regime ~2^-h.

    sup |g^{(<=h)}| * 2^-h is attained near distance 2^-h, where the
    infrared remainder crosses over from the 2^h plateau to the 1/d
    envelope of the full propagator; sampling that window at every scale
    makes the per-scale constants comparable.
    """
    L, M = geometry.L, geometry.M
    lo, hi = _TAIL_X_RANGE
    pairs = []
    for x in np.linspace(lo, hi, 8):
        d = max(1, int(round(x * 2.0 ** (-h))))
        a_lo = max(0, d - (M - 1))
        a_hi = min(d, L // 2 - 1)
        if a_lo > a_hi:
            continue
        placed = 0
        attempts = 0
        while placed < per_distance and attempts < 60:
            attempts += 1
            a = int(rng.integers(a_lo, a_hi + 1))
            b = d - a
            z2 = int(rng.integers(1, M + 1 - b))
            z1 = int(rng.integers(1, L + 1))
            w1 = (z1 - 1 + a) % L + 1
            z, zp = (z1, z2 + b), (w1, z2)
            if geometry.norm1(z, zp) != d:
                continue
            pairs.append((z, zp))
            placed += 1
    if len(pairs) < 12:
        raise ValueError(f"could not place enough tail samples at h={h}")
    return pairs


def tail_bound_report(geometry, couplings, h_list, seed=0):
    """Fit C in  sup_{z,z'} |g^{(<=h)}(z, z')| <= C 2^h, per scale."""
    rng = np.random.default_rng(seed)
    reports = []
    for h in h_list:
        pairs = _tail_sample_pairs(geometry, h, rng)
        sup = float(np.max(np.abs(tail_propagator(
            geometry, couplings, h, [z for z, _ in pairs], [zp for _, zp in pairs]))))
        reports.append(
            dict(h=h, fitted_C=sup * 2.0 ** (-h), fitted_c=0.0, max_residual=0.0,
                 n_samples=len(pairs))
        )
    return reports


# ---------------------------------------------------------------------------
# Gram representation
# ---------------------------------------------------------------------------


def gram_vector(geometry, couplings, h, omega, s, z, side):
    """Hilbert-space vector whose inner products rebuild derivative blocks.

    The space is indexed by (k1, q2, sigma, #) with q2 running over both
    signs of the transverse roots and sigma over four slots that carry
    square roots of symbol entries (principal branch throughout).  The
    eta coordinate is integrated out in closed form and appears as
    sqrt(w_h(D)); the mode measure 1/(2 L N_M) is folded in symmetrically
    so that plain complex dots are the inner product.  The indefinite #
    sign is absorbed by phasing the # = - slice with -i on the left and
    +i on the right.

    Args:
        omega: +1 or -1 species index.
        s: derivative multi-order (s1, s2), each in {0, 1, 2}.
        z: site.
        side: "left" for the first (conjugated) factor, "right" for the
            second.

    Returns:
        Complex array of shape (L, 2M, 4, 2); reconstruction is
        np.vdot(left, right).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if omega not in (+1, -1):
        raise ValueError(f"omega must be +-1, got {omega}")
    data = spectral_data(geometry, couplings)
    L, M = geometry.L, geometry.M
    k1 = data.k1[:, None]                         # (L, 1)
    q2 = data.q2                                  # (L, 2M)
    sqrt_w = np.sqrt(scale_weight(h, data.D))

    out = np.zeros((L, 2 * M, 4, 2), dtype=complex)
    left = side == "left"
    # sharp = + uses ghat itself; sharp = - uses the reflected matrix
    for si, (sharp, table) in enumerate(((+1, data.sqrt_trans), (-1, data.sqrt_image))):
        q = q2 if left else sharp * q2
        scalar = (np.exp(1j * (k1 * z[0] + q * z[1])) * sqrt_w
                  * forward_difference(k1, s[0]) * forward_difference(q, s[1]))
        if sharp < 0:
            scalar = scalar * (-1j if left else 1j)
        if left:
            sigmas = [0, 1] if omega > 0 else [2, 3]
            comps = np.conj(table[:, :, sigmas])
        else:
            sigmas = [0, 2] if omega > 0 else [1, 3]
            comps = table[:, :, sigmas]
        out[:, :, sigmas, si] = scalar[:, :, None] * comps
    return out


def gram_inner(left, right):
    """Inner product reconstructing derivative propagator blocks."""
    return complex(np.vdot(left, right))


def gram_norm(left_or_right):
    return float(np.linalg.norm(left_or_right))


def gram_report(geometry, couplings, h_list, n_pairs=20, seed=0, slope_hs=(-1, -2, -3, -4)):
    """Verify the Gram representation and measure its norm scaling.

    For `n_pairs` random site pairs and all derivative orders with
    |s|_1, |s'|_1 <= 1, compares np.vdot(left, right) against the
    directly computed derivative block of g^{(h)}.  Also fits the slope
    of log2 |gamma|^2 against h at s = 0 (the Gram norm bound says
    |gamma|^2 <= C 2^h there).

    Returns:
        dict with max reconstruction error, worst Cauchy-Schwarz margin
        (nonnegative means the bound holds), fitted norm-vs-h slope, and
        per-(h, s) fitted constants.
    """
    rng = np.random.default_rng(seed)
    L, M = geometry.L, geometry.M
    pairs = [
        ((int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
         (int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))))
        for _ in range(n_pairs)
    ]
    orders = [(0, 0), (1, 0), (0, 1)]
    max_err = 0.0
    min_cs_margin = np.inf
    norm_consts = []
    species = (+1, -1)
    for h in h_list:
        for z, zp in pairs[: max(4, n_pairs // len(h_list))]:
            lefts = {(s, om): gram_vector(geometry, couplings, h, om, s, z, "left")
                     for s in orders for om in species}
            rights = {(sp, op): gram_vector(geometry, couplings, h, op, sp, zp, "right")
                      for sp in orders for op in species}
            for s in orders:
                for sp in orders:
                    direct = single_scale_propagator(geometry, couplings, h, z, zp, s, sp).matrix
                    for om_i, om in enumerate(species):
                        left = lefts[s, om]
                        for op_i, op in enumerate(species):
                            right = rights[sp, op]
                            rec = gram_inner(left, right)
                            max_err = max(max_err, abs(rec - direct[om_i, op_i]))
                            cs = gram_norm(left) * gram_norm(right) - abs(rec)
                            min_cs_margin = min(min_cs_margin, cs)
    # norm scaling in h at s = 0, one fixed site and species
    z0 = (1 + L // 3, 1 + M // 2)
    logs = []
    for h in slope_hs:
        v = gram_vector(geometry, couplings, h, +1, (0, 0), z0, "left")
        n2 = gram_norm(v) ** 2
        logs.append((h, math.log2(n2)))
        norm_consts.append(dict(h=h, norm_sq=n2, ratio=n2 / 2.0 ** h))
    hs = np.array([p[0] for p in logs], dtype=float)
    ys = np.array([p[1] for p in logs])
    slope = float(np.polyfit(hs, ys, 1)[0])
    return dict(
        max_reconstruction_error=max_err,
        min_cauchy_schwarz_margin=float(min_cs_margin),
        norm_slope=slope,
        norm_records=norm_consts,
        n_pairs=len(pairs),
    )
