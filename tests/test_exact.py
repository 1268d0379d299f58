"""Action matrix, Pfaffian partition function, and the dense propagator."""

import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isingcyl import exact, skew
from isingcyl.energy import BruteForceGibbs
from isingcyl.exact import (
    Couplings,
    PropagatorCache,
    Species,
    build_action_matrix,
    flat_index,
    horizontal_kernel,
    massive_propagator,
    partition_function_log,
    ring_momenta,
)
from isingcyl.lattice import CylinderGeometry
from isingcyl.skew import SingularSkewError, pfaffian_sign_logabs, skew_inverse
from oracles import (
    dense_ring_kernel,
    diagonal_blocks,
    full_ring_blocks,
    horizontal_kernel_infinite,
    right_sweep,
    slogdet_log_pf,
    sweep_log_pf,
)

ISOTROPIC_BETA = 0.5 * math.log(1.0 + math.sqrt(2.0))


def test_couplings_validation_and_critical_line():
    with pytest.raises(ValueError):
        Couplings(0.0, 0.5)
    with pytest.raises(ValueError):
        Couplings(0.5, 1.0)
    with pytest.raises(ValueError):
        Couplings.from_beta(-1.0, 1.0, 1.0)
    c = Couplings.critical_from_t1(0.5)
    assert math.isclose(c.t2, 1.0 / 3.0)
    assert c.is_critical
    iso = Couplings.isotropic_critical()
    assert math.isclose(iso.t1, math.sqrt(2.0) - 1.0)
    assert iso.t1 == iso.t2 and iso.is_critical
    assert not Couplings(0.3, 0.3).is_critical


@pytest.mark.parametrize("beta,J1,J2", [(50.0, 1.0, 0.9), (1.0, 0.5, 19.07), (1e300, 1e300, 1.0)])
def test_couplings_reject_a_tanh_that_rounds_to_one(beta, J1, J2):
    # tanh(x) rounds to 1.0 for x >= 27.5 log 2 = 19.06...; the message
    # names the product beta J_l, not the t_l that was never given
    with pytest.raises(ValueError, match=r"beta\*J[12] = .* 19\.06"):
        Couplings.from_beta(beta, J1, J2)
    Couplings.from_beta(19.06, 1.0, 1.0)


def test_flat_index_roundtrip():
    g = CylinderGeometry(4, 3)
    seen = set()
    for z in g.sites():
        for sp in Species:
            idx = flat_index(g, z, sp)
            # site-major in (z2, z1), species-minor
            assert divmod(idx, 4) == ((z[1] - 1) * g.L + z[0] - 1, sp)
            seen.add(idx)
    assert seen == set(range(4 * g.n_sites))


def test_action_matrix_is_skew_and_sparse():
    g = CylinderGeometry(6, 4)
    a = build_action_matrix(g, Couplings(0.4, 0.3)).dense()
    assert np.max(np.abs(a + a.T)) == 0.0
    # every row couples a field to its on-site partners plus at most
    # one neighbor bond
    assert np.count_nonzero(a) <= a.shape[0] * 8


@pytest.mark.parametrize("L,M", [(2, 1), (4, 2), (6, 3)])
def test_partition_function_matches_enumeration(L, M):
    g = CylinderGeometry(L, M)
    rng = np.random.default_rng(L * 10 + M)
    for _ in range(3):
        beta = float(rng.uniform(0.1, 0.7))
        J1 = float(rng.uniform(0.4, 1.4))
        J2 = float(rng.uniform(0.4, 1.4))
        res = partition_function_log(g, beta, J1, J2)
        ref = BruteForceGibbs(g, beta, J1, J2).log_partition()
        assert math.isclose(res.log_z, ref, rel_tol=1e-12)
        assert res.pf_sign == 1.0


def test_partition_decomposition_consistent():
    g = CylinderGeometry(4, 3)
    beta, J1, J2 = 0.25, 1.0, 2.0
    res = partition_function_log(g, beta, J1, J2)
    prefactor = (12 * math.log(2.0) + 12 * math.log(math.cosh(0.25))
                 + 8 * math.log(math.cosh(0.5)))
    assert math.isclose(res.log_z, prefactor + res.log_pf_abs, rel_tol=1e-14)


def test_propagator_cache_blocks():
    g = CylinderGeometry(4, 3)
    cache = PropagatorCache(g, Couplings(0.35, 0.45))
    m = cache.matrix
    assert np.max(np.abs(m + m.T)) == 0.0
    with pytest.raises(ValueError):
        m[0, 0] = 1.0  # the cache is read-only
    z, zp = (2, 1), (4, 3)
    blk = cache.vertical_block(z, zp)
    species = cache.species_block(z, zp)
    assert blk.shape == (2, 2) and species.shape == (4, 4)
    for a, sa in enumerate((Species.VBAR, Species.V)):
        for b, sb in enumerate((Species.VBAR, Species.V)):
            assert blk[a, b] == species[sa, sb] == m[flat_index(g, z, sa), flat_index(g, zp, sb)]


@pytest.mark.parametrize("L,M", [(2, 1), (4, 3), (6, 4)])
def test_species_blocks_gather_the_dense_oracle(L, M):
    g = CylinderGeometry(L, M)
    cache = PropagatorCache(g, Couplings.from_beta(0.7, 1.0, 0.4))
    sites = list(g.sites())
    zs = [z for z in sites for _ in sites]
    zps = [zp for _ in sites for zp in sites]
    blocks = cache.species_block(zs, zps)
    assert blocks.shape == (len(zs), 4, 4)
    rows = [[flat_index(g, z, s) for s in Species] for z in zs]
    cols = [[flat_index(g, zp, s) for s in Species] for zp in zps]
    oracle = cache.matrix[np.array(rows)[:, :, None], np.array(cols)[:, None, :]]
    assert np.array_equal(blocks, oracle)
    assert np.array_equal(cache.vertical_block(zs, zps), blocks[:, 2:, 2:])
    assert np.array_equal(exact.dense_propagator(g, cache.couplings, zs, zps),
                          blocks[:, 2:, 2:])
    for bad in ((0, 1), (L + 1, 1), (1, 0), (1, M + 1)):
        with pytest.raises(ValueError, match="outside"):
            cache.species_block([sites[0], bad], [sites[0], sites[0]])
        with pytest.raises(ValueError, match="outside"):
            cache.species_block(sites[0], bad)


def test_propagator_cache_stores_only_row_generators():
    g = CylinderGeometry(8, 6)
    cache = PropagatorCache(g, Couplings(0.35, 0.45))
    generators = set(vars(cache)) - {"geometry", "couplings"}
    assert generators == {"_k", "_chain", "_right", "_diag", "_rows"}
    # the diagonal blocks are the largest: 16 complex numbers per row and
    # momentum, 128 L M bytes
    assert max(vars(cache)[name].nbytes for name in generators) == 128 * 8 * 6
    dense = cache.matrix
    assert "matrix" in vars(cache) and cache.matrix is dense


def _gather(kernel, geometry, zs, zps):
    """Site-pair blocks (P, 4, 4) of an offset kernel (2L - 1, 4M, 4M)."""
    L, M = geometry.L, geometry.M
    return kernel.reshape(2 * L - 1, M, 4, M, 4)[
        zs[:, 0] - zps[:, 0] + L - 1, zs[:, 1] - 1, :, zps[:, 1] - 1]


def _log_z_prefactor(geometry, beta, J1, J2):
    L, M = geometry.L, geometry.M
    return (L * M * math.log(2.0) + L * M * math.log(math.cosh(beta * J1))
            + L * (M - 1) * math.log(math.cosh(beta * J2)))


def _random_draw(rng):
    return (float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.3, 1.5)),
            float(rng.uniform(0.3, 1.5)))


def _log_pf_close(value, ref):
    # relative, with a floor of 1: on thin rings (M = 1) Pf A = 1 + O(t1^L)
    # and log|Pf A| itself is a roundoff-sized number
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ring_route_matches_parlett_reid_on_every_small_geometry():
    rng = np.random.default_rng(64)
    for L in range(2, 65, 2):
        for M in range(1, 64 // L + 1):
            g = CylinderGeometry(L, M)
            draw = _random_draw(rng)
            res = partition_function_log(g, *draw)
            sign, logabs = pfaffian_sign_logabs(
                build_action_matrix(g, Couplings.from_beta(*draw)))
            assert res.pf_sign == sign, (L, M)
            assert _log_pf_close(res.log_pf_abs, logabs), (L, M)
            ref_log_z = _log_z_prefactor(g, *draw) + logabs
            assert math.isclose(res.log_z, ref_log_z, rel_tol=1e-12), (L, M)


@pytest.mark.parametrize("L,M", [(2, 128), (256, 1), (16, 16), (8, 32), (64, 4)])
def test_ring_route_matches_slogdet(L, M):
    g = CylinderGeometry(L, M)
    draw = (0.45, 1.1, 0.8)
    res = partition_function_log(g, *draw)
    sign, logdet = np.linalg.slogdet(build_action_matrix(g, Couplings.from_beta(*draw)).dense())
    assert sign == 1.0
    assert _log_pf_close(res.log_pf_abs, 0.5 * logdet)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_row_sweep_matches_ring_block_slogdet(n):
    g = CylinderGeometry(n, n)
    for draw in ((0.4, 1.0, 0.9), (0.7, 1.3, 0.5), (ISOTROPIC_BETA, 1.0, 1.0)):
        res = partition_function_log(g, *draw)
        sign, log_pf = slogdet_log_pf(g, Couplings.from_beta(*draw))
        assert res.pf_sign == sign == 1.0, draw
        assert _log_pf_close(res.log_pf_abs, log_pf), draw
        ref = _log_z_prefactor(g, *draw) + log_pf
        assert abs(res.log_z - ref) <= 1e-12 * abs(ref), draw


def test_log_z_memory_is_linear_in_the_size():
    g = CylinderGeometry(256, 1024)
    tracemalloc.start()
    try:
        partition_function_log(g, 0.4, 1.0, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 2 x 2 and 4 x 4 blocks per momentum; one dense 4M x 4M ring
    # block alone would be 268 MB
    assert peak <= 64 * g.L * g.M


def test_log_z_memory_does_not_grow_with_the_height():
    # the transfer-matrix powers keep O(L) numbers at any M: a per-row
    # (M, L/2) complex array at M = 2^20 would be 2 GB
    g = CylinderGeometry(256, 1024)
    partition_function_log(g, 0.4, 1.0, 0.9)
    peaks = []
    for M in (1024, 2 ** 20):
        tracemalloc.start()
        try:
            partition_function_log(CylinderGeometry(256, M), 0.4, 1.0, 0.9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_log_z_runs_no_row_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("row Schur sweep on the log Z path")

    monkeypatch.setattr(exact, "_schur_sweep", forbidden)
    res = partition_function_log(CylinderGeometry(8, 5), 0.4, 1.0, 0.7)
    assert res.pf_sign == 1.0 and math.isfinite(res.log_z)
    with pytest.raises(AssertionError, match="row Schur sweep"):
        PropagatorCache(CylinderGeometry(8, 5), Couplings(0.35, 0.45))


# every cylinder this module runs log Z or the propagator on, and two
# larger ones
_MODULE_GEOMETRIES = sorted(
    {(L, M) for L in range(2, 65, 2) for M in range(1, 64 // L + 1)}
    | {(2, 1), (4, 2), (6, 3), (4, 3), (2, 128), (256, 1), (16, 16), (8, 32), (64, 4),
       (32, 32), (64, 64), (128, 128), (256, 1024), (16, 24), (8, 40), (24, 8), (2, 30),
       (8, 6), (6, 12), (2, 5), (6, 4), (8, 8), (12, 3), (8, 5), (64, 128), (64, 129),
       (256, 1025), (1024, 1024), (1024, 2048)})


def test_transfer_powers_match_the_row_sweep():
    t1 = 0.3
    draws = ((0.4, 1.0, 0.9), (0.7, 1.3, 0.5), (ISOTROPIC_BETA, 1.0, 1.0),
             (1.0, math.atanh(t1), math.atanh((1.0 - t1) / (1.0 + t1))))
    for L, M in _MODULE_GEOMETRIES:
        g = CylinderGeometry(L, M)
        for draw in draws:
            res = partition_function_log(g, *draw)
            sign, log_pf = sweep_log_pf(g, Couplings.from_beta(*draw))
            assert res.pf_sign == sign, (L, M, draw)
            assert abs(res.log_pf_abs - log_pf) <= 1e-14 * max(1.0, abs(log_pf)), (L, M, draw)


def test_right_sweep_is_the_left_sweep_reflected():
    # tau_j = -sigma_{M+1-j}, and the right Schur factors are the left
    # ones reversed (`exact` module docstring, "Inverse")
    for L, M in _MODULE_GEOMETRIES:
        g = CylinderGeometry(L, M)
        for cpl in (Couplings.isotropic_critical(), Couplings.from_beta(0.4, 1.0, 0.9)):
            x, y = exact.ring_blocks(g, cpl)
            p = np.linalg.inv(x + 1j * y)
            sigma, f = exact._schur_sweep(p, cpl.t2, M)
            tau = right_sweep(g, cpl)
            scale = np.max(np.abs(sigma))
            assert np.max(np.abs(tau + sigma[::-1])) <= 1e-12 * scale, (L, M, cpl)
            assert np.max(np.abs(1.0 + tau * p[:, Species.VBAR, Species.VBAR]
                                 - f[::-1])) <= 1e-12, (L, M, cpl)


@pytest.mark.parametrize("beta", [0.2, 0.4, 0.6])
def test_row_increment_is_onsager_free_energy_off_criticality(beta):
    # -beta f = log 2 + (1/2) (2 pi)^-1 int log[(a + sqrt(a^2 - b^2))/2] d theta,
    # a = cosh 2K1 cosh 2K2 - sinh 2K1 cos theta, b = sinh 2K2 (Onsager 1944):
    # off criticality the ring and boundary corrections to the row
    # increment decay exponentially.  The integrand is smooth and
    # periodic, so the trapezoid rule converges geometrically
    J1, J2, L = 1.0, 0.9, 1024
    K1, K2 = beta * J1, beta * J2
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    a = math.cosh(2 * K1) * math.cosh(2 * K2) - math.sinh(2 * K1) * np.cos(theta)
    b = math.sinh(2 * K2)
    bulk = math.log(2.0) + 0.5 * float(np.mean(np.log(0.5 * (a + np.sqrt(a * a - b * b)))))
    log_z = [partition_function_log(CylinderGeometry(L, M), beta, J1, J2).log_z for M in (64, 65)]
    assert abs((log_z[1] - log_z[0]) / L - bulk) <= 1e-13


def test_propagator_memory_is_linear_in_the_size():
    g = CylinderGeometry(256, 1024)
    rng = np.random.default_rng(256)
    zs, zps = (np.column_stack([rng.integers(1, g.L + 1, 10_000), rng.integers(1, g.M + 1, 10_000)])
               for _ in range(2))
    tracemalloc.start()
    try:
        blocks = PropagatorCache(g, Couplings.from_beta(0.4, 1.0, 0.9)).species_block(zs, zps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks.shape == (10_000, 4, 4) and np.all(np.isfinite(blocks))
    # a few stacks of 4 x 4 blocks per row and momentum; the dense
    # (2L - 1, 4M, 4M) offset kernel alone would be 69 GB
    assert peak <= 1024 * g.L * g.M


def test_propagator_cache_build_holds_few_stacks_of_row_inverses():
    # the anti-Hermitian projection runs in place: the build peaks below
    # 3.25 (M, L/2, 4, 4) complex stacks of G_jj (an out-of-place one reaches 3.9)
    g = CylinderGeometry(256, 256)
    cpl = Couplings.from_beta(0.4, 1.0, 0.9)
    PropagatorCache(CylinderGeometry(4, 4), cpl)
    tracemalloc.start()
    try:
        PropagatorCache(g, cpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * g.M * (g.L // 2) * 16 * 16


@pytest.mark.parametrize("L,M", [(16, 24), (8, 40), (24, 8), (2, 30)])
def test_propagator_kernel_matches_dense_ring_inverses(L, M):
    g = CylinderGeometry(L, M)
    sites = np.array(list(g.sites()))
    zs, zps = np.repeat(sites, len(sites), axis=0), np.tile(sites, (len(sites), 1))
    for cpl in (Couplings(0.35, 0.45), Couplings.isotropic_critical(),
                Couplings.from_beta(0.7, 1.0, 0.4), Couplings(0.9, 0.95)):
        blocks = PropagatorCache(g, cpl).species_block(zs, zps)
        ref = _gather(dense_ring_kernel(g, cpl), g, zs, zps)
        assert np.max(np.abs(blocks - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("L,M", [(2, 1), (4, 3), (8, 6), (6, 12)])
def test_cache_gate_bounds_the_singular_value_ratio(monkeypatch, L, M):
    # with the gate at 1 every block fails, and the error carries the
    # certified bound: between the true sigma_min / sigma_max and 1/(4M)
    # of it (||C||_1 <= sqrt(4M) ||C||_2, ||C^-1||_F <= sqrt(4M) ||C^-1||_2)
    g = CylinderGeometry(L, M)
    monkeypatch.setattr(exact, "PIVOT_TOL", 1.0)
    for cpl in (Couplings(0.35, 0.45), Couplings.isotropic_critical(), Couplings(0.9, 0.95)):
        x, y = full_ring_blocks(g, cpl, ring_momenta(L))
        c = x + 1j * y
        sv = np.linalg.svd(c, compute_uv=False)
        ratio = float(np.min(sv[:, -1] / sv[:, 0]))
        norm_1 = np.abs(c).sum(axis=1).max(axis=1)
        norm_f = np.linalg.norm(np.linalg.inv(c), axis=(1, 2))
        with pytest.raises(SingularSkewError) as info:
            PropagatorCache(g, cpl)
        assert math.isclose(info.value.pivot, np.min(1.0 / (norm_1 * norm_f)), rel_tol=1e-12)
        assert ratio / (4 * M) <= info.value.pivot <= ratio


@pytest.mark.parametrize("L,M", [(2, 1), (2, 5), (4, 3), (6, 4), (8, 8), (12, 3)])
def test_propagator_cache_matches_skew_inverse(L, M):
    g = CylinderGeometry(L, M)
    for cpl in (Couplings(0.35, 0.45), Couplings.isotropic_critical(),
                Couplings.from_beta(0.7, 1.0, 0.4)):
        m = PropagatorCache(g, cpl).matrix
        ref = -skew_inverse(build_action_matrix(g, cpl)).dense()
        assert np.max(np.abs(m - ref)) <= 1e-12
        assert np.max(np.abs(m + m.T)) == 0.0
        assert not m.flags.writeable


def test_propagator_cache_inverts_only_the_row_blocks(monkeypatch):
    # G_jj and r_j are rank-one updates of P = D_k^{-1}: the one LU
    # inverse is of the (L/2, 4, 4) stack of D_k
    shapes = []
    original = np.linalg.inv

    def inv(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    PropagatorCache(CylinderGeometry(8, 6), Couplings(0.35, 0.45))
    assert shapes == [(4, 4, 4)]


@pytest.mark.parametrize("L,M", [(2, 1), (4, 3), (8, 8), (64, 64)])
def test_diagonal_blocks_match_the_batched_inverse(L, M):
    g = CylinderGeometry(L, M)
    for cpl in (Couplings(0.35, 0.45), Couplings(0.9, 0.95), Couplings(0.38, 0.34),
                Couplings.isotropic_critical()):
        # the stored factor: -(2/L) times the anti-Hermitian part of G_jj
        ref = diagonal_blocks(g, cpl)
        ref = (-1.0 / L) * (ref - np.conjugate(np.swapaxes(ref, 2, 3)))
        diag = PropagatorCache(g, cpl)._diag.reshape(ref.shape)
        assert np.max(np.abs(diag - ref)) <= 1e-15 * np.max(np.abs(ref)), (L, M, cpl)


def test_zero_schur_factor_is_rejected(monkeypatch):
    original = exact._schur_sweep

    def sweep(p, t2, M):
        sigma, f = original(p, t2, M)
        f[1, 0] = 0.0
        return sigma, f

    monkeypatch.setattr(exact, "_schur_sweep", sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSkewError) as info:
            PropagatorCache(CylinderGeometry(4, 3), Couplings(0.35, 0.45))
    assert info.value.pivot == 0.0


def _with_singular_block(scale):
    """`ring_blocks` whose first block has row and column 0 scaled down."""
    original = exact.ring_blocks

    def blocks(geometry, couplings):
        x, y = original(geometry, couplings)
        for part in (x, y):
            part[0, 0, :] *= scale
            part[0, :, 0] *= scale
        return x, y

    return blocks


@pytest.mark.parametrize("scale", [0.0, 1e-14])
def test_singular_ring_block_is_rejected(monkeypatch, scale):
    g = CylinderGeometry(4, 3)
    cpl = Couplings(0.35, 0.45)
    monkeypatch.setattr(exact, "ring_blocks", _with_singular_block(scale))
    with pytest.raises(SingularSkewError) as info:
        PropagatorCache(g, cpl)
    assert info.value.pivot < 1e-12
    if scale == 0.0:
        with pytest.raises(ArithmeticError):
            partition_function_log(g, 0.4, 1.0, 1.0)


def test_non_hermitian_ring_block_trips_the_defect_gate(monkeypatch):
    # an asymmetric Y_k makes i C_k non-Hermitian, so the diagonal blocks
    # of its inverse leave the anti-Hermitian subspace by far more than roundoff
    original = exact.ring_blocks

    def blocks(geometry, couplings):
        x, y = original(geometry, couplings)
        return x, y + 1e-3 * np.triu(np.ones((4, 4)), 1)

    monkeypatch.setattr(exact, "ring_blocks", blocks)
    with pytest.raises(AssertionError, match="symmetrization defect"):
        PropagatorCache(CylinderGeometry(4, 3), Couplings(0.35, 0.45))


def test_ring_route_runs_no_elimination_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense elimination on the ring-block path")

    monkeypatch.setattr(skew, "_parlett_reid_sweep", forbidden)
    monkeypatch.setattr(exact, "_parlett_reid_sweep", forbidden, raising=False)
    monkeypatch.setattr(np, "block", forbidden)
    g = CylinderGeometry(8, 5)
    res = partition_function_log(g, 0.4, 1.0, 0.7)
    assert res.pf_sign == 1.0 and math.isfinite(res.log_z)
    PropagatorCache(g, Couplings(0.35, 0.45))


def _with_rotated_blocks(theta):
    """`ring_blocks` whose X_k + i Y_k are all multiplied by e^{i theta}."""
    original = exact.ring_blocks

    def blocks(geometry, couplings):
        x, y = original(geometry, couplings)
        c, s = math.cos(theta), math.sin(theta)
        return c * x - s * y, s * x + c * y

    return blocks


def test_imaginary_ring_determinant_trips_the_phase_gate(monkeypatch):
    g = CylinderGeometry(4, 3)
    # det(e^{i theta} D_k) = e^{4i theta} det D_k: 30 degrees off the real axis
    monkeypatch.setattr(exact, "ring_blocks", _with_rotated_blocks(math.pi / (2 * 4 * g.M)))
    with pytest.raises(AssertionError, match="phase"):
        partition_function_log(g, 0.4, 1.0, 1.0)


def test_imaginary_schur_factor_trips_the_phase_gate(monkeypatch):
    # det(e^{i pi/4} D_k) = -det D_k stays real, but the rotated rows make
    # every Schur factor f_j with j > 1 leave the real axis
    g = CylinderGeometry(4, 3)
    rotated = _with_rotated_blocks(math.pi / 4)
    x, y = rotated(g, Couplings.from_beta(0.4, 1.0, 1.0))
    det = np.linalg.det(x + 1j * y)
    assert np.max(np.abs(det.imag) / np.abs(det)) <= 1e-14
    monkeypatch.setattr(exact, "ring_blocks", rotated)
    with pytest.raises(AssertionError, match="phase"):
        partition_function_log(g, 0.4, 1.0, 1.0)


@pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 40])
def test_real_block_pfaffian_is_complex_determinant(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        a, b = rng.normal(size=(2, n, n))
        x, y = a - a.T, b + b.T
        sign, logabs = pfaffian_sign_logabs(np.block([[x, y], [-y, x]]))
        det = np.linalg.det(x + 1j * y)
        pf = sign * math.exp(logabs)
        assert abs(det - pf) <= 1e-12 * abs(pf)


def _series_kernel(y, L, t1):
    """The antiperiodized series term by term, cut once t1^(y + nL) < 1e-30.

    Summed in 40-digit decimal arithmetic: in double precision the sum of
    ~3,400 alternating terms at t1 = 0.99, L = 2 carries 2.6e-15 relative
    rounding of its own.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = decimal.Decimal(t1)
        total = decimal.Decimal(0)
        n = math.ceil(-y / L)
        while True:
            yy = y + n * L
            total += (-t) ** yy if n % 2 == 0 else -(-t) ** yy
            if t1 ** yy < 1e-30:
                break
            n += 1
        return float(total)


@pytest.mark.parametrize("t1", [0.01, 0.2, math.sqrt(2.0) - 1.0, 0.5, 0.9, 0.99])
def test_horizontal_kernel_closed_form_matches_series(t1):
    for L in (2, 4, 8, 64):
        for y in range(-2 * L, 2 * L + 1):
            ref = _series_kernel(y, L, t1)
            assert abs(horizontal_kernel(y, L, t1) - ref) <= 1e-15 * abs(ref), (L, y)


def test_horizontal_kernel_antiperiodic_wrap():
    L, t1 = 8, 0.4
    for y in range(-L, L + 1):
        assert math.isclose(horizontal_kernel(y + L, L, t1),
                            -horizontal_kernel(y, L, t1),
                            rel_tol=0, abs_tol=1e-15)


def test_horizontal_kernel_approaches_infinite_volume():
    t1 = 0.3
    for y in (0, 1, 2, 3):
        finite = horizontal_kernel(y, 64, t1)
        infinite = horizontal_kernel_infinite(y, t1)
        assert abs(finite - infinite) < 2.0 * t1 ** (64 - abs(y))


def test_massive_propagator_structure():
    g = CylinderGeometry(6, 4)
    c = Couplings.isotropic_critical()
    z = (2, 2)
    blk = massive_propagator(g, c, z, z)
    # on-site block is purely off-diagonal
    assert blk[0, 0] == 0.0 and blk[1, 1] == 0.0
    assert blk[0, 1] != 0.0 and blk[1, 0] != 0.0
    # vertical displacement kills it entirely (delta in z2)
    off = massive_propagator(g, c, z, (4, 3))
    assert np.max(np.abs(off)) == 0.0


def test_casimir_amplitude_of_log_z_at_isotropic_criticality():
    # Adding a row to a long antiperiodic cylinder of circumference L adds
    # L f_b + pi c / (6 L) to log Z, with c = 1/2 and the critical bulk free
    # energy f_b = log(2)/2 + 2G/pi (Blote, Cardy & Nightingale 1986;
    # Affleck 1986; Onsager 1944); the boundary terms cancel in the step.
    catalan = 0.915965594177219015054603514932384110774
    f_b = 0.5 * math.log(2.0) + 2.0 * catalan / math.pi
    beta = 0.5 * math.log(1.0 + math.sqrt(2.0))
    L = 64
    log_z = [partition_function_log(CylinderGeometry(L, M), beta, 1.0, 1.0).log_z
             for M in (128, 129)]
    amplitude = L * (log_z[1] - log_z[0] - L * f_b)
    assert abs(amplitude - math.pi / 12.0) <= 1e-4


def test_casimir_amplitude_at_circumference_256():
    # the same step at L = 256, where the O(L^-2) lattice correction is
    # about 2e-6.  The cylinder is four circumferences long: at two
    # (M = 512) the step still carries a finite-aspect correction of
    # -2.1e-5 that does not shrink with L
    catalan = 0.915965594177219015054603514932384110774
    f_b = 0.5 * math.log(2.0) + 2.0 * catalan / math.pi
    L = 256
    log_z = [partition_function_log(CylinderGeometry(L, M), ISOTROPIC_BETA, 1.0, 1.0).log_z
             for M in (1024, 1025)]
    amplitude = L * (log_z[1] - log_z[0] - L * f_b)
    assert abs(amplitude - math.pi / 12.0) <= 1e-5
