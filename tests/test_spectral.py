"""Momentum-space solution: roots, symbols, and the critical propagator."""

import math

import numpy as np
import pytest

from isingcyl import exact, multiscale, spectral
from isingcyl.exact import Couplings, PropagatorCache
from isingcyl.lattice import CylinderGeometry
from isingcyl.multiscale import scale_weight, tail_weight
from isingcyl.spectral import (
    ROOT_TOL,
    SIGMA,
    SpectralData,
    antiperiodic_momenta,
    b_of_k1,
    critical_propagator,
    dispersion,
    mode_normalization,
    mode_sum,
    spectral_data,
    symbol_entries,
    transverse_roots,
)
from oracles import (
    b_of_k1_critical_form,
    bisection_roots,
    full_mode_sum,
    full_mode_tables,
    full_modes,
    mode_normalization_ratio_form,
    unfold,
)

ISO = Couplings.isotropic_critical()


def test_antiperiodic_momenta():
    ks = antiperiodic_momenta(8)
    assert len(ks) == 8
    for m, k in zip(range(-3, 5), ks):
        assert math.isclose(k, math.pi * (2 * m - 1) / 8)
    # symmetric under negation, never hitting the massless point k = 0
    assert np.allclose(sorted(-ks), ks)
    assert all(abs(k) > 1e-12 and abs(abs(k) - math.pi) > 1e-12 for k in ks)


def test_b_of_k1_even_and_positive():
    for cpl in (ISO, Couplings.critical_from_t1(0.35)):
        for k1 in np.linspace(-math.pi, math.pi, 17):
            b = b_of_k1(k1, cpl)
            assert b > 0
            assert math.isclose(b, b_of_k1(-k1, cpl), rel_tol=1e-14)
            assert math.isclose(b, b_of_k1_critical_form(k1, cpl),
                                rel_tol=1e-12)


@pytest.mark.parametrize("M", [1, 2, 5, 9])
def test_transverse_roots_count_and_equation(M):
    B = b_of_k1(0.7, ISO)
    roots = transverse_roots(B, M)
    assert len(roots) == M
    assert all(0.0 < q < math.pi for q in roots)
    assert all(roots[i] < roots[i + 1] for i in range(M - 1))
    for q in roots:
        lhs = math.sin(q * (M + 1))
        rhs = B * math.sin(q * M)
        assert abs(lhs - rhs) < 1e-12


def test_mode_normalization_forms_agree():
    B = b_of_k1(1.1, ISO)
    for q in transverse_roots(B, 6):
        direct = mode_normalization(B, 6, q)
        ratio = mode_normalization_ratio_form(B, 6, q)
        assert math.isclose(direct, ratio, rel_tol=1e-10)
        assert direct > 0


def test_dispersion_vanishes_only_at_origin():
    assert dispersion(ISO, 0.0, 0.0) == 0.0
    for k1, k2 in [(0.1, 0.0), (0.0, 0.2), (math.pi, math.pi)]:
        assert dispersion(ISO, k1, k2) > 0


def test_symbol_antisymmetry_pattern():
    # the diagonal entries are odd in k1, the off-diagonal pair swaps
    # under k2 -> -k2 up to the root phase; here just the k1 parity
    gpp, gpm, gmp, gmm = symbol_entries(ISO, 0.8, 1.3)
    rpp, rpm, rmp, rmm = symbol_entries(ISO, -0.8, 1.3)
    assert np.isclose(gpp, -rpp)
    assert np.isclose(gmm, -rmm)
    assert np.isclose(gpm, rpm)


def test_critical_propagator_matches_dense_inverse():
    g = CylinderGeometry(6, 4)
    for cpl in (ISO, Couplings.critical_from_t1(0.5)):
        cache = PropagatorCache(g, cpl)
        worst = 0.0
        for z in g.sites():
            for zp in g.sites():
                spec = critical_propagator(g, cpl, z, zp)
                dense = cache.vertical_block(z, zp)
                worst = max(worst, float(np.max(np.abs(spec - dense))))
        assert worst < 1e-10


@pytest.mark.parametrize("cpl", [ISO, Couplings.critical_from_t1(0.5)])
def test_dense_batch_route_matches_critical_propagator_at_32(cpl):
    g = CylinderGeometry(32, 32)
    rng = np.random.default_rng(32)
    zs, zps = (rng.integers(1, 33, size=(600, 2)) for _ in range(2))
    dense = exact.dense_propagator(g, cpl, zs, zps)
    spectral = critical_propagator(g, cpl, zs, zps)
    assert dense.shape == spectral.shape == (600, 2, 2)
    assert np.max(np.abs(dense - spectral)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("cpl", [ISO, Couplings.critical_from_t1(0.5)])
def test_dense_batch_route_matches_critical_propagator_at_size(cpl, n):
    # the dense route's generators are O(L M): no 4LM x 4LM array at 256^2
    g = CylinderGeometry(n, n)
    rng = np.random.default_rng(n)
    zs, zps = (rng.integers(1, n + 1, size=(2000, 2)) for _ in range(2))
    dense = exact.dense_propagator(g, cpl, zs, zps)
    spectral = critical_propagator(g, cpl, zs, zps)
    assert np.max(np.abs(dense - spectral)) <= 1e-12 * np.max(np.abs(dense))


def test_boundary_rows_vanish():
    g = CylinderGeometry(8, 5)
    data = spectral_data(g, ISO)
    for zp in [(1, 1), (5, 3), (8, 5)]:
        bottom = mode_sum(data, (3, 0), zp)
        assert abs(bottom[0, 0]) < 1e-12 and abs(bottom[0, 1]) < 1e-12
        top = mode_sum(data, (3, g.M + 1), zp)
        assert abs(top[1, 0]) < 1e-12 and abs(top[1, 1]) < 1e-12


def test_propagator_antisymmetry_under_swap():
    g = CylinderGeometry(6, 3)
    z, zp = (2, 1), (5, 3)
    a = critical_propagator(g, ISO, z, zp)
    b = critical_propagator(g, ISO, zp, z)
    assert np.max(np.abs(a + b.T)) < 1e-12


def test_forward_difference_derivative_labels():
    g = CylinderGeometry(6, 4)
    z, zp = (2, 2), (4, 3)
    plain = critical_propagator(g, ISO, z, zp)
    shifted = critical_propagator(g, ISO, (3, 2), zp)
    deriv = critical_propagator(g, ISO, z, zp, deriv_z=(1, 0))
    assert np.max(np.abs(deriv - (shifted - plain))) < 1e-10


@pytest.mark.parametrize("L,M,t1", [(8, 5, None), (32, 32, 0.5)])
def test_batch_equals_batches_of_one(L, M, t1):
    g = CylinderGeometry(L, M)
    cpl = ISO if t1 is None else Couplings.critical_from_t1(t1)
    data = spectral_data(g, cpl)
    rng = np.random.default_rng(7)
    # vertical coordinates include the extended rows 0 and M + 1
    z = np.column_stack([rng.integers(1, L + 1, 40), rng.integers(0, M + 2, 40)])
    zp = np.column_stack([rng.integers(1, L + 1, 40), rng.integers(0, M + 2, 40)])
    weights = [None, scale_weight(-1, data.D), scale_weight(-2, data.D),
               tail_weight(-2, data.D)]
    orders = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (1, 1)), ((2, 1), (0, 2))]
    for weight in weights:
        for dz, dzp in orders:
            batch = mode_sum(data, z, zp, weight, dz, dzp)
            assert batch.shape == (len(z), 2, 2)
            ones = np.array([mode_sum(data, tuple(a), tuple(b), weight, dz, dzp)
                             for a, b in zip(z.tolist(), zp.tolist())])
            assert np.max(np.abs(batch - ones)) <= 1e-14


def test_batch_propagator_shapes_and_site_check():
    g = CylinderGeometry(6, 4)
    blocks = critical_propagator(g, ISO, [(1, 1), (2, 3)], [(4, 4), (6, 1)])
    assert blocks.shape == (2, 2, 2)
    single = critical_propagator(g, ISO, (2, 3), (6, 1))
    assert np.max(np.abs(blocks[1] - single)) <= 1e-14
    assert critical_propagator(g, ISO, np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="extended lattice"):
        critical_propagator(g, ISO, [(1, 1), (2, 6)], [(4, 4), (6, 1)])


@pytest.mark.parametrize("route", [
    critical_propagator,
    lambda g, c, z, zp: multiscale.single_scale_propagator(g, c, -1, z, zp),
    lambda g, c, z, zp: multiscale.tail_propagator(g, c, -2, z, zp),
    exact.dense_propagator,
    exact.massive_propagator,
], ids=["critical", "single_scale", "tail", "dense", "massive"])
def test_single_pair_is_a_row_of_its_batch(route):
    g = CylinderGeometry(8, 6)
    zs = [(1, 1), (2, 3), (8, 6), (5, 3)]
    zps = [(4, 4), (6, 3), (1, 1), (2, 3)]
    batch = route(g, ISO, zs, zps)
    assert type(batch) is np.ndarray and batch.dtype == float
    assert batch.shape == (len(zs), 2, 2)
    for p, (z, zp) in enumerate(zip(zs, zps)):
        single = route(g, ISO, z, zp)
        assert type(single) is np.ndarray and single.dtype == float
        assert single.shape == (2, 2)
        assert np.max(np.abs(single - batch[p])) <= 1e-14


@pytest.mark.parametrize("M", [128, 256])
@pytest.mark.parametrize("t1", [math.sqrt(2.0) - 1.0, 0.5, 0.2])
def test_root_certificate_holds_at_large_M(M, t1):
    data = SpectralData(CylinderGeometry(8, M), Couplings.critical_from_t1(t1))
    assert data.roots.shape == (4, M)


@pytest.mark.parametrize("M", [8, 256])
def test_root_certificate_rejects_perturbed_root(monkeypatch, M):
    exact_roots = spectral.transverse_roots

    def perturbed(B, M):
        k = exact_roots(B, M).copy()
        k[-1, M // 2] += 64.0 * np.finfo(float).eps * np.pi   # still inside its bracket
        return k

    monkeypatch.setattr(spectral, "transverse_roots", perturbed)
    with pytest.raises(AssertionError, match="forward error"):
        SpectralData(CylinderGeometry(8, M), ISO)
    assert 64.0 * np.finfo(float).eps * np.pi > ROOT_TOL


def test_root_certificate_rejects_root_in_wrong_bracket(monkeypatch):
    exact_roots = spectral.transverse_roots

    def shifted(B, M):
        k = exact_roots(B, M).copy()
        k[2, 3] = k[2, 4]   # a true root, one bracket too high
        return k

    monkeypatch.setattr(spectral, "transverse_roots", shifted)
    with pytest.raises(AssertionError, match="bracketing interval"):
        SpectralData(CylinderGeometry(8, 16), ISO)


@pytest.mark.parametrize("M", [3, 8, 64])
def test_root_certificate_rejects_root_nudged_onto_pi(monkeypatch, M):
    # k2 = pi solves sin(k2 (M+1)) = B sin(k2 M) spuriously, so the forward
    # error cannot catch it; the top bracket ends pi/(M+1) below pi
    exact_roots = spectral.transverse_roots

    def onto_pi(B, M):
        k = exact_roots(B, M).copy()
        k[1, -1] = np.pi
        return k

    monkeypatch.setattr(spectral, "transverse_roots", onto_pi)
    with pytest.raises(AssertionError, match="bracketing interval"):
        SpectralData(CylinderGeometry(8, M), ISO)


@pytest.mark.parametrize("M", [4, 256, 2048])
def test_normalization_gate_is_relative_to_n_m(monkeypatch, M):
    # the relative gate passes at every size and catches a 1e-8 relative error
    SpectralData(CylinderGeometry(4, M), Couplings.critical_from_t1(0.3))
    exact_norm = spectral.mode_normalization
    monkeypatch.setattr(spectral, "mode_normalization",
                        lambda B, M, k2: exact_norm(B, M, k2) * (1.0 + 1e-8))
    with pytest.raises(AssertionError, match="N_M formulas disagree"):
        SpectralData(CylinderGeometry(4, M), Couplings.critical_from_t1(0.3))


@pytest.mark.parametrize("M", [1, 2, 3, 64, 1024])
def test_array_roots_match_bisection_oracle(M):
    Bs = np.array([1e-6, 0.3, 1.0 - 1e-6, 1.0])
    roots = transverse_roots(Bs, M)
    assert roots.shape == (len(Bs), M)
    for B, row in zip(Bs, roots):
        # an absolute bound: near k = 0 one ulp is tiny, and the two solvers
        # differ there by up to ~150 ulp (at M = 1024, B -> 1), still < 1e-15
        assert np.max(np.abs(row - bisection_roots(B, M))) <= 4.0 * np.finfo(float).eps * np.pi
        assert np.array_equal(transverse_roots(B, M), row)


def test_roots_reject_b_outside_unit_interval():
    for B in (0.0, -0.5, 1.5, [0.3, 1.2]):
        with pytest.raises(ValueError, match="B must lie in"):
            transverse_roots(B, 4)


def test_spectral_rows_are_the_roots_at_positive_k1():
    cpl = Couplings.critical_from_t1(0.3)
    data = spectral_data(CylinderGeometry(12, 7), cpl)
    assert np.array_equal(data.k1, antiperiodic_momenta(12)[6:]) and np.all(data.k1 > 0)
    assert np.array_equal(data.roots, transverse_roots(b_of_k1(data.k1, cpl), 7))
    assert np.array_equal(data.norms, mode_normalization(data.B[:, None], 7, data.roots))


@pytest.mark.parametrize("L,M,t1", [(8, 5, None), (32, 32, 0.5)])
def test_weight_stack_equals_separate_calls(L, M, t1):
    g = CylinderGeometry(L, M)
    cpl = ISO if t1 is None else Couplings.critical_from_t1(t1)
    data = spectral_data(g, cpl)
    rng = np.random.default_rng(11)
    z = np.column_stack([rng.integers(1, L + 1, 30), rng.integers(0, M + 2, 30)])
    zp = np.column_stack([rng.integers(1, L + 1, 30), rng.integers(0, M + 2, 30)])
    stack = np.stack([scale_weight(-1, data.D), scale_weight(0, data.D),
                      tail_weight(-2, data.D), np.ones_like(data.D)])
    for dz, dzp in [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 1), (0, 2))]:
        both = mode_sum(data, z, zp, stack, dz, dzp)
        assert both.shape == (len(stack), len(z), 2, 2)
        ones = np.array([mode_sum(data, z, zp, w, dz, dzp) for w in stack])
        assert np.max(np.abs(both - ones)) <= 1e-15 * np.max(np.abs(ones))
        a, b = tuple(z[3]), tuple(zp[3])
        single = mode_sum(data, a, b, stack, dz, dzp)
        assert single.shape == (len(stack), 2, 2)
        ones = np.array([mode_sum(data, a, b, w, dz, dzp) for w in stack])
        assert np.max(np.abs(single - ones)) <= 1e-15 * np.max(np.abs(ones))


QUARTER_CASES = [(8, 5, None), (12, 7, 0.3), (32, 32, 0.5)]


def _case(L, M, t1):
    return CylinderGeometry(L, M), ISO if t1 is None else Couplings.critical_from_t1(t1)


@pytest.mark.parametrize("L,M,t1", QUARTER_CASES)
def test_quarter_sum_matches_full_mode_oracle(L, M, t1):
    g, cpl = _case(L, M, t1)
    data = spectral_data(g, cpl)
    rng = np.random.default_rng(15)
    z = np.column_stack([rng.integers(1, L + 1, 30), rng.integers(1, M + 1, 30)])
    zp = np.column_stack([rng.integers(1, L + 1, 30), rng.integers(1, M + 1, 30)])
    # the extended rows 0 and M + 1 in both arguments
    z[:4, 1], zp[4:8, 1] = [0, M + 1, 0, M + 1], [M + 1, 0, M + 1, 0]
    stack = np.stack([scale_weight(-1, data.D), scale_weight(0, data.D),
                      tail_weight(-2, data.D)])
    orders = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (1, 1)), ((2, 1), (0, 2))]
    for weight in (None, stack[0], stack):
        for dz, dzp in orders:
            full = full_mode_sum(data, z, zp, weight, dz, dzp)
            # errors relative to the largest block entry of the batch
            bound = 1e-13 * np.max(np.abs(full))
            quarter = mode_sum(data, z, zp, weight, dz, dzp)
            assert quarter.shape == full.shape and quarter.dtype == np.float64
            assert np.max(np.abs(quarter - full)) <= bound
            single = mode_sum(data, tuple(z[5]), tuple(zp[5]), weight, dz, dzp)
            assert np.max(np.abs(single - full[..., 5, :, :])) <= bound


@pytest.mark.parametrize("L,M,t1", QUARTER_CASES)
def test_single_pair_route_matches_the_batched_route(L, M, t1):
    # one pair is summed mode by mode, a batch per distinct offset: the
    # two orders agree to roundoff of the a priori size of the sum,
    # 4 * 2^(derivative orders) * sum of w (|trans| + |image|) per weight
    # (near the open boundary the block itself can be 1e-4 of that)
    g, cpl = _case(L, M, t1)
    data = spectral_data(g, cpl)
    rng = np.random.default_rng(23)
    z = np.column_stack([rng.integers(1, L + 1, 12), rng.integers(0, M + 2, 12)])
    zp = np.column_stack([rng.integers(1, L + 1, 12), rng.integers(0, M + 2, 12)])
    z[:2, 1], zp[2:4, 1] = [0, M + 1], [M + 1, 0]
    stack = np.stack([scale_weight(h, data.D) for h in multiscale.scale_indices(g)])
    magnitude = np.abs(data.trans).sum(axis=-1) + np.abs(data.image).sum(axis=-1)
    orders = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (1, 1)), ((2, 0), (0, 2))]
    for weight in (None, stack[1], stack):
        size = np.sum((1.0 if weight is None else weight) * magnitude, axis=(-2, -1))
        for dz, dzp in orders:
            batch = mode_sum(data, z, zp, weight, dz, dzp)
            bound = 1e-14 * 4.0 * 2.0 ** (sum(dz) + sum(dzp)) * size
            for p in range(len(z)):
                single = mode_sum(data, tuple(z[p]), tuple(zp[p]), weight, dz, dzp)
                assert single.shape == batch[..., p, :, :].shape
                err = np.max(np.abs(single - batch[..., p, :, :]), axis=(-2, -1))
                assert np.all(err <= bound)
                # a batch of one pair takes the same route
                one = mode_sum(data, z[p:p + 1], zp[p:p + 1], weight, dz, dzp)
                assert np.array_equal(one[..., 0, :, :], single)


@pytest.mark.parametrize("L,M,t1", QUARTER_CASES)
def test_tables_live_on_the_quarter(L, M, t1):
    g, cpl = _case(L, M, t1)
    data = SpectralData(g, cpl)
    assert data.trans.shape == data.image.shape == (L // 2, M, 4)
    assert data.D.shape == (L // 2, M)
    assert data.n_modes == L * M
    mode_sum(data, [(1, 1), (2, 3)], [(3, 2), (L, M)], scale_weight(-1, data.D), (1, 0))
    multiscale.gram_report(g, cpl, [-1], n_pairs=4)
    # only the L/2 rows k1 > 0, not even an (L, 2M) array for the Gram rows
    assert all(np.shape(v)[:1] == (L // 2,) for v in vars(data).values()
               if isinstance(v, np.ndarray))
    trans, image = full_mode_tables(data)
    for quarter, full in ((data.trans, trans), (data.image, image)):
        assert np.max(np.abs(unfold(quarter, SIGMA) - full)) <= 1e-14 * np.max(np.abs(full))


def test_unfold_extends_even_functions_exactly():
    data = spectral_data(CylinderGeometry(12, 7), Couplings.critical_from_t1(0.3))
    k1, q2, _ = full_modes(data)
    assert np.array_equal(unfold(data.D), dispersion(data.couplings, k1, q2))


@pytest.mark.parametrize("L,M,t1", QUARTER_CASES)
def test_every_two_point_route_returns_float64_blocks(L, M, t1):
    g, cpl = _case(L, M, t1)
    data = spectral_data(g, cpl)
    zs, zps = [(1, 1), (2, 3), (L, M)], [(L, 2), (1, M), (2, 1)]
    stack = np.stack([scale_weight(-1, data.D), tail_weight(-1, data.D)])
    results = [
        (mode_sum(data, zs[0], zps[0]), (2, 2)),
        (mode_sum(data, zs, zps), (3, 2, 2)),
        (mode_sum(data, zs[0], zps[0], stack), (2, 2, 2)),
        (mode_sum(data, zs, zps, stack, (1, 1), (0, 2)), (2, 3, 2, 2)),
        (critical_propagator(g, cpl, zs, zps), (3, 2, 2)),
        (multiscale.single_scale_propagator(g, cpl, -1, zs, zps, (1, 0)), (3, 2, 2)),
        (multiscale.tail_propagator(g, cpl, -1, zs[0], zps[0]), (2, 2)),
        (multiscale.telescoping_residual(g, cpl, zs, zps), (3,)),
        *((part, (3, 2, 2)) for part in multiscale.bulk_edge_split(g, cpl, -1, zs, zps)),
    ]
    for value, shape in results:
        assert type(value) is np.ndarray and value.dtype == np.float64
        assert value.shape == shape


@pytest.mark.parametrize("L,M,t1", QUARTER_CASES)
def test_table_weights_are_bit_identical(L, M, t1):
    g, cpl = _case(L, M, t1)
    data = spectral_data(g, cpl)
    hs = multiscale.scale_indices(g)
    z, zp = [(1, 1), (2, M), (L, 0)], [(L, M), (3, 2), (1, M + 1)]
    for h in hs:
        assert np.array_equal(multiscale._weight(g, cpl, h), scale_weight(h, data.D))
        assert np.array_equal(multiscale._weight(g, cpl, h, True), tail_weight(h, data.D))
        assert np.array_equal(multiscale.single_scale_propagator(g, cpl, h, z, zp, (0, 1)),
                              mode_sum(data, z, zp, scale_weight(h, data.D), (0, 1)))
        assert np.array_equal(multiscale.tail_propagator(g, cpl, h, z[0], zp[0]),
                              mode_sum(data, z[0], zp[0], tail_weight(h, data.D)))
        ladder = np.stack([tail_weight(h, data.D)]
                          + [scale_weight(j, data.D) for j in range(h + 1, 1)]
                          + [np.ones_like(data.D)])
        *pieces, full = mode_sum(data, z, zp, ladder)
        resid = np.max(np.abs(sum(pieces) - full), axis=(-2, -1))
        assert np.array_equal(multiscale.telescoping_residual(g, cpl, z, zp, h), resid)
    with pytest.raises(ValueError, match="outside"):
        multiscale._weight(g, cpl, hs[0] - 1)
