"""Momentum-space solution: roots, symbols, and the critical propagator."""

import math

import numpy as np
import pytest

from isingcyl import spectral
from isingcyl.exact import Couplings, PropagatorCache
from isingcyl.lattice import CylinderGeometry
from isingcyl.multiscale import scale_weight, tail_weight
from isingcyl.spectral import (
    ROOT_TOL,
    SpectralData,
    antiperiodic_momenta,
    b_of_k1,
    b_of_k1_critical_form,
    critical_propagator,
    dispersion,
    mode_normalization,
    mode_normalization_ratio_form,
    mode_sum,
    spectral_data,
    symbol_entries,
    transverse_roots,
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
                spec = critical_propagator(g, cpl, z, zp).matrix
                dense = cache.vertical_block(z, zp)
                worst = max(worst, float(np.max(np.abs(spec - dense))))
        assert worst < 1e-10


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
    a = critical_propagator(g, ISO, z, zp).matrix
    b = critical_propagator(g, ISO, zp, z).matrix
    assert np.max(np.abs(a + b.T)) < 1e-12


def test_forward_difference_derivative_labels():
    g = CylinderGeometry(6, 4)
    z, zp = (2, 2), (4, 3)
    plain = critical_propagator(g, ISO, z, zp).matrix
    shifted = critical_propagator(g, ISO, (3, 2), zp).matrix
    deriv = critical_propagator(g, ISO, z, zp, deriv_z=(1, 0)).matrix
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
    single = critical_propagator(g, ISO, (2, 3), (6, 1)).matrix
    assert np.max(np.abs(blocks[1] - single)) <= 1e-14
    assert critical_propagator(g, ISO, np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="extended lattice"):
        critical_propagator(g, ISO, [(1, 1), (2, 6)], [(4, 4), (6, 1)])


@pytest.mark.parametrize("M", [128, 256])
@pytest.mark.parametrize("t1", [math.sqrt(2.0) - 1.0, 0.5, 0.2])
def test_root_certificate_holds_at_large_M(M, t1):
    data = SpectralData(CylinderGeometry(8, M), Couplings.critical_from_t1(t1))
    assert data.roots.shape == (8, M)


@pytest.mark.parametrize("M", [8, 256])
def test_root_certificate_rejects_perturbed_root(monkeypatch, M):
    exact_roots = spectral.transverse_roots

    def perturbed(B, M):
        k = exact_roots(B, M).copy()
        k[M // 2] += 64.0 * np.finfo(float).eps * np.pi   # still inside its bracket
        return k

    monkeypatch.setattr(spectral, "transverse_roots", perturbed)
    with pytest.raises(AssertionError, match="forward error"):
        SpectralData(CylinderGeometry(8, M), ISO)
    assert 64.0 * np.finfo(float).eps * np.pi > ROOT_TOL
