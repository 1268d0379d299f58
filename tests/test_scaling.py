"""Continuum cylinder propagator and the lattice-to-continuum sweep."""

import math

import numpy as np
import pytest

from isingcyl.energy import scal_energy_correlation
from isingcyl.exact import Couplings
from isingcyl.scaling import ContinuumCylinder, cylinder_scal_block, scaling_remainder_records
from oracles import fourier_profile_check, g_scal, plane_scal_block, rescaling_residual

ISO = Couplings.isotropic_critical()
CYL = ContinuumCylinder(1.0, 1.0)


def test_plane_limit_closed_form():
    # the plane limit is -z1 / (2 pi t2 (1 - t2) |z|^2) on the diagonal
    norm = 2.0 * math.pi * ISO.t2 * (1.0 - ISO.t2)
    for z1, z2 in [(1.0, 0.0), (0.5, 0.5), (-0.3, 1.1)]:
        expected = -z1 / (norm * (z1 * z1 + z2 * z2))
        assert math.isclose(g_scal(ISO, z1, z2), expected, rel_tol=1e-14)


def test_plane_block_antisymmetry_structure():
    blk = plane_scal_block(ISO, 0.4, 0.7)
    swap = plane_scal_block(ISO, -0.4, -0.7)
    assert np.max(np.abs(blk + swap.T)) < 1e-13


def test_continuum_cylinder_validation():
    with pytest.raises(ValueError):
        ContinuumCylinder(0.0, 1.0)
    with pytest.raises(ValueError):
        ContinuumCylinder(1.0, -2.0)


@pytest.mark.parametrize("a", [1e-320, math.nan, math.inf])
def test_non_finite_or_overflowing_mesh_is_a_value_error(a):
    # 1/1e-320 overflows a double; nan and inf are no mesh at all
    message = "too fine" if a == 1e-320 else "positive and finite"
    with pytest.raises(ValueError, match=message):
        CYL.lattice_sizes(a)
    with pytest.raises(ValueError, match=message):
        CYL.lattice_geometry(a)
    with pytest.raises(ValueError, match=message):
        scaling_remainder_records(CYL, ISO, [((0.3, 0.3), (0.6, 0.6))], meshes=(a, 1 / 8))


def test_lattice_embedding():
    geo = CYL.lattice_geometry(1.0 / 16.0)
    assert (geo.L, geo.M) == (16, 16)
    assert CYL.lattice_site(1.0 / 16.0, (5.0 / 16.0, 6.0 / 16.0)) == (5, 6)
    # continuum points off the grid floor down
    assert CYL.lattice_site(1.0 / 16.0, (0.33, 0.99)) == (5, 15)


def test_cylinder_block_antisymmetric_under_swap():
    z, zp = (0.3125, 0.375), (0.6875, 0.625)
    a = cylinder_scal_block(CYL, ISO, z, zp)
    b = cylinder_scal_block(CYL, ISO, zp, z)
    assert np.max(np.abs(a + b.T)) < 1e-13


def test_cylinder_block_boundary_pattern():
    # rows with the + component die at the bottom edge, - at the top
    zp = (0.5, 0.5)
    bottom = cylinder_scal_block(CYL, ISO, (0.25, 0.0), zp)
    assert abs(bottom[0, 0]) < 1e-13 and abs(bottom[0, 1]) < 1e-13
    top = cylinder_scal_block(CYL, ISO, (0.25, 1.0), zp)
    assert abs(top[1, 0]) < 1e-13 and abs(top[1, 1]) < 1e-13


@pytest.mark.parametrize("xi", [0.5, 2.0])
def test_rescaling_covariance(xi):
    # both z and xi z must stay inside the unit cylinder; the closed form
    # is exactly covariant, so with the truncation bound pushed below the
    # assertion only roundoff is left
    z, zp = (0.125, 0.1875), (0.3125, 0.375)
    assert rescaling_residual(CYL, ISO, z, zp, xi, tol=1e-15) < 1e-12


def _reflections_first(cylinder, couplings, z, zp, windings=2000):
    """The image sum in the opposite order.

    The alternating sum over reflections closes to (pi/(i mu))
    csc(pi w/(i mu)); the windings around the ring are then summed term
    by term over |n1| <= windings.  Terms with |Im| >= 700 are below
    e^-700 and are skipped so that sin does not overflow.
    """
    t1, t2 = couplings.t1, couplings.t2
    lam = cylinder.ell1 / (1.0 - t2)
    imu = 2j * cylinder.ell2 / (1.0 - t1)
    n1 = np.arange(-windings, windings + 1)
    pref = -1.0 / (2.0 * math.pi * t2 * (1.0 - t2))
    parts = []
    for v0 in (z[1] - zp[1], z[1] + zp[1]):
        w = (z[0] - zp[0]) / (1.0 - t2) + n1 * lam + 1j * v0 / (1.0 - t1)
        arg = math.pi * w / imu
        keep = np.abs(arg.imag) < 700.0
        total = np.sum((-1.0) ** n1[keep] / np.sin(arg[keep])) * math.pi / imu
        parts.append((pref * total.real, -pref * total.imag))
    (a_m, b_m), (a_p, b_p) = parts
    return np.array([[a_m - a_p, b_m + b_p], [b_m - b_p, -a_p - a_m]])


@pytest.mark.parametrize("t1", [math.sqrt(2.0) - 1.0, 0.5, 0.2])
@pytest.mark.parametrize("ell1, ell2", [(1.0, 1.0), (1.0, 0.125), (1.0, 8.0), (3.0, 1.0)])
def test_closed_form_matches_opposite_summation_order(t1, ell1, ell2):
    cpl = Couplings.critical_from_t1(t1)
    cyl = ContinuumCylinder(ell1, ell2)
    for (x, y), (xp, yp) in [((0.3, 0.35), (0.75, 0.8)),
                             ((0.4, 0.1), (0.4, 0.9)),
                             ((0.95, 0.5), (0.05, 0.45))]:
        z, zp = (x * ell1, y * ell2), (xp * ell1, yp * ell2)
        got = cylinder_scal_block(cyl, cpl, z, zp, tol=1e-15)
        ref = _reflections_first(cyl, cpl, z, zp)
        # far-apart points on thin or tall cylinders give blocks far below
        # their nearest images, so the scale includes the direct plane term
        plane = plane_scal_block(cpl, z[0] - zp[0], z[1] - zp[1])
        scale = max(np.max(np.abs(ref)), np.max(np.abs(plane)))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_image_tol_is_a_truncation_bound(tol):
    # at l2/l1 = 1/8 the reflection series converges slowly enough that
    # the truncation is visible
    cyl = ContinuumCylinder(1.0, 0.125)
    for t1 in (math.sqrt(2.0) - 1.0, 0.2):
        cpl = Couplings.critical_from_t1(t1)
        for z, zp in [((0.1, 0.02), (0.7, 0.1)), ((0.3, 0.06), (0.3, 0.11)),
                      ((0.0, 0.0), (0.5, 0.125))]:
            ref = cylinder_scal_block(cyl, cpl, z, zp, tol=1e-15)
            got = cylinder_scal_block(cyl, cpl, z, zp, tol=tol)
            assert np.max(np.abs(got - ref)) <= tol
    with pytest.raises(ValueError):
        cylinder_scal_block(cyl, ISO, (0.1, 0.02), (0.7, 0.1), tol=0.0)


@pytest.mark.parametrize("aspect", [8.0, 200.0])
def test_tall_cylinder_block_is_finite(aspect):
    cyl = ContinuumCylinder(1.0, aspect)
    for y, yp in [(0.3, 0.7), (0.5, 0.5 + 1e-3), (0.0, 1.0)]:
        blk = cylinder_scal_block(cyl, ISO, (0.4, y * aspect), (0.4, yp * aspect))
        assert np.all(np.isfinite(blk))


def test_block_antiperiodic_around_the_ring():
    z, zp = (0.05, 0.2), (0.2, 0.7)
    once = cylinder_scal_block(CYL, ISO, (z[0] + 1.0, z[1]), zp)
    assert np.max(np.abs(once + cylinder_scal_block(CYL, ISO, z, zp))) < 1e-13


def test_points_coinciding_around_the_ring_are_singular():
    with pytest.raises(ZeroDivisionError):
        cylinder_scal_block(CYL, ISO, (0.0, 0.5), (1.0, 0.5))


def test_marked_points_coinciding_around_the_ring_are_rejected():
    with pytest.raises(ValueError):
        scal_energy_correlation(CYL, ISO, [((0.0, 0.5), 2), ((1.0, 0.5), 2)])


def test_continuum_m8_cumulant_invariances():
    marked = [((0.05, 0.2), 1), ((0.2, 0.7), 2), ((0.35, 0.45), 2),
              ((0.5, 0.15), 1), ((0.6, 0.85), 1), ((0.7, 0.4), 2),
              ((0.85, 0.6), 1), ((0.95, 0.3), 2)]
    value = scal_energy_correlation(CYL, ISO, marked)
    assert value != 0.0 and math.isfinite(value)
    shifted = [(((x + 0.4) % 1.0, y), d) for (x, y), d in marked]
    assert math.isclose(scal_energy_correlation(CYL, ISO, shifted), value, rel_tol=1e-10)
    order = [3, 7, 0, 5, 1, 6, 2, 4]
    permuted = [marked[i] for i in order]
    assert math.isclose(scal_energy_correlation(CYL, ISO, permuted), value, rel_tol=1e-10)


def test_fourier_profile_consistency():
    pts = [(0.35, 0.4), (0.6, 0.25)]
    assert fourier_profile_check(ISO, pts) < 1e-6


def test_remainder_records_shape_and_slope():
    pairs = [((0.3125, 0.375), (0.6875, 0.625))]
    recs = scaling_remainder_records(CYL, ISO, pairs, meshes=(1 / 16, 1 / 32))
    assert len(recs) == 2
    assert all(rec["pair_id"] == 0 for rec in recs)
    slopes = {rec["fitted_slope"] for rec in recs}
    assert len(slopes) == 1
    assert 0.5 < slopes.pop() < 1.5
    assert recs[0]["residual_norm"] > recs[1]["residual_norm"]


def test_remainder_records_preserve_pair_order():
    pairs = [((0.3125, 0.375), (0.6875, 0.625)),
             ((0.125, 0.5), (0.625, 0.5))]
    recs = scaling_remainder_records(CYL, ISO, pairs, meshes=(1 / 8, 1 / 16))
    assert [rec["pair_id"] for rec in recs] == [0, 0, 1, 1]
    assert [rec["L"] for rec in recs] == [8, 16, 8, 16]
