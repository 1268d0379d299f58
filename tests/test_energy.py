"""Truncated energy correlations against brute-force enumeration."""

import math
import sys
import time

import numpy as np
import pytest

from isingcyl import energy, skew
from isingcyl.energy import (
    BruteForceGibbs,
    EnergyBond,
    cumulant_from_moments,
    dense_correlator,
    scal_energy_correlation,
    set_partitions,
    spectral_vertical_correlator,
    truncated_energy_correlation,
)
from isingcyl.exact import Couplings
from isingcyl.lattice import CylinderGeometry
from isingcyl.scaling import ContinuumCylinder
from isingcyl.skew import pfaffian_combinatorial, pfaffian_sign_logabs

from oracles import minor_cumulant


def _subset_expansion_cumulant(geometry, couplings, bonds, correlator):
    """Oracle: each moment expanded over the 2^|S| ways its bonds give
    t_x or (1 - t_x^2) s_x psi_a psi_b, one Wick Pfaffian per way."""

    def moment(block):
        total = 0.0
        for mask in range(1 << len(block)):
            coef = 1.0
            fields = []
            for i, bond in enumerate(block):
                t = bond.tanh_coupling(couplings)
                if (mask >> i) & 1:
                    fa, fb, seam = bond.fields(geometry)
                    coef *= (1.0 - t * t) * seam
                    fields += [fa, fb]
                else:
                    coef *= t
            n = len(fields)
            mat = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    (z, s), (zp, sp) = fields[i], fields[j]
                    mat[i, j] = correlator([z], [s], [zp], [sp])[0]
                    mat[j, i] = -mat[i, j]
            if n <= 8:
                pf = pfaffian_combinatorial(mat)
            else:
                sign, logabs = pfaffian_sign_logabs(mat)
                pf = sign * math.exp(logabs)
            total += coef * pf
        return total

    return cumulant_from_moments(moment, bonds)


def test_bond_validation_and_wrap():
    with pytest.raises(ValueError):
        EnergyBond(1, 1, 3)
    g = CylinderGeometry(4, 3)
    seam = EnergyBond(4, 2, 1)
    assert seam.other_site(g) == (1, 2)
    assert EnergyBond(2, 2, 2).other_site(g) == (2, 3)


def test_set_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(list(set_partitions(tuple(range(n))))) == bell


def test_cumulants_of_known_moments():
    # moments of a centered Gaussian: kappa_2 is the variance and the
    # third and fourth cumulants vanish
    var = 0.7

    def moment(block):
        n = len(block)
        if n % 2 == 1:
            return 0.0
        if n == 2:
            return var
        if n == 4:
            return 3.0 * var * var
        raise AssertionError("unused order")

    items = (0, 1)
    assert math.isclose(cumulant_from_moments(moment, items), var)
    assert abs(cumulant_from_moments(moment, (0, 1, 2))) == 0.0
    k4 = cumulant_from_moments(moment, (0, 1, 2, 3))
    assert abs(k4) < 1e-12


@pytest.mark.parametrize("m", [4, 5])
def test_cumulant_computes_each_subset_moment_once(m):
    calls = []

    def moment(block):
        calls.append(tuple(block))
        return 0.5 ** len(block)

    cumulant_from_moments(moment, tuple(range(m)))
    assert len(calls) == len(set(calls)) == 2 ** m - 1


@pytest.mark.parametrize("route", ["dense", "spectral"])
def test_cumulant_looks_up_each_field_pair_once(route):
    g = CylinderGeometry(8, 6)
    cpl = Couplings.isotropic_critical()
    raw = (dense_correlator if route == "dense" else spectral_vertical_correlator)(g, cpl)
    calls = []

    def corr(z, s, zp, sp):
        calls.append(list(zip(map(tuple, z), s, map(tuple, zp), sp)))
        return raw(z, s, zp, sp)

    bonds = [EnergyBond(1, 1, 2), EnergyBond(3, 2, 2), EnergyBond(6, 4, 2),
             EnergyBond(8, 5, 2)]
    value = truncated_energy_correlation(g, cpl, bonds, correlator=corr)
    # one batched call carrying the m (2m - 1) = 28 distinct field pairs
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == 28
    # the subset expansion with every Wick entry fetched afresh
    ref = _subset_expansion_cumulant(g, cpl, bonds, raw)
    assert abs(value - ref) <= 1e-13


# a cluster of horizontal and vertical bonds on 8x8, the first across the seam
_MIXED_BONDS = [EnergyBond(8, 3, 1), EnergyBond(1, 4, 2), EnergyBond(2, 3, 1),
                EnergyBond(2, 5, 2), EnergyBond(3, 4, 1), EnergyBond(7, 5, 1)]


@pytest.mark.parametrize("m", [5, 6])
def test_cumulant_matches_subset_expansion_past_brute_force_cap(m):
    g = CylinderGeometry(8, 8)
    cpl = Couplings.from_beta(0.4, 1.0, 0.9)
    bonds = _MIXED_BONDS[:m]
    got = truncated_energy_correlation(g, cpl, bonds)
    ref = _subset_expansion_cumulant(g, cpl, bonds, dense_correlator(g, cpl))
    assert abs(got - ref) <= 1e-13


@pytest.mark.parametrize("m", [4, 5])
def test_cumulant_takes_no_pfaffian_and_one_lookup(m, monkeypatch):
    g = CylinderGeometry(8, 8)
    cpl = Couplings.from_beta(0.4, 1.0, 0.9)
    raw = dense_correlator(g, cpl)
    counts = {"pfaffian": 0, "sweep": 0, "lookup": 0}
    pairs = []

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def lookup(z, s, zp, sp):
        pairs.extend(zip(map(tuple, z), s, map(tuple, zp), sp))
        return raw(z, s, zp, sp)

    monkeypatch.setattr(energy, "pfaffian", counted("pfaffian", energy.pfaffian))
    monkeypatch.setattr(skew, "pfaffian_sign_logabs",
                        counted("sweep", skew.pfaffian_sign_logabs))
    truncated_energy_correlation(g, cpl, _MIXED_BONDS[:m],
                                 correlator=counted("lookup", lookup))
    assert counts == {"pfaffian": 0, "sweep": 0, "lookup": 1}
    assert len(pairs) == len(set(pairs)) == m * (2 * m - 1)


def _recorded_wick_matrix(monkeypatch, *args, **kwargs):
    """(cumulant, Wick matrix) of one `truncated_energy_correlation` call."""
    seen = []
    cycle_sum = energy._cycle_sum

    def record(w):
        seen.append(w.copy())
        return cycle_sum(w)

    monkeypatch.setattr(energy, "_cycle_sum", record)
    value = truncated_energy_correlation(*args, **kwargs)
    assert len(seen) == 1
    return value, seen[0]


def _random_wick_matrix(rng, m):
    # entries of the size of lattice Wick entries keep kappa of order one
    u = np.triu(rng.uniform(-0.4, 0.4, size=(2 * m, 2 * m)), k=1)
    return u - u.T


@pytest.mark.parametrize("m", range(1, 9))
def test_cycle_sum_matches_minor_oracle(m, monkeypatch):
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        w = _random_wick_matrix(rng, m)
        assert abs(energy._cycle_sum(w) - minor_cumulant(w)) <= 1e-13
    # dense bonds of both directions off criticality, seam bonds included
    g = CylinderGeometry(8, 8)
    cpl = Couplings.from_beta(0.4, 1.0, 0.9)
    pool = [EnergyBond(z1, z2, 1) for z1 in range(1, 9) for z2 in range(1, 9)]
    pool += [EnergyBond(z1, z2, 2) for z1 in range(1, 9) for z2 in range(1, 8)]
    bonds = [pool[i] for i in rng.choice(len(pool), m, replace=False)]
    value, w = _recorded_wick_matrix(monkeypatch, g, cpl, bonds)
    assert abs(value - minor_cumulant(w)) <= 1e-13
    # vertical bonds through the critical mode sum
    g = CylinderGeometry(8, 6)
    cpl = Couplings.isotropic_critical()
    pool = [EnergyBond(z1, z2, 2) for z1 in range(1, 9) for z2 in range(1, 6)]
    bonds = [pool[i] for i in rng.choice(len(pool), m, replace=False)]
    value, w = _recorded_wick_matrix(monkeypatch, g, cpl, bonds,
                                     correlator=spectral_vertical_correlator(g, cpl))
    assert abs(value - minor_cumulant(w)) <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 5])
def test_cycle_sum_ignores_the_bond_diagonal(m):
    # t_x sits on the diagonal block of bond x, which no Hamiltonian cycle
    # of m >= 2 bonds visits
    rng = np.random.default_rng(m)
    w = _random_wick_matrix(rng, m)
    kappa = energy._cycle_sum(w)
    for x in range(m):
        w[2 * x, 2 * x + 1] = rng.uniform(-1.0, 1.0)
        w[2 * x + 1, 2 * x] = -w[2 * x, 2 * x + 1]
    assert energy._cycle_sum(w) == kappa


def test_twelve_bond_cumulant_is_fast():
    g = CylinderGeometry(8, 8)
    cpl = Couplings.from_beta(0.4, 1.0, 0.9)
    bonds = [EnergyBond(z1, z2, d) for z1, z2, d in (
        (1, 1, 1), (3, 2, 1), (5, 3, 1), (8, 4, 1), (2, 6, 1), (7, 8, 1),
        (1, 2, 2), (4, 3, 2), (6, 5, 2), (2, 7, 2), (8, 1, 2), (5, 6, 2))]
    t0 = time.perf_counter()
    value = truncated_energy_correlation(g, cpl, bonds)
    assert time.perf_counter() - t0 < 1.0
    assert math.isfinite(value)


def test_energy_never_calls_the_combinatorial_pfaffian(monkeypatch):
    def refuse(*args):
        raise AssertionError("combinatorial Pfaffian called")

    for name, module in list(sys.modules.items()):
        if name.startswith("isingcyl") and \
                getattr(module, "pfaffian_combinatorial", None) is pfaffian_combinatorial:
            monkeypatch.setattr(module, "pfaffian_combinatorial", refuse)
    g = CylinderGeometry(4, 3)
    cpl = Couplings.from_beta(0.35, 0.9, 1.2)
    bonds = [EnergyBond(4, 1, 1), EnergyBond(2, 2, 2), EnergyBond(1, 3, 1),
             EnergyBond(3, 2, 2)]
    assert math.isfinite(truncated_energy_correlation(g, cpl, bonds))
    cyl = ContinuumCylinder(1.0, 1.0)
    marked = [((0.1, 0.2), 1), ((0.4, 0.3), 2), ((0.6, 0.7), 2), ((0.9, 0.5), 1)]
    for k in (2, 4):
        assert math.isfinite(scal_energy_correlation(
            cyl, Couplings.isotropic_critical(), marked[:k]))


@pytest.mark.parametrize("L,M", [(4, 3), (6, 2)])
def test_truncated_pair_matches_enumeration(L, M):
    g = CylinderGeometry(L, M)
    beta, J1, J2 = 0.3, 1.1, 0.8
    cpl = Couplings.from_beta(beta, J1, J2)
    brute = BruteForceGibbs(g, beta, J1, J2)
    bonds = [EnergyBond(1, 1, 1), EnergyBond(3, 2, 1)]
    got = truncated_energy_correlation(g, cpl, bonds)
    ref = brute.truncated(bonds)
    assert math.isclose(got, ref, rel_tol=0, abs_tol=1e-12)


def test_truncated_triple_with_seam_bond():
    g = CylinderGeometry(4, 3)
    beta, J1, J2 = 0.35, 0.9, 1.2
    cpl = Couplings.from_beta(beta, J1, J2)
    brute = BruteForceGibbs(g, beta, J1, J2)
    bonds = [EnergyBond(4, 1, 1), EnergyBond(2, 2, 2), EnergyBond(1, 3, 1)]
    got = truncated_energy_correlation(g, cpl, bonds)
    ref = brute.truncated(bonds)
    assert abs(got - ref) < 1e-12


def test_repeated_bond_rejected():
    g = CylinderGeometry(4, 3)
    cpl = Couplings.from_beta(0.3, 1.0, 1.0)
    bonds = [EnergyBond(1, 1, 1), EnergyBond(1, 1, 1)]
    with pytest.raises(ValueError):
        truncated_energy_correlation(g, cpl, bonds)


def test_spectral_correlator_matches_dense():
    g = CylinderGeometry(6, 4)
    cpl = Couplings.isotropic_critical()
    bonds = [EnergyBond(2, 1, 2), EnergyBond(5, 3, 2)]
    dense = truncated_energy_correlation(
        g, cpl, bonds, correlator=dense_correlator(g, cpl))
    spectral = truncated_energy_correlation(
        g, cpl, bonds, correlator=spectral_vertical_correlator(g, cpl))
    assert math.isclose(dense, spectral, rel_tol=1e-10)


def test_ring_translation_invariance():
    g = CylinderGeometry(6, 3)
    cpl = Couplings.from_beta(0.4, 1.0, 0.7)
    base = truncated_energy_correlation(
        g, cpl, [EnergyBond(1, 1, 2), EnergyBond(3, 2, 2)])
    for shift in range(1, 6):
        s1 = (1 + shift - 1) % 6 + 1
        s3 = (3 + shift - 1) % 6 + 1
        moved = truncated_energy_correlation(
            g, cpl, [EnergyBond(s1, 1, 2), EnergyBond(s3, 2, 2)])
        assert math.isclose(base, moved, rel_tol=1e-11)


def test_scal_energy_correlation_validation():
    cyl = ContinuumCylinder(1.0, 1.0)
    cpl = Couplings.isotropic_critical()
    with pytest.raises(ValueError):
        scal_energy_correlation(cyl, cpl, [((0.3, 0.4), 2)])
    with pytest.raises(ValueError):
        scal_energy_correlation(
            cyl, cpl, [((0.3, 0.4), 2), ((0.3, 0.4), 1)])
    with pytest.raises(ValueError, match="direction"):
        scal_energy_correlation(cyl, cpl, [((0.3125, 0.375), 7), ((0.6875, 0.625), 2)])
    for y in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(ValueError, match="outside the height"):
            scal_energy_correlation(cyl, cpl, [((0.3, 0.4), 2), ((0.7, y), 2)])


@pytest.mark.parametrize("z,zp", [((0.3, 0.5), (1.3, 0.5)), ((0.1, 0.5), (1.1, 0.5)),
                                  ((0.7, 0.25), (2.7, 0.25)), ((0.7, 0.25), (-0.3, -0.25))])
def test_scal_energy_points_a_winding_or_mirror_apart_are_not_distinct(z, zp):
    # x % l1 tells these apart in floating point; the image sum, which
    # would divide by zero, does not
    cyl = ContinuumCylinder(1.0, 1.0)
    assert cyl.coincident(z, zp)
    with pytest.raises(ValueError, match="distinct"):
        scal_energy_correlation(cyl, Couplings.isotropic_critical(), [(z, 2), (zp, 2)])


def test_scal_energy_pair_frozen_value():
    cyl = ContinuumCylinder(1.0, 1.0)
    cpl = Couplings.isotropic_critical()
    marked = [((5 / 16, 6 / 16), 2), ((11 / 16, 10 / 16), 2)]
    value = scal_energy_correlation(cyl, cpl, marked)
    assert math.isclose(value, 0.604742323599146, rel_tol=1e-9)


@pytest.mark.xfail(strict=True, reason="scal_energy_correlation returns the full "
                   "normal-ordered correlation, not its truncated part, for m >= 4")
def test_scal_energy_quadruple_is_truncated():
    # lattice a^-4 kappa_4 at meshes 1/16 ... 1/128 extrapolates to -0.06738
    cyl = ContinuumCylinder(1.0, 1.0)
    cpl = Couplings.isotropic_critical()
    marked = [((5 / 16, 6 / 16), 2), ((11 / 16, 10 / 16), 2),
              ((2 / 16, 12 / 16), 2), ((9 / 16, 3 / 16), 2)]
    value = scal_energy_correlation(cyl, cpl, marked)
    pairs = sum(scal_energy_correlation(cyl, cpl, [marked[a], marked[b]])
                * scal_energy_correlation(cyl, cpl, [marked[c], marked[d]])
                for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)))
    connected = value - pairs
    assert math.isclose(value, connected, rel_tol=1e-9)
