"""Truncated energy correlations against brute-force enumeration."""

import math

import numpy as np
import pytest

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


def test_scal_energy_pair_frozen_value():
    cyl = ContinuumCylinder(1.0, 1.0)
    cpl = Couplings.isotropic_critical()
    marked = [((5 / 16, 6 / 16), 2), ((11 / 16, 10 / 16), 2)]
    value = scal_energy_correlation(cyl, cpl, marked)
    assert math.isclose(value, 0.604742323599146, rel_tol=1e-9)
