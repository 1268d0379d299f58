"""Acceptance checks shared by the test suite and the command line.

Each check_* function exercises one advertised guarantee end to end and
returns a plain record dict: name, passed flag, elapsed seconds, and a
one-line detail string carrying the measured numbers.  Tolerances and
runtime budgets live here next to the code that enforces them, so the
CLI `verify` subcommand and tests/test_acceptance.py cannot drift
apart.  All randomness flows through a seed argument and is recorded in
the detail string.
"""

import math
import time

import numpy as np

from . import energy, exact, kernels, multiscale, scaling, spectral
from .exact import Couplings, Species
from .lattice import CylinderGeometry


def _record(name, passed, t0, detail):
    return dict(
        name=name,
        passed=bool(passed),
        elapsed=time.perf_counter() - t0,
        detail=detail,
    )


def check_partition_exactness(seed=0):
    """Pfaffian log Z against the 2^{LM} Gibbs sum on every small cylinder.

    Covers all even-L geometries with LM <= 16, five random coupling
    draws each; also requires the Pfaffian sign to be the same constant
    in every run (the canonical index ordering fixes it).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    geoms = [
        (L, M)
        for L in range(2, 17, 2)
        for M in range(1, 17)
        if L * M <= 16
    ]
    worst = 0.0
    signs = set()
    for L, M in geoms:
        geom = CylinderGeometry(L, M)
        for _ in range(5):
            beta = float(rng.uniform(0.1, 0.8))
            j1 = float(rng.uniform(0.3, 1.5))
            j2 = float(rng.uniform(0.3, 1.5))
            res = exact.partition_function_log(geom, beta, j1, j2)
            ref = energy.BruteForceGibbs(geom, beta, j1, j2).log_partition()
            worst = max(worst, abs(res.log_z - ref) / abs(ref))
            signs.add(res.pf_sign)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and len(signs) == 1 and elapsed <= 30.0
    return _record(
        "partition-function exactness",
        passed,
        t0,
        f"{5 * len(geoms)} runs, worst rel err {worst:.2e}, "
        f"Pf signs {sorted(signs)}, seed {seed}",
    )


def check_spectral_vs_inverse():
    """Eigenmode double sum against the dense -A^{-1} block, every entry."""
    t0 = time.perf_counter()
    couplings_list = [
        Couplings.isotropic_critical(),
        Couplings.critical_from_t1(0.5),
    ]
    worst = 0.0
    n_entries = 0
    for L, M in ((4, 3), (6, 4), (8, 8)):
        geom = CylinderGeometry(L, M)
        for cpl in couplings_list:
            sites = list(geom.sites())
            zs = [z for z in sites for _ in sites]
            zps = [zp for _ in sites for zp in sites]
            blocks = spectral.critical_propagator(geom, cpl, zs, zps)
            ref = exact.dense_propagator(geom, cpl, zs, zps)
            worst = max(worst, float(np.max(np.abs(blocks - ref))))
            n_entries += blocks.size
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and elapsed <= 60.0
    return _record(
        "spectral propagator vs dense inverse",
        passed,
        t0,
        f"{n_entries} entries over 3 geometries x 2 couplings, "
        f"max abs err {worst:.2e}",
    )


# species maps induced by the two lattice reflections: each species goes
# to (image, sign) where the substitution is  field -> i * sign * image
# at the reflected site, so a two-point function picks up -sign*sign'.
_HORIZONTAL_SPECIES = {
    Species.HBAR: (Species.H, 1.0),
    Species.H: (Species.HBAR, 1.0),
    Species.VBAR: (Species.VBAR, 1.0),
    Species.V: (Species.V, -1.0),
}
_VERTICAL_SPECIES = {
    Species.HBAR: (Species.HBAR, -1.0),
    Species.H: (Species.H, 1.0),
    Species.VBAR: (Species.V, 1.0),
    Species.V: (Species.VBAR, 1.0),
}


def check_boundary_and_symmetry(seed=1):
    """Boundary vanishing rows plus the full set of reflection identities.

    Five families, all at L = M = 16, all to 1e-10:
      - extended rows z2 = 0 and z2 = M+1 of the critical propagator kill
        the species patterns (+,.) and (-,.) exhaustively in z1, against
        every second argument; columns likewise through the primed site;
      - the same cancellations for every single-scale piece (sampled
        second arguments);
      - species-level reflection covariance of the dense -A^{-1} and the
        induced 2x2 relations on the critical block;
      - the closed-form massive block under both reflections;
      - evenness and cross relations of the momentum-space symbol and of
        the mode normalization, including the root identity tying the
        off-diagonal entries on the transverse spectrum.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    geom = CylinderGeometry(16, 16)
    L, M = geom.L, geom.M
    cpl = Couplings.isotropic_critical()
    data = spectral.spectral_data(geom, cpl)
    sites = list(geom.sites())

    def boundary_residual(evaluate, partners):
        """Largest entry the boundary identities kill on the extended rows
        z2 = 0 and z2 = M+1 (exhaustive in z1), against each partner
        site, and likewise on the columns."""
        ring = range(1, L + 1)
        bottom = [(z1, 0) for z1 in ring for _ in partners]
        top = [(z1, M + 1) for z1 in ring for _ in partners]
        other = [zp for _ in ring for zp in partners]
        return float(max(
            np.max(np.abs(evaluate(bottom, other)[..., 0, :])),
            np.max(np.abs(evaluate(top, other)[..., 1, :])),
            np.max(np.abs(evaluate(other, bottom)[..., :, 0])),
            np.max(np.abs(evaluate(other, top)[..., :, 1])),
        ))

    # full propagator: exhaustive in the unconstrained argument too
    worst = boundary_residual(lambda z, zp: spectral.mode_sum(data, z, zp), sites)

    # single-scale boundary rows, sampled partners, every scale in one mode sum
    partners = [sites[int(i)] for i in rng.integers(0, len(sites), size=12)]
    ladder = np.stack([multiscale.scale_weight(h, data.D) for h in multiscale.scale_indices(geom)])
    worst = max(worst, boundary_residual(
        lambda z, zp: spectral.mode_sum(data, z, zp, ladder), partners))

    def th1(z):
        return (L + 1 - z[0], z[1])

    def th2(z):
        return (z[0], M + 1 - z[1])

    n_pairs = 200
    rows = np.arange(n_pairs)
    for cc in (cpl, Couplings.critical_from_t1(0.4)):
        cache = exact.propagator_from_A(geom, cc)
        draws = [((int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
                  (int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
                  int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                 for _ in range(n_pairs)]
        zs, zps, sp, spp = (list(col) for col in zip(*draws))
        block = cache.species_block(zs, zps)

        # species-level covariance of the dense propagator
        mirrored = []
        for theta, table in ((th1, _HORIZONTAL_SPECIES), (th2, _VERTICAL_SPECIES)):
            image = np.array([table[s][0] for s in Species])
            sign = np.array([table[s][1] for s in Species])
            moved = cache.species_block([theta(z) for z in zs], [theta(zp) for zp in zps])
            ref = -sign[sp] * sign[spp] * moved[rows, image[sp], image[spp]]
            worst = max(worst, float(np.max(np.abs(block[rows, sp, spp] - ref))))
            mirrored.append(moved)

        # induced 2x2 relations on the critical block: the horizontal
        # reflection flips the diagonal, the vertical one reverses both axes
        g, g1, g2 = (b[:, Species.VBAR:, Species.VBAR:] for b in [block] + mirrored)
        worst = max(worst, float(np.max(np.abs(g - g1 * [[-1.0, 1.0], [1.0, -1.0]]))),
                    float(np.max(np.abs(g + g2[:, ::-1, ::-1]))))

        # massive block: swap-and-negate under the horizontal
        # reflection, diagonal negation under the vertical one
        gm = exact.massive_propagator(geom, cc, zs, zps)
        m1 = exact.massive_propagator(geom, cc, [th1(z) for z in zs], [th1(zp) for zp in zps])
        m2 = exact.massive_propagator(geom, cc, [th2(z) for z in zs], [th2(zp) for zp in zps])
        worst = max(worst, float(np.max(np.abs(gm + m1[:, ::-1, ::-1]))),
                    float(np.max(np.abs(gm - m2 * [[-1.0, 1.0], [1.0, -1.0]]))))

    # momentum-space symbol and normalization relations
    momenta = spectral.antiperiodic_momenta(L)
    for _ in range(40):
        k1 = float(momenta[int(rng.integers(0, len(momenta)))])
        B = spectral.b_of_k1(k1, cpl)
        worst = max(worst, abs(B - spectral.b_of_k1(-k1, cpl)))
        roots = spectral.transverse_roots(B, M)
        k2s = [float(rng.uniform(0.05, math.pi - 0.05)),
               float(roots[int(rng.integers(0, M))])]
        for k2 in k2s:
            gpp, gpm, gmp, gmm = spectral.symbol_entries(cpl, k1, k2)
            fpp, fpm, fmp, _ = spectral.symbol_entries(cpl, k1, -k2)
            hpp, hpm, _, hmm = spectral.symbol_entries(cpl, -k1, k2)
            worst = max(
                worst,
                abs(gpp - fpp), abs(gpp + hpp), abs(gpp - hmm),
                abs(gpm - hpm), abs(gpm + fmp),
                abs(spectral.mode_normalization(B, M, k2)
                    - spectral.mode_normalization(B, M, -k2)),
            )
        # on the transverse spectrum the two off-diagonal entries agree
        # up to the boundary phase
        k2 = float(roots[int(rng.integers(0, M))])
        _, gpm, gmp, _ = spectral.symbol_entries(cpl, k1, k2)
        worst = max(worst, abs(gpm + np.exp(-2j * k2 * (M + 1)) * gmp))

    passed = worst <= 1e-10
    return _record(
        "boundary and reflection identities",
        passed,
        t0,
        f"worst residual {worst:.2e} over exhaustive boundary rows, "
        f"{2 * n_pairs} random pairs, 40 momentum draws, seed {seed}",
    )


def check_telescoping(seed=2):
    """Scale pieces resum to the critical propagator at every depth."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = [
        (8, Couplings.isotropic_critical()),
        (8, Couplings.critical_from_t1(0.5)),
        (16, Couplings.isotropic_critical()),
        (32, Couplings.isotropic_critical()),
    ]
    for size, cpl in cases:
        geom = CylinderGeometry(size, size)
        pairs = [((1, 1), (size, size)), ((1, size), (size // 2, 1))]
        while len(pairs) < 10:
            pairs.append((
                (int(rng.integers(1, size + 1)), int(rng.integers(1, size + 1))),
                (int(rng.integers(1, size + 1)), int(rng.integers(1, size + 1))),
            ))
        zs, zps = zip(*pairs)
        for h in multiscale.scale_indices(geom):
            worst = max(worst, float(np.max(
                multiscale.telescoping_residual(geom, cpl, zs, zps, h=h))))
    passed = worst <= 1e-9
    return _record(
        "multiscale telescoping",
        passed,
        t0,
        f"max residual {worst:.2e} over sizes 8/16/32, all scales, seed {seed}",
    )


def check_decay_envelopes():
    """Fitted envelopes for the bulk and edge pieces, and the closed-form
    sup bound of the infrared tail.

    The bulk and edge fits follow the sampling protocol of the report
    functions; the acceptance statement is property-based: every sample
    sits under its envelope and the per-scale constants of all three
    agree within a factor two across h in {-1..-5} at L = M = 64.
    """
    t0 = time.perf_counter()
    cpl = Couplings.isotropic_critical()
    geom = CylinderGeometry(64, 64)
    h_list = [-1, -2, -3, -4, -5]
    bulk = multiscale.bulk_decay_report(cpl, h_list)
    edge = multiscale.edge_decay_report(geom, cpl, h_list, seed=0)
    tail = multiscale.tail_bound_report(geom, cpl, h_list)

    def spread(rep):
        cs = [r["fitted_C"] for r in rep]
        return max(cs) / min(cs)

    margins_ok = all(
        r["max_residual"] <= 1e-9 for rep in (bulk, edge) for r in rep
    )
    rates_ok = all(r["fitted_c"] > 0.0 for rep in (bulk, edge) for r in rep)
    spreads = (spread(bulk), spread(edge), spread(tail))
    passed = margins_ok and rates_ok and all(s <= 2.0 for s in spreads)
    return _record(
        "single-scale decay envelopes",
        passed,
        t0,
        f"rates c_bulk {bulk[0]['fitted_c']:.3f} c_edge {edge[0]['fitted_c']:.3f}; "
        f"C spreads bulk {spreads[0]:.3f} edge {spreads[1]:.3f} "
        f"tail {spreads[2]:.3f} (limit 2)",
    )


def check_gram_reconstruction(seed=2):
    """Inner products rebuild derivative blocks; norms scale like 2^h.

    Size 32 keeps every fitted scale strictly above the deepest one
    (on a 16-cylinder h = -4 is already the bottom scale, whose
    truncated window tilts the norm-vs-h slope).
    """
    t0 = time.perf_counter()
    geom = CylinderGeometry(32, 32)
    cpl = Couplings.isotropic_critical()
    rep = multiscale.gram_report(
        geom, cpl, h_list=(-1, -2, -3, -4), n_pairs=20, seed=seed
    )
    passed = (
        rep["max_reconstruction_error"] <= 1e-9
        and rep["min_cauchy_schwarz_margin"] >= 0.0
        and 0.9 <= rep["norm_slope"] <= 1.1
    )
    return _record(
        "Gram reconstruction and norm scaling",
        passed,
        t0,
        f"max rec err {rep['max_reconstruction_error']:.2e}, "
        f"norm slope {rep['norm_slope']:.3f}, seed {seed}",
    )


def check_energy_cumulants(seed=3):
    """Truncated energy correlations against direct Gibbs enumeration."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_tuples = 0
    for L, M in ((4, 3), (6, 2), (2, 5)):
        geom = CylinderGeometry(L, M)
        beta = float(rng.uniform(0.2, 0.6))
        j1 = float(rng.uniform(0.4, 1.2))
        j2 = float(rng.uniform(0.4, 1.2))
        cpl = Couplings.from_beta(beta, j1, j2)
        brute = energy.BruteForceGibbs(geom, beta, j1, j2)
        all_bonds = [
            energy.EnergyBond(z1, z2, 1)
            for z2 in range(1, M + 1)
            for z1 in range(1, L + 1)
        ] + [
            energy.EnergyBond(z1, z2, 2)
            for z2 in range(1, M)
            for z1 in range(1, L + 1)
        ]
        for m in (2, 3, 4):
            draws = 3 if m == 2 else 2
            for _ in range(draws):
                idx = rng.choice(len(all_bonds), size=m, replace=False)
                bonds = [all_bonds[i] for i in idx]
                val = energy.truncated_energy_correlation(geom, cpl, bonds)
                ref = brute.truncated(bonds)
                worst = max(worst, abs(val - ref))
                n_tuples += 1
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and n_tuples >= 20 and elapsed <= 60.0
    return _record(
        "energy cumulants vs enumeration",
        passed,
        t0,
        f"{n_tuples} tuples of orders 2..4, worst abs err {worst:.2e}, "
        f"seed {seed}",
    )


# continuum pair sample for the scaling-rate fit: coordinates are
# multiples of 1/16 so that floor(z/a) is exact at every tested mesh and
# the same continuum point tracks the same lattice corner as a shrinks;
# separations stay well inside the unit cylinder
_SCALING_PAIRS = (
    ((5 / 16, 6 / 16), (11 / 16, 10 / 16)),
    ((2 / 16, 8 / 16), (10 / 16, 8 / 16)),
    ((4 / 16, 4 / 16), (13 / 16, 12 / 16)),
    ((8 / 16, 3 / 16), (8 / 16, 13 / 16)),
    ((3 / 16, 11 / 16), (14 / 16, 5 / 16)),
    ((4 / 16, 10 / 16), (12 / 16, 6 / 16)),
)


def check_scaling_rate():
    """First-order lattice-to-continuum convergence of the propagator."""
    t0 = time.perf_counter()
    cpl = Couplings.isotropic_critical()
    cyl = scaling.ContinuumCylinder(1.0, 1.0)
    records = scaling.scaling_remainder_records(
        cyl, cpl, list(_SCALING_PAIRS), meshes=(1 / 16, 1 / 32, 1 / 64)
    )
    slopes = sorted(set(r["fitted_slope"] for r in records))
    elapsed = time.perf_counter() - t0
    passed = (
        len(_SCALING_PAIRS) >= 5
        and all(0.8 <= s <= 1.2 for s in slopes)
        and elapsed <= 300.0
    )
    return _record(
        "scaling-limit convergence rate",
        passed,
        t0,
        f"{len(_SCALING_PAIRS)} pairs, slopes {min(slopes):.3f}.."
        f"{max(slopes):.3f} (window 0.8..1.2)",
    )


def check_energy_scaling():
    """Continuum Pfaffian pair correlation against extrapolated lattice.

    The lattice value at mesh a is a^{-2} times the truncated two-bond
    correlation; first-order convergence makes 2 v(1/64) - v(1/32) the
    a -> 0 extrapolation, compared within 3 percent.
    """
    t0 = time.perf_counter()
    cpl = Couplings.isotropic_critical()
    cyl = scaling.ContinuumCylinder(1.0, 1.0)
    marked = (((5 / 16, 6 / 16), 2), ((11 / 16, 10 / 16), 2))
    continuum = energy.scal_energy_correlation(cyl, cpl, marked)
    vals = {}
    for a in (1 / 32, 1 / 64):
        geom = cyl.lattice_geometry(a)
        corr = energy.spectral_vertical_correlator(geom, cpl)
        bonds = [
            energy.EnergyBond(*cyl.lattice_site(a, p), 2) for p, _ in marked
        ]
        kappa = energy.truncated_energy_correlation(
            geom, cpl, bonds, correlator=corr
        )
        vals[a] = kappa / a ** 2
    extrap = 2.0 * vals[1 / 64] - vals[1 / 32]
    rel = abs(extrap - continuum) / abs(continuum)
    passed = rel <= 0.03
    return _record(
        "continuum energy-correlation consistency",
        passed,
        t0,
        f"continuum {continuum:.6f}, extrapolated {extrap:.6f}, "
        f"rel err {rel:.2e} (limit 3e-2)",
    )


def _mixed_kernel(rng, entries):
    v = kernels.random_sparse_kernel(rng, 2, 0, entries=entries, box=3)
    for n, p in ((2, 1), (2, 2), (4, 0), (4, 1)):
        v = v.plus(kernels.random_sparse_kernel(rng, n, p, entries=entries,
                                                box=3))
    return v


def check_kernel_calculus(seed=5):
    """Structural zeros of the localization calculus and norm margins.

    The three cancellations (quartic local part, idempotence of the
    local projection, renormalization after localization) must come out
    as floating-point zeros, not merely small: every merge in the kernel
    algebra buffers contributions per target entry and reduces with
    exact summation, so balanced groups cancel with no residue.  The
    operator identities are stated on the symmetry class the effective
    potentials live in, so the idempotence and annihilation checks run
    on symmetrized inputs; the quartic cancellation needs no such
    restriction and is checked raw as well.  The norm inequalities are
    then measured on random sparse kernels across four (rate, rate
    step) combinations.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    quartic_max = 0.0
    for _ in range(10):
        v40 = kernels.random_sparse_kernel(rng, 4, 0, entries=6, box=3)
        local = kernels.symmetrize(kernels.localize_collapse(v40, 4, 0))
        quartic_max = max(quartic_max, local.max_abs())
        quartic_max = max(quartic_max, kernels.localization_operator(v40).max_abs())
        sym40 = kernels.symmetrize(v40)
        quartic_max = max(
            quartic_max, kernels.localization_operator(sym40).max_abs()
        )

    idem_max = 0.0
    after_max = 0.0
    for _ in range(10):
        v = kernels.symmetrize(_mixed_kernel(rng, entries=5))
        loc = kernels.localization_operator(v)
        idem_max = max(
            idem_max, kernels.localization_operator(loc).max_abs_diff(loc)
        )
        after_max = max(
            after_max, kernels.renormalization_operator(loc).max_abs()
        )

    combos = [(0.0, 0.1), (0.0, 0.5), (0.2, 0.1), (0.2, 0.5)]
    worst_margin = math.inf
    for _ in range(100):
        v = _mixed_kernel(rng, entries=4)
        for rep in kernels.interpolation_bound_reports(v, combos):
            for _, (_, _, margin) in rep.items():
                worst_margin = min(worst_margin, margin)

    elapsed = time.perf_counter() - t0
    exact_zero = quartic_max == 0.0 and idem_max == 0.0 and after_max == 0.0
    passed = exact_zero and worst_margin >= 0.0 and elapsed <= 30.0
    return _record(
        "kernel localization calculus",
        passed,
        t0,
        f"structural zeros {quartic_max!r}/{idem_max!r}/{after_max!r}, "
        f"worst norm margin {worst_margin:.4f} over 100 kernels x "
        f"{len(combos)} combos, seed {seed}",
    )


CHECKS = (
    check_partition_exactness,
    check_spectral_vs_inverse,
    check_boundary_and_symmetry,
    check_telescoping,
    check_decay_envelopes,
    check_gram_reconstruction,
    check_energy_cumulants,
    check_scaling_rate,
    check_energy_scaling,
    check_kernel_calculus,
)


def run_all(seed=None, names=None):
    """Run every acceptance check in order.

    With seed None each check uses its own frozen default; an explicit
    seed is offset per check so the whole suite reruns on fresh draws.
    With `names`, only checks whose short name contains one of the
    given substrings run (criterion numbering is preserved).
    """
    records = []
    for i, check in enumerate(CHECKS, start=1):
        if names is not None:
            short = check.__name__.replace("check_", "")
            if not any(tok in short for tok in names):
                continue
        try:
            if seed is not None and _takes_seed(check):
                rec = check(seed=seed + i)
            else:
                rec = check()
        except Exception as err:  # a crash is a failure, not an abort
            rec = dict(
                name=check.__name__.replace("check_", "").replace("_", " "),
                passed=False,
                elapsed=0.0,
                detail=f"raised {type(err).__name__}: {err}",
            )
        rec["number"] = i
        records.append(rec)
    return records


def _takes_seed(check):
    return "seed" in check.__code__.co_varnames[: check.__code__.co_argcount]


def format_table(records):
    lines = []
    for rec in records:
        flag = "PASS" if rec["passed"] else "FAIL"
        num = rec.get("number", "?")
        lines.append(
            f"criterion {num:>2}  {rec['name']:<42} {flag}  "
            f"({rec['elapsed']:6.1f}s)  {rec['detail']}"
        )
    return "\n".join(lines)
