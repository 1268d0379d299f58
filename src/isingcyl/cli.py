"""Batch front end: configuration, runs, verification, data export.

Subcommands mirror the library layout: `partition`, `propagator`,
`multiscale`, `scaling`, `correlations`, `kernels`, `verify`.  Options
come from flags or from a single JSON config file (via ``--config``);
explicit flags win over file values.  Tabular output is CSV (RFC-4180
style, dot decimal, 17 significant digits) with a ``schema,1`` prelude
row and the run seed recorded.  Exit codes: 0 on success, 1 on usage
error, 2 on tolerance failure or on a failed internal certificate (an
AssertionError or RuntimeError from the library, reported in one line).

Runs are deterministic: the same (config, seed) produces byte-identical
output.  The spectral propagator table is evaluated as one batch.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import energy, exact, kernels, multiscale, scaling, spectral, verify
from .lattice import CylinderGeometry

SCHEMA_VERSION = "1"
ORACLE_SITE_CAP = 20


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class ToleranceError(Exception):
    """A requested numerical gate failed; maps to exit code 2."""


# ---------------------------------------------------------------------------
# plumbing


def _fmt(value):
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema", SCHEMA_VERSION])
    writer.writerow(["seed", str(getattr(args, "seed", 0) or 0)])
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_arg(value, flag):
    """A JSON literal or a path to a JSON file."""
    if isinstance(value, (list, dict)):
        return value
    if os.path.exists(value):
        with open(value) as fh:
            return json.load(fh)
    try:
        return json.loads(value)
    except json.JSONDecodeError as err:
        raise UsageError(f"{flag}: not a file and not valid JSON ({err})")


def _apply_config(args):
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    for key, value in data.items():
        if not hasattr(args, key):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_couplings(args):
    """Couplings from either (beta, J1, J2) or the critical line.

    `--critical --t1 X` places t2 on the critical line; the keyword
    `isotropic` resolves t1 = t2 = sqrt(2) - 1.  Returns (couplings,
    beta, J1, J2) with the Boltzmann parameters synthesized as beta = 1,
    J_l = atanh(t_l) in the critical case.
    """
    critical = bool(getattr(args, "critical", None))
    t1 = getattr(args, "t1", None)
    if critical or t1 is not None:
        if t1 is None:
            raise UsageError("--critical requires --t1 (a float or 'isotropic')")
        if isinstance(t1, str) and t1.strip().lower() == "isotropic":
            cpl = exact.Couplings.isotropic_critical()
        else:
            try:
                cpl = exact.Couplings.critical_from_t1(float(t1))
            except ValueError as err:
                raise UsageError(str(err))
        return cpl, 1.0, math.atanh(cpl.t1), math.atanh(cpl.t2)
    beta, J1, J2 = args.beta, args.J1, args.J2
    if beta is None or J1 is None or J2 is None:
        raise UsageError("need --beta, --J1, --J2 or --critical --t1")
    try:
        cpl = exact.Couplings.from_beta(beta, J1, J2)
    except ValueError as err:
        raise UsageError(str(err))
    return cpl, float(beta), float(J1), float(J2)


def _resolve_geometry(args):
    if args.L is None or args.M is None:
        raise UsageError("need --L and --M")
    try:
        return CylinderGeometry(int(args.L), int(args.M))
    except ValueError as err:
        raise UsageError(str(err))


def _parse_site(text, flag):
    parts = str(text).replace(",", " ").split()
    if len(parts) != 2:
        raise UsageError(f"{flag}: expected two integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_partition(args):
    geometry = _resolve_geometry(args)
    couplings, beta, J1, J2 = _resolve_couplings(args)
    result = exact.partition_function_log(geometry, beta, J1, J2)
    header = ["L", "M", "beta", "J1", "J2", "t1", "t2",
              "log_z", "pf_sign", "log_pf_abs"]
    row = [geometry.L, geometry.M, beta, J1, J2,
           couplings.t1, couplings.t2,
           result.log_z, result.pf_sign, result.log_pf_abs]
    failed = False
    if args.oracle:
        n_sites = geometry.L * geometry.M
        if n_sites > ORACLE_SITE_CAP:
            raise UsageError(
                f"--oracle enumerates 2^(L*M) spin configurations; "
                f"L*M = {n_sites} exceeds the cap {ORACLE_SITE_CAP}")
        brute = energy.BruteForceGibbs(geometry, beta, J1, J2)
        ref = brute.log_partition()
        abs_err = abs(result.log_z - ref)
        rel_err = abs_err / abs(ref)
        header += ["oracle_log_z", "abs_err", "rel_err"]
        row += [ref, abs_err, rel_err]
        failed = rel_err > args.tol
    _emit_csv(args, header, [row])
    if failed:
        raise ToleranceError(f"partition oracle mismatch beyond {args.tol}")
    return 0


def cmd_propagator(args):
    geometry = _resolve_geometry(args)
    couplings, _, _, _ = _resolve_couplings(args)
    if args.pairs is not None:
        raw = _load_json_arg(args.pairs, "--pairs")
        try:
            pairs = [((int(z[0]), int(z[1])), (int(zp[0]), int(zp[1])))
                     for z, zp in raw]
        except (TypeError, ValueError, IndexError):
            raise UsageError("--pairs: expected [[[x,y],[x',y']], ...]")
    elif args.z is not None and args.zp is not None:
        pairs = [(_parse_site(args.z, "--z"), _parse_site(args.zp, "--zp"))]
    else:
        raise UsageError("need --pairs or both --z and --zp")
    for z, zp in pairs:
        if not (geometry.contains(z) and geometry.contains(zp)):
            raise UsageError(f"site pair {z} {zp} is outside the cylinder")
    route = args.route or "dense"
    if route == "spectral":
        if not couplings.is_critical:
            raise UsageError("the spectral route requires critical couplings")
        blocks = spectral.critical_propagator(
            geometry, couplings, [z for z, _ in pairs], [zp for _, zp in pairs])
    elif route == "dense":
        cache = exact.PropagatorCache(geometry, couplings)
        blocks = [cache.vertical_block(z, zp) for z, zp in pairs]
    else:
        raise UsageError(f"unknown route {route!r}")
    header = ["z1", "z2", "zp1", "zp2", "g_pp", "g_pm", "g_mp", "g_mm"]
    rows = []
    for (z, zp), blk in zip(pairs, blocks):
        rows.append([z[0], z[1], zp[0], zp[1],
                     float(blk[0, 0]), float(blk[0, 1]),
                     float(blk[1, 0]), float(blk[1, 1])])
    _emit_csv(args, header, rows)
    return 0


def _telescoping_pairs(geometry, seed, n_random=8):
    L, M = geometry.L, geometry.M
    rng = np.random.default_rng(seed)
    pairs = [((1, 1), (L, M)), ((1, M), (L, 1)),
             ((L // 2, max(1, M // 2)), (L // 2 + 1, max(1, M // 2)))]
    for _ in range(n_random):
        pairs.append(((int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
                      (int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1)))))
    return pairs


def cmd_multiscale(args):
    geometry = _resolve_geometry(args)
    couplings, _, _, _ = _resolve_couplings(args)
    if not couplings.is_critical:
        raise UsageError("multiscale decompositions require critical couplings")
    seed = args.seed if args.seed is not None else 0
    args.seed = seed
    modes = [bool(args.check_telescoping), args.decay is not None,
             bool(args.gram)]
    if sum(modes) != 1:
        raise UsageError("pick exactly one of --check-telescoping, "
                         "--decay, --gram")

    if args.check_telescoping:
        pairs = _telescoping_pairs(geometry, seed)
        rows, worst = [], 0.0
        for z, zp in pairs:
            for h in multiscale.scale_indices(geometry):
                resid = multiscale.telescoping_residual(geometry, couplings,
                                                        z, zp, h)
                worst = max(worst, resid)
                rows.append([z[0], z[1], zp[0], zp[1], h, resid])
        _emit_csv(args, ["z1", "z2", "zp1", "zp2", "h", "max_residual"], rows)
        if worst > args.tol:
            raise ToleranceError(
                f"telescoping residual {worst:.3e} exceeds {args.tol}")
        return 0

    h_list = _parse_h_list(args, geometry)
    if args.decay is not None:
        kind = args.decay
        if kind == "bulk":
            report = multiscale.bulk_decay_report(couplings, h_list)
        elif kind == "edge":
            report = multiscale.edge_decay_report(geometry, couplings,
                                                  h_list, seed=seed)
        elif kind == "tail":
            report = multiscale.tail_bound_report(geometry, couplings,
                                                  h_list, seed=seed)
        else:
            raise UsageError("--decay takes bulk, edge, or tail")
        header = ["h", "fitted_C", "fitted_c", "max_residual", "n_samples"]
        rows = [[rec["h"], rec["fitted_C"], rec["fitted_c"],
                 rec["max_residual"], rec["n_samples"]] for rec in report]
        _emit_csv(args, header, rows)
        return 0

    n_pairs = args.n_pairs if args.n_pairs is not None else 20
    rep = multiscale.gram_report(geometry, couplings, h_list,
                                 n_pairs=n_pairs, seed=seed)
    header = ["max_reconstruction_error", "min_cauchy_schwarz_margin",
              "norm_slope", "n_pairs"]
    rows = [[rep["max_reconstruction_error"],
             rep["min_cauchy_schwarz_margin"], rep["norm_slope"],
             rep["n_pairs"]]]
    _emit_csv(args, header, rows)
    if rep["min_cauchy_schwarz_margin"] < 0.0:
        raise ToleranceError("Cauchy-Schwarz margin went negative")
    return 0


def _parse_h_list(args, geometry):
    if args.h_list is None:
        return multiscale.scale_indices(geometry)[:-1] or [multiscale.h_star(geometry)]
    # scale indices are never positive, so accept plain depths too:
    # "1,2,3" and "-1,-2,-3" both mean h = -1, -2, -3 (argparse would
    # otherwise eat a leading dash unless written as --h-list=-1,-2,-3)
    try:
        hs = [-abs(int(tok)) for tok in str(args.h_list).split(",")
              if tok.strip()]
    except ValueError:
        raise UsageError("--h-list: expected comma-separated integers")
    if not hs:
        raise UsageError("--h-list: empty")
    return hs


def _parse_meshes(text):
    meshes = []
    try:
        for tok in str(text).split(","):
            tok = tok.strip()
            if not tok:
                continue
            val = float(tok)
            if val <= 0:
                raise ValueError
            meshes.append(1.0 / val if val > 1.0 else val)
    except ValueError:
        raise UsageError("--meshes: expected positive numbers "
                         "(integers n mean a = 1/n)")
    if len(meshes) < 2:
        raise UsageError("--meshes: need at least two mesh values")
    return meshes


def cmd_scaling(args):
    if args.l1 is None or args.l2 is None:
        raise UsageError("need --l1 and --l2")
    try:
        cylinder = scaling.ContinuumCylinder(float(args.l1), float(args.l2))
    except ValueError as err:
        raise UsageError(str(err))
    if args.t1 is None and not args.critical:
        couplings = exact.Couplings.isotropic_critical()
    else:
        couplings, _, _, _ = _resolve_couplings(args)
    if not couplings.is_critical:
        raise UsageError("the scaling limit requires critical couplings")
    if args.meshes is None:
        raise UsageError("need --meshes (e.g. 16,32,64)")
    meshes = _parse_meshes(args.meshes)
    if args.pairs is None:
        raise UsageError("need --pairs (JSON list of continuum point pairs)")
    raw = _load_json_arg(args.pairs, "--pairs")
    try:
        pairs = [((float(z[0]), float(z[1])), (float(zp[0]), float(zp[1])))
                 for z, zp in raw]
    except (TypeError, ValueError, IndexError):
        raise UsageError("--pairs: expected [[[x,y],[x',y']], ...]")
    records = scaling.scaling_remainder_records(cylinder, couplings, pairs,
                                                meshes)
    header = ["pair_id", "a", "L", "M", "residual_norm", "fitted_slope"]
    rows = [[rec["pair_id"], rec["a"], rec["L"], rec["M"],
             rec["residual_norm"], rec["fitted_slope"]] for rec in records]
    _emit_csv(args, header, rows)
    return 0


def _parse_bonds(raw, geometry, flag):
    try:
        bonds = [energy.EnergyBond(int(b[0]), int(b[1]), int(b[2]))
                 for b in raw]
    except (TypeError, ValueError, IndexError):
        raise UsageError(f"{flag}: expected [[x, y, direction], ...] "
                         "with direction 1 (horizontal) or 2 (vertical)")
    for bond in bonds:
        if not geometry.contains(bond.site):
            raise UsageError(f"{flag}: bond site {bond.site} is outside "
                             "the cylinder")
        if not geometry.contains(bond.other_site(geometry)):
            raise UsageError(f"{flag}: bond at {bond.site} leaves the "
                             "cylinder vertically")
    return bonds


def cmd_correlations(args):
    continuum = args.l1 is not None or args.l2 is not None
    if continuum:
        if args.l1 is None or args.l2 is None:
            raise UsageError("continuum mode needs both --l1 and --l2")
        if args.marked is None:
            raise UsageError("continuum mode needs --marked "
                             "(JSON list of [x, y, direction])")
        try:
            cylinder = scaling.ContinuumCylinder(float(args.l1), float(args.l2))
        except ValueError as err:
            raise UsageError(str(err))
        if args.t1 is None and not args.critical:
            couplings = exact.Couplings.isotropic_critical()
        else:
            couplings, _, _, _ = _resolve_couplings(args)
        raw = _load_json_arg(args.marked, "--marked")
        try:
            marked = [((float(p[0]), float(p[1])), int(p[2])) for p in raw]
        except (TypeError, ValueError, IndexError):
            raise UsageError("--marked: expected [[x, y, direction], ...]")
        try:
            value = energy.scal_energy_correlation(cylinder, couplings, marked)
        except ValueError as err:
            raise UsageError(str(err))
        marked_txt = ";".join(f"{p[0]}:{p[1]}:{d}" for p, d in marked)
        _emit_csv(args, ["marked", "t1", "t2", "value"],
                  [[marked_txt, couplings.t1, couplings.t2, value]])
        return 0

    geometry = _resolve_geometry(args)
    couplings, beta, J1, J2 = _resolve_couplings(args)
    if args.bonds is None:
        raise UsageError("need --bonds (JSON list of [x, y, direction])")
    raw = _load_json_arg(args.bonds, "--bonds")
    bonds = _parse_bonds(raw, geometry, "--bonds")
    try:
        value = energy.truncated_energy_correlation(geometry, couplings, bonds)
    except ValueError as err:
        raise UsageError(str(err))
    bonds_txt = ";".join(f"{b.site[0]}:{b.site[1]}:{b.direction}"
                         for b in bonds)
    header = ["bonds", "beta", "value"]
    row = [bonds_txt, beta, value]
    failed = False
    if args.oracle:
        n_sites = geometry.L * geometry.M
        if n_sites > ORACLE_SITE_CAP:
            raise UsageError(
                f"--oracle enumerates 2^(L*M) spin configurations; "
                f"L*M = {n_sites} exceeds the cap {ORACLE_SITE_CAP}")
        brute = energy.BruteForceGibbs(geometry, beta, J1, J2)
        ref = brute.truncated(bonds)
        abs_err = abs(value - ref)
        rel_err = abs_err / max(abs(ref), 1e-300)
        header += ["oracle_value", "abs_err", "rel_err"]
        row += [ref, abs_err, rel_err]
        failed = abs_err > args.tol and rel_err > args.tol
    _emit_csv(args, header, [row])
    if failed:
        raise ToleranceError(f"correlation oracle mismatch beyond {args.tol}")
    return 0


def _load_kernel_arg(args):
    if (args.input is None) == (args.random is None):
        raise UsageError("need exactly one of --input or --random n,p")
    if args.input is not None:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(f"cannot read kernel: {err}")
        try:
            return kernels.kernel_from_text(text)
        except ValueError as err:
            raise UsageError(f"--input: {err}")
    try:
        n, p = (int(tok) for tok in str(args.random).split(","))
    except ValueError:
        raise UsageError("--random: expected n,p (e.g. 2,1)")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    entries = args.entries if args.entries is not None else 6
    box = args.box if args.box is not None else 3
    try:
        return kernels.random_sparse_kernel(rng, n, p, entries=entries,
                                            box=box)
    except (ValueError, IndexError):
        raise UsageError(f"--random: no sector ({n}, {p})")


def cmd_kernels(args):
    kernel = _load_kernel_arg(args)
    if args.apply is not None:
        op = args.apply
        try:
            if op == "localize":
                kernel = kernels.localization_operator(kernel)
            elif op == "renormalize":
                kernel = kernels.renormalization_operator(kernel)
            elif op == "symmetrize":
                kernel = kernels.symmetrize(kernel)
            else:
                raise UsageError("--apply takes localize, renormalize, "
                                 "or symmetrize")
        except ValueError as err:
            raise UsageError(str(err))
    if args.save is not None:
        with open(args.save, "w", newline="") as fh:
            fh.write(kernels.kernel_to_text(kernel))
    if args.bounds:
        rate_step = args.rate_step if args.rate_step is not None else 0.5
        rates_txt = args.rate if args.rate is not None else "0"
        try:
            rates = [float(tok) for tok in str(rates_txt).split(",")
                     if tok.strip()]
        except ValueError:
            raise UsageError("--rate: expected comma-separated numbers")
        combos = [(rate, rate_step) for rate in rates]
        try:
            reports = kernels.interpolation_bound_reports(kernel, combos)
        except ValueError as err:
            raise UsageError(str(err))
        rows, worst = [], np.inf
        for (rate, step), report in zip(combos, reports):
            for name in sorted(report):
                value, bound, margin = report[name]
                worst = min(worst, margin)
                rows.append([rate, step, name, value, bound, margin])
        _emit_csv(args, ["rate", "rate_step", "name", "value", "bound",
                         "margin"], rows)
        if worst < 0.0:
            raise ToleranceError(f"interpolation bound violated "
                                 f"(margin {worst:.3e})")
        return 0
    if args.save is None:
        sys.stdout.write(kernels.kernel_to_text(kernel))
    return 0


def cmd_verify(args):
    suite = args.suite or "all"
    names = None
    if suite != "all":
        names = [tok.strip() for tok in suite.split(",") if tok.strip()]
        known = [c.__name__.replace("check_", "") for c in verify.CHECKS]
        for tok in names:
            if not any(tok in name for name in known):
                raise UsageError(f"--suite: no check matches {tok!r} "
                                 f"(have: all, {', '.join(known)})")
    records = verify.run_all(seed=args.seed, names=names)
    print(verify.format_table(records))
    failed = [rec for rec in records if not rec["passed"]]
    payload = {"schema": int(SCHEMA_VERSION), "seed": args.seed,
               "suite": suite, "records": records}
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif failed:
        json.dump({"schema": int(SCHEMA_VERSION), "seed": args.seed,
                   "failed": failed}, sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
    if failed:
        raise ToleranceError(f"{len(failed)} acceptance check(s) failed")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file supplying any unset option")
    sub.add_argument("--output", help="write CSV here instead of stdout")
    sub.add_argument("--seed", type=int, help="RNG seed, recorded in output")


def _add_geometry(sub):
    sub.add_argument("--L", type=int, help="circumference (even, >= 2)")
    sub.add_argument("--M", type=int, help="height (>= 1)")


def _add_couplings(sub):
    sub.add_argument("--beta", type=float, help="inverse temperature")
    sub.add_argument("--J1", type=float, help="horizontal exchange coupling")
    sub.add_argument("--J2", type=float, help="vertical exchange coupling")
    sub.add_argument("--critical", action="store_true", default=None,
                     help="place t2 on the critical line from --t1")
    sub.add_argument("--t1", help="horizontal tanh-coupling, or 'isotropic'")


def build_parser():
    parser = _Parser(prog="isingcyl",
                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("partition", help="exact log partition function")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--oracle", action="store_true", default=None,
                     help="compare against brute-force enumeration")
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="relative tolerance for --oracle")
    sub.set_defaults(func=cmd_partition)

    sub = commands.add_parser("propagator", help="two-point function blocks")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--pairs", help="JSON [[[x,y],[x',y']], ...] or a file")
    sub.add_argument("--z", help="single source site 'x,y'")
    sub.add_argument("--zp", help="single target site 'x,y'")
    sub.add_argument("--route", choices=["dense", "spectral"],
                     help="matrix inverse (any couplings) or momentum sum "
                          "(critical only); default dense")
    sub.set_defaults(func=cmd_propagator)

    sub = commands.add_parser("multiscale", help="scale decomposition checks")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--check-telescoping", action="store_true", default=None,
                     help="verify the scales resum to the full propagator")
    sub.add_argument("--decay", choices=["bulk", "edge", "tail"],
                     help="fit decay envelopes for these single-scale parts")
    sub.add_argument("--gram", action="store_true", default=None,
                     help="Gram reconstruction and norm-scaling report")
    sub.add_argument("--h-list", dest="h_list",
                     help="comma-separated scale depths, e.g. 1,2,3 for "
                          "h = -1,-2,-3 (default: every scale below 0)")
    sub.add_argument("--n-pairs", dest="n_pairs", type=int,
                     help="sample pairs for --gram (default 20)")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="residual tolerance for --check-telescoping")
    sub.set_defaults(func=cmd_multiscale)

    sub = commands.add_parser("scaling", help="lattice-to-continuum rate sweep")
    _add_common(sub)
    _add_couplings(sub)
    sub.add_argument("--l1", type=float, help="continuum circumference")
    sub.add_argument("--l2", type=float, help="continuum height")
    sub.add_argument("--meshes", help="comma list; integers n mean a = 1/n")
    sub.add_argument("--pairs", help="JSON [[[x,y],[x',y']], ...] or a file")
    sub.set_defaults(func=cmd_scaling)

    sub = commands.add_parser("correlations",
                              help="truncated energy correlations")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--bonds", help="JSON [[x, y, direction], ...] or a file")
    sub.add_argument("--oracle", action="store_true", default=None,
                     help="compare against brute-force enumeration")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="tolerance for --oracle")
    sub.add_argument("--l1", type=float,
                     help="continuum circumference (selects continuum mode)")
    sub.add_argument("--l2", type=float, help="continuum height")
    sub.add_argument("--marked",
                     help="continuum JSON [[x, y, direction], ...] or a file")
    sub.set_defaults(func=cmd_correlations)

    sub = commands.add_parser("kernels", help="local-kernel calculus")
    _add_common(sub)
    sub.add_argument("--input", help="kernel text file to load")
    sub.add_argument("--random", help="generate a random 'n,p' sector kernel")
    sub.add_argument("--entries", type=int, help="entries for --random")
    sub.add_argument("--box", type=int, help="position box for --random")
    sub.add_argument("--apply",
                     choices=["localize", "renormalize", "symmetrize"],
                     help="operator to apply before reporting/saving")
    sub.add_argument("--save", help="write the (transformed) kernel here")
    sub.add_argument("--bounds", action="store_true", default=None,
                     help="emit the interpolation bound margins as CSV")
    sub.add_argument("--rate", help="comma list of decay rates (default 0)")
    sub.add_argument("--rate-step", dest="rate_step", type=float,
                     help="rate increment for the bounds (default 0.5)")
    sub.set_defaults(func=cmd_kernels)

    sub = commands.add_parser("verify", help="acceptance criteria suite")
    _add_common(sub)
    sub.add_argument("--suite", help="'all' or comma list of check names")
    sub.add_argument("--json", help="write machine-readable records here")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        _apply_config(args)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ToleranceError as err:
        print(f"tolerance failure: {err}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
