"""Batch front end: configuration, runs, verification, data export.

Subcommands mirror the library layout: `partition`, `propagator`,
`multiscale`, `scaling`, `correlations`, `kernels`, `verify`.  Options
come from flags or from a single JSON config file (via ``--config``),
one object keyed by option name (``n_pairs`` for ``--n-pairs``).  Each
entry becomes the flag it names, placed before the command line's and
parsed with them, so it passes the same types, choices and defaults and
explicit flags win: a switch takes true or false, null leaves an option
unset, and lists and objects are written as JSON text.  Tabular output
is CSV (RFC-4180 style, dot decimal, 17 significant digits) with a
``schema,1`` prelude row and the run seed recorded.  Exit codes: 0 on
success; 1 on a usage error, which includes a ValueError from the
library's own input checks and an allocation the machine cannot satisfy
(MemoryError), each reported as one ``error:`` line; 2 on tolerance
failure or on a failed internal certificate (an AssertionError,
RuntimeError, ArithmeticError or SingularSkewError from the library,
reported in one line).  `main` is the one place that maps exception
classes to these codes.

Runs are deterministic: the same (config, seed) produces byte-identical
output.  The spectral propagator table is evaluated as one batch.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import energy, exact, kernels, multiscale, scaling, spectral, verify
from .lattice import CylinderGeometry
from .skew import SingularSkewError

SCHEMA_VERSION = "1"
# largest arity for `kernels --random`: its draw enumerates 6^n splittings,
# ~2 s at n = 8 and 36 times that at n = 10
RANDOM_KERNEL_MAX_N = 8
# random site pairs that `multiscale --check-telescoping` adds to its
# three fixed corner and centre pairs
TELESCOPING_RANDOM_PAIRS = 8
# largest induced L*M that `scaling` builds mode tables for: a 2048 x 2048
# `SpectralData` already peaks near 0.6 GB
SCALING_SITE_CAP = 2048 * 2048


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


@functools.cache
def _line_format(kinds):
    """%-format of one CSV line for a row with values of these types,
    each formatted as by `_fmt`."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in kinds) + "\n"


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema", SCHEMA_VERSION])
    writer.writerow(["seed", str(args.seed)])
    writer.writerow(header)
    body = "".join([_line_format(tuple(map(type, row))) % tuple(row) for row in rows])
    # the csv module would quote a field with a comma, a quote or a line
    # break, and a lone empty field; such rows go through it instead
    if ('"' in body or "\r" in body or "\n\n" in body or body.startswith("\n")
            or body.count("\n") != len(rows)
            or body.count(",") != sum(map(len, rows)) - len(rows)):
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    else:
        buf.write(body)
    text = buf.getvalue()
    if args.output:
        _write_file(args.output, text, "--output")
    else:
        sys.stdout.write(text)


def _write_file(path, text, flag):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"{flag}: cannot write: {err}")


def _read_json(path, flag):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:  # JSONDecodeError is a ValueError
        raise UsageError(f"{flag}: cannot read {path} as JSON ({err})")


def _load_json_arg(value, flag):
    """A JSON literal or a path to a JSON file."""
    if os.path.exists(value):
        return _read_json(value, flag)
    try:
        return json.loads(value)
    except json.JSONDecodeError as err:
        raise UsageError(f"{flag}: not a file and not valid JSON ({err})")


def _config_flags(sub, path):
    """The flags of subcommand parser `sub` that the --config file at
    `path` stands for: key k is the option of dest k, a switch is given
    when true, null is skipped and any other non-string is JSON text."""
    data = _read_json(path, "--config")
    if not isinstance(data, dict):
        raise UsageError("--config: must be a JSON object")
    options = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    flags = []
    for key, value in data.items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        if value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r}: {flag} takes true or false")
            flags += [flag] if value else []
        else:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return flags


def _resolve_couplings(args):
    """Couplings from either (beta, J1, J2) or the critical line.

    `--critical --t1 X` places t2 on the critical line; the keyword
    `isotropic` resolves t1 = t2 = sqrt(2) - 1.  Returns (couplings,
    beta, J1, J2) with the Boltzmann parameters synthesized as beta = 1,
    J_l = atanh(t_l) in the critical case.
    """
    if args.critical or args.t1 is not None:
        if args.t1 is None:
            raise UsageError("--critical requires --t1 (a float or 'isotropic')")
        if args.t1.strip().lower() == "isotropic":
            cpl = exact.Couplings.isotropic_critical()
        else:
            cpl = exact.Couplings.critical_from_t1(float(args.t1))
        return cpl, 1.0, math.atanh(cpl.t1), math.atanh(cpl.t2)
    beta, J1, J2 = args.beta, args.J1, args.J2
    if beta is None or J1 is None or J2 is None:
        raise UsageError("need --beta, --J1, --J2 or --critical --t1")
    return exact.Couplings.from_beta(beta, J1, J2), beta, J1, J2


def _continuum_couplings(args):
    """The continuum commands sit at criticality: isotropic unless --t1
    or --critical is given; a temperature is a usage error."""
    given = [flag for flag, value in (("--beta", args.beta), ("--J1", args.J1),
                                      ("--J2", args.J2)) if value is not None]
    if given:
        raise UsageError(f"{', '.join(given)}: the continuum limit sits at criticality; "
                         "choose it with --critical --t1 (default isotropic)")
    if args.t1 is None and not args.critical:
        return exact.Couplings.isotropic_critical()
    return _resolve_couplings(args)[0]


def _resolve_geometry(args):
    if args.L is None or args.M is None:
        raise UsageError("need --L and --M")
    return CylinderGeometry(args.L, args.M)


def _parse_site(text, flag):
    try:
        x, y = (int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"{flag}: expected two integers, got {text!r}")
    return (x, y)


def _brute_force(args, geometry, beta, J1, J2):
    """The `--oracle` enumeration, None without the flag.  Built before the
    exact route, so a lattice over its site cap is rejected first."""
    if not args.oracle:
        return None
    try:
        return energy.BruteForceGibbs(geometry, beta, J1, J2)
    except ValueError as err:
        raise UsageError(f"--oracle: {err}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_partition(args):
    geometry = _resolve_geometry(args)
    couplings, beta, J1, J2 = _resolve_couplings(args)
    brute = _brute_force(args, geometry, beta, J1, J2)
    result = exact.partition_function_log(geometry, beta, J1, J2)
    header = ["L", "M", "beta", "J1", "J2", "t1", "t2",
              "log_z", "pf_sign", "log_pf_abs"]
    row = [geometry.L, geometry.M, beta, J1, J2,
           couplings.t1, couplings.t2,
           result.log_z, result.pf_sign, result.log_pf_abs]
    failed = False
    if args.oracle:
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
    # `mode_sum` also takes the extended rows 0 and M + 1; the CLI does not
    for z, zp in pairs:
        if not (geometry.contains(z) and geometry.contains(zp)):
            raise UsageError(f"site pair {z} {zp} is outside the cylinder")
    propagate = {"dense": exact.dense_propagator,
                 "spectral": spectral.critical_propagator}[args.route]
    blocks = propagate(geometry, couplings, [z for z, _ in pairs], [zp for _, zp in pairs])
    header = ["z1", "z2", "zp1", "zp2", "g_pp", "g_pm", "g_mp", "g_mm"]
    rows = [[*z, *zp, *map(float, blk.ravel())] for (z, zp), blk in zip(pairs, blocks)]
    _emit_csv(args, header, rows)
    return 0


def _telescoping_pairs(geometry, seed):
    L, M = geometry.L, geometry.M
    rng = np.random.default_rng(seed)
    pairs = [((1, 1), (L, M)), ((1, M), (L, 1)),
             ((L // 2, max(1, M // 2)), (L // 2 + 1, max(1, M // 2)))]
    for _ in range(TELESCOPING_RANDOM_PAIRS):
        pairs.append(((int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
                      (int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1)))))
    return pairs


def cmd_multiscale(args):
    geometry = _resolve_geometry(args)
    couplings, _, _, _ = _resolve_couplings(args)
    if not couplings.is_critical:
        raise UsageError("multiscale decompositions require critical couplings")
    if sum([args.check_telescoping, args.decay is not None, args.gram]) != 1:
        raise UsageError("pick exactly one of --check-telescoping, "
                         "--decay, --gram")

    if args.check_telescoping:
        pairs = _telescoping_pairs(geometry, args.seed)
        zs, zps = zip(*pairs)
        resid = {h: multiscale.telescoping_residual(geometry, couplings, zs, zps, h)
                 for h in multiscale.scale_indices(geometry)}
        rows = [[*z, *zp, h, float(r[p])]
                for p, (z, zp) in enumerate(pairs) for h, r in resid.items()]
        worst = max(row[-1] for row in rows)
        _emit_csv(args, ["z1", "z2", "zp1", "zp2", "h", "max_residual"], rows)
        if worst > args.tol:
            raise ToleranceError(
                f"telescoping residual {worst:.3e} exceeds {args.tol}")
        return 0

    h_list = _parse_h_list(args, geometry)
    if args.decay is not None:
        try:
            if args.decay == "bulk":
                report = multiscale.bulk_decay_report(couplings, h_list)
            elif args.decay == "edge":
                report = multiscale.edge_decay_report(geometry, couplings,
                                                      h_list, seed=args.seed)
            else:
                report = multiscale.tail_bound_report(geometry, couplings,
                                                      h_list, seed=args.seed)
        except multiscale.SampleDepthError as err:
            raise UsageError(f"--h-list: {err}")
        header = ["h", "fitted_C", "fitted_c", "max_residual", "n_samples"]
        rows = [[rec["h"], rec["fitted_C"], rec["fitted_c"],
                 rec["max_residual"], rec["n_samples"]] for rec in report]
        _emit_csv(args, header, rows)
        return 0

    if args.n_pairs < 1:
        raise UsageError(f"--n-pairs: need at least one pair, got {args.n_pairs}")
    rep = multiscale.gram_report(geometry, couplings, h_list,
                                 n_pairs=args.n_pairs, seed=args.seed)
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
        # every scale strictly between h* (wrap-contaminated) and 0
        return multiscale.scale_indices(geometry)[1:-1] or [multiscale.h_star(geometry)]
    # scale indices are never positive, so accept plain depths too:
    # "1,2,3" and "-1,-2,-3" both mean h = -1, -2, -3 (argparse would
    # otherwise eat a leading dash unless written as --h-list=-1,-2,-3)
    try:
        hs = [-abs(int(tok)) for tok in args.h_list.split(",")
              if tok.strip()]
    except ValueError:
        raise UsageError("--h-list: expected comma-separated integers")
    if not hs:
        raise UsageError("--h-list: empty")
    deepest = multiscale.h_star(geometry)
    if min(hs) < deepest:
        raise UsageError(f"--h-list: h = {min(hs)} lies below h* = {deepest} on "
                         f"{geometry.L} x {geometry.M}; allowed depths are 0..{-deepest}")
    return hs


def _parse_meshes(text):
    meshes = []
    try:
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            val = float(tok)
            if not 0 < val < math.inf:
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
    cylinder = scaling.ContinuumCylinder(args.l1, args.l2)
    couplings = _continuum_couplings(args)
    if args.meshes is None:
        raise UsageError("need --meshes (e.g. 16,32,64)")
    meshes = _parse_meshes(args.meshes)
    for a in meshes:
        try:
            L, M = cylinder.lattice_sizes(a)
        except ValueError as err:
            raise UsageError(f"--meshes: {err}")
        if L * M > SCALING_SITE_CAP:
            raise UsageError(f"--meshes: mesh a={a:g} induces L={L}, M={M}; "
                             f"L*M exceeds the cap {SCALING_SITE_CAP}")
    if args.pairs is None:
        raise UsageError("need --pairs (JSON list of continuum point pairs)")
    raw = _load_json_arg(args.pairs, "--pairs")
    try:
        pairs = [((float(z[0]), float(z[1])), (float(zp[0]), float(zp[1])))
                 for z, zp in raw]
    except (TypeError, ValueError, IndexError):
        raise UsageError("--pairs: expected [[[x,y],[x',y']], ...]")
    try:
        records = scaling.scaling_remainder_records(cylinder, couplings, pairs,
                                                    meshes)
    except (ValueError, ZeroDivisionError) as err:
        # bad pairs: a point on a boundary row, or a pair coincident
        # around the ring or with its mirror image
        raise UsageError(f"--pairs: {err}")
    header = ["pair_id", "a", "L", "M", "residual_norm", "fitted_slope"]
    rows = [[rec["pair_id"], rec["a"], rec["L"], rec["M"],
             rec["residual_norm"], rec["fitted_slope"]] for rec in records]
    _emit_csv(args, header, rows)
    return 0


def _parse_bonds(raw):
    try:
        return [energy.EnergyBond(int(b[0]), int(b[1]), int(b[2])) for b in raw]
    except (TypeError, ValueError, IndexError):
        raise UsageError("--bonds: expected [[x, y, direction], ...] "
                         "with direction 1 (horizontal) or 2 (vertical)")


def cmd_correlations(args):
    continuum = args.l1 is not None or args.l2 is not None
    if continuum:
        if args.l1 is None or args.l2 is None:
            raise UsageError("continuum mode needs both --l1 and --l2")
        if args.marked is None:
            raise UsageError("continuum mode needs --marked "
                             "(JSON list of [x, y, direction])")
        cylinder = scaling.ContinuumCylinder(args.l1, args.l2)
        couplings = _continuum_couplings(args)
        raw = _load_json_arg(args.marked, "--marked")
        try:
            marked = [((float(p[0]), float(p[1])), int(p[2])) for p in raw]
        except (TypeError, ValueError, IndexError):
            raise UsageError("--marked: expected [[x, y, direction], ...]")
        value = energy.scal_energy_correlation(cylinder, couplings, marked)
        marked_txt = ";".join(f"{p[0]}:{p[1]}:{d}" for p, d in marked)
        _emit_csv(args, ["marked", "t1", "t2", "value"],
                  [[marked_txt, couplings.t1, couplings.t2, value]])
        return 0

    geometry = _resolve_geometry(args)
    couplings, beta, J1, J2 = _resolve_couplings(args)
    if args.bonds is None:
        raise UsageError("need --bonds (JSON list of [x, y, direction])")
    raw = _load_json_arg(args.bonds, "--bonds")
    bonds = _parse_bonds(raw)
    brute = _brute_force(args, geometry, beta, J1, J2)
    value = energy.truncated_energy_correlation(geometry, couplings, bonds)
    bonds_txt = ";".join(f"{b.site[0]}:{b.site[1]}:{b.direction}"
                         for b in bonds)
    header = ["bonds", "beta", "value"]
    row = [bonds_txt, beta, value]
    failed = False
    if args.oracle:
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
        n, p = (int(tok) for tok in args.random.split(","))
    except ValueError:
        raise UsageError("--random: expected n,p (e.g. 2,1)")
    if n > RANDOM_KERNEL_MAX_N:
        raise UsageError(f"--random: n = {n} exceeds {RANDOM_KERNEL_MAX_N}; drawing "
                         f"enumerates all 6^n derivative splittings")
    try:
        return kernels.random_sparse_kernel(np.random.default_rng(args.seed), n, p,
                                            entries=args.entries, box=args.box)
    except ValueError as err:
        raise UsageError(f"--random: {err}")


def cmd_kernels(args):
    kernel = _load_kernel_arg(args)
    if args.apply is not None:
        operator = {"localize": kernels.localization_operator,
                    "renormalize": kernels.renormalization_operator,
                    "symmetrize": kernels.symmetrize}[args.apply]
        kernel = operator(kernel)
    if args.save is not None:
        _write_file(args.save, kernels.kernel_to_text(kernel), "--save")
    if args.bounds:
        try:
            rates = [float(tok) for tok in args.rate.split(",") if tok.strip()]
        except ValueError:
            raise UsageError("--rate: expected comma-separated numbers")
        combos = [(rate, args.rate_step) for rate in rates]
        reports = kernels.interpolation_bound_reports(kernel, combos)
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
    names = None
    if args.suite != "all":
        names = [tok.strip() for tok in args.suite.split(",") if tok.strip()]
        known = [c.__name__.replace("check_", "") for c in verify.CHECKS]
        for tok in names:
            if not any(tok in name for name in known):
                raise UsageError(f"--suite: no check matches {tok!r} "
                                 f"(have: all, {', '.join(known)})")
    records = verify.run_all(seed=args.seed, names=names)
    print(verify.format_table(records))
    failed = [rec for rec in records if not rec["passed"]]
    payload = {"schema": int(SCHEMA_VERSION), "seed": args.seed,
               "suite": args.suite, "records": records}
    if args.json is not None:
        _write_file(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    "--json")
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
    sub.add_argument("--config", help="JSON file of option values; flags win")
    sub.add_argument("--output", help="write CSV here instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in output")


def _add_geometry(sub):
    sub.add_argument("--L", type=int, help="circumference (even, >= 2)")
    sub.add_argument("--M", type=int, help="height (>= 1)")


def _add_couplings(sub):
    sub.add_argument("--beta", type=float, help="inverse temperature")
    sub.add_argument("--J1", type=float, help="horizontal exchange coupling")
    sub.add_argument("--J2", type=float, help="vertical exchange coupling")
    sub.add_argument("--critical", action="store_true",
                     help="place t2 on the critical line from --t1")
    sub.add_argument("--t1", help="horizontal tanh-coupling, or 'isotropic'")


def build_parser():
    parser = _Parser(prog="isingcyl",
                     description=__doc__.splitlines()[0])
    commands = parser.commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("partition", help="exact log partition function")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--oracle", action="store_true",
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
    sub.add_argument("--route", choices=["dense", "spectral"], default="dense",
                     help="matrix inverse (any couplings) or momentum sum "
                          "(critical only); default dense")
    sub.set_defaults(func=cmd_propagator)

    sub = commands.add_parser("multiscale", help="scale decomposition checks")
    _add_common(sub)
    _add_geometry(sub)
    _add_couplings(sub)
    sub.add_argument("--check-telescoping", action="store_true",
                     help="verify the scales resum to the full propagator")
    sub.add_argument("--decay", choices=["bulk", "edge", "tail"],
                     help="fit decay envelopes for these single-scale parts")
    sub.add_argument("--gram", action="store_true",
                     help="Gram reconstruction and norm-scaling report")
    sub.add_argument("--h-list", dest="h_list",
                     help="comma-separated scale depths, e.g. 1,2,3 for "
                          "h = -1,-2,-3 (default: every scale strictly "
                          "between h* and 0, or h* alone if there is none)")
    sub.add_argument("--n-pairs", dest="n_pairs", type=int, default=4,
                     help="sample pairs checked by --gram (default 4)")
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
    sub.add_argument("--oracle", action="store_true",
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
    sub.add_argument("--entries", type=int, default=6, help="entries for --random")
    sub.add_argument("--box", type=int, default=3, help="position box for --random")
    sub.add_argument("--apply",
                     choices=["localize", "renormalize", "symmetrize"],
                     help="operator to apply before reporting/saving")
    sub.add_argument("--save", help="write the (transformed) kernel here")
    sub.add_argument("--bounds", action="store_true",
                     help="emit the interpolation bound margins as CSV")
    sub.add_argument("--rate", default="0", help="comma list of decay rates (default 0)")
    sub.add_argument("--rate-step", dest="rate_step", type=float, default=0.5,
                     help="rate increment for the bounds (default 0.5)")
    sub.set_defaults(func=cmd_kernels)

    sub = commands.add_parser("verify", help="acceptance criteria suite")
    _add_common(sub)
    sub.add_argument("--suite", default="all",
                     help="'all' or comma list of check names")
    sub.add_argument("--json", help="write machine-readable records here")
    # no seed: each check runs at its own frozen default
    sub.set_defaults(func=cmd_verify, seed=None)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.config is not None:
            # the file's flags go before the command line's, which win
            sub = parser.commands.choices[args.command]
            args = parser.parse_args([args.command, *_config_flags(sub, args.config),
                                      *argv[1:]])
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ToleranceError as err:
        print(f"tolerance failure: {err}", file=sys.stderr)
        return 2
    # first: SingularSkewError is a ValueError
    except (AssertionError, RuntimeError, ArithmeticError, SingularSkewError) as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # the library's own input checks name the offending value
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
