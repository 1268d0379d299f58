"""isingcyl benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 bench/run.py --workload fixed_cylinders --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --compare BASE.txt NEW.txt

A run imports the library from `src/`, builds the workload's inputs from
the seed, then repeats passes over the workload's ops for `--seconds`.
Every pass clears the library's lru caches first and rebuilds the tables
the workload reuses (timed as set-up), because a command-line user pays
every cache fill on every run.  After the last pass the outputs of the
first pass are checked and later passes must reproduce them bit for bit.

Standard output ends with a readable table, one `{"bench_record": ...}`
line (all metrics plus run metadata, the input of `--compare`) and one
result line with the metrics `BENCHMARK.json` names.  With `--trace 1`
the second half of the run is one traced pass, reported per layer; its
spans go to `bench/out/`.  See bench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fixed_cylinders", "varied_geometries")
# its propagator table goes through the CLI at ISINGCYL_PARALLEL = nproc
PARALLEL_WORKLOADS = ("fixed_cylinders",)
IMPORT_PROBES = 3

# every end-to-end metric: name -> (unit, better, bound); bound is the
# share of the base median by which a metric may worsen (see compare.py)
E2E = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "fail_ratio": ("1", "lower", 0.0),
    "propagator_pairs_per_s": ("1/s", "higher", 0.25),
    "logz_s": ("s", "lower", 0.25),
    "image_sums_per_s": ("1/s", "higher", 0.25),
    "kernels_per_s": ("1/s", "higher", 0.25),
}


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest():
    digest = hashlib.sha1()
    for path in sorted((SRC / "isingcyl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _import_seconds():
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import isingcyl.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _clear_library_caches():
    for name, mod in list(sys.modules.items()):
        if name == "isingcyl" or name.startswith("isingcyl."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _canonical(obj):
    """JSON-able form of an op output that is equal iff the output is."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ["ndarray", data.dtype.str, list(data.shape),
                hashlib.sha1(data.tobytes()).hexdigest()]
    if isinstance(obj, float):
        return float(obj).hex()
    if obj is None or isinstance(obj, (bool, int, str, np.integer)):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if hasattr(obj, "items"):
        return sorted([repr(k), _canonical(v)] for k, v in obj.items())
    if hasattr(obj, "__dict__"):
        return _canonical(vars(obj))
    return repr(obj)


def _digest(obj):
    return hashlib.sha1(json.dumps(_canonical(obj)).encode()).hexdigest()


def _one_pass(groups, ops, tracer=None):
    """Clear caches, set up, run every op once; times exclude the checks."""
    _clear_library_caches()
    cache_delta = None
    if tracer:
        tracer.install()
        for group in groups:
            group.count = tracer.counted("energy.correlator.lookups")
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span("bench.setup"):
        for group in groups:
            group.setup()
    t1 = time.perf_counter()
    times, outputs, errors = [], [], []
    for op in ops:
        start = time.perf_counter()
        try:
            with span(f"bench.{op.job}"):
                out = op.fn()
            err = None
        except Exception as exc:  # a raising op is a failed op, not an abort
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        outputs.append(out)
        errors.append(err)
    t2 = time.perf_counter()
    if tracer:
        cache_delta = tracer.uninstall()
        for group in groups:
            group.count = lambda fn: fn
    return dict(setup=t1 - t0, wall=t2 - t1, times=times, outputs=outputs,
                errors=errors, digests=[_digest(o) for o in outputs],
                cache_delta=cache_delta)


def _headline(group, ops, owners, op_s):
    _, _, kind = group.headline
    picked = [(op.units, t) for op, owner, t in zip(ops, owners, op_s)
              if owner is group and op.headline]
    busy = sum(t for _, t in picked)
    return busy if kind == "time" else sum(u for u, _ in picked) / busy


def _check(ops, passes):
    """(attempted, failed, reasons): pass 1 by the checks, later passes by
    bit-identity with pass 1."""
    first = passes[0]
    first_ok, reasons = [], []
    for op, out, err in zip(ops, first["outputs"], first["errors"]):
        reason = err
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # a crashing check fails its op
                reason = f"check raised {type(exc).__name__}: {exc}"
        first_ok.append(reason is None)
        if reason:
            reasons.append(f"{op.job}: {reason}")
    attempted = failed = 0
    for k, rec in enumerate(passes):
        for i, op in enumerate(ops):
            attempted += 1
            if not first_ok[i]:
                failed += 1
            elif rec["errors"][i] or rec["digests"][i] != first["digests"][i]:
                failed += 1
                reasons.append(f"{op.job}: pass {k + 1} "
                               f"{rec['errors'][i] or 'differs from pass 1'}")
    return attempted, failed, reasons


def _write_spans(tracer, name, seed, meta):
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.json"
    fields = ("id", "parent", "name", "start", "end", "size")
    with open(path, "w") as fh:
        json.dump(dict(meta=meta, fields=fields, spans=tracer.spans), fh)
    return path


def run(args, spec):
    nproc = len(os.sched_getaffinity(0))
    parallel = nproc if args.workload in PARALLEL_WORKLOADS else 1
    blas_threads = max(1, nproc // parallel)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    os.environ["ISINGCYL_PARALLEL"] = str(parallel)
    import_s = _import_seconds()

    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracer as tracing
    import workloads

    groups = [cls(args.seed) for cls in workloads.WORKLOADS[args.workload]]
    ops, owners = [], []
    for group in groups:
        for op in group.ops():
            ops.append(op)
            owners.append(group)
    meta = dict(git_sha=_git_sha(), src_sha1=_src_digest(), nproc=nproc,
                blas_threads=blas_threads, isingcyl_parallel=parallel,
                seed=args.seed, python=platform.python_version(),
                numpy=np.__version__, machine=platform.machine())

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_one_pass(groups, ops))
        for rec in passes[1:]:
            rec["outputs"] = None   # only pass 1 is checked in full
        estimate = statistics.median(r["setup"] + r["wall"] for r in passes)
        if time.perf_counter() - start + estimate > budget:
            break
    untraced = list(passes)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        passes.append(_one_pass(groups, ops, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, reasons = _check(ops, passes)
    # each op's duration is its median over the passes, so a burst of
    # machine noise in one pass does not move the whole pass
    op_s = [statistics.median(r["times"][i] for r in untraced) for i in range(len(ops))]
    metrics = {
        "wall_s": sum(op_s),
        "setup_s": import_s + statistics.median(r["setup"] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
    }
    for group in groups:
        metrics[group.headline[0]] = _headline(group, ops, owners, op_s)
    jobs = {}
    for op, owner, t in zip(ops, owners, op_s):
        key = f"{owner.name}/{op.job}"
        jobs[key] = jobs.get(key, 0.0) + t
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=len(untraced), attempted=attempted,
                  failed=failed, failures=reasons[:20], meta=meta,
                  metrics=metrics, units={k: E2E[k][0] for k in metrics},
                  jobs_s=jobs,
                  import_s=import_s)

    print(f"isingcyl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} timed pass(es), {attempted} ops, {failed} failed")
    for name, (unit, _, _) in E2E.items():
        value = f"{metrics[name]:.6g}" if name in metrics else "n/a"
        print(f"  {name:<24} {value:>12} {unit}")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")

    wanted = spec["end_to_end"]
    values = {k: (v, E2E[k][0]) for k, v in metrics.items()}
    if tracer:
        traced = passes[-1]
        layers = tracing.per_layer_metrics(tracer.layer_stats(), tracer.counters,
                                           traced["cache_delta"])
        layers["trace.overhead_s"] = (traced["wall"] - metrics["wall_s"], "s")
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["per_layer_units"] = {k: u for k, (_, u) in layers.items()}
        print(f"  traced pass {traced['wall']:.4f} s, spans written to "
              f"{_write_spans(tracer, args.workload, args.seed, meta).relative_to(ROOT)}")
        for name, (value, unit) in layers.items():
            if value:
                print(f"  {name:<52} {value:>14.6g} {unit}")
        wanted, values = spec["per_layer"], layers

    result = {}
    for entry in wanted:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} but BENCHMARK.json "
                               f"says {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"bench_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of captured run output")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "isingcyl" / "__init__.py").is_file():
        print(f"error: no isingcyl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"]:
        if E2E.get(entry["name"]) != (entry["unit"], entry["better"], entry["bound"]):
            print(f"error: BENCHMARK.json entry {entry['name']!r} disagrees with "
                  "E2E in bench/run.py", file=sys.stderr)
            return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
