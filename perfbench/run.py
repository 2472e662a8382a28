"""cuphom benchmark: one workload, one process, one thread, closed loop.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload scan-b5 --seed 1 --seconds 30 --trace 0

The benchmark imports cuphom from ``src/`` of the checkout it lives in and
refuses to run (exit 2) without it.  It times set-up several times and
reports the median, runs the workload's operations one after another for
``--seconds``, then checks every output against the references in
``checks.py`` (outside the timed region).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
whole passes for about ``--seconds``, each operation once with the layer
wrappers of ``tracing.py`` installed and once without, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced time).
The last line of standard output is the JSON result; the line before it
records provenance.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tomllib
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 8  # set-ups before the timed loop, and again after it
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workload_names))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cuphom_modules():
    return {m: mod for m, mod in sys.modules.items() if m == "cuphom" or m.startswith("cuphom.")}


def set_up(workload_cls, seed, workdir, tag="early"):
    """Import cuphom, make the inputs and warm up, SETUP_REPEATS times.

    Returns the last workload instance and the set-up times.
    """
    times = []
    wl = None
    for i in range(SETUP_REPEATS):
        for name in cuphom_modules():
            del sys.modules[name]
        start = perf_counter()
        cuphom = importlib.import_module("cuphom")
        wl = workload_cls(seed, Path(workdir) / f"setup-{tag}-{i}")
        wl.warm_up()
        times.append(perf_counter() - start)
    origin = Path(cuphom.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cuphom was imported from {origin}, not from {SRC}")
    return wl, times


def set_up_again(workload_cls, seed, workdir):
    """Set-up samples taken after the timed loop, so that the median spans
    the run instead of one moment of a noisy host.  The modules the measured
    outputs came from are put back, so those outputs stay checkable."""
    saved = cuphom_modules()
    try:
        return set_up(workload_cls, seed, workdir, tag="late")[1]
    finally:
        for name in cuphom_modules():
            del sys.modules[name]
        sys.modules.update(saved)


class Loop:
    """Runs a workload's operations and keeps (op, seconds, kept output)."""

    def __init__(self, wl):
        self.wl = wl
        self.records = []
        self.errors = 0

    def one(self, op):
        wl = self.wl
        start = perf_counter()
        try:
            out = wl.call(op)
        except Exception:  # a failed operation is a failed output, not a crash
            dt = perf_counter() - start
            self.errors += 1
            if self.errors == 1:
                traceback.print_exc(file=sys.stderr)
            self.records.append((op, dt, None, True))
            return dt
        dt = perf_counter() - start
        self.records.append((op, dt, wl.snapshot(op, out), False))
        return dt

    def for_seconds(self, seconds):
        """Closed loop over passes, stopping after the operation that reaches ``seconds``."""
        start = perf_counter()
        k = 0
        while True:
            for op in self.wl.cycle(k, "run"):
                self.one(op)
                if perf_counter() - start >= seconds:
                    return perf_counter() - start
            k += 1

    def paired(self, seconds, tracer):
        """Whole passes, each operation run once traced and once untraced.

        The two copies run back to back, alternating which goes first, so a
        slow or fast spell of the host falls on both and their difference is
        the tracing overhead.  Returns (passes, traced s, untraced s, traced ops).
        """
        start = perf_counter()
        k = 0
        spent = {True: 0.0, False: 0.0}
        traced_ops = []
        while k == 0 or perf_counter() - start < seconds:
            pairs = zip(self.wl.cycle(k, "traced"), self.wl.cycle(k, "untraced"))
            for i, (a, b) in enumerate(pairs):
                for op, on in ((a, True), (b, False)) if i % 2 == 0 else ((b, False), (a, True)):
                    if on:
                        with tracer:
                            spent[on] += self.one(op)
                        traced_ops.append(op)
                    else:
                        spent[on] += self.one(op)
            k += 1
        return k, spent[True], spent[False], traced_ops


def verify(wl, records):
    refs = checks.References()

    def results():
        for op, _, kept, raised in records:
            bad = ["operation raised"] if raised else wl.check(op, kept, refs)
            yield [f"{op.label}: {m}" for m in bad]

    attempted, failed, examples = checks.tally(results())
    for line in examples:
        print(f"MISMATCH: {line}", file=sys.stderr)
    return attempted, failed


def latency_summary(seconds_list):
    """(p50, tail value, tail percentile, samples); the tail is the highest
    percentile with at least TAIL_BEYOND samples beyond it (the maximum when
    there are too few samples)."""
    s = sorted(seconds_list)
    n = len(s)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    pct = 100.0 * (idx + 1) / n
    return statistics.median(s), s[idx], pct, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seconds, setup_times):
    loop = Loop(wl)
    loop.for_seconds(seconds)
    rss = peak_rss_mb()
    setup_times = setup_times + set_up_again(type(wl), wl.seed, wl.workdir.parent)
    dts = [dt for _, dt, _, _ in loop.records]
    ops_per_s = wl.ops_per_s([(op, dt) for op, dt, _, _ in loop.records])
    p50, tail, pct, n = latency_summary(dts)
    attempted, failed = verify(wl, loop.records)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {"tail_percentile": round(pct, 2), "latency_samples": n,
             "units_completed": sum(wl.units(op) for op, *_ in loop.records),
             "setup_times_s": [round(t, 6) for t in setup_times]}
    return attempted, failed, metrics, notes


def traced(wl, seconds):
    loop = Loop(wl)
    tracer = tracing.Tracer()
    n_passes, traced_wall, untraced_wall, traced_ops = loop.paired(seconds, tracer)
    attempted, failed = verify(wl, loop.records)

    bm = tracer.calls("cup_complex.boundary_matrix")
    eliminations = sum(tracer.calls(n) for n in (
        "exact_linalg.rank_q", "exact_linalg.rank_fp", "exact_linalg.smith_normal_form"))
    forms_scanned = sum(wl.units(op) for op in traced_ops) if wl.enumerates_forms else 0
    c = tracer.counters
    metrics = {}
    for name in ("cup_complex.boundary_matrix", "exact_linalg.rank_q", "exact_linalg.rank_fp",
                 "exact_linalg.smith_normal_form", "exact_linalg.matmul", "forms.serialize_form"):
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    metrics["cup_complex.boundary_matrix.density"] = (
        c["boundary_nonzeros"] / c["boundary_entries"] if c["boundary_entries"] else 0.0, "ratio")
    metrics["exact_linalg.smith_normal_form.input_entries"] = (c["snf_input_entries"], "count")
    metrics["homology.self_s"] = (tracer.self_s("homology.", prefix=True), "s")
    metrics["homology.eliminations_per_map"] = (eliminations / bm if bm else 0.0, "ratio")
    metrics["geography.serializations_per_form"] = (
        tracer.calls("forms.serialize_form") / forms_scanned if forms_scanned else 0.0, "ratio")
    metrics["geography.scan_shard.self_s"] = (tracer.self_s("geography.scan_shard"), "s")
    metrics["geography.checkpoint.self_s"] = (tracer.self_s("geography.checkpoint"), "s")
    metrics["geography.checkpoint.bytes"] = (c["checkpoint_bytes"], "B")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")
    metrics["check.failed_ratio"] = (failed / attempted, "ratio")
    for line in tracer.tree_lines():
        print(line, file=sys.stderr)
    for name in tracer.missing:
        print(f"trace: {name} not found; its layer reads 0 calls", file=sys.stderr)
    notes = {"traced_passes": n_passes, "traced_operations": len(traced_ops),
             "hook_s": round(c["hook_s"], 6)}
    return attempted, failed, metrics, notes


def provenance(args, wl):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh).get("project", {}).get("version")
    except (OSError, tomllib.TOMLDecodeError):
        version = None
    return {
        "package": "cuphom", "version": version, "git_commit": commit,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "nproc_affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv, workloads.WORKLOADS)
    if not (SRC / "cuphom" / "__init__.py").is_file():
        print(f"error: no cuphom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        try:
            wl, setup_times = set_up(workloads.WORKLOADS[args.workload], args.seed, tmp)
        except ImportError as e:
            print(f"error: cannot import cuphom: {e}", file=sys.stderr)
            return 2
        if args.trace:
            attempted, failed, metrics, notes = traced(wl, args.seconds)
        else:
            attempted, failed, metrics, notes = end_to_end(wl, args.seconds, setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prov = provenance(args, wl)
    prov.update(notes)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
