"""trinorm benchmark: one workload per process, or every workload with
``--all``.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1

A run builds its inputs from the seed (set-up, repeated ``SETUP_REPS``
times), then runs passes over them for at least ``--seconds`` seconds and
at least the workload's minimum number of passes, one op at a time in a
closed loop.  It prints a readable report, writes the full result to
``.perfbench_out/`` and ends with one JSON line: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from measure import HostClock, percentile, size_exponent
from tracer import LAYERS, ROOT as BENCH, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
IMPORT_PROBES = 3

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import trinorm; "
                "print(time.perf_counter() - t)")


def load_trinorm():
    """Import trinorm from this checkout's src/ and nowhere else."""
    if not (SRC / "trinorm" / "__init__.py").is_file():
        sys.exit(f"error: no trinorm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import trinorm
    if Path(trinorm.__file__).resolve().parent != SRC / "trinorm":
        sys.exit(f"error: imported trinorm from {trinorm.__file__}")


def import_seconds(clock):
    """Median time of ``import trinorm`` in a fresh interpreter over
    ``IMPORT_PROBES`` interpreters, with the interval it was taken in."""
    clock.maybe_burst()
    t0 = clock.now()
    times = [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
        text=True, timeout=120, check=True).stdout)
        for _ in range(IMPORT_PROBES)]
    return statistics.median(times), t0, clock.now()


class Run:
    """One workload in this process: set-up, timed passes, metrics."""

    def __init__(self, workload, seed, seconds, tracer):
        self.wl, self.seed, self.seconds = workload, seed, seconds
        self.tracer = tracer
        self.clock = HostClock()
        self.records = []         # [label, size, t0, t1, error, pass]
        self.passes = 0

    def record(self, label, size, t0, t1, error):
        self.records.append([label, size, t0, t1, error, self.passes])

    def span(self, name):
        return self.tracer.span(name) if self.tracer else \
            contextlib.nullcontext()

    def setup(self, work):
        clock = self.clock
        clock.burst()
        reps = []
        for _ in range(SETUP_REPS):
            probe = import_seconds(clock)
            clock.marks = []
            ops = self.wl.setup(self.seed, work, clock)
            reps.append((probe, clock.marks))
        clock.burst()
        self.setup_reps = [
            raw * clock.normalised(t0, t1) / clock.raw(t0, t1)
            + sum(clock.normalised(a, b) for a, b in marks)
            for (raw, t0, t1), marks in reps]
        self.setup_raw = [raw + sum(b - a for a, b in marks)
                          for (raw, _, _), marks in reps]
        return ops

    def run_op(self, op):
        self.clock.maybe_burst()
        with self.span(f"bench.{self.wl.name}_op"):
            t0 = self.clock.now()
            try:
                result = op.fn()
            except Exception as exc:
                result, error = None, f"raised {exc!r}"
            else:
                error = None
            t1 = self.clock.now()
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = f"check: {exc}"
        if error:
            sys.stderr.write(f"op {op.label} failed: {error}\n")
        self.record(op.label, op.size, t0, t1, error)

    def timed_phase(self, ops):
        order_rng = random.Random(f"order-{self.seed}")
        start = self.clock.now()
        self.pass_errors = 0
        while (self.passes < self.wl.min_passes
               or self.clock.now() - start < self.seconds):
            if hasattr(self.wl, "run_pass"):
                try:
                    with self.span(f"bench.{self.wl.name}_pass"):
                        self.wl.run_pass(self.clock, self.record,
                                         hooks=self.tracer is None)
                except Exception:
                    traceback.print_exc()
                    self.pass_errors += 1
            else:
                order = list(ops)
                order_rng.shuffle(order)
                for op in order:
                    self.run_op(op)
            self.passes += 1
        self.clock.burst()

    # ----- metrics -----------------------------------------------------

    def end_to_end(self):
        clock = self.clock
        norm = [clock.normalised(r[2], r[3]) for r in self.records]
        raw = [clock.raw(r[2], r[3]) for r in self.records]
        per_pass = [0.0] * self.passes
        per_pass_raw = [0.0] * self.passes
        rungs = {}
        for r, t, t_raw in zip(self.records, norm, raw):
            per_pass[r[5]] += t
            per_pass_raw[r[5]] += t_raw
            if r[1] is not None:
                rungs.setdefault(r[1], []).append(t)
        ms = [1000 * t for t in norm]
        p50, p50_beyond = percentile(ms, 50)
        p90, p90_beyond = percentile(ms, 90)
        rung_medians = sorted((size, statistics.median(ts))
                              for size, ts in rungs.items())
        # a verify pass that breaks outside its criteria counts as one
        # more failed op
        failed = sum(1 for r in self.records if r[4]) + self.pass_errors
        attempted = len(self.records) + self.pass_errors
        return {
            "wall_s": statistics.median(per_pass),
            "wall_raw_s": statistics.median(per_pass_raw),
            "passes": self.passes,
            "ops": attempted,
            "op_p50_ms": p50, "op_p50_beyond": p50_beyond,
            "op_p90_ms": p90, "op_p90_beyond": p90_beyond,
            "size_exp": size_exponent(rung_medians)
            if len(rung_medians) >= 2 else None,
            "rung_median_ms": {str(s): 1000 * t for s, t in rung_medians},
            "setup_s": statistics.median(self.setup_reps),
            "setup_raw_s": statistics.median(self.setup_raw),
            "setup_reps_s": self.setup_reps,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed": failed,
            "attempted": attempted,
            "failed_frac": failed / attempted,
            "host_factor": clock.factor(),
            "failures": [[r[0], r[4]] for r in self.records if r[4]],
        }


def per_layer(tracer, passes, factor):
    """Per-layer metrics from the spans, per pass, in normalised seconds."""
    from trinorm import verifysuite
    scale = 1 / (passes * factor)
    calls, counters = tracer.calls, tracer.counters
    self_s = tracer.layer_times()
    entries = tracer.entries()
    busy = sum(self_s.values())
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] * scale
        m[f"{layer}.calls"] = entries[layer] / passes
        m[f"{layer}.share"] = 100 * self_s[layer] / busy if busy else 0.0
    m[f"{BENCH}.self_s"] = self_s[BENCH] * scale

    def inclusive(*names):
        return sum(tracer.inclusive(n) for n in names) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    skeleton = "triangulation.Triangulation.skeleton"
    layered = calls["build.layer_on_edge"]
    bmods = calls["surface.b_modification"]
    m.update({
        "analyze.find_maximal_lsts_s": inclusive("analyze.find_maximal_lsts"),
        "analyze.lint_s": inclusive("analyze.low_degree_lint"),
        "homology.snf_s": inclusive("homology.smith_normal_form"),
        "homology.snf_calls": calls["homology.smith_normal_form"] / passes,
        "homology.snf_entries": counters["homology.snf_entries"] / passes,
        "homology.gf2_s": inclusive("homology.gf2_rank",
                                    "homology.gf2_kernel_basis"),
        "build.layer_on_edge_calls": layered / passes,
        "build.skeletons_per_layer": ratio(tracer.children_of(
            skeleton, lambda name, layer: layer == "build"), layered),
        "build.lst_s": inclusive("build.lst"),
        "build.fold_s": inclusive("build.fold_along_edge"),
        "triangulation.skeleton_builds": calls[skeleton] / passes,
        "triangulation.skeleton_s": inclusive(skeleton),
        "triangulation.tris_built":
            calls["triangulation.Triangulation.__init__"] / passes,
        "triangulation.parse_s": inclusive("triangulation.parse"),
        "triangulation.canonical_calls":
            calls["triangulation.Triangulation.canonical_table"] / passes,
        "triangulation.canonical_s":
            inclusive("triangulation.Triangulation.canonical_table"),
        "cocycle.basis_s": inclusive("cocycle.cocycle_basis"),
        "cocycle.classify_calls":
            calls["cocycle.classify_tetrahedra"] / passes,
        "cocycle.classes": counters["cocycle.classes"] / passes,
        "cocycle.classify_per_class": ratio(
            calls["cocycle.classify_tetrahedra"], counters["cocycle.classes"]),
        "surface.b_modification_s": inclusive("surface.b_modification"),
        "surface.b_modification_calls": bmods / passes,
        "surface.canonical_per_bmod": ratio(tracer.children_of(
            "surface.canonical_surface",
            lambda name, layer: name == "surface.b_modification"), bmods),
        "surface.euler_char_calls": calls["surface.euler_char"] / passes,
        "trace.spans": len(tracer.spans) / passes,
        "trace.wrapped_calls": sum(calls.values()) / passes,
    })
    for name, fn in verifysuite.CHECKS:
        m[f"verifysuite.{name}_s"] = inclusive(f"verifysuite.{fn.__name__}")
    return m


def spec():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(result, names_units):
    """The result line: exactly the metrics BENCHMARK.json lists."""
    metrics = {}
    for name, unit in names_units:
        value = result[name]
        if value is None:
            raise RuntimeError(f"metric {name} has no value in this run")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def report(name, seed, res, traced):
    def pct(key):
        v = res[key]
        beyond = res[key.replace("_ms", "_beyond")]
        return (f"{v:.3f} ms (n={res['ops']}, {beyond} beyond)"
                if v is not None else
                f"n/a (n={res['ops']}: only {beyond} samples beyond)")
    rungs = ", ".join(f"{size}:{t:.1f}ms"
                      for size, t in res["rung_median_ms"].items())
    lines = [
        f"workload {name} seed {seed} trace {int(traced)}: "
        f"{res['passes']} passes, {res['ops']} ops, "
        f"host {res['host_factor']:.2f}x slower than reference",
        f"  wall_s       {res['wall_s']:.4f} s  (median pass; raw "
        f"{res['wall_raw_s']:.4f} s)",
        f"  op_p50_ms    {pct('op_p50_ms')}",
        f"  op_p90_ms    {pct('op_p90_ms')}",
        "  size_exp     " + (f"{res['size_exp']:.4f} (rung medians {rungs})"
                             if res["size_exp"] is not None else
                             "n/a (no size ladder)"),
        f"  setup_s      {res['setup_s']:.4f} s  (median of {SETUP_REPS}; "
        f"raw {res['setup_raw_s']:.4f} s)",
        f"  peak_rss_mib {res['peak_rss_mib']:.1f} MiB",
        f"  failed_frac  {res['failed_frac']:g} "
        f"({res['failed']}/{res['attempted']})",
    ]
    return "\n".join(lines)


def run_one(args):
    load_trinorm()
    from workloads import WORKLOADS
    bench = spec()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(wl, args.seed, args.seconds, tracer)
    try:
        ops = run.setup(work)
        if tracer:
            with tracer:
                run.timed_phase(ops)
        else:
            run.timed_phase(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = run.end_to_end()
    res.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    OUT.mkdir(exist_ok=True)
    if tracer:
        res["per_layer"] = per_layer(tracer, run.passes,
                                     run.clock.factor())
        res["per_layer"]["trace.wall_s"] = res["wall_s"]
        tracer.dump(OUT / f"trace-{wl.name}.jsonl")
        listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        line = emit({**res, **res["per_layer"]}, listed)
    else:
        listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        line = emit(res, listed)
    with open(OUT / f"{wl.name}-trace{args.trace}-seed{args.seed}.json",
              "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print(report(wl.name, args.seed, res, args.trace))
    for label, error in res["failures"]:
        print(f"  FAILED {label}: {error}")
    print(json.dumps(line))
    return 0


def commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args):
    """Every workload in its own fresh process, untraced then traced."""
    if not (SRC / "trinorm" / "__init__.py").is_file():
        sys.exit(f"error: no trinorm package under {SRC}")
    bench = spec()
    summary = {"python": platform.python_version(), "commit": commit(),
               "nproc": os.cpu_count(), "seed": args.seed,
               "seconds": args.seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                sys.exit(f"error: {name} trace {trace} exited "
                         f"{proc.returncode}")
            if trace == 0:
                print("\n".join(proc.stdout.splitlines()[:-1]))
            path = OUT / f"{name}-trace{trace}-seed{args.seed}.json"
            results[trace] = json.loads(path.read_text())
        untraced, traced = results[0], results[1]
        overhead = traced["wall_s"] - untraced["wall_s"]
        print(f"  trace overhead {overhead:.4f} s per pass "
              f"({100 * overhead / untraced['wall_s']:.1f}% of wall_s)")
        layers = traced["per_layer"]
        top = sorted((k for k in layers if k.endswith(".share")),
                     key=lambda k: -layers[k])
        print("  layer shares  " + ", ".join(
            f"{k[:-6]} {layers[k]:.1f}%" for k in top if layers[k] >= 0.05))
        summary["workloads"][name] = {"end_to_end": untraced,
                                      "per_layer": layers,
                                      "trace_overhead_s": overhead}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"python {summary['python']}, commit {summary['commit']}, "
          f"nproc {summary['nproc']}, seed {args.seed}; "
          f"written to {OUT / 'summary.json'}")
    return 0


def main(argv=None):
    names = [w["name"] for w in spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
