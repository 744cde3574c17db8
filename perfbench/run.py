"""Run one bellforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports ``bellforge`` from
``src/`` there and exits with code 2 when that is missing. The last line of
standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a report with the environment, pass
quartiles and per-op times, also written to ``perfbench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced. With ``--trace 1`` every pass runs at the workload seed,
untraced and traced passes alternate, and the metrics are the per-layer ones
of BENCHMARK.json, per traced pass. A run exits with code 1 when any op fails
its check.
"""

from __future__ import annotations

import os

# Workloads are serial; pin BLAS/OpenMP pools to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


@dataclass
class OpTime:
    name: str
    wall: float       # wall time, less the speed sampler's share
    cpu: float        # process CPU time, less the speed sampler's share
    gross: float      # wall time with the sampler's share
    scale: float      # REFERENCE_S over the kernel's mean time during the op

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


@dataclass
class PassRecord:
    ops: list[OpTime]

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def cpu_seconds(self) -> float:
        return sum(o.cpu * o.scale for o in self.ops)

    @property
    def gross(self) -> float:
        return sum(o.gross for o in self.ops)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"perfbench: FAIL {p}", file=sys.stderr)


def run_pass(ops, tally: Tally, sampler, tracer=None, tag: str = "") -> PassRecord:
    """Run, time and check each op while ``sampler`` tracks the machine's speed."""
    times = []
    before = sampler.boundary()
    for op in ops:
        spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.op(tag + op.name):
                    result = op.call()
        except Exception:  # an op that raises is a failed op; the run goes on
            tally.record([f"{op.name}: raised\n{traceback.format_exc()}"])
            before = sampler.boundary()
            continue
        gross, cpu = time.perf_counter() - t0, time.process_time() - c0
        wall = gross - (sampler.spent_wall - spent_wall)
        cpu -= sampler.spent_cpu - spent_cpu
        tally.record(op.check(result))
        after = sampler.boundary()
        times.append(OpTime(op.name, wall, cpu, gross, sampler.scale_since(before)))
        before = after
    return PassRecord(times)


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": q[1], "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def probe_setup(workload: str) -> float:
    """Rescaled time of a fresh interpreter's import of bellforge and input building."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True)
    seconds, kernel = map(float, proc.stdout.split())
    return seconds * calibrate.REFERENCE_S / kernel


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bellforge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = {k: v for k, v in numpy.show_config(mode="dicts")["Build Dependencies"]
                ["blas"].items() if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def end_to_end(records: list[PassRecord], setup: list[float], tally: Tally) -> dict:
    op_ms = [o.seconds * 1000.0 for r in records for o in r.ops]
    return {
        "pass_s": (statistics.median(r.seconds for r in records), "s"),
        "pass_cpu_s": (statistics.median(r.cpu_seconds for r in records), "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        # a mean: the slowest op's work depends on the pass seed (l5-hyper's
        # see-saw needs 22 to 39 sweeps), and over a few passes a median
        # jumps between the two
        "slowest_op_s": (statistics.mean(max(o.seconds for o in r.ops) for r in records),
                         "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_op(records: list[PassRecord]) -> dict:
    by_name: dict[str, list[float]] = {}
    for r in records:
        for o in r.ops:
            by_name.setdefault(o.name, []).append(o.seconds)
    return {name: statistics.median(ts) for name, ts in sorted(by_name.items())}


def check_metric_names(metrics: dict, trace: int) -> None:
    """The printed metrics must be exactly the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(declared - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - declared)}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "family", "seesaw"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellforge" / "__init__.py").is_file():
        print(f"perfbench: no bellforge sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    import tracing
    import workloads
    from bellforge.cases import case_names

    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed)
    tally = Tally()
    with calibrate.SpeedSampler() as sampler:
        for op in workload.warmup():
            run_pass([op], tally, sampler)
        start = time.perf_counter()
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = [], []
            while not traced or time.perf_counter() - start < args.seconds:
                # alternate which side of a pair goes first, so ordering effects cancel
                for side in ((0, 1) if len(traced) % 2 == 0 else (1, 0)):
                    if side:
                        with tracer.installed():
                            traced.append(run_pass(workload.ops(args.seed), tally, sampler,
                                                   tracer, tag=f"pass{len(traced)}/"))
                    else:
                        untraced.append(run_pass(workload.ops(args.seed), tally, sampler))
        else:
            seeds = workloads.pass_seeds(args.seed)
            records = []
            while not records or time.perf_counter() - start < args.seconds:
                records.append(run_pass(workload.ops(next(seeds)), tally, sampler))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    report["speed_samples"] = quartiles(sampler.samples)
    if not args.trace:
        metrics = end_to_end(records, setup, tally)
        report["setup_s"] = setup
        report["pass_s"] = quartiles([r.seconds for r in records])
        report["pass_cpu_s"] = quartiles([r.cpu_seconds for r in records])
        report["pass_wall_s"] = quartiles([r.gross for r in records])
        report["slowest_op_s"] = quartiles([max(o.seconds for o in r.ops) for r in records])
        report["pass_s_each"] = [r.seconds for r in records]
        op_ms = [o.seconds * 1000.0 for r in records for o in r.ops]
        report["op_ms"] = quartiles(op_ms)
        if len(op_ms) >= 100:  # highest percentile with ten samples beyond it
            report["op_ms"]["p90"] = statistics.quantiles(op_ms, n=10)[-1]
        report["op_median_s"] = per_op(records)
    else:
        k = len(traced)
        # A span is rescaled as its op is. Sampler ticks land in spans in
        # proportion to their length, so each op's spans also shrink by the
        # sampler's share of that op.
        op_scale = {f"pass{i}/{o.name}": o.scale * o.wall / o.gross
                    for i, r in enumerate(traced) for o in r.ops}
        metrics = tracing.layer_metrics(tracer, k, case_names(), op_scale)
        traced_s = sum(r.seconds for r in traced) / k
        untraced_s = sum(r.seconds for r in untraced) / k
        roots = sum((s[2] - s[1]) * op_scale[s[4]] for s in tracer.spans if s[3] is None) / k
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.untraced_pass_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.uncovered_s"] = (traced_s - roots, "s")
        report["pass_wall_s"] = {"traced": [r.gross for r in traced],
                                 "untraced": [r.gross for r in untraced]}
        covered = sum(v for name, (v, unit) in metrics.items()
                      if name.endswith(".self_s") and unit == "s")
        report["trace_passes"] = k
        report["self_s_sum_plus_uncovered"] = covered + metrics["trace.uncovered_s"][0]
        report["spans"] = len(tracer.spans)
        report["op_median_s"] = per_op(traced)

    check_metric_names(metrics, args.trace)
    report["attempted"], report["failed"] = tally.attempted, tally.failed
    report["fail_frac"] = tally.failed / tally.attempted
    report["problems"] = tally.problems
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved = dict(report, spans=tracer.to_json(start)) if args.trace else report
    out_path.write_text(json.dumps(saved) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
