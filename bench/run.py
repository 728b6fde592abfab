"""Benchmark of pairlrt: one workload per process, timed end to end or traced layer by layer.

    python3 bench/run.py --workload graph-file --seed 3 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  Each run
builds the workload's inputs from --seed, makes one untimed warm-up call,
then runs rounds of user calls back to back (closed loop, one client) until
--seconds have passed, checks every output, and prints one JSON object as
its last line.  --trace 0 reports the end-to-end metrics; --trace 1 reports
the per-layer metrics from spans around pairlrt's public functions.  See
bench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads; the machine's cores are shared
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
TRACE_ROUNDS = 2  # per-layer metrics average the first traced rounds, so counts repeat exactly
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120


def import_package():
    """Import pairlrt from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "pairlrt" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {src / 'pairlrt'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH))
    import pairlrt

    if Path(pairlrt.__file__).resolve().parent != (src / "pairlrt").resolve():
        sys.exit(f"bench: imported pairlrt from {pairlrt.__file__}, not from {src}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["graph-calibration", "graph-file", "comparison-bootstrap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name: str, seed: int, workdir: Path):
    """Build the workload's inputs and make one untimed warm-up call (the first of round 0)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.round(0)[0][1]()
    return workload


def fresh_setup_seconds(args, workdir: Path) -> float:
    """Setup time of a new interpreter: imports, input generation, warm-up call."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=str(workdir), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Rounds:
    """What the timed loop saw.  outputs are (round, label, output) of untraced calls."""

    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    attempted: int = 0
    round_s: list = field(default_factory=list)
    traced_round_s: list = field(default_factory=list)
    call_s: dict = field(default_factory=dict)
    per_op: list = field(default_factory=list)


def run_rounds(workload, seconds: float, tracer=None) -> Rounds:
    """Closed loop of rounds until `seconds` pass (and at least MIN_ROUNDS).

    With a tracer, each round runs twice on the same calls, untraced then
    traced: the difference is the tracing overhead, and the traced outputs
    must equal the untraced ones.  Only the untraced calls count as
    attempted; a traced call that fails is a mismatch.  Spans of the first TRACE_ROUNDS traced
    rounds stay in tracer.spans; later ones only add to the overhead sample
    and are dropped.
    """
    from tracing import aggregate
    from workloads import same_output

    run = Rounds()
    k = 0
    start = time.perf_counter()
    while k < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plan = workload.round(k)
        untraced = {}
        for traced in [False] if tracer is None else [False, True]:
            begin = len(tracer.spans) if traced else 0
            t_round = time.perf_counter()
            for label, fn in plan:
                run.attempted += not traced
                t0 = time.perf_counter()
                try:
                    out = tracer.record(fn) if traced else fn()
                except Exception as exc:  # a failed call is counted, the run goes on
                    failed = f"round {k} {label}: {type(exc).__name__}: {exc}"
                    (run.mismatches if traced else run.failures).append(failed)
                    continue
                if traced:
                    if label in untraced and not same_output(untraced[label], out):
                        run.mismatches.append(f"round {k} {label}: traced output differs from untraced")
                    continue
                run.call_s.setdefault(label, []).append(time.perf_counter() - t0)
                run.outputs.append((k, label, out))
                untraced[label] = out
            (run.traced_round_s if traced else run.round_s).append(time.perf_counter() - t_round)
            if traced and len(run.per_op) < TRACE_ROUNDS:
                run.per_op.append(aggregate(tracer.spans, begin))
            elif traced:
                del tracer.spans[begin:]
        k += 1
    return run


def write_spans(path: Path, spans: list) -> None:
    """One JSON array per span: [id, parent id, name, start, end, extra]."""
    with path.open("w") as fh:
        for i, (name, parent, t0, t1, extra) in enumerate(spans):
            fh.write(json.dumps([i, parent, name, round(t0, 7), round(t1, 7), extra]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            run = run_rounds(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = run.mismatches + (workload.check(run.outputs) if run.outputs else ["no call succeeded"])
        for line in run.failures + problems:
            print(f"bench: {line}", file=sys.stderr)
        round_s = statistics.median(run.round_s)
        # per-call medians, named by call: fit_s, test_fixed_s, test_growing_s, bootstrap_test_s, run_type1_s
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(run.round_s), "round_s": round_s}
        summary.update({f"{label}_s": statistics.median(v) for label, v in run.call_s.items()})
        if hasattr(workload, "reps"):
            summary["reps_per_s"] = workload.reps / round_s
        summary.update(getattr(workload, "summary", {}))

        if args.trace:
            from tracing import layer_metrics

            missing = [name for name in workload.traced if not any(agg.get(name, {}).get("calls") for agg in run.per_op)]
            if missing:
                print(f"bench: no calls recorded through {', '.join(missing)}; a wrapper missed them", file=sys.stderr)
                return 1
            write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl", tracer.spans)
            traced_s = statistics.median(run.traced_round_s)
            metrics = layer_metrics(run.per_op)
            metrics["trace.untraced_round_s"] = {"value": round_s, "unit": "s"}
            metrics["trace.traced_round_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s - round_s) / round_s, "unit": "%"}
        else:
            setups = [setup_s] + [fresh_setup_seconds(args, workdir) for _ in range(SETUP_SAMPLES - 1)]
            summary["setup_samples_s"] = setups
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "round_s": {"value": round_s, "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        print(json.dumps(summary))
        print(json.dumps({"correct": not problems, "attempted": run.attempted, "failed": len(run.failures),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
