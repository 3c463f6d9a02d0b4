"""kronlab benchmark: one seeded workload, closed loop, one client.

Usage, from the repository root:

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py (``verify-sweep``, ``certify``,
``mu-spectra``).  One process, ``jobs=1``, no process pool: each operation
starts after the previous one has returned and been checked.  The program is
imported from ``src/`` of the checkout this script sits in.

--trace 0 measures the end-to-end metrics with nothing installed in the
program.  --trace 1 runs the workload untraced for half the time, replays the
same operations with span recorders on every layer (spans.py), and reports
the per-layer metrics and the tracing overhead; its spans are written to
``.benchmarks-out/``.

Times are reported at a reference machine speed.  On a shared host the
machine's speed can drop by 40% for seconds at a time while other tenants
run, which no run length averages away.  So a fixed piece of Fraction
arithmetic (``machine_probe``) is timed between operations, and each
measured time is scaled by REFERENCE_PROBE_S over the probe time around it.
The wall-clock figures are printed beside the scaled ones.

Every run checks each operation's output, checks that repeated inputs give
identical output, and checks the output digest of the recorded seed's leading
inputs against ``reference_digests.json``.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, each with
its unit.
"""
import time

HARNESS_START = time.perf_counter()  # set-up time is measured from here

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".benchmarks-out"
SETUP_RUNS = 9  # set-ups per run; setup_s is their median
#: op_ms_tail is the highest percentile, up to TAIL_MAX_PCT, with at least
#: TAIL_BEYOND samples beyond it.  Beyond p99 a shared host's interrupts and
#: preemptions, not the program, set the value.
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0
#: Probe time that defines the reference machine speed (see machine_probe).
REFERENCE_PROBE_S = 0.0003
PROBE_REPEATS = 3  # probes per set-up; their median is used

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "oracle.mu_exact.calls": "count/op",
    "oracle.mu_exact.self_s": "s/op",
    "oracle.mu_exact.candidates": "count/op",
    "oracle.candidates_per_s": "1/s",
    "oracle.share": "ratio",
    "oracle.mu_exact.ms_n100": "ms",
    "oracle.mu_exact.ms_n300": "ms",
    "oracle.mu_exact.ms_n1000": "ms",
    "oracle.mu_exact.distinct_ratio": "ratio",
    "oracle.beta_exact.calls": "count/op",
    "oracle.beta_exact.s": "s/op",
    "greedy_triple.calls": "count/op",
    "greedy_triple.self_s": "s/op",
    "greedy_triple.small_lambda": "count/op",
    "greedy_triple.greedy_window": "count/op",
    "greedy_triple.negated": "count/op",
    "greedy_triple.fallbacks": "count/op",
    "greedy_triple.certified_ratio": "ratio",
    "pair_solver.calls": "count/op",
    "pair_solver.self_s": "s/op",
    "closed_form.calls": "count/op",
    "closed_form.self_s": "s/op",
    "exact_arith.angular_norm.calls": "count/op",
    "exact_arith.self_s": "s/op",
    "cli.main.calls": "count/op",
    "cli.self_s": "s/op",
    "cli.share": "ratio",
    "cli.report_bytes": "bytes/op",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, bad arguments)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time (used internally)")
    return parser.parse_args(argv)


def import_program():
    """Import kronlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kronlab" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {src / 'kronlab'} is missing")
    sys.path.insert(0, str(src))
    import kronlab
    import kronlab.cli  # noqa: F401  (the package does not import its CLI)
    if Path(kronlab.__file__).resolve().parent != (src / "kronlab").resolve():
        raise SetupError(f"kronlab imported from {kronlab.__file__}, not from {src}")
    return kronlab


def set_up(name: str, seed: int):
    """Import the program and generate the workload's inputs."""
    os.environ.pop("KRONLAB_JOBS", None)  # one client, jobs=1, no process pool
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](import_program())
    return workload, workload.inputs(seed)


def machine_probe() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic outside the program.

    It tracks the machine's current speed for the kind of work kronlab does:
    an operation measured while this probe takes twice REFERENCE_PROBE_S is
    reported at half its wall time.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7)
    return time.perf_counter() - t0


class Loop:
    """Outcome of one closed-loop pass: op times, machine probes, failures, digests.

    probe[i] is the mean of the machine probes taken just before and just
    after operation i.
    """

    def __init__(self):
        self.seconds = array("d")
        self.probe = array("d")
        self.failures: list[str] = []
        self.first_output: dict[int, object] = {}
        self.output_hash: dict[int, str] = {}
        self.report_bytes = 0
        self.untimed_ops = 0

    def scaled_seconds(self) -> list[float]:
        """Operation times at the reference machine speed."""
        return [t * REFERENCE_PROBE_S / p for t, p in zip(self.seconds, self.probe)]


def closed_loop(workload, pool, seconds=None, count=None, recorder=None) -> Loop:
    """Run operations one after another for ``seconds`` or for ``count`` ops."""
    loop = Loop()
    start = time.perf_counter()
    before = machine_probe()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() - start < seconds):
        index = i % len(pool)
        inp = pool[index]
        if recorder is not None:
            recorder.begin_op(i)
            output, elapsed = workload.run(inp)
            recorder.end_op()
        else:
            output, elapsed = workload.run(inp)
        after = machine_probe()
        loop.seconds.append(elapsed)
        loop.probe.append((before + after) / 2)
        before = after
        loop.report_bytes += workload.report_bytes(output)
        failure = workload.check(inp, output)
        text = workload.digest_text(inp, output)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if index not in loop.output_hash:
            loop.output_hash[index] = digest
            if index < workload.digest_ops:
                loop.first_output[index] = (text, output)
        elif loop.output_hash[index] != digest and failure is None:
            failure = f"input {index} gave different output on a repeat: {inp}"
        if failure is not None:
            loop.failures.append(failure)
        i += 1
    return loop


def output_digest(workload, pool, loop: Loop) -> str:
    """sha256 over the outputs of the pool's first ``digest_ops`` inputs.

    Inputs the timed loop did not reach are run here, untimed.
    """
    h = hashlib.sha256()
    for index in range(min(workload.digest_ops, len(pool))):
        if index not in loop.first_output:
            output, _ = workload.run(pool[index])
            loop.untimed_ops += 1
            failure = workload.check(pool[index], output)
            if failure is not None:
                loop.failures.append(failure)
            loop.first_output[index] = (workload.digest_text(pool[index], output), output)
        h.update(loop.first_output[index][0].encode())
        h.update(b"\0")
    return h.hexdigest()


def reference_check(workload, seed: int, digest: str) -> str | None:
    """Compare the recorded seed's output digest with reference_digests.json."""
    recorded = json.loads((BENCH_DIR / "reference_digests.json").read_text())
    if seed != recorded["seed"]:
        pool = workload.inputs(recorded["seed"])[:workload.digest_ops]
        digest = output_digest(workload, pool, Loop())
    expected = recorded["digests"].get(workload.name)
    if digest != expected:
        return (f"seed {recorded['seed']} output digest {digest} differs from the "
                f"recorded {expected}: an exact answer changed")
    return None


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """op_ms_tail of the samples: (value, percentile)."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100 - TAIL_MAX_PCT) / 100))
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def setup_probes(args) -> list[tuple[float, float]]:
    """Repeat the set-up in fresh interpreters, one at a time: (seconds, probe)."""
    results = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, probe = proc.stdout.split()[-2:]
        results.append((float(seconds), float(probe)))
    return results


def end_to_end(args, workload, pool):
    loop = closed_loop(workload, pool, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = loop.scaled_seconds()
    ms = [t * 1e3 for t in scaled]
    wall_ms = [t * 1e3 for t in loop.seconds]
    tail_ms, tail_pct = tail(ms)
    setups = setup_probes(args)
    setup_scaled = [t * REFERENCE_PROBE_S / p for t, p in setups]
    metrics = {
        "ops_per_s": len(ms) / sum(scaled),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    classes: dict[str, list[int]] = {}
    for i in range(len(ms)):
        label = workload.label(pool[i % len(pool)])
        if label is not None:
            classes.setdefault(label, []).append(i)
    notes = {
        "ops_per_s": f"wall {len(ms) / sum(loop.seconds):.6g}; machine probe median "
                     f"{statistics.median(loop.probe) * 1e3:.4f} ms, reference "
                     f"{REFERENCE_PROBE_S * 1e3:.4f} ms",
        "op_ms_p50": f"wall {statistics.median(wall_ms):.6g}" + "".join(
            f"; {label} {statistics.median(ms[i] for i in idx):.6g} "
            f"(wall {statistics.median(wall_ms[i] for i in idx):.6g})"
            for label, idx in classes.items()),
        "op_ms_tail": f"wall {tail(wall_ms)[0]:.6g}; p{tail_pct:.2f} of {len(ms)} samples",
        "setup_s": f"wall {statistics.median(t for t, _ in setups):.6g}; median of "
                   f"{len(setups)} set-ups in fresh interpreters",
    }
    return loop, metrics, notes, END_TO_END_UNITS


def per_layer(args, workload, pool):
    """Untraced for half the time, then the same operations traced."""
    from spans import SpanRecorder
    untraced = closed_loop(workload, pool, seconds=args.seconds / 2)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = closed_loop(workload, pool, count=len(untraced.seconds), recorder=recorder)
    finally:
        recorder.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
    recorder.write(spans_path)
    overhead = sum(traced.scaled_seconds()) / sum(untraced.scaled_seconds())
    metrics = recorder.per_layer(len(traced.seconds), sum(traced.seconds), overhead,
                                 traced.report_bytes)
    untraced.failures += traced.failures
    untraced.failures += [f"input {i} gave different output when traced: {pool[i]}"
                          for i, digest in traced.output_hash.items()
                          if untraced.output_hash[i] != digest]
    notes = {"trace.overhead_ratio": f"wall {sum(traced.seconds) / sum(untraced.seconds):.6g}; "
                                     f"{len(traced.seconds)} ops; "
                                     f"{len(recorder)} spans in {spans_path.name}"}
    return untraced, metrics, notes, PER_LAYER_UNITS


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, pool = set_up(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        setup_s = time.perf_counter() - HARNESS_START
        print(repr(setup_s), repr(statistics.median(machine_probe()
                                                    for _ in range(PROBE_REPEATS))))
        return 0

    if args.trace:
        loop, metrics, notes, units = per_layer(args, workload, pool)
    else:
        loop, metrics, notes, units = end_to_end(args, workload, pool)
    digest = output_digest(workload, pool, loop)
    if workload.name == "certify":
        certificates = {i: out for i, (_, out) in loop.first_output.items()}
        loop.failures += workload.check_against_oracle(pool, certificates, args.seed)
    reference = reference_check(workload, args.seed, digest)

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"benchmark: metrics {sorted(metrics)} differ from BENCHMARK.json {declared}",
              file=sys.stderr)
        return 1

    attempted = len(loop.seconds) + loop.untimed_ops
    failed = len(loop.failures)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, jobs=1")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    print(f"  digest sha256:{digest} (outputs of the first {workload.digest_ops} inputs)")
    for message in loop.failures[:10] + ([reference] if reference else []):
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": failed == 0 and reference is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
