"""The repository benchmark: cold time-to-verified-lift, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload lift-bottomup --seed 1 --seconds 15 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):
``lift-topdown``, ``lift-bottomup``, ``serve-mixed`` and ``race-portfolio``.
A run sets the workload up, then makes passes over its request list until
``--seconds`` are used (at least ``MIN_PASSES``), checks every solved
program against the kernel's NumPy reference, checks that per-kernel counts
repeat, and prints one JSON line last::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(measured with tracing off, and scaled to the host's nominal speed, see
``speed.py``); with ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones, in plain measured seconds.  Metric
names and units come from ``BENCHMARK.json``, so the file and the output
cannot drift.
"""

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run-time outputs (service stores, fingerprints, span dumps).
SCRATCH = ROOT / ".perfbench"
#: Extra set-ups, each in a fresh interpreter; ``setup_s`` is the median of
#: these and the run's own set-up.
SETUP_PROBES = 4
#: An artificial kernel (outside the measured corpus) lifted once during
#: set-up, so lazy imports on the lift path are paid before timing starts.
WARMUP_KERNEL = "artificial.dot"
#: Host-speed reference loops timed right after each set-up, to scale it.
SETUP_REFERENCE_CALLS = 32
#: Per-kernel counts that must repeat run to run for the lift workloads.
DETERMINISTIC = ("lift-topdown", "lift-bottomup")
#: Untraced passes a run makes even when ``--seconds`` are used up, so each
#: quick kernel has at least this many lifts to take the median of.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up in this interpreter, print the seconds, exit",
    )
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Build the workload and run the warm-up lift; returns the workload."""
    from repro.suite import get_benchmark
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, SCRATCH / "tmp")
    workload.warm_up(get_benchmark(WARMUP_KERNEL).task())
    return workload


def scaled_setup(started: float) -> float:
    """Seconds since *started*, scaled by the reference loop timed now."""
    import speed

    elapsed = time.perf_counter() - started
    return elapsed * speed.scale(speed.sample(SETUP_REFERENCE_CALLS))


def probe_setup(args) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, seconds: float, trace: bool):
    """Passes until *seconds* are used: ``[(tracer or None, PassResult)]``.

    An untraced run's first pass is the whole request list; later passes
    repeat the kernels ``workload.repeated`` names.  Traced runs alternate
    whole untraced and traced passes, starting untraced, and make at least
    one of each.
    """
    from spans import Tracer, instrument

    passes = []
    repeat = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                result = workload.run_pass(tracer)
        elif repeat is not None:
            tracer = None
            result = workload.run_pass(None, repeat)
        else:
            tracer = None
            result = workload.run_pass(None)
        passes.append((tracer, result))
        if not trace and len(passes) == 1:
            repeat = workload.repeated(result)
        spent = time.perf_counter() - started
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and time.perf_counter() + spent > deadline:
            return passes


def fingerprints(name: str, passes):
    """Per-kernel counts of each pass (the solved set only for races).

    ``serve-mixed`` has none: which neighbours the retriever offers a miss
    depends on which earlier jobs have finished, so its solved set may
    differ from pass to pass.
    """
    result = []
    if name not in DETERMINISTIC + ("race-portfolio",):
        return result
    for tracer, outcome_pass in passes:
        counts = {}
        per_request = {}
        if tracer is not None:
            for span in tracer.spans:
                tally = per_request.setdefault(span.request, {})
                tally[span.name] = tally.get(span.name, 0) + 1
        for outcome in outcome_pass.outcomes:
            fields = {"solved": outcome.solved}
            if name in DETERMINISTIC:
                fields.update(
                    program=outcome.program,
                    nodes_expanded=outcome.nodes,
                    attempts=outcome.attempts,
                )
                if tracer is not None:
                    tally = per_request.get(outcome.kernel, {})
                    fields["verify_calls"] = tally.get("core.verifier.verify", 0)
                    fields["interpreter_runs"] = tally.get("cfront.interpreter.run", 0)
            counts[outcome.kernel] = fields
        result.append(counts)
    return result


def end_to_end(setup_s: float, untraced, concurrent: bool) -> dict:
    """The end-to-end metrics of the untraced passes.

    Every time is first scaled by its pass's reference loop (``speed.py``).
    A kernel's lift time is the median of its lifts (misses only on
    ``serve-mixed``).  ``wall_s`` is the sum of the kernels' lift times, as
    one at a time they make up a pass; on ``serve-mixed``, where requests
    overlap, it is the median pass.
    """
    import speed
    from layers import TAIL_SAMPLES, percentile_with_tail

    per_kernel = {}
    for result in untraced:
        factor = speed.scale(result.reference)
        for outcome in result.outcomes:
            if outcome.kind != "hit":
                per_kernel.setdefault(outcome.kernel, []).append(
                    outcome.seconds * factor
                )
    lifts = [statistics.median(times) for times in per_kernel.values()]
    requests = len(untraced[0].outcomes)
    whole = [r for r in untraced if len(r.outcomes) == requests]
    if concurrent:
        wall = statistics.median(r.wall * speed.scale(r.reference) for r in whole)
    else:
        wall = sum(lifts)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "lift_s_p50": statistics.median(lifts),
        "lift_s_p85": percentile_with_tail(lifts, TAIL_SAMPLES),
        "requests_per_s": requests / wall,
        "solved": statistics.median(
            sum(o.solved for o in r.outcomes) for r in whole
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_passes(untraced) -> None:
    """Print each pass's measured wall beside the reference loop's time."""
    import speed

    for number, result in enumerate(untraced, 1):
        reference = statistics.median(result.reference)
        print(
            f"pass {number}: {len(result.outcomes)} requests, {result.wall:.3f} s "
            f"measured; reference loop {reference * 1e3:.3f} ms "
            f"(scale {speed.scale(result.reference):.3f})"
        )


def per_layer(passes, untraced) -> dict:
    from layers import consistency, layer_metrics

    traced = [(tracer, result) for tracer, result in passes if tracer is not None]
    rows = [layer_metrics(tracer.spans, result) for tracer, result in traced]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        result.wall for _tracer, result in traced
    ) - statistics.median(r.wall for r in untraced)
    metrics["trace.consistency_max_s"] = max(
        consistency(tracer.spans)[0] for tracer, _result in traced
    )
    return metrics


def report_trace(passes, record) -> list:
    """Print each traced pass's layer table, dump the spans, check them."""
    from layers import consistency, layer_table

    traced = [(tracer, result) for tracer, result in passes if tracer is not None]
    problems = []
    for tracer, result in traced:
        problems += [f"trace: {p}" for p in consistency(tracer.spans)[1]]
        print(f"layers of a traced pass ({result.wall:.3f} s wall):")
        print("\n".join(layer_table(tracer.spans, result.wall)))
    dump = SCRATCH / f"spans-{record['workload']}-{record['seed']}.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({
        "provenance": record,
        "passes": [[span.to_json() for span in tracer.spans] for tracer, _ in traced],
    }), encoding="utf-8")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}",
              file=sys.stderr)
        return 2

    # The service asks git for its checkout's revision; keep git's search for
    # a repository inside the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    from workloads import MULTI_CORE

    if args.workload not in MULTI_CORE:
        import speed

        speed.pin_to_one_core()
    workload = set_up(args.workload, args.seed)
    setup_first = scaled_setup(PROCESS_STARTED)
    if args.setup_probe:
        workload.close()
        print(f"{setup_first!r}")
        return 0
    try:
        setup_s = None if args.trace else statistics.median(
            [setup_first] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        )
        passes = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()

    from checks import ReferenceCheck, determinism_problems, provenance

    record = provenance(
        ROOT, args.workload, args.seed, args.seconds, workload.executor
    )
    print("provenance " + json.dumps(record, sort_keys=True))

    reference = ReferenceCheck(args.seed)
    outcomes = [o for _tracer, result in passes for o in result.outcomes]
    problems = []
    failed = 0
    for outcome in outcomes:
        wrong = outcome.program and reference.problem(outcome.kernel, outcome.program)
        failed += bool(outcome.error or wrong)
        if wrong:
            problems.append(f"wrong: {outcome.kernel}: {wrong}")
    stored = SCRATCH / "fingerprints" / (
        f"{args.workload}-{args.seed}-{record['source_digest']}.json"
    )
    problems += [
        f"nondeterministic {p}"
        for p in determinism_problems(fingerprints(args.workload, passes), stored)
    ]

    untraced = [result for tracer, result in passes if tracer is None]
    if args.trace:
        problems += report_trace(passes, record)
        values = per_layer(passes, untraced)
        wanted = spec["per_layer"]
    else:
        report_passes(untraced)
        values = end_to_end(setup_s, untraced, workload.concurrent)
        wanted = spec["end_to_end"]

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
