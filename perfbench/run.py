"""End-to-end verdict benchmark for the equivalence checker.

Run from the root of a checkout::

    python3 perfbench/run.py --workload minis --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Workloads (``BENCHMARK.json``; predictions in ``perfbench/predictions.json``):

* ``minis`` — every ``size="mini"`` registry scenario, in seeded order;
* ``tv-full`` — the full ``datacenter`` and ``service_provider`` parse-graph
  rows, in seeded order;
* ``campaign`` — ``run_campaign`` over 64 synthesized mini pairs with two
  spawned workers, batches submitted in seeded order;
* ``service`` — a ``serve --workers 1`` daemon with a fresh verdict store,
  sent every mini scenario six times in seeded order by two closed-loop
  client threads.

A run sets up (imports plus input build, and for ``service`` the daemon's
start), repeats whole passes until ``--seconds`` of measured time have
passed (at least one pass), and then checks every verdict outside the timed
region.  The bounded end-to-end metrics are ``setup_s``,
``verdicts_per_kref``, ``verdict_geomean_ref`` and ``peak_rss_mb``; times in
reference units are explained in ``workloads.py``.  The same times in raw
seconds, and the median and 90th percentile of the time to a verdict, whose
spreads across seeds on ``campaign`` and ``service`` are too wide to bound,
are printed beside them.  With ``--trace 1`` the run adds one pass with
every layer wrapped from outside (``tracing.py``) and reports the per-layer
metrics instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any check failed and 3 when the traced pass fails its coverage
self-check.  ``--workload all`` runs each workload in its own fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("minis", "tv-full", "campaign", "service")
#: Set-up samples per run: the run's own set-up plus this many fresh
#: processes that only set up (imports are done once per process);
#: ``setup_s`` is their median.
SETUP_PROBES = 2
#: Share of the traced wall that per-layer self times must cover.
MIN_COVERAGE = 0.9
#: Workloads whose layers run in this process and so must meet MIN_COVERAGE.
IN_PROCESS = ("minis", "tv-full")

#: Units of the end-to-end metrics; the first group is bounded in
#: BENCHMARK.json, the second is printed for reading only.
UNITS = {
    "setup_s": "s",
    "verdicts_per_kref": "1/kref",
    "verdict_geomean_ref": "ref",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "setup_raw_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_geomean_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ref_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith(("_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_source() -> None:
    """Import the program from this checkout, with its shipped defaults."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SOURCE}; run from a checkout")
    sys.path.insert(0, str(SOURCE))
    for key in [key for key in os.environ if key.startswith("LEAPFROG_")]:
        del os.environ[key]


def probe_setup(name: str, seed: int) -> tuple:
    """Set-up time of one fresh process, raw and normalised."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    raw, normalised = completed.stdout.strip().splitlines()[-1].split()
    return float(raw), float(normalised)


def measure(workload, args):
    """Set-up samples, timed passes, peak RSS, failures and, with
    ``--trace 1``, the tracer and its pass."""
    import workloads

    setup_samples = [workloads.timed_setup(workload)]
    # Peak memory is read after the first pass, a fixed amount of work,
    # because memo tables grow a little with every further pass.
    passes = [workload.run_pass()]
    peak = workload.peak_rss_mb()
    while sum(one.wall for one in passes) < args.seconds:
        passes.append(workload.run_pass())
    failures = workloads.gate([check for one in passes for check in one.checks])
    failures += workload.extra_failures()
    tracer = traced = None
    if args.trace:
        tracer = workloads.Tracer()
        tracer.install()
        try:
            traced = workload.traced_pass()
        finally:
            tracer.uninstall()
        # The traced pass repeats the checks just replayed; its verdicts are
        # checked against the labels, which keeps a traced tv-full run well
        # inside its time limit.
        failures += workloads.gate(traced.checks, replay=False)
        failures += workload.extra_failures()
    else:
        workload.close()
        setup_samples += [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    return setup_samples, passes, peak, failures, tracer, traced


def run_workload(args) -> int:
    import workloads

    workload = workloads.make_workload(args.workload, args.seed)
    try:
        setup_samples, passes, peak, failures, tracer, traced = measure(workload, args)
    finally:
        workload.close()
    checks = [check for one in passes for check in one.checks]
    if traced is not None:
        checks += traced.checks
    timed = workloads.end_to_end(passes)
    timed["setup_raw_s"] = statistics.median(raw for raw, _ in setup_samples)

    if args.trace:
        metrics = workloads.per_layer(tracer, traced, passes, workload)
        metrics.update({f"wall.{name}": timed[name] for name in RAW_UNITS})
        units = {name: per_layer_unit(name) for name in metrics}
        shown = {}
    else:
        metrics = {
            "setup_s": statistics.median(normalised for _, normalised in setup_samples),
            "verdicts_per_kref": timed["verdicts_per_kref"],
            "verdict_geomean_ref": timed["verdict_geomean_ref"],
            "peak_rss_mb": peak,
        }
        units = UNITS
        shown = {name: timed[name] for name in RAW_UNITS}

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"# {args.workload}: seed {args.seed}, {len(passes)} timed pass(es) of "
          f"{len(passes[0].checks)} verdicts, {len(setup_samples)} set-up samples")
    print(f"{args.workload} failed_ratio {len(failures) / len(checks):.6f} "
          f"({len(failures)}/{len(checks)})")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    for name, value in shown.items():
        print(f"{args.workload} {name} {value} {RAW_UNITS[name]} (not bounded)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if failures:
        return 1
    if args.trace and args.workload in IN_PROCESS and metrics["trace.coverage"] < MIN_COVERAGE:
        print(f"error: per-layer self times cover {metrics['trace.coverage']:.3f} "
              f"of the traced wall, below {MIN_COVERAGE}", file=sys.stderr)
        return 3
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        if completed.returncode:
            # A child killed by a signal has a negative return code.
            status = max(status, completed.returncode, 1)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def stop_children() -> None:
    """Stop and reap every process this run started that is still alive.

    Starting a process with the ``spawn`` method (the engine's workers)
    also starts the ``multiprocessing`` resource tracker, which is meant to
    outlive its parent and would still be running after the run exits; it
    stops when its pipe is closed.  Any other child still alive is killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # The parent pid is the second field after the parenthesised
                # command name.
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if parent == os.getpid():
            children.append(int(entry))
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    # Stop as on Ctrl-C, so that every ``finally`` runs and stops the
    # processes this run started.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if args.setup_probe:
            import workloads

            workload = workloads.make_workload(args.workload, args.seed)
            try:
                print(*workloads.timed_setup(workload))
            finally:
                workload.close()
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        stop_children()


# Engine workers start with the spawn method and import this file again as
# ``__mp_main__``; only a direct run may start the benchmark.
if __name__ == "__main__":
    sys.exit(main())
