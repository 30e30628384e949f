"""The repository benchmark: one command, three workloads, every metric.

``BENCHMARK.json`` gates ``paper-cold`` and ``serve-sessions``;
``sweep-warm`` runs the same way but is not gated (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload serve-sessions --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``):

* ``paper-cold`` — the twelve paper tables rebuilt from nothing, serially.
* ``sweep-warm`` — four ablations on a context warmed in set-up.
* ``serve-sessions`` — two tenants in a closed loop against ``repro serve``.

Each run repeats the workload's fixed work while fewer than ``--seconds``
have been measured (at least once), checks every output against the
reference digests in ``perfbench/reference.json``, prints one line per
metric with its unit, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced rep with ``--trace 1``.
Metric names and units are those of ``BENCHMARK.json``.  Working files
and Chrome traces go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("paper-cold", "sweep-warm", "serve-sessions")
REFERENCE = os.path.join(HERE, "reference.json")
#: Set-up probes per paper-cold run, besides the rebuild's own set-up.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


def environment(root: str) -> dict:
    """What the numbers depend on, recorded with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "absent"
    except OSError:
        revision = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", "unset"),
        "nproc": os.cpu_count(),
        "git": revision,
    }


def cpu_jiffies():
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat", encoding="utf-8") as stat:
        fields = [int(field) for field in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def run_child(root, env, *args) -> dict:
    """Run ``perfbench/batch.py`` with ``args``; its last stdout line, parsed."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "batch.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"batch.py {' '.join(args)} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure_batch(root, workdir, env, workload, seconds, trace):
    """paper-cold / sweep-warm: child processes do the work."""
    common = ["--workdir", workdir]
    children = []
    setups = []
    if workload == "paper-cold":
        for _ in range(0 if trace else SETUP_PROBES):
            setups.append(run_child(root, env, "probe", *common)["setup_s"])
        measured = time.perf_counter()
        while not children or (not trace and time.perf_counter() - measured < seconds):
            children.append(run_child(root, env, workload, *common, "--trace", "0"))
        if trace:
            untraced = children[0]["reps"][0]["wall_s"]
            children.append(run_child(root, env, workload, *common, "--trace", "1",
                                      "--untraced-wall", repr(untraced)))
    else:
        children.append(run_child(root, env, workload, *common, "--trace", str(trace),
                                  "--seconds", repr(seconds)))
    setups += [child["setup_s"] for child in children]
    reps = [rep for child in children for rep in child["reps"]]
    outcome = {
        "reps": reps + [child["traced"] for child in children if "traced" in child],
        "e2e": {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
            "jobs_per_s": statistics.median(rep["jobs"] / rep["wall_s"] for rep in reps),
        },
    }
    traced = [child["traced"] for child in children if "traced" in child]
    if traced:
        outcome["layers"] = traced[0]["layers"]
    return outcome


def check_batch(outcome, workload, reference, record):
    """Table digests and simulated statistics against the reference."""
    from batch import PAPER_TABLES, STATISTICS, SWEEP_TABLES

    names = PAPER_TABLES if workload == "paper-cold" else SWEEP_TABLES
    expected = reference.setdefault("tables", {})
    attempted = failed = 0
    for rep in outcome["reps"]:
        for name in names:
            attempted += 1
            observed = rep["tables"].get(name)
            if record and observed is not None:
                expected[name] = observed
            elif observed is None or observed != expected.get(name):
                failed += 1
                print(f"MISMATCH table {name}: {observed} != {expected.get(name)}")
    layers = outcome.get("layers")
    if layers is not None:
        pinned = reference.setdefault("statistics", {}).setdefault(workload, {})
        for name in STATISTICS:
            attempted += 1
            if record:
                pinned[name] = layers[name]
            elif layers[name] != pinned.get(name):
                failed += 1
                print(f"FLAG statistic {name}: {layers[name]} != {pinned.get(name)} "
                      "(a simulated statistic changed; counts, not speed)")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the serve sessions; the batch workloads run "
                        "the paper's pinned inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-seed", type=int, default=None,
                        help="corpus seed of serve-sessions (default 1997; "
                        "2718 is the held-out seed)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the observed digests and statistics to "
                        "perfbench/reference.json instead of checking them")
    arguments = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               REPRO_CACHE_DIR=os.path.join(workdir, "cache"))
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    record = arguments.record_reference
    info = environment(root)
    steal_before = cpu_jiffies()

    if arguments.workload == "serve-sessions":
        import serve

        serve_seed = (serve.DEFAULT_SERVE_SEED if arguments.serve_seed is None
                      else arguments.serve_seed)
        digests = reference.setdefault("serve", {})
        expected = None if record else digests.get(str(serve_seed))
        if expected is None and not record:
            print(f"perfbench: no reference digests for serve seed {serve_seed}",
                  file=sys.stderr)
            return 2
        outcome = serve.measure(root, workdir, env, arguments.seed, serve_seed,
                                arguments.seconds, arguments.trace, expected)
        attempted, failed = outcome["attempted"], outcome["failed"]
        if record:
            digests[str(serve_seed)] = dict(sorted(outcome["observed"].items(),
                                                   key=lambda item: int(item[0])))
        info["serve_seed"] = serve_seed
    else:
        outcome = measure_batch(root, workdir, env, arguments.workload,
                                arguments.seconds, arguments.trace)
        attempted, failed = check_batch(outcome, arguments.workload, reference, record)
    if record:
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")

    steal_after = cpu_jiffies()
    # Host contention: the share of CPU time the hypervisor stole meanwhile.
    info["steal_share"] = round((steal_after[0] - steal_before[0])
                                / max(1, steal_after[1] - steal_before[1]), 4)

    kind = "per_layer" if arguments.trace else "end_to_end"
    values = outcome["layers"] if arguments.trace else outcome["e2e"]
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in spec[kind]
    }
    print(f"perfbench {arguments.workload} seed={arguments.seed} "
          f"seconds={arguments.seconds:g} trace={arguments.trace}")
    print("env " + " ".join(f"{key}={value}" for key, value in info.items()))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} ops)")
    for name, value in ({} if arguments.trace else outcome.get("latency", {})).items():
        unit = "count" if name.endswith("samples") else "ms"
        print(f"  {name:<34} {value:>16.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, "results.jsonl"), "a", encoding="utf-8") as log:
        log.write(json.dumps({"workload": arguments.workload, "seed": arguments.seed,
                              "trace": arguments.trace, "env": info, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
