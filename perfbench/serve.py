"""serve-sessions: two tenants in a closed loop against a ``repro serve`` daemon.

The daemon runs as a subprocess (``repro serve --no-cache --port 0
--workers 2``).  One client connection runs each session to completion
before taking the next: a compile job, one profile job over the program's
five training input sets, then an annotate job on the compiled program and
its profile.  Sessions alternate between the two tenants and walk a seeded
corpus (``generate_corpus(serve_seed, 48)``) in an order shuffled by the
run seed.  Each session inserts five traces into the daemon's 64-entry
trace store and a program recurs only 48 sessions later, so every profile
job captures.

One connection keeps one job in flight, so the client and the daemon
mostly take turns on a 2-vCPU host; with two connections both processes
were busy at once and the run-to-run spread of ``wall_s`` doubled.

A rep is one pass over the corpus.  After an untimed warm-up pass, a run
measures passes until ``--seconds`` have gone by and at least
``MIN_PASSES`` were made, and reports medians over the passes, so a burst
of host contention moves one pass rather than the run's figure.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

CORPUS_SIZE = 48
#: A rep is one pass over the corpus (48 sessions, 144 jobs), so every seed
#: runs the same multiset of jobs.  Seven measured passes make 1008 jobs, so
#: p99 has ten samples beyond it.
MIN_PASSES = 7
TENANTS = ("alice", "bob")
#: Corpus seed; 2718 is the held-out one (both have reference digests).
DEFAULT_SERVE_SEED = 1997
#: Daemons spawned for the set-up measurement; the last one serves.
SETUP_SPAWNS = 5
KINDS = ("compile", "profile", "annotate")
REJECTED_CODES = ("quota-exceeded", "queue-full")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Daemon:
    """One ``repro serve`` subprocess, ready once ``/health`` answers.

    A ``traced`` daemon runs under ``traced_daemon.py`` and leaves its
    per-layer metrics in :attr:`summary_path` when it exits.
    """

    def __init__(self, root: str, workdir: str, tag: str, env: dict,
                 traced: bool = False) -> None:
        from repro.service import ServiceClient

        self.report_path = os.path.join(workdir, f"serve-report-{tag}.json")
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self.summary_path = os.path.join(workdir, f"serve-layers-{tag}.json")
        launcher = ([os.path.join(HERE, "traced_daemon.py"), self.summary_path,
                     os.path.join(workdir, "trace-serve-sessions.json")]
                    if traced else ["-m", "repro", "serve"])
        started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, *launcher, "--no-cache", "--port", "0",
                 "--workers", "2", "--report-json", self.report_path],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.port = self._wait_for_port(started + 60.0)
            self.client = ServiceClient("127.0.0.1", self.port, timeout=60.0)
            while True:
                try:
                    self.client.health()
                    break
                except OSError:
                    if time.perf_counter() > started + 60.0:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self, deadline: float) -> int:
        while True:
            with open(self.log_path, encoding="utf-8") as log:
                match = re.search(r"serving on [^:\s]+:(\d+)", log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not start within 60 s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def cpu_seconds(self) -> float:
        """User plus system CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="utf-8") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict:
        """Drain and wait for exit; returns job id -> engine seconds."""
        self.client.shutdown()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        with open(self.report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(self.report_path)
        os.remove(self.log_path)
        return {entry["job_id"]: entry["seconds"] for entry in report["jobs"]}

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Sessions:
    """The seeded corpus and session order, plus the closed loop over them."""

    def __init__(self, seed: int, serve_seed: int, expected) -> None:
        from repro.workloads import generate_corpus

        self.corpus = generate_corpus(serve_seed, CORPUS_SIZE)
        self.inputs = [
            tuple(tuple(workload.input_set(run)) for run in range(5))
            for workload in self.corpus
        ]
        self.order = list(range(CORPUS_SIZE))
        random.Random(seed).shuffle(self.order)
        #: program index -> [compile, profile, annotate] output digests.
        self.expected = expected
        self.observed = {}
        self.next_session = 0

    def run(self, port: int, sessions: int):
        """Run the next ``sessions`` sessions; (wall, job records)."""
        from repro.service import ServiceClient

        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        records = []
        started = time.perf_counter()
        for index in range(self.next_session, self.next_session + sessions):
            records.extend(self._session(client, TENANTS[index % len(TENANTS)],
                                         self.order[index % CORPUS_SIZE]))
        self.next_session += sessions
        return time.perf_counter() - started, records

    def passes(self, daemon, count: int, seconds: float = 0.0):
        """At least ``count`` passes, and more until ``seconds`` have gone by.

        Returns ``(wall, records, daemon cpu seconds)`` per pass.
        """
        done = []
        started = time.perf_counter()
        while len(done) < count or time.perf_counter() - started < seconds:
            cpu = daemon.cpu_seconds()
            wall, records = self.run(daemon.port, CORPUS_SIZE)
            done.append((wall, records, daemon.cpu_seconds() - cpu))
        return done

    def _session(self, client, tenant: str, program: int):
        from repro.service.api import AnnotateJob, ApiError, CompileJob, ProfileJob

        workload = self.corpus[program]
        # A program missing from the reference fails every job of its session.
        expected = (None if self.expected is None
                    else self.expected.get(str(program), ("",) * len(KINDS)))
        observed = []
        records = []
        assembly = profile = None
        for position, kind in enumerate(KINDS):
            record = {"kind": kind, "ok": False, "rejected": False, "job_id": None,
                      "latency": None, "bytes": 0}
            records.append(record)
            if position and (assembly is None or (kind == "annotate" and profile is None)):
                continue  # an earlier job of the session failed
            if kind == "compile":
                job = CompileJob(source=workload.source, name=workload.name)
            elif kind == "profile":
                job = ProfileJob(program=assembly, name=workload.name,
                                 input_sets=self.inputs[program])
            else:
                job = AnnotateJob(program=assembly, profile=profile, name=workload.name)
            started = time.perf_counter()
            try:
                result = client.run(job, tenant=tenant)
            except ApiError as error:
                record["rejected"] = error.code in REJECTED_CODES
                continue
            record["latency"] = time.perf_counter() - started
            record["job_id"] = result.job_id
            record["bytes"] = len(json.dumps(job.to_dict())) + len(result.output.encode())
            observed.append(digest(result.output))
            record["ok"] = expected is None or expected[position] == observed[-1]
            if kind == "compile":
                assembly = result.output
            elif kind == "profile":
                profile = result.output
        if len(observed) == len(KINDS):
            self.observed[str(program)] = observed
        return records


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def measure(root, workdir, env, seed, serve_seed, seconds, trace, expected):
    """Measure serve-sessions; returns the outcome dict ``run.py`` reports."""
    sessions = Sessions(seed, serve_seed, expected)
    setups = []
    daemon = None
    try:
        for spawn in range(SETUP_SPAWNS):
            daemon = Daemon(root, workdir, f"{os.getpid()}-{spawn}", env)
            setups.append(daemon.setup_s)
            if spawn < SETUP_SPAWNS - 1:
                daemon.stop()
        # The warm-up pass is not timed; its outputs are checked all the same.
        _, warmup = sessions.run(daemon.port, CORPUS_SIZE)
        reps = sessions.passes(daemon, MIN_PASSES)
        # Read after a fixed number of passes: the daemon keeps every job's
        # output, so its high-water mark grows with the passes a run makes.
        peak_rss = daemon.peak_rss_mb()
        if not trace:
            reps += sessions.passes(daemon, 0, seconds - sum(wall for wall, _, _ in reps))
        daemon.stop()
        daemon = None
        traced = None
        if trace:
            # A fresh daemon, so its spans and counters cover the traced passes only.
            daemon = Daemon(root, workdir, f"{os.getpid()}-traced", env, traced=True)
            traced_reps = sessions.passes(daemon, MIN_PASSES)
            engine_seconds = daemon.stop()
            with open(daemon.summary_path, encoding="utf-8") as handle:
                layers = json.load(handle)
            os.remove(daemon.summary_path)
            daemon = None
            traced = (layers, traced_reps, engine_seconds)
    finally:
        if daemon is not None:
            daemon.kill()

    records = warmup + [record for _, rep, _ in reps for record in rep]
    outcome = {
        "attempted": len(records),
        "failed": sum(1 for record in records if not record["ok"]),
        "latency": latency_metrics(records[len(warmup):]),
        "observed": sessions.observed,
        "e2e": {
            "wall_s": statistics.median(wall for wall, _, _ in reps),
            "cpu_s": statistics.median(cpu for _, _, cpu in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "jobs_per_s": statistics.median(
                sum(1 for record in rep if record["ok"]) / wall for wall, rep, _ in reps
            ),
        },
    }
    if traced is not None:
        layers, traced_reps, engine_seconds = traced
        rep = [record for _, pass_records, _ in traced_reps for record in pass_records]
        outcome["attempted"] += len(rep)
        outcome["failed"] += sum(1 for record in rep if not record["ok"])
        layers.update(service_metrics(rep, engine_seconds))
        layers["trace.overhead_ratio"] = (statistics.median(wall for wall, _, _ in traced_reps)
                                          / outcome["e2e"]["wall_s"])
        outcome["layers"] = layers
    return outcome


def latency_metrics(records):
    """Job latency, submit to complete streamed result: p50, p99, samples."""
    latencies = [record["latency"] for record in records if record["ok"]]
    return {
        "service.latency_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "service.latency_p99_ms": 1000.0 * percentile(latencies, 0.99) if latencies else 0.0,
        "service.latency_samples": len(latencies),
    }


def service_metrics(records, engine_seconds):
    """Client-side metrics of the traced passes, against the daemon's job times."""
    done = [record for record in records if record["ok"]]
    metrics = latency_metrics(records)
    for kind in KINDS:
        of_kind = [record for record in done if record["kind"] == kind]
        metrics[f"service.latency_p50_ms.{kind}"] = 1000.0 * statistics.median(
            record["latency"] for record in of_kind) if of_kind else 0.0
        metrics[f"service.engine_ms.{kind}"] = 1000.0 * statistics.median(
            engine_seconds[record["job_id"]] for record in of_kind) if of_kind else 0.0
    metrics["service.overhead_ms"] = 1000.0 * statistics.median(
        record["latency"] - engine_seconds[record["job_id"]] for record in done
    ) if done else 0.0
    metrics["service.bytes_per_job"] = (
        sum(record["bytes"] for record in done) / len(done) if done else 0.0
    )
    metrics["service.rejected"] = sum(1 for record in records if record["rejected"])
    return metrics
