"""End-to-end tests for the profiling-as-a-service daemon.

Covers two tenants with overlapping jobs against one shared trace store,
byte identity with the batch CLI for every command the service runs
(output and log), the admission sandbox, usage errors raised in-process,
quotas, streaming delivery, and graceful drain into a ``RunReport``.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import io
import os
import threading
import time

import pytest

from repro.cli import main
from repro.isa import assemble
from repro.profiling import collect_profile, dumps_profile, merge_profiles
from repro.service import api
from repro.service.api import ApiError, CompileJob, Job, ProfileJob
from repro.service.cli import build_job
from repro.service.client import ServiceClient
from repro.service.engine import COMMANDS, ServiceEngine
from repro.service.server import CHUNK_SIZE, ServiceServer

DEMO_SOURCE = """
int t[8];
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        t[i] = in() * 2;
        total = total + t[i];
    }
    out(total);
}
"""

INPUTS_A = "1,2,3,4,5,6,7,8"
INPUTS_B = "8,7,6,5,4,3,2,1"


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def trace_job(assembly, inputs=INPUTS_A):
    return Job(("trace", "demo.asm", f"--inputs={inputs}", "-o", "demo.trace"),
               {"demo.asm": assembly})


# -- the real daemon against the real engine --------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    engine = ServiceEngine(store_dir=tmp_path_factory.mktemp("traces"))
    server = ServiceServer(engine=engine, workers=2)
    thread = server.run_in_thread()
    yield server
    if server.report is None:
        ServiceClient("127.0.0.1", server.port).shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def service(server):
    return ServiceClient("127.0.0.1", server.port, timeout=120.0)


@pytest.fixture(scope="module")
def batch_artifacts(tmp_path_factory):
    """The batch CLI's outputs for the demo program (the oracle)."""
    directory = tmp_path_factory.mktemp("batch")
    source = directory / "demo.mc"
    source.write_text(DEMO_SOURCE, encoding="utf-8")
    assembly = directory / "demo.asm"
    profile = directory / "demo.profile"
    trace = directory / "demo.trace"
    tagged = directory / "tagged.asm"
    assert main(["compile", str(source), "-o", str(assembly)]) == 0
    assert main(
        ["profile", str(assembly), "--inputs", INPUTS_A, "--inputs", INPUTS_B,
         "-o", str(profile)]
    ) == 0
    assert main(
        ["trace", str(assembly), "--inputs", INPUTS_A, "-o", str(trace)]
    ) == 0
    assert main(
        ["annotate", str(assembly), str(profile), "--threshold", "80",
         "-o", str(tagged)]
    ) == 0
    return {
        "assembly": assembly.read_text(encoding="utf-8"),
        "profile": profile.read_text(encoding="utf-8"),
        "trace": trace.read_text(encoding="utf-8"),
        "tagged": tagged.read_text(encoding="utf-8"),
    }


class TestEndToEnd:
    def test_health_and_stats(self, service):
        health = service.health()
        assert health["ok"] is True
        assert health["schema"] == api.SCHEMA
        stats = service.stats()
        assert stats.state == "serving"
        assert stats.queue_depth >= 1 and stats.tenant_quota >= 1

    def test_two_tenants_overlapping_jobs_match_batch_cli(
        self, service, batch_artifacts
    ):
        """Two tenants, one store, byte identity.

        All four jobs are submitted before any result is collected, so
        they overlap in the daemon's queue/workers, and the trace and
        profile jobs share capture work through the one TraceStore.
        """
        assembly = batch_artifacts["assembly"]
        annotate = Job(
            ("annotate", "demo.asm", "demo.profile", "--threshold", "80"),
            {"demo.asm": assembly, "demo.profile": batch_artifacts["profile"]},
        )
        submitted = [
            ("alice", CompileJob(source=DEMO_SOURCE, name="demo"), "assembly"),
            ("alice", ProfileJob(program=assembly, name="demo",
                                 input_sets=((1, 2, 3, 4, 5, 6, 7, 8),
                                             (8, 7, 6, 5, 4, 3, 2, 1))), "profile"),
            ("bob", trace_job(assembly), "trace"),
            ("bob", annotate, "tagged"),
        ]
        replies = [
            (service.submit(job, tenant=tenant), expected)
            for tenant, job, expected in submitted
        ]
        for reply, expected in replies:
            result = service.result(reply.job_id)
            assert result.state == api.DONE
            assert result.output == batch_artifacts[expected], expected

    def test_result_replayed_from_shared_store(self, server, service, batch_artifacts):
        """A second tenant's identical trace job replays, byte-identical."""
        first = service.run(trace_job(batch_artifacts["assembly"]), tenant="carol")
        stored = sorted(server.engine.store_dir.rglob("*"))
        again = service.run(trace_job(batch_artifacts["assembly"]), tenant="erin")
        assert first.output == again.output == batch_artifacts["trace"]
        assert again.log == first.log and first.log.startswith("wrote ")
        assert sorted(server.engine.store_dir.rglob("*")) == stored

    def test_streaming_events_reassemble(self, service, batch_artifacts):
        reply = service.submit(
            CompileJob(source=DEMO_SOURCE, name="demo"), tenant="dave"
        )
        events = list(service.stream_result(reply.job_id))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == api.EVENT_END
        assert api.EVENT_CHUNK in kinds
        assert set(kinds) <= {api.EVENT_STATUS, api.EVENT_CHUNK, api.EVENT_END}
        output = "".join(
            event["data"] for event in events if event["event"] == api.EVENT_CHUNK
        )
        assert output == batch_artifacts["assembly"]
        # The end event carries identity and the log, not a duplicate payload.
        end = events[-1]["result"]
        assert end["state"] == api.DONE and end["output"] == ""
        assert end["log"].startswith("compiled demo.mc: ")

    def test_job_status_lifecycle(self, service):
        reply = service.submit(CompileJob(source=DEMO_SOURCE, name="demo"))
        assert reply.state == api.QUEUED
        service.result(reply.job_id)
        status = service.status(reply.job_id)
        assert status.state == api.DONE
        assert status.kind == "compile"
        assert status.attempts == 1
        assert status.error is None

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ApiError) as info:
            service.status("no-such-job")
        assert info.value.code == api.UNKNOWN_JOB
        assert info.value.http_status == 404

    def test_bad_schema_is_400(self, service):
        body = {"schema": "repro-serve/1",
                "job": {"kind": "compile", "source": "void main() {}"}}
        status, payload = service._request("POST", api.JOBS_PATH, body)
        assert status == 400
        assert payload["error"]["code"] == api.BAD_REQUEST

    def test_invalid_job_rejected_at_submit(self, service):
        with pytest.raises(ApiError) as info:
            service.submit(Job(("compile",)))
        assert info.value.code == api.INVALID_JOB
        assert info.value.http_status == 400

    def test_execution_error_fails_job(self, service, batch_artifacts):
        # The demo program reads eight inputs; an empty stream exhausts it.
        reply = service.submit(trace_job(batch_artifacts["assembly"], inputs=""))
        with pytest.raises(ApiError) as info:
            service.result(reply.job_id)
        assert info.value.code == api.EXECUTION_ERROR
        assert info.value.message.startswith("trace: InputExhausted")
        status = service.status(reply.job_id)
        assert status.state == api.FAILED
        assert status.error is not None
        assert status.error.code == api.EXECUTION_ERROR


# -- byte identity with the batch CLI, command by command -------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, batch_artifacts):
    """Every file the seven commands read, under plain names."""
    from repro.classify import build_dataset, dataset_rows, dumps_model, train_model
    from repro.workloads.corpus import generate_corpus

    directory = tmp_path_factory.mktemp("identity")
    (directory / "demo.mc").write_text(DEMO_SOURCE, encoding="utf-8")
    (directory / "demo.asm").write_text(batch_artifacts["assembly"], encoding="utf-8")
    (directory / "demo.profile").write_text(batch_artifacts["profile"], encoding="utf-8")
    (directory / "in.txt").write_text(INPUTS_B.replace(",", " ") + "\n", encoding="utf-8")
    (directory / "run-1.profile").write_text(batch_artifacts["profile"], encoding="utf-8")
    (directory / "run-2.profile").write_text(batch_artifacts["profile"], encoding="utf-8")
    rows = dataset_rows(build_dataset(generate_corpus(1997, 3), training_runs=2, scale=0.1))
    (directory / "model.json").write_text(dumps_model(train_model(rows, seed=1997)),
                                          encoding="utf-8")
    return directory


IDENTITY_CASES = {
    "compile": ["compile", "demo.mc", "-o", "out.asm"],
    "trace": ["trace", "demo.asm", "--inputs", "@in.txt", "-o", "out.trace"],
    "profile": ["profile", "demo.asm", "--inputs", INPUTS_A, "--inputs=@in.txt",
                "-o", "out.profile"],
    "annotate": ["annotate", "demo.asm", "demo.profile", "--threshold", "80"],
    "fuse": ["fuse", "run-*.profile", "--require-common"],
    "classify predict": ["classify", "predict", "model.json", "demo.asm"],
    "experiments": ["experiments", "fig-4.2", "--scale", "0.01", "--no-cache", "--quiet"],
}


def test_identity_cases_cover_every_command():
    assert sorted(IDENTITY_CASES) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(IDENTITY_CASES))
def test_output_and_log_match_batch_cli(command, service, workdir, monkeypatch, capsys):
    argv = IDENTITY_CASES[command]
    monkeypatch.chdir(workdir)
    assert main(list(argv)) == 0
    batch = capsys.readouterr()
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    expected = (workdir / output).read_text(encoding="utf-8") if output else batch.out
    job, _arguments = build_job(list(argv))
    assert all("/" not in name for name in job.files)
    result = service.run(job, tenant="identity")
    assert result.output == expected
    assert result.log == batch.err
    assert expected


def test_client_cli_writes_where_the_batch_command_does(
    server, workdir, monkeypatch, capsys
):
    monkeypatch.chdir(workdir)
    assert main(["profile", "demo.asm", "--inputs=@in.txt", "-o", "batch.profile"]) == 0
    batch = capsys.readouterr()
    client = ["client", "--port", str(server.port), "--tenant", "cli"]
    assert main([*client, "profile", "demo.asm", "--inputs=@in.txt",
                 "-o", "svc.profile"]) == 0
    served = capsys.readouterr()
    assert (workdir / "svc.profile").read_bytes() == (workdir / "batch.profile").read_bytes()
    assert served.err == batch.err.replace("batch.profile", "svc.profile")
    assert served.out == batch.out == ""
    assert main([*client, "trace", "demo.asm", "--jobs", "2", "-o", "t.trace"]) == 2
    assert "error [invalid-job]: trace: the service refuses --jobs" in capsys.readouterr().err


def test_profile_job_with_floats_and_negatives(service, batch_artifacts):
    input_sets = ((1.5, -2, 3, -4.25, 5, 6, 7, 8), (-1, -2.5, -3, 0.125, 5, -6, 7, 1e-05))
    result = service.run(ProfileJob(program=batch_artifacts["assembly"], name="demo",
                                    input_sets=input_sets))
    program = assemble(batch_artifacts["assembly"], name="demo")
    images = [collect_profile(program, list(inputs), run_label=f"run-{index}")
              for index, inputs in enumerate(input_sets)]
    assert result.output == dumps_profile(merge_profiles(images))


# -- the admission sandbox ---------------------------------------------------

PROGRAM = {"demo.asm": ".text\n    halt\n"}

SANDBOX_CASES = [
    ("absolute path", Job(("compile", "/etc/hostname")), "'/etc/hostname' is not"),
    ("parent path", Job(("compile", "../x.asm"), {"x.asm": "void main() {}"}),
     "'../x.asm' is not"),
    ("@file not uploaded", Job(("trace", "demo.asm", "--inputs", "@/etc/hostname",
                                "-o", "t.trace"), PROGRAM), "'/etc/hostname' is not"),
    ("fuse glob", Job(("fuse", "/etc/*"), PROGRAM), "'/etc/*' is not"),
    ("--store", Job(("profile", "demo.asm", "--store", "traces"), PROGRAM), "--store"),
    ("--jobs", Job(("profile", "demo.asm", "--jobs", "2"), PROGRAM), "--jobs"),
    ("--jobs 0", Job(("experiments", "fig-4.2", "--jobs", "0")), "--jobs"),
    ("--output-dir", Job(("experiments", "fig-4.2", "--output-dir", "out")),
     "--output-dir"),
    ("--cache-dir", Job(("experiments", "fig-4.2", "--cache-dir", "cache")),
     "--cache-dir"),
    ("--report-json", Job(("experiments", "fig-4.2", "--report-json", "r.json")),
     "--report-json"),
    ("--sketch", Job(("fuse", "demo.asm", "--sketch", "-o", "m.sketch"), PROGRAM),
     "unrecognized arguments: --sketch"),
    ("-o .gz", Job(("trace", "demo.asm", "-o", "t.trace.gz"), PROGRAM), "-o *.gz"),
    ("check", Job(("check", "--smoke")), "not 'check'"),
    ("serve", Job(("serve", "--port", "0")), "not 'serve'"),
    ("corpus", Job(("corpus", "--out-dir", "corpus")), "not 'corpus'"),
    ("classify train", Job(("classify", "train", "-o", "model.json")),
     "not 'classify train'"),
]


@contextlib.contextmanager
def no_disk_reads():
    """Fail any file open or directory listing while the block runs."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"server disk touched: {args!r}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "open", refuse)
        patch.setattr(io, "open", refuse)
        patch.setattr(os, "open", refuse)
        patch.setattr(os, "listdir", refuse)
        patch.setattr(os, "scandir", refuse)
        yield


@pytest.mark.parametrize("job, fragment", [case[1:] for case in SANDBOX_CASES],
                         ids=[case[0] for case in SANDBOX_CASES])
def test_sandbox_rejects_at_admission(job, fragment):
    engine = ServiceEngine()
    request = api.SubmitRequest(job=job).to_dict()
    with no_disk_reads(), pytest.raises(ApiError) as info:
        engine.admit(api.SubmitRequest.from_dict(request).job)
    assert info.value.code == api.INVALID_JOB
    assert fragment in info.value.message


@pytest.mark.parametrize("name", ["", "dir/demo.asm", "demo\0.asm"])
def test_bad_file_names_rejected(name):
    payload = {"argv": ["compile", "demo.mc"], "files": {name: "void main() {}"}}
    with pytest.raises(ApiError) as info:
        Job.from_dict(payload)
    assert info.value.code == api.INVALID_JOB


# -- usage errors stay in-process ---------------------------------------------


@pytest.mark.parametrize(
    "job, message",
    [
        (Job(("compile",)), "the following arguments are required: source"),
        (Job(("profile", "demo.asm", "--sample-every", "x"), PROGRAM),
         "argument --sample-every: invalid int value: 'x'"),
        (Job(("compile", "--help")), "usage: repro compile"),
        (Job(("experiments", "report")), "report requires --output-dir"),
    ],
    ids=["missing positional", "bad type", "help", "handler SystemExit"],
)
def test_usage_errors_come_back_as_invalid_job(job, message, service, capfd):
    capfd.readouterr()
    with pytest.raises(ApiError) as info:
        service.run(job, tenant="usage")
    assert info.value.code == api.INVALID_JOB
    assert message in info.value.message
    assert service.health()["ok"] is True
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == ""


def test_out_of_range_experiment_option_refused_at_submit(service):
    job = Job(("experiments", "fig-4.2", "--training-runs", "0"))
    with pytest.raises(ApiError) as info:
        service.submit(job, tenant="usage")
    assert info.value.code == api.INVALID_JOB
    assert "argument --training-runs: must be an integer >= 1, got 0" in info.value.message


# -- admission control and drain, with a controllable engine ----------------


class GatedEngine:
    """A stand-in engine whose jobs block until the test releases them."""

    def __init__(self, output="gated-output"):
        self.gate = threading.Event()
        self.output = output
        self.failures = 0
        self.order = []

    def admit(self, job):
        return argparse.Namespace()

    def execute(self, job, arguments):
        if not self.gate.wait(timeout=30):  # pragma: no cover - test hang guard
            raise RuntimeError("gate never opened")
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("engine fault")
        self.order.append(job.argv[1])
        return self.output, f"{job.kind} log\n"


@pytest.fixture
def gated():
    engine = GatedEngine()
    server = ServiceServer(
        engine=engine, workers=1, queue_depth=2, tenant_quota=2
    )
    thread = server.run_in_thread()
    client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
    yield engine, server, client
    engine.gate.set()
    if server.report is None:
        try:
            client.shutdown()
        except ApiError:
            pass
    thread.join(timeout=30)


JOB = CompileJob(source="void main() { out(1); }", name="tiny")


class TestAdmission:
    def test_tenant_quota_and_queue_depth(self, gated):
        engine, server, client = gated
        first = client.submit(JOB, tenant="alice")
        # The single worker picks the job up and blocks on the gate.
        assert wait_for(lambda: client.status(first.job_id).state == api.RUNNING)
        client.submit(JOB, tenant="alice")
        with pytest.raises(ApiError) as info:
            client.submit(JOB, tenant="alice")
        assert info.value.code == api.QUOTA_EXCEEDED
        assert info.value.http_status == 429
        # Another tenant still gets in (depth: 1 queued of 2)...
        client.submit(JOB, tenant="bob")
        # ...until the queue itself is full.
        with pytest.raises(ApiError) as full:
            client.submit(JOB, tenant="carol")
        assert full.value.code == api.QUEUE_FULL
        stats = client.stats()
        assert stats.tenants == {"alice": 2, "bob": 1}
        engine.gate.set()
        report = client.shutdown()
        assert [entry.status for entry in report.jobs] == ["ok"] * 3

    def test_quota_slot_frees_at_terminal_state(self, gated):
        engine, server, client = gated
        engine.gate.set()
        for _ in range(5):  # quota is 2; sequential jobs never collide
            result = client.run(JOB, tenant="alice")
            assert result.output == "gated-output"
            assert result.log == "compile log\n"

    def test_priority_order(self, gated):
        engine, server, client = gated
        blocker = client.submit(CompileJob(source="s", name="blocker"),
                                tenant="alice")
        assert wait_for(lambda: client.status(blocker.job_id).state == api.RUNNING)
        # Submitted low before high; the single worker must still run
        # high first once the blocker clears.
        low = client.submit(CompileJob(source="s", name="low"),
                            tenant="bob", priority=0)
        high = client.submit(CompileJob(source="s", name="high"),
                             tenant="carol", priority=5)
        engine.gate.set()
        client.result(low.job_id)
        client.result(high.job_id)
        assert engine.order == ["blocker.mc", "high.mc", "low.mc"]


class TestDrain:
    def test_drain_finishes_in_flight_jobs(self, gated):
        engine, server, client = gated
        running = client.submit(JOB, tenant="alice")
        assert wait_for(lambda: client.status(running.job_id).state == api.RUNNING)
        queued = client.submit(JOB, tenant="bob")
        reports = []
        shutdown = threading.Thread(
            target=lambda: reports.append(client.shutdown())
        )
        shutdown.start()
        assert wait_for(lambda: client.health()["state"] == "draining")
        # Draining: no new admissions, but admitted jobs will finish.
        with pytest.raises(ApiError) as info:
            client.submit(JOB, tenant="late")
        assert info.value.code == api.SHUTTING_DOWN
        assert info.value.http_status == 503
        engine.gate.set()
        shutdown.join(timeout=30)
        assert reports, "shutdown never returned"
        report = reports[0]
        assert {entry.job_id for entry in report.jobs} == {
            running.job_id, queued.job_id,
        }
        assert all(entry.status == "ok" for entry in report.jobs)
        assert report.exit_code == 0

    def test_failed_job_lands_in_report(self):
        # A real engine: the broken source fails deterministically, and
        # the drain report must carry the failure and its cause.
        server = ServiceServer(engine=ServiceEngine(), workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            reply = client.submit(
                CompileJob(source="int main() {", name="broken"), tenant="alice"
            )
            with pytest.raises(ApiError):
                client.result(reply.job_id)
            report = client.shutdown()
            entry = {e.job_id: e for e in report.jobs}[reply.job_id]
            assert entry.status == "failed"
            assert entry.causes and api.INVALID_JOB in entry.causes[0]
            assert report.exit_code != 0
        finally:
            if server.report is None:
                client.shutdown()
            thread.join(timeout=30)


class TestOneAttempt:
    def test_unexpected_exception_fails_job_once(self):
        """An untyped engine exception fails the job as internal-error,
        after one attempt, and the server keeps serving."""
        engine = GatedEngine()
        engine.failures = 1
        engine.gate.set()
        server = ServiceServer(engine=engine, workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            failed = client.submit(JOB, tenant="alice")
            with pytest.raises(ApiError) as info:
                client.result(failed.job_id)
            assert info.value.code == api.INTERNAL_ERROR
            assert "RuntimeError: engine fault" in info.value.message
            status = client.status(failed.job_id)
            assert (status.state, status.attempts) == (api.FAILED, 1)
            later = client.submit(JOB, tenant="alice")
            assert client.result(later.job_id).state == api.DONE
            report = client.shutdown()
            assert report.to_dict()["schema"] == "repro-run/2"
            assert [entry.status for entry in report.jobs] == ["failed", "ok"]
            assert report.jobs[0].causes == (
                f"{api.INTERNAL_ERROR}: RuntimeError: engine fault",
            )
        finally:
            if server.report is None:
                client.shutdown()
            thread.join(timeout=30)


class TestChunking:
    def test_large_output_streams_in_chunks(self):
        output = "x" * (2 * CHUNK_SIZE + 17)
        engine = GatedEngine(output=output)
        engine.gate.set()
        server = ServiceServer(engine=engine, workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            reply = client.submit(JOB, tenant="alice")
            events = list(client.stream_result(reply.job_id))
            chunks = [e["data"] for e in events if e["event"] == api.EVENT_CHUNK]
            assert len(chunks) == 3
            assert all(len(chunk) <= CHUNK_SIZE for chunk in chunks)
            assert "".join(chunks) == output
            assert client.result(reply.job_id).output == output
        finally:
            client.shutdown()
            thread.join(timeout=30)
