"""Tests for the service wire contract (repro.service.api)."""

from __future__ import annotations

import pytest

from repro.service import api


ALL_JOBS = [
    api.CompileJob(source="void main() { out(1); }", name="demo"),
    api.Job(("trace", "t.asm", "--inputs=1,2.5,-3", "--max-instructions", "100",
             "-o", "t.trace"), {"t.asm": ".text\n"}),
    api.ProfileJob(program=".text\n", name="p", input_sets=((1, 2), (), (3,))),
    api.AnnotateJob(program=".text\n", profile="# repro-profile-image v1\n", name="a"),
    api.Job(("experiments", "fig-5.1", "--scale", "0.5", "--training-runs", "3")),
]


class TestJobRoundTrip:
    @pytest.mark.parametrize("job", ALL_JOBS, ids=lambda j: j.kind)
    def test_to_from_dict_identity(self, job):
        assert api.Job.from_dict(job.to_dict()) == job

    @pytest.mark.parametrize("job", ALL_JOBS, ids=lambda j: j.kind)
    def test_digest_stable_and_distinct(self, job):
        first = api.job_digest(job)
        assert first == api.job_digest(api.Job.from_dict(job.to_dict()))
        others = [other for other in ALL_JOBS if other is not job]
        assert all(api.job_digest(other) != first for other in others)

    def test_digest_sensitive_to_payload(self):
        base = api.CompileJob(source="a")
        assert api.job_digest(base) != api.job_digest(api.CompileJob(source="b"))

    def test_defaults_fill_in(self):
        job = api.Job.from_dict({"argv": ["experiments", "list"]})
        assert job == api.Job(("experiments", "list"))
        assert job.files == {} and job.kind == "experiments"

    def test_profile_default_input_sets(self):
        job = api.ProfileJob(program="x")
        assert job.argv == ("profile", "program.asm", "--inputs=")
        assert job.files == {"program.asm": "x"}

    def test_builders_name_files_after_the_program(self):
        # Corpus names contain dots; Path.stem must give the name back.
        job = api.AnnotateJob(program="p", profile="i", name="gen.1997.000")
        assert job.argv == ("annotate", "gen.1997.000.asm", "gen.1997.000.profile")
        assert api.CompileJob(source="s", name="gen.1997.000").argv[1] == "gen.1997.000.mc"

    def test_profile_inputs_use_the_equals_form(self):
        job = api.ProfileJob(program="x", input_sets=((-1, 2.5, -0.125),))
        assert job.argv[2] == "--inputs=-1,2.5,-0.125"


class TestJobValidation:
    def test_unknown_kind(self):
        from repro.service.engine import ServiceEngine

        with pytest.raises(api.ApiError) as info:
            ServiceEngine().admit(api.Job(("bake-cake",)))
        assert info.value.code == api.INVALID_JOB
        assert "invalid choice: 'bake-cake'" in info.value.message

    def test_non_object_payload(self):
        with pytest.raises(api.ApiError) as info:
            api.Job.from_dict("compile")
        assert info.value.code == api.BAD_REQUEST

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # missing argv
            {"argv": []},  # empty argv
            {"argv": "compile demo.mc"},  # not a list
            {"argv": ["compile", 7]},  # not strings
            {"argv": ["compile", None]},
            {"argv": ["compile", "demo.mc"], "files": ["demo.mc"]},  # not a map
            {"argv": ["compile", "demo.mc"], "files": {"demo.mc": 42}},
            {"argv": ["compile", "demo.mc"], "files": {"demo.mc": None}},
            {"argv": ["compile", "demo.mc"], "files": {"demo.mc": 1.5}},
            {"argv": ["compile", "demo.mc"], "files": {"": "x"}},  # empty name
            {"argv": ["compile", "a/demo.mc"], "files": {"a/demo.mc": "x"}},
            {"argv": ["compile", "../demo.mc"], "files": {"../demo.mc": "x"}},
            {"argv": ["compile", "demo.mc"], "files": {"demo\0.mc": "x"}},
        ],
    )
    def test_invalid_payloads(self, payload):
        with pytest.raises(api.ApiError) as info:
            api.Job.from_dict(payload)
        assert info.value.code == api.INVALID_JOB


class TestErrorTaxonomy:
    def test_every_code_has_a_status(self):
        assert set(api.HTTP_STATUS) == set(api.ERROR_CODES)
        assert all(400 <= status <= 599 for status in api.HTTP_STATUS.values())

    def test_api_error_maps_to_status(self):
        assert api.ApiError(api.UNKNOWN_JOB, "x").http_status == 404
        assert api.ApiError(api.QUOTA_EXCEEDED, "x").http_status == 429
        assert api.ApiError(api.SHUTTING_DOWN, "x").http_status == 503

    def test_unknown_code_collapses_to_internal(self):
        error = api.ApiError("made-up-code", "oops")
        assert error.code == api.INTERNAL_ERROR
        assert error.http_status == 500

    def test_info_round_trip_and_raise(self):
        info = api.ApiError(api.QUEUE_FULL, "deep").to_info()
        again = api.ErrorInfo.from_dict(info.to_dict())
        assert again == info
        with pytest.raises(api.ApiError) as caught:
            again.raise_()
        assert caught.value.code == api.QUEUE_FULL
        assert caught.value.message == "deep"


class TestEnvelopes:
    def test_submit_round_trip(self):
        request = api.SubmitRequest(job=ALL_JOBS[0], tenant="alice", priority=3)
        again = api.SubmitRequest.from_dict(request.to_dict())
        assert again == request

    def test_submit_rejects_wrong_schema(self):
        payload = api.SubmitRequest(job=ALL_JOBS[0]).to_dict()
        payload["schema"] = "repro-serve/999"
        with pytest.raises(api.ApiError) as info:
            api.SubmitRequest.from_dict(payload)
        assert info.value.code == api.BAD_REQUEST

    def test_submit_rejects_bad_tenant_and_priority(self):
        good = api.SubmitRequest(job=ALL_JOBS[0]).to_dict()
        for field, bad in (("tenant", ""), ("tenant", 7), ("priority", "high"),
                           ("priority", True)):
            payload = dict(good)
            payload[field] = bad
            with pytest.raises(api.ApiError) as info:
                api.SubmitRequest.from_dict(payload)
            assert info.value.code == api.BAD_REQUEST

    def test_status_and_result_round_trip(self):
        status = api.JobStatus(
            job_id="compile-00001-abc", kind="compile", tenant="t",
            state=api.RUNNING, priority=2, attempts=1, seconds=0.5,
            error=api.ErrorInfo(api.EXECUTION_ERROR, "boom"),
        )
        assert api.JobStatus.from_dict(status.to_dict()) == status
        result = api.JobResult(
            job_id="compile-00001-abc", kind="compile", state=api.DONE,
            output="text", log="compiled demo.mc: 3 instructions\n",
        )
        assert api.JobResult.from_dict(result.to_dict()) == result

    def test_server_stats_round_trip(self):
        stats = api.ServerStats(
            state="serving", queued=1, running=2, finished=3,
            tenants={"a": 2, "b": 1}, queue_depth=64, tenant_quota=8,
        )
        assert api.ServerStats.from_dict(stats.to_dict()) == stats

    def test_every_envelope_carries_schema(self):
        request = api.SubmitRequest(job=ALL_JOBS[0])
        for payload in (
            request.to_dict(),
            api.SubmitReply("id", api.QUEUED, 0).to_dict(),
            api.JobStatus("id", "compile", "t", api.QUEUED).to_dict(),
            api.JobResult("id", "compile", api.DONE).to_dict(),
            api.ServerStats("serving", 0, 0, 0, {}, 64, 8).to_dict(),
        ):
            assert payload["schema"] == api.SCHEMA


class TestStatesAndPaths:
    def test_terminal_states_are_states(self):
        assert set(api.TERMINAL_STATES) <= set(api.JOB_STATES)
        assert api.QUEUED not in api.TERMINAL_STATES
        assert api.RUNNING not in api.TERMINAL_STATES

    def test_paths(self):
        assert api.job_path("abc") == "/v1/jobs/abc"
        assert api.result_path("abc") == "/v1/jobs/abc/result"
