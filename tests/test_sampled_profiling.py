"""Fidelity tests for sampled phase-2 profiling (``sample_every``)."""

from __future__ import annotations

import pytest

from repro.annotate import AnnotationPolicy, plan_directives
from repro.check import profile_records
from repro.cli import main as cli_main
from repro.machine import Executor, TraceStore
from repro.profiling import collect_profile, dumps_profile, merge_profiles
from repro.profiling.phases import collect_phase_profiles
from repro.service.api import ApiError, Job
from repro.service.engine import ServiceEngine
from repro.workloads import get_workload
from repro.workloads.corpus import generate_corpus

BUDGET = 100_000


@pytest.fixture(scope="module")
def workload():
    return generate_corpus(1997, 3)[1]


@pytest.fixture(scope="module")
def program(workload):
    return workload.compile()


@pytest.fixture(scope="module")
def inputs(workload):
    return workload.test_inputs()


@pytest.fixture(scope="module")
def records(program, inputs):
    return list(Executor(program, inputs=inputs).run())


class TestValidation:
    def test_sample_every_must_be_positive_int(self, program, inputs):
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError):
                collect_profile(program, inputs, sample_every=bad)

    def test_phases_validation(self, program, inputs):
        with pytest.raises(ValueError):
            collect_phase_profiles(program, inputs, sample_every=0)


class TestByteIdentity:
    def test_k1_records_path(self, program, inputs, records):
        reference = profile_records(program, records, run_label="r")
        k1 = collect_profile(program, inputs, run_label="r", sample_every=1)
        assert dumps_profile(k1) == dumps_profile(reference)

    def test_k1_executor_path(self, program, inputs):
        full = collect_profile(program, inputs, run_label="r")
        k1 = collect_profile(program, inputs, run_label="r", sample_every=1)
        assert dumps_profile(k1) == dumps_profile(full)

    def test_k1_store_path(self, program, inputs):
        store = TraceStore(None)
        full = collect_profile(program, inputs, run_label="r", store=store)
        k1 = collect_profile(
            program, inputs, run_label="r", sample_every=1, store=store
        )
        assert dumps_profile(k1) == dumps_profile(full)

    def test_k1_phase_split(self, program, inputs):
        full = collect_phase_profiles(program, inputs, run_label="r")
        k1 = collect_phase_profiles(
            program, inputs, run_label="r", sample_every=1
        )
        assert sorted(full) == sorted(k1)
        for phase in full:
            assert dumps_profile(k1[phase]) == dumps_profile(full[phase])


class TestSampledEquivalence:
    @pytest.mark.parametrize("k", [2, 3, 7, 10])
    def test_all_paths_match_thinned_records(self, program, inputs, records, k):
        reference = profile_records(program, records[::k], run_label="r")
        via_records = profile_records(
            program, records, run_label="r", sample_every=k
        )
        via_executor = collect_profile(
            program, inputs, run_label="r", sample_every=k
        )
        store = TraceStore(None)
        collect_profile(program, inputs, run_label="warm", store=store)
        via_store = collect_profile(
            program, inputs, run_label="r", sample_every=k, store=store
        )
        expected = dumps_profile(reference)
        assert dumps_profile(via_records) == expected
        assert dumps_profile(via_executor) == expected
        assert dumps_profile(via_store) == expected

    def test_sampling_applies_before_candidate_filter(
        self, program, inputs, records
    ):
        # The rule is global-position modulo k over the *unfiltered*
        # stream, so the kept count equals the candidates among
        # records[::k] — not the thinned candidate-only stream, which
        # lands on different positions (the two counts differ on this
        # pinned workload, so the ordering is actually exercised).
        k = 3
        sampled = collect_profile(program, inputs, run_label="r", sample_every=k)
        kept = sum(p.executions for p in sampled.instructions.values())
        candidate_only = [
            record
            for record in records
            if program[record.address].is_prediction_candidate
        ]
        expected = sum(
            1
            for record in records[::k]
            if program[record.address].is_prediction_candidate
        )
        assert kept == expected
        assert kept != len(candidate_only[::k])

    def test_paper_workload_also_covered(self):
        workload = get_workload("130.li")
        program = workload.compile()
        inputs = workload.test_inputs(scale=0.05)
        records = list(Executor(program, inputs=inputs).run())
        for k in (1, 5):
            reference = profile_records(program, records[::k], run_label="r")
            sampled = collect_profile(
                program, inputs, run_label="r", sample_every=k
            )
            assert dumps_profile(sampled) == dumps_profile(reference)


class TestServiceJob:
    def _job(self, *flags):
        return Job(("profile", "p.asm", "--inputs=1", *flags), {"p.asm": ".text\n"})

    def test_round_trip(self):
        job = self._job("--sample-every", "7")
        assert Job.from_dict(job.to_dict()) == job
        assert ServiceEngine().admit(job).sample_every == 7

    def test_default_is_full_profile(self):
        assert ServiceEngine().admit(self._job()).sample_every == 1

    @pytest.mark.parametrize("bad", ["0", "-3", "1.5", "True"])
    def test_invalid_sample_every_rejected(self, bad):
        engine = ServiceEngine()
        job = self._job(f"--sample-every={bad}")
        with pytest.raises(ApiError) as info:
            engine.execute(job, engine.admit(job))
        assert info.value.code == "invalid-job"

    def test_engine_matches_collector(self, tmp_path, workload, program, inputs):
        from repro.isa import disassemble

        engine = ServiceEngine(store_dir=tmp_path / "traces")
        spec = ",".join(str(value) for value in inputs)
        job = Job(
            ("profile", f"{program.name}.asm", f"--inputs={spec}", "--sample-every", "4"),
            {f"{program.name}.asm": disassemble(program)},
        )
        payload, _log = engine.execute(job, engine.admit(job))
        local = collect_profile(
            program, inputs, run_label="run-0", sample_every=4
        )
        assert payload == dumps_profile(local)


class TestProfileCli:
    def test_sample_every_flag(self, tmp_path, workload, program, inputs, records):
        from repro.isa import disassemble

        asm = tmp_path / "prog.asm"
        asm.write_text(disassemble(program), encoding="utf-8")
        spec = ",".join(str(value) for value in inputs)
        full_path = tmp_path / "full.profile"
        k1_path = tmp_path / "k1.profile"
        k5_path = tmp_path / "k5.profile"
        assert cli_main(
            ["profile", str(asm), "--inputs", spec, "-o", str(full_path)]
        ) == 0
        assert cli_main(
            ["profile", str(asm), "--inputs", spec, "--sample-every", "1",
             "-o", str(k1_path)]
        ) == 0
        assert cli_main(
            ["profile", str(asm), "--inputs", spec, "--sample-every", "5",
             "-o", str(k5_path)]
        ) == 0
        assert k1_path.read_bytes() == full_path.read_bytes()
        reference = profile_records(program, records[::5], run_label="run-0")
        assert k5_path.read_text(encoding="utf-8") == dumps_profile(reference)


@pytest.mark.slow
class TestFidelityMonotone:
    def test_agreement_non_increasing_over_nested_rates(self):
        # Powers of two give *nested* sample sets (every record kept at
        # k=8 is kept at k=4, and so on), so on a pinned corpus slice
        # directive agreement with the full profile cannot recover as k
        # grows.  A deterministic regression check, not a theorem for
        # arbitrary rates.
        policy = AnnotationPolicy(accuracy_threshold=90.0)
        rates = (1, 2, 4, 8)
        agreements = {rate: [] for rate in rates}
        for workload in generate_corpus(1997, 6):
            program = workload.compile()
            training = workload.training_inputs()
            store = TraceStore(None)
            merged = {
                rate: merge_profiles(
                    [
                        collect_profile(
                            program,
                            inputs,
                            run_label=f"t{index}",
                            sample_every=rate,
                            store=store,
                        )
                        for index, inputs in enumerate(training)
                    ]
                )
                for rate in rates
            }
            full_plan = plan_directives(program, merged[1], policy)
            for rate in rates:
                plan = plan_directives(program, merged[rate], policy)
                agree = sum(
                    1
                    for address, directive in full_plan.items()
                    if plan.get(address) == directive
                )
                agreements[rate].append(agree / len(full_plan))
        means = [
            sum(agreements[rate]) / len(agreements[rate]) for rate in rates
        ]
        assert means[0] == 1.0
        for higher_rate_mean, lower_rate_mean in zip(means[1:], means):
            assert higher_rate_mean <= lower_rate_mean + 1e-9
