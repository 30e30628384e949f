"""Unit tests for profile collection, the file format, merging and metrics."""

from __future__ import annotations

import math

import pytest

from repro.isa import Category, assemble
from repro.lang import compile_source
from repro.predictors import LastValuePredictor, StridePredictor
from repro.profiling import (
    InstructionProfile,
    ProfileFormatError,
    ProfileImage,
    accuracy_vectors,
    average_distance_metric,
    collect_profile,
    collect_profiles,
    common_addresses,
    dumps_profile,
    interval_histogram,
    interval_percentages,
    loads_profile,
    max_distance_metric,
    merge_profiles,
    read_profile,
    save_profile,
    stride_efficiency_vectors,
)

STRIDE_LOOP = """
.text
    li r1, 0
    li r2, 50
loop:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, loop
    halt
"""


class TestCollector:
    def test_loop_counter_profiles_as_stride(self):
        program = assemble(STRIDE_LOOP)
        image = collect_profile(program)
        addi_address = 2
        profile = image.instructions[addi_address]
        # 50 executions; first allocates, second trains the stride, the
        # remaining 48 predict correctly with a non-zero stride.
        assert profile.executions == 50
        assert profile.attempts == 49
        assert profile.correct == 48
        assert profile.nonzero_stride_correct == 48
        assert profile.accuracy == pytest.approx(100.0 * 48 / 49)
        assert profile.stride_efficiency == 100.0

    def test_last_value_predictor_misses_strides(self):
        program = assemble(STRIDE_LOOP)
        image = collect_profile(program, predictor=LastValuePredictor())
        profile = image.instructions[2]
        assert profile.correct == 0

    def test_multi_predictor_single_run(self):
        program = assemble(STRIDE_LOOP)
        images = collect_profiles(
            program,
            predictors={"S": StridePredictor(), "L": LastValuePredictor()},
        )
        assert images["S"].instructions[2].correct > 0
        assert images["L"].instructions[2].correct == 0

    def test_group_stats_by_category(self):
        source = """
        float f;
        void main() {
            int i;
            for (i = 0; i < 10; i = i + 1) { f = f + 1.5; }
            out(f);
        }
        """
        program = compile_source(source)
        image = collect_profile(program)
        categories = {category for category, _phase in image.groups}
        assert Category.INT_ALU in categories
        assert Category.FP_ALU in categories

    def test_phase_tracking(self):
        source = """
        void main() {
            int a;
            phase(1);
            a = in() * 2;
            phase(2);
            out(a + 1);
        }
        """
        program = compile_source(source)
        image = collect_profile(program, inputs=[5])
        phases = {phase for _category, phase in image.groups}
        assert 1 in phases and 2 in phases

    def test_phase_profiles_replay_matches_fresh_run(self):
        from repro.machine import TraceStore
        from repro.profiling import collect_phase_profiles
        from repro.profiling.image_io import dumps_profile

        source = """
        void main() {
            int i; int a;
            phase(1);
            a = in();
            phase(2);
            for (i = 0; i < 40; i = i + 1) { a = a + i; }
            out(a);
        }
        """
        program = compile_source(source)
        store = TraceStore()
        # Tiny batches: the sampling rule must count global positions.
        for _batch in store.batches(program, [5], chunk_size=4):
            pass
        for k in (1, 3):
            fresh = collect_phase_profiles(program, [5], sample_every=k)
            replayed = collect_phase_profiles(
                program, [5], sample_every=k, store=store
            )
            assert list(replayed) == list(fresh)
            assert 2 in fresh
            for phase, image in fresh.items():
                assert dumps_profile(replayed[phase]) == dumps_profile(image)

    def test_only_candidates_profiled(self, count_program):
        image = collect_profile(count_program)
        for address in image.instructions:
            assert count_program[address].is_prediction_candidate


class TestImageIo:
    def make_image(self):
        image = ProfileImage("prog", run_label="r0")
        image.instructions[3] = InstructionProfile(3, 100, 99, 90, 45)
        image.instructions[7] = InstructionProfile(7, 10, 9, 0, 0)
        return image

    def test_roundtrip(self, tmp_path):
        image = self.make_image()
        path = tmp_path / "image.profile"
        save_profile(image, path)
        loaded = read_profile(path)
        assert loaded.program_name == "prog"
        assert loaded.run_label == "r0"
        assert loaded.instructions[3].accuracy == image.instructions[3].accuracy
        assert loaded.instructions[7].attempts == 9

    def test_string_roundtrip(self):
        image = self.make_image()
        loaded = loads_profile(dumps_profile(image))
        assert set(loaded.instructions) == {3, 7}

    def test_bad_magic_rejected(self):
        with pytest.raises(ProfileFormatError):
            loads_profile("not a profile\n")

    def test_malformed_row_rejected(self):
        text = "# repro-profile-image v1\n1 2 3\n"
        with pytest.raises(ProfileFormatError):
            loads_profile(text)

    def test_inconsistent_counts_rejected(self):
        text = "# repro-profile-image v1\n1 5 10 3 0\n"  # attempts > executions
        with pytest.raises(ProfileFormatError):
            loads_profile(text)


class TestMerge:
    def image_with(self, entries):
        image = ProfileImage("p")
        for address, counts in entries.items():
            image.instructions[address] = InstructionProfile(address, *counts)
        return image

    def test_counts_sum(self):
        first = self.image_with({1: (10, 9, 5, 2)})
        second = self.image_with({1: (20, 19, 15, 4)})
        merged = merge_profiles([first, second])
        profile = merged.instructions[1]
        assert (profile.executions, profile.attempts) == (30, 28)
        assert (profile.correct, profile.nonzero_stride_correct) == (20, 6)

    def test_union_by_default(self):
        first = self.image_with({1: (1, 0, 0, 0)})
        second = self.image_with({2: (1, 0, 0, 0)})
        merged = merge_profiles([first, second])
        assert set(merged.instructions) == {1, 2}

    def test_require_common_drops_partial(self):
        first = self.image_with({1: (1, 0, 0, 0), 2: (1, 0, 0, 0)})
        second = self.image_with({2: (1, 0, 0, 0)})
        merged = merge_profiles([first, second], require_common=True)
        assert set(merged.instructions) == {2}

    def test_common_addresses(self):
        first = self.image_with({1: (1, 0, 0, 0), 2: (1, 0, 0, 0)})
        second = self.image_with({2: (1, 0, 0, 0), 3: (1, 0, 0, 0)})
        assert common_addresses([first, second]) == [2]

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_profiles([])


class TestMetrics:
    def test_max_distance_definition(self):
        vectors = [[0.0, 50.0], [10.0, 70.0], [4.0, 90.0]]
        assert max_distance_metric(vectors) == [10.0, 40.0]

    def test_average_distance_definition(self):
        vectors = [[0.0], [6.0], [12.0]]
        # pairwise distances 6, 12, 6 -> mean 8
        assert average_distance_metric(vectors) == [8.0]

    def test_identical_vectors_give_zero(self):
        vectors = [[5.0, 10.0]] * 4
        assert max_distance_metric(vectors) == [0.0, 0.0]
        assert average_distance_metric(vectors) == [0.0, 0.0]

    def test_max_at_least_average(self):
        vectors = [[1.0, 20.0, 33.0], [9.0, 80.0, 35.0], [5.0, 50.0, 37.0]]
        for maximum, average in zip(
            max_distance_metric(vectors), average_distance_metric(vectors)
        ):
            assert maximum >= average

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_distance_metric([[1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            average_distance_metric([[1.0]])

    def test_histogram_intervals(self):
        values = [0.0, 10.0, 10.1, 20.0, 95.0, 100.0]
        counts = interval_histogram(values)
        assert counts[0] == 2          # 0 and 10 in [0,10]
        assert counts[1] == 2          # 10.1 and 20 in (10,20]
        assert counts[9] == 2          # 95 and 100 in (90,100]
        assert sum(counts) == len(values)

    def test_histogram_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interval_histogram([101.0])
        with pytest.raises(ValueError):
            interval_histogram([-0.1])

    def test_percentages_sum_to_100(self):
        values = [5.0, 15.0, 25.0, 95.0]
        assert math.isclose(sum(interval_percentages(values)), 100.0)

    def test_empty_percentages(self):
        assert interval_percentages([]) == [0.0] * 10

    def test_vectors_use_common_instructions_only(self):
        first = ProfileImage("p")
        second = ProfileImage("p")
        first.instructions[1] = InstructionProfile(1, 10, 10, 10, 0)
        first.instructions[2] = InstructionProfile(2, 10, 10, 5, 5)
        second.instructions[2] = InstructionProfile(2, 10, 10, 5, 0)
        vectors = accuracy_vectors([first, second])
        assert vectors == [[50.0], [50.0]]
        stride_vectors = stride_efficiency_vectors([first, second])
        assert stride_vectors == [[100.0], [0.0]]


class TestPhaseProfiles:
    def test_phase_split_images(self):
        from repro.lang import compile_source
        from repro.profiling import collect_phase_profiles

        source = """
        float acc;
        void main() {
            int i;
            phase(1);
            acc = 0.0;
            for (i = 0; i < 10; i = i + 1) { acc = acc + fin(); }
            phase(2);
            for (i = 0; i < 10; i = i + 1) { acc = acc * 1.5; }
            out(acc);
        }
        """
        program = compile_source(source)
        images = collect_phase_profiles(program, inputs=[0.5] * 10)
        assert set(images) >= {1, 2}
        # Phase accounting is disjoint: no double counting of executions.
        from repro.profiling import collect_profile

        whole = collect_profile(program, inputs=[0.5] * 10)
        split_total = sum(
            profile.executions
            for image in images.values()
            for profile in image.instructions.values()
        )
        whole_total = sum(p.executions for p in whole.instructions.values())
        assert split_total == whole_total

    def test_predictor_state_carries_across_phases(self):
        from repro.isa import assemble
        from repro.profiling import collect_phase_profiles

        # The same static addi runs in phase 1 and phase 2; its stride
        # state must survive the phase boundary, so phase 2 starts
        # predicting immediately.
        program = assemble(
            """
.text
    li r1, 0
    phase 1
    addi r1, r1, 1
    addi r1, r1, 1
    phase 2
    addi r1, r1, 1
    addi r1, r1, 1
    halt
"""
        )
        images = collect_phase_profiles(program)
        # wait: those are 4 distinct static addis; use a loop instead.
        program = assemble(
            """
.text
    li r1, 0
    li r2, 3
    phase 1
init:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, init
    phase 2
    li r2, 6
comp:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, comp
    halt
"""
        )
        images = collect_phase_profiles(program)
        addi_phase1 = images[1].instructions[3]
        # Phase 1 runs the addi 3 times: allocate + train + 1 correct.
        assert addi_phase1.correct >= 1


PHASED_LOOP_ASM = """
.text
    li r1, 0
    li r2, 3
    phase 1
init:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, init
    phase 2
    li r2, 40
comp:
    addi r1, r1, 2
    slt r3, r1, r2
    bnez r3, comp
    halt
"""


def count_consumers(monkeypatch):
    """Count the predictors the collector's take-all kernel walked (by
    rows) and the ``access`` consumers it built."""
    import repro.profiling.collector as collector

    walked = {}  # id -> rows, held so that no id is reused
    built = {"access": 0}
    kernel = collector.walk_take_all
    generic = collector._generic_profiler

    def kernel_wrapper(rows, *args, **kwargs):
        walked[id(rows)] = rows
        return kernel(rows, *args, **kwargs)

    def generic_wrapper(*args):
        built["access"] += 1
        return generic(*args)

    monkeypatch.setattr(collector, "walk_take_all", kernel_wrapper)
    monkeypatch.setattr(collector, "_generic_profiler", generic_wrapper)
    return lambda: {"inlined": len(walked), "access": built["access"]}


class TestSharedConsumers:
    """Whole-run and phase-split profiles share one loop and one fold."""

    def setup_method(self):
        self.program = assemble(PHASED_LOOP_ASM)

    def test_phase_profiles_take_inlined_stride_consumer(self, monkeypatch):
        from repro.profiling import collect_phase_profiles

        built = count_consumers(monkeypatch)
        images = collect_phase_profiles(self.program)
        assert built() == {"inlined": 1, "access": 0}
        assert list(images) == [0, 1, 2]
        assert [image.run_label for image in images.values()] == ["#0", "#1", "#2"]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "make_predictor",
        [lambda: StridePredictor(entries=8)],
        ids=["finite-stride"],
    )
    def test_other_predictors_take_access_consumer(
        self, monkeypatch, make_predictor, k
    ):
        self.check_consumers(monkeypatch, make_predictor, k, inlined=0, access=2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_last_value_takes_stride_kernel(self, monkeypatch, k):
        # Last-value is the kernel with its stride held at 0.
        self.check_consumers(monkeypatch, LastValuePredictor, k, inlined=2, access=0)

    def check_consumers(self, monkeypatch, make_predictor, k, inlined, access):
        """Whole-run and phase profiles take the expected consumers and
        equal the per-record reference."""
        from repro.check import profile_records
        from repro.machine import trace_program
        from repro.profiling import collect_phase_profiles

        records = list(trace_program(self.program))
        built = count_consumers(monkeypatch)
        whole = collect_profile(
            self.program, predictor=make_predictor(), run_label="r", sample_every=k
        )
        phases = collect_phase_profiles(
            self.program, predictor=make_predictor(), run_label="r", sample_every=k
        )
        assert built() == {"inlined": inlined, "access": access}
        reference = profile_records(
            self.program, records, make_predictor(), run_label="r", sample_every=k
        )
        assert dumps_profile(whole) == dumps_profile(reference)
        by_phase = profile_records(
            self.program,
            records,
            make_predictor(),
            run_label="r",
            sample_every=k,
            by_phase=True,
        )
        assert list(phases) == list(by_phase)
        for phase, image in by_phase.items():
            assert dumps_profile(phases[phase]) == dumps_profile(image)

    def test_phase_profiles_leave_profiling_counters_alone(self):
        from repro.profiling import collect_phase_profiles
        from repro.telemetry import Telemetry, use_registry

        registry = Telemetry()
        with use_registry(registry):
            collect_phase_profiles(self.program)
        counters = registry.snapshot()["counters"]
        assert "profiling.records" not in counters
        assert "profiling.runs" not in counters
        with use_registry(registry):
            collect_profile(self.program)
        assert registry.counter("profiling.runs").value == 1


class TestGroupsStoredOnce:
    """Each address's group counts are stored once (ProfileImage.homes).

    The serialized images must not change: the sha256 of ``dumps_profile``
    for two merged scale-0.01 images is pinned from the layout that kept
    an explicit ``[executions, attempts, correct]`` slot per address.
    """

    PINNED = {
        "126.gcc": "681e9e53b8aa6f964c06b50160425edb553ff3e512013799f80fe50852905a3b",
        "107.mgrid": "6e993282660315f678277d82e3e936259e8cfbefa6a1510f50fb276c523d03f7",
    }

    @pytest.fixture(scope="class")
    def context(self):
        from repro.experiments.context import ExperimentContext

        return ExperimentContext(scale=0.01, training_runs=5)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_merged_image_bytes_are_pinned(self, context, name):
        import hashlib

        merged = context.merged_profile(name)
        digest = hashlib.sha256(dumps_profile(merged).encode("utf-8")).hexdigest()
        assert digest == self.PINNED[name]
        reloaded = merge_profiles(
            [loads_profile(dumps_profile(image)) for image in context.training_profiles(name)],
            program_name=name,
        )
        assert dumps_profile(reloaded) == dumps_profile(merged)

    def test_collected_int_image_holds_no_group_lists(self, context):
        for image in [*context.training_profiles("126.gcc"), context.merged_profile("126.gcc")]:
            assert image.splits == {}
            assert sorted(image.homes) == image.addresses
            assert loads_profile(dumps_profile(image)).splits == {}

    def test_multi_phase_addresses_keep_explicit_slots(self, context):
        image = context.training_profiles("107.mgrid")[0]
        assert image.splits and image.homes
        for address, slots in image.splits.items():
            assert len(slots) > 1
            assert address not in image.homes
        phases = {phase for slots in image.splits.values() for _category, phase in slots}
        assert len(phases) > 1
        reloaded = loads_profile(dumps_profile(image))
        assert reloaded == image
        assert sorted(reloaded.splits) == sorted(image.splits)

    def test_group_slot_splits_a_home(self):
        image = ProfileImage("p")
        image.add_counts(3, (Category.INT_ALU, 0), 10, 9, 8, 7)
        assert image.homes == {3: (Category.INT_ALU, 0)}
        slot = image.group_slot(Category.INT_ALU, 1, 3)
        slot[0] += 1
        assert image.homes == {}
        assert image.group_detail == {
            (Category.INT_ALU, 0): {3: [10, 9, 8]},
            (Category.INT_ALU, 1): {3: [1, 0, 0]},
        }
        # The split address's instruction row is unchanged by group_slot.
        assert image.instructions[3] == InstructionProfile(3, 10, 9, 8, 7)
