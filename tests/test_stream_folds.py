"""Consumers that fold from one stride walk instead of walking again.

Every walking engine runs the one set-associative kernel, an unbounded
table as one set with no way limit, and ends in ``step``'s LRU order.
Static engines whose tables cannot evict, infinite or finite, follow a
leader's walk (member-only ones too, under a leader that allocates every
address); ILP followers mask the leader's hit codes with their take
sets, each ILP label on its own machine; and an unbounded last-value
profiler folds from the stride walk's held-value hits.  Each route is
held to its per-record reference, and each test checks that the route
it covers really ran: the kernel's calls and the
``core.engines.walked``/``followed`` counters.  The take-all profiling
body is held to ``access`` itself.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generator import generate_case
from repro.check.oracle import _engine_grid, _observe_engine
from repro.core import (
    AlwaysClassification,
    HardwareClassification,
    PredictionEngine,
    ProbeScheme,
    ProfileClassification,
)
from repro.core.simulate import _cannot_evict, simulate_prediction_many
from repro.ilp import IlpConfig, WindowScheduler, measure_ilp_many
from repro.isa import Directive, assemble
from repro.machine import trace_program
from repro.machine.tracestore import replay_or_run
from repro.predictors import LastValuePredictor, StridePredictor
from repro.predictors.stride import (
    ATTEMPTS,
    CORRECT,
    HELD,
    MISSES,
    NONZERO,
    SET,
    ZERO_COUNTS,
    walk_take_all,
    write_back,
)
from repro.predictors.table import PredictionTable
from repro.profiling import collect_profiles, dumps_profile
from repro.profiling.collector import ProfileImage, _profile_run
from repro.telemetry import Telemetry, use_registry

# Six candidates: the two li run once, the four loop instructions on
# every iteration, with a stride (addi), a square (mul), a sum (add) and
# a held value (slt).
LOOP_ASM = """
.text
    li r1, 0
    li r2, 40
loop:
    addi r1, r1, 1
    mul r3, r1, r1
    add r4, r3, r1
    slt r5, r1, r2
    bnez r5, loop
    halt
"""

PHASED_ASM = """
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
    mul r4, r1, r1
    slt r3, r1, r2
    bnez r3, comp
    halt
"""

# A loop whose mul (address 4) first runs on the second iteration, after
# the addi 512 instructions on (address 516, the same set of a 512-set
# table) was allocated: LRU order then differs from allocation order,
# both in one unbounded set and in that 2-way set.
LRU_ASM = "\n".join([
    ".text",
    "    li r1, 0",
    "    li r2, 6",
    "loop:",
    "    slti r6, r1, 1",
    "    bnez r6, skip",
    "    mul r3, r1, r1",
    "skip:",
    *["    nop"] * 511,
    "    addi r1, r1, 1",
    "    slt r5, r1, r2",
    "    bnez r5, loop",
    "    halt",
])


@pytest.fixture(scope="module")
def program():
    return assemble(LOOP_ASM)


def loop_members(program):
    """The four loop candidates, as profile directives."""
    return {
        address: Directive.STRIDE
        for address in program.candidate_addresses
        if program.instructions[address].opcode.name != "LI"
    }


def count_kernels(monkeypatch):
    """Record the ``ways`` of each call of the simulate module's kernel
    (``math.inf`` for an unbounded table)."""
    import repro.core.simulate as simulate

    calls = []
    kernel = simulate.walk_set_associative

    def counting(sets, ways, *args, **kwargs):
        calls.append(ways)
        return kernel(sets, ways, *args, **kwargs)

    monkeypatch.setattr(simulate, "walk_set_associative", counting)
    return calls


def reference_ilp(program, engines):
    """One ``WindowScheduler.feed`` per record per label."""
    schedulers = {
        label: WindowScheduler(program, engine=engine)
        for label, engine in engines.items()
    }
    for record in trace_program(program):
        for scheduler in schedulers.values():
            scheduler.feed(record)
    return {label: scheduler.result() for label, scheduler in schedulers.items()}


def observe(engines):
    return {
        label: _observe_engine(engine)
        for label, engine in engines.items()
        if engine is not None
    }


def measured(program, make_engines):
    """Batch ILP results, engine end states and route counters, beside
    the reference's results and end states."""
    engines = make_engines()
    registry = Telemetry()
    with use_registry(registry):
        results = measure_ilp_many(program, (), engines)
    counters = registry.snapshot()["counters"]
    routes = {
        route: counters.get(f"core.engines.{route}", 0)
        for route in ("walked", "followed", "stepped")
    }
    reference_engines = make_engines()
    reference = reference_ilp(program, reference_engines)
    return (results, observe(engines)), (reference, observe(reference_engines)), routes


class TestCannotEvict:
    def test_predicate_boundary(self):
        table = PredictionTable(8, 2)  # four sets
        assert _cannot_evict(table, [0, 4, 1, 5, 2, 3])
        assert not _cannot_evict(table, [0, 4, 8, 1])
        assert _cannot_evict(table, [])

    @pytest.mark.parametrize("scheme", ["always", "fsm", "profile"])
    @pytest.mark.parametrize("spare", [0, -1], ids=["exactly-ways", "one-over"])
    def test_one_set_at_the_boundary(self, monkeypatch, program, scheme, spare):
        """A one-set table holding exactly its allocatable addresses
        cannot evict, so it shares a walk with an unbounded always engine:
        a static engine follows that engine, an FSM engine leads it.  One
        way fewer, it walks on its own and evicts.  Both match the
        per-record scheduler, down to table entries."""
        members = loop_members(program)
        allocatable = len(members) if scheme == "profile" else len(
            program.candidate_addresses
        )
        ways = allocatable + spare

        def make_engines():
            if scheme == "profile":
                chosen = ProfileClassification.from_directives(members)
            elif scheme == "fsm":
                chosen = HardwareClassification()
            else:
                chosen = AlwaysClassification()
            return {
                "novp": None,
                "unbounded": PredictionEngine(
                    program, StridePredictor(), AlwaysClassification()
                ),
                "vp": PredictionEngine(program, StridePredictor(ways, ways), chosen),
            }

        calls = count_kernels(monkeypatch)
        fast, reference, routes = measured(program, make_engines)
        assert fast == reference
        if spare == 0:
            assert routes == {"walked": 1, "followed": 1, "stepped": 0}
            # The FSM engine leads in its own table; a static one follows
            # the unbounded engine's walk.
            assert calls == [ways if scheme == "fsm" else math.inf]
        else:
            assert routes == {"walked": 2, "followed": 0, "stepped": 0}
            assert sorted(calls) == [ways, math.inf]
            # The contested set really evicts.
            assert reference[1]["vp"]["tables"]["table0"]["meters"][2] > 0


class TestLruOrder:
    @pytest.mark.parametrize("scheme", [AlwaysClassification, HardwareClassification])
    @pytest.mark.parametrize("entries", [None, 1024], ids=["infinite", "1024x2"])
    def test_walk_ends_in_steps_order(self, scheme, entries):
        """A walking engine's table lists its entries in the order the
        same engine stepped per record leaves them: LRU within each set,
        sets in the order they were first touched."""
        program = assemble(LRU_ASM)

        def engine():
            return PredictionEngine(program, StridePredictor(entries, 2), scheme())

        def listed(each):
            return [
                (address, entry.last_value, entry.stride)
                for address, entry in each.predictor.table
            ]

        walked = engine()
        registry = Telemetry()
        with use_registry(registry):
            simulate_prediction_many(program, (), {"vp": walked})
        assert registry.snapshot()["counters"]["core.engines.walked"] == 1
        stepped = engine()
        allocated = []
        for record in trace_program(program):
            if program.candidate_mask[record.address]:
                stepped.step(record.address, record.value)
                if record.address not in allocated:
                    allocated.append(record.address)
        assert listed(walked) == listed(stepped)
        assert [address for address, *_ in listed(stepped)] != allocated


class TestFollowers:
    def engines(self, program):
        members = loop_members(program)
        some = dict(list(members.items())[:2])

        def profile(chosen):
            return ProfileClassification.from_directives(chosen)

        return {
            "novp": None,
            "fsm": PredictionEngine(
                program, StridePredictor(512, 2), HardwareClassification()
            ),
            "always": PredictionEngine(
                program, StridePredictor(), AlwaysClassification()
            ),
            "prof": PredictionEngine(program, StridePredictor(512, 2), profile(members)),
            "prof-some": PredictionEngine(program, StridePredictor(), profile(some)),
            "probe-prof": PredictionEngine(
                program, StridePredictor(), ProbeScheme(profile(some))
            ),
        }

    def test_fsm_leader_and_its_followers_match_records(self, program):
        fast, reference, routes = measured(program, lambda: self.engines(program))
        assert fast == reference
        assert routes == {"walked": 1, "followed": 4, "stepped": 0}

    def test_probe_leads_member_only_engines(self, monkeypatch, program):
        def make_engines():
            engines = self.engines(program)
            return {label: engines[label] for label in ("novp", "prof", "prof-some")}

        calls = count_kernels(monkeypatch)
        fast, reference, routes = measured(program, make_engines)
        assert fast == reference
        assert routes == {"walked": 0, "followed": 2, "stepped": 0}
        # The hidden probe, an unbounded table, is the one walk.
        assert calls == [math.inf]

    def test_follower_outcomes_differ_from_the_leaders(self, program):
        """The masks matter: a follower takes fewer predictions than the
        leader hits."""
        results = measure_ilp_many(program, (), self.engines(program))
        some = results["prof-some"].taken_predictions
        assert 0 < some < results["always"].taken_predictions


class TestOracleGridRoutes:
    def test_grid_runs_the_no_eviction_and_follower_routes(self, monkeypatch):
        """The oracle grid's roomy tables take the new routes on generated
        programs, beside the contested 8-entry ones."""
        import repro.core.simulate as simulate

        case = generate_case(0)
        engines = _engine_grid(case.program)
        finishers = []
        build = simulate._follower_finisher

        def counting_finisher(engine, *args):
            finishers.append(engine)
            return build(engine, *args)

        monkeypatch.setattr(simulate, "_follower_finisher", counting_finisher)
        calls = count_kernels(monkeypatch)
        registry = Telemetry()
        with use_registry(registry):
            simulate_prediction_many(
                case.program, list(case.inputs), engines, max_instructions=20000
            )
        followed = {
            label for label, engine in engines.items()
            if any(engine is other for other in finishers)
        }
        assert followed == {
            "stride/always", "stride/profile", "stride/probe-always",
            "stride/probe-profile", "roomy/always", "roomy/profile",
        }
        counters = registry.snapshot()["counters"]
        assert counters["core.engines.followed"] == 6
        assert counters["core.engines.walked"] == 9
        assert counters["core.engines.stepped"] == 4
        # One walk each: stride/fsm, stride/probe-fsm and the two
        # unbounded last-value engines in one set with no way limit;
        # roomy/fsm and the four 8-entry engines in 2-way sets.
        assert sorted(calls) == [2] * 5 + [math.inf] * 4


class TestTablePathCounters:
    def test_ilp_cell_reports_its_followers(self):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.shared import ilp_results

        context = ExperimentContext(scale=0.01, training_runs=1, cache_dir=None)
        registry = Telemetry()
        with use_registry(registry):
            ilp_results(context, "124.m88ksim")
        counters = registry.snapshot()["counters"]
        # The grid cell behind the ILP half also runs the six
        # infinite-table probe engines.  The FSM engine's finite table
        # cannot evict, so it leads the five profile thresholds of both
        # halves; the probe FSM engine walks on its own.
        assert counters["core.engines.walked"] == 2
        assert counters["core.engines.followed"] == 10
        assert counters["core.engines.stepped"] == 0


def last_value_state(predictor):
    table = predictor.table
    return (
        (table.lookups, table.hits, table.evictions),
        sorted(
            (address, type(entry).__name__, repr(entry.last_value))
            for address, entry in table
        ),
    )


class TestLastValueFollower:
    @pytest.mark.parametrize("k", [1, 3])
    def test_whole_run_matches_last_value_alone(self, k):
        program = assemble(PHASED_ASM)
        registry = Telemetry()
        together = {"S": StridePredictor(), "L": LastValuePredictor()}
        with use_registry(registry):
            images = collect_profiles(program, predictors=together, sample_every=k)
        alone = {"L": LastValuePredictor()}
        expected = collect_profiles(program, predictors=alone, sample_every=k)
        assert registry.snapshot()["counters"]["profiling.predictors.followed"] == 1
        assert dumps_profile(images["L"]) == dumps_profile(expected["L"])
        assert last_value_state(together["L"]) == last_value_state(alone["L"])
        # The stride image is not the last-value one on this program.
        assert dumps_profile(images["S"]) != dumps_profile(images["L"])

    @pytest.mark.parametrize("k", [1, 3])
    def test_phase_split_matches_last_value_alone(self, k):
        program = assemble(PHASED_ASM)

        def phase_images(predictors):
            images = {}

            def image_for(name, phase):
                return images.setdefault(
                    (name, phase), ProfileImage(program.name, f"#{phase}")
                )

            batches = replay_or_run(program, (), None, None)
            _profile_run(program, batches, predictors, image_for, k)
            return {
                key: dumps_profile(image)
                for key, image in images.items()
                if key[0] == "L"
            }

        together = {"L": LastValuePredictor(), "S": StridePredictor()}
        alone = {"L": LastValuePredictor()}
        split = phase_images(together)
        assert sorted(split) == [("L", 0), ("L", 1), ("L", 2)]
        assert split == phase_images(alone)
        assert last_value_state(together["L"]) == last_value_state(alone["L"])

    def test_a_used_last_value_table_walks_itself(self, monkeypatch):
        """A last-value table that already holds entries neither follows
        the stride walk nor takes the take-all kernel: it steps through
        ``access``."""
        import repro.profiling.collector as collector

        program = assemble(PHASED_ASM)
        warm = LastValuePredictor()
        collect_profiles(program, predictors={"L": warm})
        walked = []
        accessed = []
        kernel = collector.walk_take_all
        generic = collector._generic_profiler

        def counting(rows, *args, **kwargs):
            walked.append(kwargs.get("learns", True))
            return kernel(rows, *args, **kwargs)

        def counting_generic(predictor, rows):
            accessed.append(predictor)
            return generic(predictor, rows)

        monkeypatch.setattr(collector, "walk_take_all", counting)
        monkeypatch.setattr(collector, "_generic_profiler", counting_generic)
        registry = Telemetry()
        with use_registry(registry):
            collect_profiles(program, predictors={"S": StridePredictor(), "L": warm})
        assert sorted(set(walked)) == [True]
        assert accessed == [warm]
        assert "profiling.predictors.followed" not in registry.snapshot()["counters"]


class TestIlpLanes:
    """Each ILP label schedules on its own machine; labels whose engines
    decide the same codes under the same config get equal results and
    engine statistics."""

    def engines(self, program, finite=True):
        members = loop_members(program)
        some = dict(list(members.items())[:2])

        def profile(chosen):
            return PredictionEngine(
                program,
                StridePredictor(512, 2) if finite else StridePredictor(),
                ProfileClassification.from_directives(chosen),
            )

        return {
            "novp": None,
            "fsm": PredictionEngine(
                program, StridePredictor(512, 2), HardwareClassification()
            ),
            "fsm-again": PredictionEngine(
                program, StridePredictor(512, 2), HardwareClassification()
            ),
            "prof90": profile(members),
            "prof80": profile(dict(members)),
            "prof-some": profile(some),
        }

    def measure(self, monkeypatch, program, make_engines, configs=None):
        import repro.ilp.model as model

        built = []
        init = model._BatchMachine.__init__

        def counting(machine, *args):
            built.append(machine)
            init(machine, *args)

        monkeypatch.setattr(model._BatchMachine, "__init__", counting)
        engines = make_engines()
        results = measure_ilp_many(program, (), engines, configs=configs)
        assert len(built) == len(engines)
        return results, observe(engines)

    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "unbounded"])
    def test_equal_directive_sets_give_equal_results(
        self, monkeypatch, program, finite
    ):
        def make_engines():
            return self.engines(program, finite)

        results, states = self.measure(monkeypatch, program, make_engines)
        assert results["fsm"] == results["fsm-again"]
        assert results["prof90"] == results["prof80"]
        assert results["prof90"] != results["prof-some"]
        reference_engines = make_engines()
        assert results == reference_ilp(program, reference_engines)
        assert states == observe(reference_engines)
        assert states["prof90"] == states["prof80"]

    def test_a_config_changes_only_its_label(self, monkeypatch, program):
        config = IlpConfig(misprediction_penalty=9)

        def make_engines():
            engines = self.engines(program)
            return {label: engines[label] for label in ("fsm", "fsm-again")}

        results, _states = self.measure(
            monkeypatch, program, make_engines, configs={"fsm-again": config}
        )
        engines = make_engines()
        schedulers = {
            "fsm": WindowScheduler(program, engine=engines["fsm"]),
            "fsm-again": WindowScheduler(
                program, engine=engines["fsm-again"], config=config
            ),
        }
        for record in trace_program(program):
            for scheduler in schedulers.values():
                scheduler.feed(record)
        expected = {label: each.result() for label, each in schedulers.items()}
        assert results == expected
        assert results["fsm"] != results["fsm-again"]


_MIXED_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, float("nan"), 2**63, 2**63 + 1, -(2**63) - 1]),
)
#: Phases of a stream: lists of (address, value) over a few addresses.
_PHASES = st.lists(
    st.lists(st.tuples(st.integers(0, 5), _MIXED_VALUES), max_size=60),
    min_size=1,
    max_size=4,
)


def canon(value):
    """A value that tells NaN, -0.0 and an int from its float twin apart."""
    return type(value).__name__, repr(value)


def canon_entries(table):
    return sorted(
        (address, canon(entry.last_value), canon(getattr(entry, "stride", 0)))
        for address, entry in table
    )


class TestTakeAllBody:
    @settings(max_examples=200, deadline=None)
    @given(_PHASES, st.booleans(), st.booleans())
    def test_matches_access(self, phases, learns, held):
        """Each phase's counts and the final entries equal one ``access``
        per pair of a stride (or, not learning, last-value) predictor;
        the held count equals a last-value predictor's correct ones."""
        make = StridePredictor if learns else LastValuePredictor
        reference = make()
        last_value = LastValuePredictor()
        rows = {}
        for phase in phases:
            walk_take_all(rows, phase, learns=learns, held=held)
            expected = {}
            for address, value in phase:
                counts = expected.setdefault(address, [0, 0, 0, 0, 0])
                result = reference.access(address, value)
                followed = last_value.access(address, value)
                if not result.hit:
                    counts[0] += 1
                    continue
                counts[1] += 1
                counts[2] += result.correct
                counts[3] += result.nonzero_stride
                counts[4] += held and followed.correct
            observed = {
                address: [row[MISSES], row[ATTEMPTS], row[CORRECT], row[NONZERO],
                          row[HELD]]
                for address, row in rows.items()
                if row[MISSES] + row[ATTEMPTS]
            }
            assert observed == expected
            for row in rows.values():
                row[MISSES:SET] = ZERO_COUNTS
        table = make().table
        write_back(table, rows, learns)
        assert canon_entries(table) == canon_entries(reference.table)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 20), _MIXED_VALUES), min_size=1, max_size=8),
        st.sampled_from([StridePredictor, LastValuePredictor]),
    )
    def test_a_prepopulated_table_steps_through_access(self, warm, make):
        """A table that already holds entries profiles through ``access``,
        not the take-all body, and equals the per-record reference."""
        import repro.profiling.collector as collector
        from repro.check import profile_records

        program = assemble(PHASED_ASM)

        def prepopulated():
            predictor = make()
            for address, value in warm:
                predictor.access(address, value)
            return predictor

        walked = []
        kernel = collector.walk_take_all

        def counting(rows, *args, **kwargs):
            walked.append(rows)
            return kernel(rows, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collector, "walk_take_all", counting)
            predictor = prepopulated()
            image = collect_profiles(program, predictors={"p": predictor})["p"]
        assert walked == []
        reference_predictor = prepopulated()
        reference = profile_records(
            program, list(trace_program(program)), reference_predictor
        )
        assert dumps_profile(image) == dumps_profile(reference)
        assert canon_entries(predictor.table) == canon_entries(
            reference_predictor.table
        )
