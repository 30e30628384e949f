"""The learned predictability classifier (`repro.classify`).

Covers the feature schema, the profile-derived labels, byte-determinism
of training (in-process and across `PYTHONHASHSEED` values), the
digest-stamped model format, and the `LearnedClassification` scheme's
conformance to the `ClassificationScheme` contract.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotate import AnnotationPolicy
from repro.classify import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    LABEL_NAMES,
    LABEL_NONE,
    ModelFormatError,
    annotate_with_model,
    build_dataset,
    dataset_rows,
    directive_label,
    dumps_model,
    extract_features,
    label_directive,
    label_program,
    loads_model,
    majority_label,
    model_digest,
    predict_directives,
    predict_labels,
    profile_workload,
    split_corpus,
    train_model,
)
from repro.core import (
    LearnedClassification,
    PredictionEngine,
    ProbeScheme,
    simulate_prediction_many,
)
from repro.isa import Directive
from repro.predictors import StridePredictor
from repro.telemetry import Telemetry, use_registry
from repro.workloads.corpus import corpus_workload, generate_corpus


@pytest.fixture(scope="module")
def labeled_corpus():
    """A small labeled corpus slice, built once for the whole module."""
    workloads = generate_corpus(1997, 6)
    return build_dataset(workloads, training_runs=2, scale=0.1)


@pytest.fixture(scope="module")
def trained(labeled_corpus):
    rows = dataset_rows(labeled_corpus)
    return train_model(rows, seed=1997), rows


class TestFeatures:
    def test_covers_every_candidate(self):
        program = corpus_workload(7).compile()
        features = extract_features(program)
        assert set(features) == set(program.candidate_addresses)

    def test_schema_width_and_integrality(self):
        program = corpus_workload(7).compile()
        for vector in extract_features(program).values():
            assert len(vector) == len(FEATURE_NAMES)
            assert all(isinstance(value, int) for value in vector)
            assert all(value >= 0 for value in vector)

    def test_deterministic_across_calls(self):
        program = corpus_workload(11).compile()
        assert extract_features(program) == extract_features(program)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_schema_holds_on_any_corpus_program(self, seed):
        program = corpus_workload(seed).compile()
        for vector in extract_features(program).values():
            assert len(vector) == len(FEATURE_NAMES)
            assert all(isinstance(value, int) and value >= 0 for value in vector)

    def test_schema_version_pins_name_list(self):
        # Renaming/adding a feature is a schema change: bump the version.
        assert FEATURE_SCHEMA_VERSION == 1
        assert len(FEATURE_NAMES) == len(set(FEATURE_NAMES))


class TestLabels:
    def test_directive_round_trip(self):
        for directive in (None, Directive.LAST_VALUE, Directive.STRIDE):
            assert label_directive(directive_label(directive)) is directive

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            label_directive(7)

    def test_labels_match_phase3_policy(self):
        workload = corpus_workload(3)
        program, profile = profile_workload(workload, training_runs=2, scale=0.1)
        policy = AnnotationPolicy()
        labels = label_program(program, profile, policy)
        assert set(labels) == set(program.candidate_addresses)
        for address, label in labels.items():
            stats = profile.instructions.get(address)
            expected = None if stats is None else policy.classify(stats)
            assert label == directive_label(expected)

    def test_majority_label_breaks_ties_low(self):
        vector = tuple(0 for _ in FEATURE_NAMES)
        rows = [(vector, 2), (vector, 0), (vector, 2), (vector, 0)]
        assert majority_label(rows) == 0

    def test_split_corpus_is_a_prefix(self):
        workloads = generate_corpus(1997, 8)
        training, held_out = split_corpus(workloads, train_fraction=0.75)
        assert training + held_out == list(workloads)
        assert len(training) == 6
        with pytest.raises(ValueError):
            split_corpus(workloads, train_fraction=1.5)
        with pytest.raises(ValueError):
            split_corpus(workloads[:1])


class TestTrainingDeterminism:
    def test_byte_identical_for_same_seed_and_corpus(self, trained):
        model, rows = trained
        again = train_model(list(rows), seed=1997)
        assert dumps_model(again) == dumps_model(model)

    def test_row_order_cannot_matter(self, trained):
        model, rows = trained
        reordered = train_model(list(reversed(rows)), seed=1997)
        assert dumps_model(reordered) == dumps_model(model)

    def test_subsampling_is_seeded(self, trained):
        _, rows = trained
        limit = max(2, len(rows) // 2)
        first = train_model(rows, seed=41, max_rows=limit)
        second = train_model(rows, seed=41, max_rows=limit)
        assert dumps_model(first) == dumps_model(second)
        assert first.training_rows == limit

    def test_hash_seed_independent(self):
        # The real property: byte-identical model files across
        # *processes* with different PYTHONHASHSEED values.
        script = (
            "from repro.classify import build_dataset, dataset_rows, "
            "dumps_model, train_model\n"
            "from repro.workloads.corpus import generate_corpus\n"
            "rows = dataset_rows(build_dataset("
            "generate_corpus(1997, 4), training_runs=2, scale=0.1))\n"
            "import hashlib\n"
            "text = dumps_model(train_model(rows, seed=1997))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "1", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": "src"},
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            train_model([])
        vector = tuple(0 for _ in FEATURE_NAMES)
        with pytest.raises(ValueError):
            train_model([(vector[:3], 0)])
        with pytest.raises(ValueError):
            train_model([(vector, 9)])


class TestModelFormat:
    def test_round_trip_preserves_everything(self, trained):
        model, _ = trained
        text = dumps_model(model)
        reloaded = loads_model(text)
        assert reloaded == model
        assert dumps_model(reloaded) == text
        assert model_digest(reloaded) == model_digest(model)

    def test_header_digest_matches_body(self, trained):
        model, _ = trained
        header = dumps_model(model).split("\n", 1)[0]
        assert header == f"repro-classify-model/1 sha256={model_digest(model)}"

    def test_tampered_body_rejected(self, trained):
        model, _ = trained
        text = dumps_model(model)
        tampered = text.replace('"seed":1997', '"seed":1998')
        assert tampered != text
        with pytest.raises(ModelFormatError):
            loads_model(tampered)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "no newline at all",
            "wrong-magic/1 sha256=abc\n{}\n",
            "repro-classify-model/1 md5=abc\n{}\n",
            "repro-classify-model/1 sha256=\n{}\n",
        ],
    )
    def test_malformed_headers_rejected(self, text):
        with pytest.raises(ModelFormatError):
            loads_model(text)

    def test_schema_version_mismatch_rejected(self, trained):
        model, _ = trained
        import dataclasses

        future = dataclasses.replace(model, schema_version=99)
        with pytest.raises(ModelFormatError, match="schema"):
            loads_model(dumps_model(future))

    def test_format_error_is_a_value_error(self):
        # The service engine's _JOB_FAULTS taxonomy relies on this.
        assert issubclass(ModelFormatError, ValueError)


class TestLearnedClassification:
    def test_scheme_matches_model_predictions(self, trained):
        model, _ = trained
        program = corpus_workload(5).compile()
        scheme = LearnedClassification.from_model(model, program)
        directives = predict_directives(model, program)
        labels = predict_labels(model, program)
        assert set(labels) == set(program.candidate_addresses)
        for address in program.candidate_addresses:
            tagged = address in directives
            assert scheme.may_allocate(address) == tagged
            assert scheme.should_take(address) == tagged
            assert scheme.directive_of(address) == directives.get(address)
        assert scheme.tagged_count == len(directives)

    def test_untagged_never_allocates(self, trained):
        model, _ = trained
        program = corpus_workload(5).compile()
        scheme = LearnedClassification.from_model(model, program)
        untagged = [
            address
            for address, label in predict_labels(model, program).items()
            if label == LABEL_NONE
        ]
        for address in untagged:
            assert not scheme.may_allocate(address)
            assert not scheme.should_take(address)
            assert scheme.directive_of(address) is None

    def test_record_and_evict_are_stateless(self, trained):
        model, _ = trained
        program = corpus_workload(5).compile()
        scheme = LearnedClassification.from_model(model, program)
        before = {
            address: scheme.should_take(address)
            for address in program.candidate_addresses
        }
        for address in program.candidate_addresses:
            scheme.record(address, False)
            scheme.on_evict(address)
        after = {
            address: scheme.should_take(address)
            for address in program.candidate_addresses
        }
        assert after == before

    def test_learned_engines_run_on_the_stride_kernel(self, trained):
        """A learned scheme, probed or not, is walked by the batch stride
        kernel like the profile scheme it copies, never stepped."""
        model, _ = trained
        workload = corpus_workload(5)
        program = workload.compile()
        engines = {
            "probe": PredictionEngine(
                program,
                predictor=StridePredictor(),
                scheme=ProbeScheme(LearnedClassification.from_model(model, program)),
            ),
            "finite": PredictionEngine(
                program,
                predictor=StridePredictor(512, 2),
                scheme=LearnedClassification.from_model(model, program),
            ),
        }
        registry = Telemetry()
        with use_registry(registry):
            simulate_prediction_many(
                program, workload.test_inputs(scale=0.1), engines
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("core.engines.stepped", 0) == 0
        assert counters["core.engines.walked"] + counters.get(
            "core.engines.followed", 0
        ) == len(engines)

    def test_annotate_with_model_clears_stale_tags(self, trained):
        model, _ = trained
        program = corpus_workload(5).compile()
        stale = program.with_directives(
            {address: Directive.STRIDE for address in program.candidate_addresses}
        )
        annotated = annotate_with_model(model, stale)
        assert annotated.directives() == predict_directives(model, program)


def test_label_names_are_the_closed_set():
    assert LABEL_NAMES == ("none", "last-value", "stride")
