"""Tests for the experiment harness (tiny scale, shared session context)."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext, ExperimentTable, THRESHOLDS
from repro.experiments import percent_change
from repro.experiments.context import TABLE_ENTRIES, TABLE_WAYS
from repro.workloads import TABLE_4_1_NAMES


class TestExperimentTable:
    def test_add_row_validates_width(self):
        table = ExperimentTable("x", "t", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_and_row_map(self):
        table = ExperimentTable("x", "t", headers=["name", "value"])
        table.add_row("one", 1)
        table.add_row("two", 2)
        assert table.column("value") == [1, 2]
        assert table.row_map("name")["two"] == ["two", 2]

    def test_format_contains_all_cells(self):
        table = ExperimentTable("x", "title here", headers=["name", "value"])
        table.add_row("row1", 3.14159)
        text = table.format()
        assert "title here" in text
        assert "row1" in text
        assert "3.1" in text

    def test_percent_change(self):
        assert percent_change(110, 100) == pytest.approx(10.0)
        assert percent_change(90, 100) == pytest.approx(-10.0)
        assert percent_change(5, 0) == 0.0


class TestContext:
    def test_profiles_are_memoized(self, tiny_context):
        first = tiny_context.training_profile("129.compress", 0)
        second = tiny_context.training_profile("129.compress", 0)
        assert first is second

    def test_merged_profile_covers_runs(self, tiny_context):
        merged = tiny_context.merged_profile("129.compress")
        single = tiny_context.training_profile("129.compress", 0)
        address = next(iter(single.instructions))
        assert (
            merged.instructions[address].executions
            >= single.instructions[address].executions
        )

    def test_annotated_respects_threshold_monotonicity(self, tiny_context):
        strict = tiny_context.annotated("129.compress", 90.0)
        loose = tiny_context.annotated("129.compress", 50.0)
        assert set(strict.directives()) <= set(loose.directives())

    def test_disk_cache_roundtrip(self, tmp_path):
        context = ExperimentContext(scale=0.03, training_runs=1, cache_dir=tmp_path)
        image = context.training_profile("129.compress", 0)
        files = list(tmp_path.glob("profile/*/*.profile"))
        assert len(files) == 1
        fresh = ExperimentContext(scale=0.03, training_runs=1, cache_dir=tmp_path)
        loaded = fresh.training_profile("129.compress", 0)
        assert set(loaded.instructions) == set(image.instructions)

    def test_constants_match_paper(self):
        assert TABLE_ENTRIES == 512
        assert TABLE_WAYS == 2
        assert THRESHOLDS == (90.0, 80.0, 70.0, 60.0, 50.0)


class TestSharedComputations:
    BENCH = "129.compress"

    def test_classification_stats_cover_all_schemes(self, tiny_context):
        from repro.experiments.shared import (
            FSM_LABEL,
            classification_accuracy_stats,
            threshold_label,
        )

        stats = classification_accuracy_stats(tiny_context, self.BENCH)
        assert FSM_LABEL in stats
        for threshold in THRESHOLDS:
            assert threshold_label(threshold) in stats
        # Probe semantics: every scheme sees identical attempts.
        attempts = {s.attempts for s in stats.values()}
        assert len(attempts) == 1

    def test_profile_90_suppresses_more_mispredictions_than_50(self, tiny_context):
        from repro.experiments.shared import (
            classification_accuracy_stats,
            threshold_label,
        )

        stats = classification_accuracy_stats(tiny_context, self.BENCH)
        strict = stats[threshold_label(90.0)]
        loose = stats[threshold_label(50.0)]
        assert (
            strict.misprediction_classification_accuracy
            >= loose.misprediction_classification_accuracy
        )
        assert (
            loose.correct_classification_accuracy
            >= strict.correct_classification_accuracy
        )

    def test_finite_figures_match_a_finite_table_simulation(
        self, tiny_context, monkeypatch
    ):
        """Figs 5.3/5.4 read the ILP cell's engines; they must equal a
        finite-table simulation of the same engine set, label by label."""
        from repro.core import (
            HardwareClassification,
            PredictionEngine,
            ProfileClassification,
            simulate_prediction_many,
        )
        from repro.experiments import fig_5_3, fig_5_4
        from repro.experiments.shared import FSM_LABEL, ilp_results, threshold_label
        from repro.predictors import StridePredictor

        program = tiny_context.program(self.BENCH)
        engines = {
            FSM_LABEL: PredictionEngine(
                program,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=HardwareClassification(),
            )
        }
        for threshold in THRESHOLDS:
            annotated = tiny_context.annotated(self.BENCH, threshold)
            engines[threshold_label(threshold)] = PredictionEngine(
                program,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=ProfileClassification(annotated),
            )
        finite = simulate_prediction_many(
            program, tiny_context.test_inputs(self.BENCH), engines
        )
        assert finite[FSM_LABEL].taken_correct > 0
        results = ilp_results(tiny_context, self.BENCH)
        for label, stats in finite.items():
            assert (
                results[label].correct_predictions,
                results[label].mispredictions,
            ) == (stats.taken_correct, stats.taken_incorrect), label

        def row(field):
            baseline = getattr(finite[FSM_LABEL], field)
            return [self.BENCH] + [
                percent_change(getattr(finite[threshold_label(t)], field), baseline)
                for t in THRESHOLDS
            ]

        expected = {
            fig_5_3: row("taken_correct"),
            fig_5_4: row("taken_incorrect"),
        }
        # The two figures differ here, so one reading the other's field fails.
        assert expected[fig_5_3] != expected[fig_5_4]
        for module, expected_row in expected.items():
            monkeypatch.setattr(module, "TABLE_4_1_NAMES", (self.BENCH,))
            assert module.run(tiny_context).rows == [expected_row]

    def test_ilp_results_baseline_present(self, tiny_context):
        from repro.experiments.shared import ilp_results

        results = ilp_results(tiny_context, self.BENCH)
        assert results["novp"].taken_predictions == 0
        assert results["novp"].ilp > 0


@pytest.mark.slow
class TestExperimentModules:
    """Smoke-run every experiment module at tiny scale."""

    def test_all_experiments_produce_tables(self, tiny_context):
        from repro.experiments.runner import EXPERIMENTS

        for identifier, run in EXPERIMENTS.items():
            table = run(tiny_context)
            assert isinstance(table, ExperimentTable)
            assert table.experiment_id == identifier
            assert table.rows, identifier
            assert table.format()

    def test_table_5_1_average_row_monotone(self, tiny_context):
        from repro.experiments import table_5_1

        table = table_5_1.run(tiny_context)
        average = table.row_map("benchmark")["average"][1:]
        assert average == sorted(average), "fraction should grow as threshold drops"

    def test_fig_4_2_mass_in_low_intervals(self, tiny_context):
        from repro.experiments import fig_4_2

        table = fig_4_2.run(tiny_context)
        for row in table.rows:
            name, low, *rest = row
            # Profiles transfer: the lowest interval dominates.
            assert low >= max(rest), name

    def test_table_5_2_profile_competitive(self, tiny_context):
        from repro.experiments import table_5_2

        table = table_5_2.run(tiny_context)
        wins = 0
        for row in table.rows:
            _name, sc, *profile_columns = row
            if max(profile_columns) >= sc:
                wins += 1
        # The paper: profile-guided beats SC "in most benchmarks".
        assert wins >= len(TABLE_4_1_NAMES) // 2 + 1
