"""Streaming fusion, the sketch wire format, and the redesigned API.

The contract under test: folding a fleet of profile images one at a
time through :class:`~repro.profiling.fusion.MergeAccumulator` is
*indistinguishable* from batch :func:`~repro.profiling.merge_profiles`
— any fold order, either ``require_common`` mode, image or sketch
transport — and the sketch codec is lossless at ``quantize=0`` with
fidelity degrading monotonically as quantization coarsens.
"""

from __future__ import annotations

import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Category
from repro.profiling import (
    MergeAccumulator,
    ProfileSketch,
    SketchFormatError,
    common_addresses,
    decode_profile_payload,
    dumps_profile,
    dumps_sketch,
    encode_profile_payload,
    fidelity_report,
    fuse_images,
    loads_sketch,
    merge_profiles,
    read_any_profile,
    read_profile,
    save_profile,
    save_sketch,
)
from repro.profiling.collector import InstructionProfile, ProfileImage
from repro.profiling.image_io import ProfileFormatError

from tests.test_profile_image_invariants import canonical_counts, profile_images


def simple_image(name, addresses, *, scale=1):
    image = ProfileImage(name, run_label=name)
    for address in addresses:
        image.instructions[address] = InstructionProfile(
            address, 40 * scale, 30 * scale, 20 * scale, 10 * scale
        )
    return image


# -- streaming == batch ------------------------------------------------------


class TestStreamingEqualsBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(profile_images(), min_size=1, max_size=4))
    def test_fold_order_is_irrelevant_and_matches_batch(self, images):
        for require_common in (False, True):
            batch = merge_profiles(images, require_common=require_common)
            for ordering in (images, list(reversed(images))):
                accumulator = MergeAccumulator(require_common=require_common)
                for image in ordering:
                    accumulator.fold(image)
                assert canonical_counts(accumulator.result()) == canonical_counts(
                    batch
                )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(profile_images(), min_size=1, max_size=3))
    def test_sketch_transport_matches_batch(self, images):
        """Fold through the wire format: image -> sketch bytes -> image."""
        batch = merge_profiles(images)
        accumulator = MergeAccumulator()
        for image in images:
            payload = dumps_sketch(ProfileSketch.from_image(image))
            accumulator.fold(loads_sketch(payload).to_image())
        assert canonical_counts(accumulator.result()) == canonical_counts(batch)

    def test_streamed_dump_is_byte_identical_to_batch(self):
        images = [
            simple_image("a", [1, 2, 3]),
            simple_image("b", [2, 3, 4]),
            simple_image("c", [2, 3]),
        ]
        for require_common in (False, True):
            batch = merge_profiles(images, require_common=require_common)
            streamed = fuse_images(images, require_common=require_common)
            assert dumps_profile(streamed) == dumps_profile(batch)

    def test_result_requires_at_least_one_image(self):
        with pytest.raises(ValueError, match="zero profile images"):
            MergeAccumulator().result()

    def test_fold_rejects_unknown_sources(self):
        with pytest.raises(TypeError):
            MergeAccumulator().fold(42)

    def test_thousand_image_fold_stays_bounded(self):
        """The acceptance criterion: a lazy fleet folds in O(1) images.

        The generator materializes one image at a time and the
        accumulator's live address set never exceeds the first image's,
        so memory is bounded by a single image regardless of fleet size.
        """
        addresses = list(range(0, 16, 2))

        def fleet():
            for index in range(1_000):
                yield simple_image(f"edge-{index}", addresses)

        accumulator = MergeAccumulator(require_common=True)
        accumulator.update(fleet())
        assert accumulator.images_folded == 1_000
        assert accumulator.live_addresses == len(addresses)
        merged = accumulator.result()
        assert merged.instructions[0].executions == 40 * 1_000


# -- sketch codec ------------------------------------------------------------


class TestSketchCodec:
    @settings(max_examples=150, deadline=None)
    @given(profile_images())
    def test_quantize_zero_is_lossless(self, image):
        sketch = ProfileSketch.from_image(image, quantize=0)
        assert loads_sketch(dumps_sketch(sketch)).to_image() == image

    @settings(max_examples=60, deadline=None)
    @given(profile_images(), st.integers(min_value=1, max_value=8))
    def test_quantization_preserves_count_ordering(self, image, level):
        decoded = loads_sketch(
            dumps_sketch(ProfileSketch.from_image(image, quantize=level))
        ).to_image()
        for address, original in image.instructions.items():
            profile = decoded.instructions[address]
            assert profile.executions <= original.executions
            assert (
                0
                <= profile.nonzero_stride_correct
                <= profile.correct
                <= profile.attempts
                <= profile.executions
            )

    def test_fidelity_degrades_monotonically(self):
        images = [
            simple_image(f"edge-{index}", range(0, 40, 3), scale=7 + index)
            for index in range(4)
        ]
        report = fidelity_report(images, levels=(0, 1, 2, 4, 8))
        assert report["images"] == 4
        errors = [level["mean_abs_count_error"] for level in report["levels"]]
        assert errors[0] == 0.0
        assert report["levels"][0]["classification_agreement"] == 1.0
        assert errors == sorted(errors)

    def test_compression_beats_text_dump_by_5x(self):
        """A collector-shaped fleet: executions in the thousands, attempts
        one training miss behind, accuracy bimodal, two groups."""
        rng = random.Random(1997)
        text_bytes = sketch_bytes = 0
        for index in range(24):
            image = ProfileImage("fleet", run_label=f"edge-{index}")
            for slot in range(96):
                address = slot * 2
                executions = 1_000 + rng.randrange(0, 4_000)
                attempts = executions - 1
                correct = int(attempts * (0.95 if slot % 3 else 0.15))
                nonzero = correct if slot % 2 else 0
                image.instructions[address] = InstructionProfile(
                    address, executions, attempts, correct, nonzero
                )
                category = Category.INT_LOAD if slot % 2 else Category.INT_ALU
                detail = image.group_detail.setdefault((category, 0), {})
                detail[address] = [executions, attempts, correct]
            text_bytes += len(dumps_profile(image).encode("utf-8"))
            sketch_bytes += len(dumps_sketch(ProfileSketch.from_image(image)))
        assert text_bytes >= 5 * sketch_bytes

    def test_truncated_sketch_rejected(self):
        payload = dumps_sketch(ProfileSketch.from_image(simple_image("p", [1, 2])))
        with pytest.raises(SketchFormatError):
            loads_sketch(payload[:-3])

    def test_bad_magic_rejected(self):
        with pytest.raises(SketchFormatError):
            loads_sketch(b"# not-a-sketch\n")

    def test_sketch_error_is_a_profile_format_error(self):
        """Callers that already catch ProfileFormatError keep working."""
        assert issubclass(SketchFormatError, ProfileFormatError)


# -- redesigned profiling API ------------------------------------------------


class TestMergeApi:
    def test_merge_accepts_open_text_streams(self):
        first = simple_image("a", [1, 2])
        second = simple_image("b", [2, 3])
        merged = merge_profiles(
            [io.StringIO(dumps_profile(first)), io.StringIO(dumps_profile(second))]
        )
        assert canonical_counts(merged) == canonical_counts(
            merge_profiles([first, second])
        )

    def test_merge_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            merge_profiles([simple_image("a", [1])], "name")

    def test_common_addresses_early_exits_on_empty_intersection(self):
        """A dead intersection must stop consuming the stream."""

        def stream():
            yield simple_image("a", [1])
            yield simple_image("b", [2])
            raise AssertionError("stream consumed past the empty intersection")

        assert common_addresses(stream()) == []

    def test_common_addresses_intersects(self):
        images = [simple_image("a", [1, 2, 3]), simple_image("b", [2, 3, 4])]
        assert common_addresses(images) == [2, 3]


class TestAtomicIo:
    def test_save_profile_accepts_path_and_leaves_no_temp(self, tmp_path):
        image = simple_image("p", [1, 2, 3])
        target = tmp_path / "out.profile"
        save_profile(image, target)
        assert read_profile(target) == image
        assert [p.name for p in tmp_path.iterdir()] == ["out.profile"]

    def test_failed_save_preserves_existing_file(self, tmp_path):
        image = simple_image("p", [1])
        target = tmp_path / "out.profile"
        save_profile(image, target)
        before = target.read_bytes()
        with pytest.raises(AttributeError):
            save_profile(object(), target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.profile"]

    def test_save_sketch_round_trips_via_read_any_profile(self, tmp_path):
        image = simple_image("p", [3, 5])
        target = tmp_path / "out.sketch"
        save_sketch(ProfileSketch.from_image(image), target)
        assert read_any_profile(target) == image
        assert read_any_profile(os.fspath(target)) == image


# -- service contract --------------------------------------------------------


class TestFuseJob:
    def _payloads(self, images):
        return tuple(
            encode_profile_payload(dumps_profile(image).encode("utf-8"))
            for image in images
        )

    def test_round_trips_through_the_wire_dict(self):
        from repro.service.api import FuseJob

        job = FuseJob(profiles=("# repro-profile-image v1\n",), name="fleet")
        assert FuseJob.from_dict(job.to_dict()) == job

    def test_from_dict_rejects_bad_profiles(self):
        from repro.service.api import ApiError, FuseJob

        for profiles in ([], [""], [42], "not-a-list"):
            with pytest.raises(ApiError):
                FuseJob.from_dict(
                    {"kind": "fuse", "profiles": profiles, "name": "x"}
                )

    def test_engine_fuse_matches_batch_bytes(self):
        from repro.service.engine import ServiceEngine

        from repro.service.api import FuseJob

        images = [simple_image("a", [1, 2, 3]), simple_image("b", [2, 3, 4])]
        # Mixed transport: one text image, one base64 sketch.
        payloads = (
            encode_profile_payload(dumps_profile(images[0]).encode("utf-8")),
            encode_profile_payload(
                dumps_sketch(ProfileSketch.from_image(images[1]))
            ),
        )
        output, meta = ServiceEngine().execute(
            FuseJob(profiles=payloads, require_common=True)
        )
        batch = merge_profiles(images, require_common=True)
        assert output == dumps_profile(batch)
        assert meta["images"] == 2
        assert meta["sketches"] == 1

    def test_decode_rejects_garbage_payloads(self):
        with pytest.raises(ProfileFormatError):
            decode_profile_payload("this is neither text image nor base64 sketch")


# -- CLI ---------------------------------------------------------------------


class TestFuseCli:
    def _write_fleet(self, tmp_path, count=3):
        for index in range(count):
            image = simple_image(f"edge-{index}", [1, 2, 3 + index])
            save_profile(image, tmp_path / f"run-{index}.profile")
        return str(tmp_path / "run-*.profile")

    def test_streaming_and_batch_outputs_are_byte_identical(self, tmp_path):
        from repro.cli import main

        pattern = self._write_fleet(tmp_path)
        stream_out = tmp_path / "stream.profile"
        batch_out = tmp_path / "batch.profile"
        assert main(["fuse", pattern, "-o", str(stream_out)]) == 0
        assert main(["fuse", pattern, "-o", str(batch_out), "--batch"]) == 0
        assert stream_out.read_bytes() == batch_out.read_bytes()

    def test_sketch_output_and_report(self, tmp_path):
        import json

        from repro.cli import main

        pattern = self._write_fleet(tmp_path)
        sketch_out = tmp_path / "merged.sketch"
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "fuse",
                    pattern,
                    "-o",
                    str(sketch_out),
                    "--sketch",
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        merged = read_any_profile(sketch_out)
        assert sorted(merged.instructions) == [1, 2, 3, 4, 5]
        report = json.loads(report_path.read_text())
        assert report["images"] == 3
        assert report["levels"][0]["quantize"] == 0

    def test_no_matching_profiles_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["fuse", str(tmp_path / "missing-*.profile")]) == 2
