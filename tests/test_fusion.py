"""The one profile merge, and ``fuse`` as a command and a service job.

The contract under test: :func:`~repro.profiling.merge_profiles` folds
its sources one at a time and lands on the same counts as the batch
reference model (:func:`repro.check.oracle._reference_merge_obs`, which
materializes every image before summing) — in any fold order, in either
``require_common`` mode, from images or open text streams — while
holding no earlier image.
"""

from __future__ import annotations

import io
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import _observe_image, _reference_merge_obs
from repro.cli import CommandIO
from repro.profiling import (
    common_addresses,
    dumps_profile,
    merge_profiles,
    read_profile,
    save_profile,
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


def counts_of(image):
    """The label-free part of ``_observe_image``, the reference's shape."""
    observed = _observe_image(image)
    return {key: observed[key] for key in ("instructions", "groups")}


# -- the fold == the batch reference -----------------------------------------


class TestStreamingEqualsBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(profile_images(), min_size=1, max_size=4))
    def test_fold_order_is_irrelevant_and_matches_batch(self, images):
        for require_common in (False, True):
            reference = _reference_merge_obs(images, require_common)
            for ordering in (images, list(reversed(images))):
                merged = merge_profiles(ordering, require_common=require_common)
                assert counts_of(merged) == reference

    def test_streamed_dump_is_byte_identical_to_batch(self):
        """Text streams from a generator, in either order, against the
        in-memory list: the same bytes."""
        images = [
            simple_image("a", [1, 2, 3]),
            simple_image("b", [2, 3, 4]),
            simple_image("c", [2, 3]),
        ]
        for require_common in (False, True):
            batch = merge_profiles(images, require_common=require_common)
            for ordering in (images, images[::-1]):
                streamed = merge_profiles(
                    (io.StringIO(dumps_profile(image)) for image in ordering),
                    program_name="a",
                    require_common=require_common,
                )
                assert dumps_profile(streamed) == dumps_profile(batch)

    def test_result_requires_at_least_one_image(self):
        with pytest.raises(ValueError, match="zero profile images"):
            merge_profiles([])
        with pytest.raises(ValueError, match="zero profile images"):
            merge_profiles(iter(()))

    def test_fold_rejects_unknown_sources(self):
        with pytest.raises(TypeError):
            merge_profiles([42])

    def test_thousand_image_fold_stays_bounded(self):
        """A lazy fleet folds in O(1) images.

        The generator materializes one image at a time, and by the time
        it builds the next one the merge holds no earlier image (the one
        just folded is at most one step behind), so memory is bounded by
        the running totals regardless of fleet size.
        """
        addresses = list(range(0, 16, 2))
        folded = []

        def fleet():
            for index in range(1_000):
                assert all(ref() is None for ref in folded[:-1])
                image = simple_image(f"edge-{index}", addresses)
                folded.append(weakref.ref(image))
                yield image

        merged = merge_profiles(fleet(), require_common=True)
        assert len(folded) == 1_000
        assert sorted(merged.instructions) == addresses
        assert merged.instructions[0].executions == 40 * 1_000


# -- the merge API -----------------------------------------------------------


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


# -- service contract --------------------------------------------------------


class TestFuseJob:
    """``fuse`` as a service job: profile images as uploads."""

    def _files(self, images):
        return {
            "a.profile": dumps_profile(images[0]),
            "b.profile": dumps_profile(images[1]),
        }

    def test_round_trips_through_the_wire_dict(self):
        from repro.service.api import Job

        images = [simple_image("a", [1, 2]), simple_image("b", [2, 3])]
        job = Job(("fuse", "a.profile", "b.profile"), self._files(images))
        assert Job.from_dict(json.loads(json.dumps(job.to_dict()))) == job

    def test_from_dict_rejects_bad_profiles(self):
        from repro.service.api import ApiError, Job
        from repro.service.engine import ServiceEngine

        engine = ServiceEngine()
        for argv, files in (
            (("fuse",), {}),  # no inputs
            (("fuse", "a.profile"), {}),  # not uploaded
            (("fuse", "a.profile"), {"a.profile": ""}),  # empty
            (("fuse", "a.profile"), {"a.profile": "not a profile"}),
            # Non-UTF-8 bytes upload as surrogate escapes.
            (("fuse", "a.profile"), {"a.profile": b"\xff\xfe".decode(
                "utf-8", "surrogateescape")}),
        ):
            job = Job(argv, files)
            with pytest.raises(ApiError) as info:
                engine.execute(job, engine.admit(job))
            assert info.value.code == "invalid-job"

    def test_engine_fuse_matches_batch_bytes(self, tmp_path, monkeypatch, capsys):
        """The service job writes what the batch command line writes."""
        from repro.cli import main
        from repro.service.api import Job
        from repro.service.engine import ServiceEngine

        images = [simple_image("a", [1, 2, 3]), simple_image("b", [2, 3, 4])]
        files = self._files(images)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ("fuse", "a.profile", "b.profile", "--require-common")
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 0
        batch = capsys.readouterr()
        engine = ServiceEngine()
        job = Job(argv, files)
        output, log = engine.execute(job, engine.admit(job))
        assert (output, log) == (batch.out, batch.err)
        assert log == "fused 2 profile(s) into 2 instructions -> stdout\n"

    def test_decode_rejects_garbage_payloads(self):
        header = dumps_profile(simple_image("p", [1])).encode("utf-8")
        files = {
            "text.profile": "this is not a profile image",
            "binary.profile": b"\xff\xfe binary garbage".decode(
                "utf-8", "surrogateescape"
            ),
            # A valid image but for one non-UTF-8 byte in a comment row,
            # which reading the file from disk refuses too.
            "comment.profile": header.replace(b"# program: p", b"# program: p\xff")
            .decode("utf-8", "surrogateescape"),
        }
        uploads = CommandIO(files)
        for name in files:
            with pytest.raises(ProfileFormatError):
                uploads.read_profile(name)


# -- CLI ---------------------------------------------------------------------


class TestFuseCli:
    def _write_fleet(self, tmp_path, count=3):
        for index in range(count):
            image = simple_image(f"edge-{index}", [1, 2, 3 + index])
            image.program_name = "fleet"
            save_profile(image, tmp_path / f"run-{index}.profile")
        return str(tmp_path / "run-*.profile")

    def test_streaming_and_batch_outputs_are_byte_identical(self, tmp_path):
        """``fuse`` folding files, in either argument order, writes the
        bytes of merging the in-memory batch of images."""
        from repro.cli import main

        pattern = self._write_fleet(tmp_path)
        paths = sorted(str(path) for path in tmp_path.glob("run-*.profile"))
        batch = merge_profiles([read_profile(path) for path in paths])
        forward = tmp_path / "forward.profile"
        backward = tmp_path / "backward.profile"
        assert main(["fuse", pattern, "-o", str(forward)]) == 0
        assert main(["fuse", *paths[::-1], "-o", str(backward)]) == 0
        expected = dumps_profile(batch).encode("utf-8")
        assert forward.read_bytes() == expected
        assert backward.read_bytes() == expected

    def test_no_matching_profiles_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["fuse", str(tmp_path / "missing-*.profile")]) == 2
