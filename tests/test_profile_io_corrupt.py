"""Corrupt/truncated profile files must raise typed format errors.

``read_any_profile`` and ``read_sketch`` are the fleet ingestion
boundary: whatever garbage an edge node ships — truncated uploads, a
mangled magic line, corrupt deflate bodies, binary noise — the loader
must fail with :class:`ProfileFormatError` (or its
:class:`SketchFormatError` subclass), never a bare ``struct.error``,
``zlib.error`` or ``UnicodeDecodeError`` that callers cannot attribute
to a bad file.
"""

from __future__ import annotations

import pytest

from repro.check import profile_records
from repro.machine import Executor
from repro.profiling import (
    ProfileSketch,
    dumps_profile,
    read_any_profile,
    save_profile,
    save_sketch,
)
from repro.profiling.image_io import ProfileFormatError, read_profile
from repro.profiling.sketch import SKETCH_MAGIC, SketchFormatError, read_sketch
from repro.workloads.corpus import generate_corpus


@pytest.fixture(scope="module")
def image():
    workload = generate_corpus(1997, 1)[0]
    program = workload.compile()
    records = list(Executor(program, inputs=workload.test_inputs()).run())
    return profile_records(program, records, run_label="train")


@pytest.fixture()
def text_path(tmp_path, image):
    path = tmp_path / "image.profile"
    save_profile(image, path)
    return path


@pytest.fixture()
def sketch_path(tmp_path, image):
    path = tmp_path / "image.sketch"
    save_sketch(ProfileSketch.from_image(image), path)
    return path


class TestTextProfiles:
    def test_round_trip_baseline(self, text_path, image):
        assert dumps_profile(read_any_profile(text_path)) == dumps_profile(image)

    def test_mangled_magic(self, tmp_path, text_path):
        bad = tmp_path / "magic.profile"
        bad.write_bytes(b"# wrong-magic v9\n" + text_path.read_bytes())
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_truncated_mid_line(self, tmp_path, text_path):
        payload = text_path.read_bytes()
        bad = tmp_path / "trunc.profile"
        # Cut inside the last data row so the field count is wrong.
        bad.write_bytes(payload[: payload.rindex(b" ") - 1])
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_binary_garbage_not_unicode_error(self, tmp_path):
        bad = tmp_path / "garbage.profile"
        bad.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(ProfileFormatError):
            read_profile(bad)
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_duplicate_row(self, tmp_path, text_path, image):
        address = next(iter(image.instructions))
        profile = image.instructions[address]
        row = (
            f"{address} {profile.executions} {profile.attempts} "
            f"{profile.correct} {profile.nonzero_stride_correct}\n"
        )
        bad = tmp_path / "dup.profile"
        bad.write_text(
            text_path.read_text(encoding="utf-8") + row, encoding="utf-8"
        )
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.profile"
        bad.write_bytes(b"")
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)


class TestSketches:
    def test_round_trip_baseline(self, sketch_path, image):
        assert dumps_profile(read_any_profile(sketch_path)) == dumps_profile(
            image
        )

    def test_truncated_sketch(self, tmp_path, sketch_path):
        payload = sketch_path.read_bytes()
        for cut in (len(SKETCH_MAGIC) + 2, len(payload) // 2, len(payload) - 1):
            bad = tmp_path / f"trunc{cut}.sketch"
            bad.write_bytes(payload[:cut])
            with pytest.raises(SketchFormatError):
                read_sketch(bad)
            with pytest.raises(ProfileFormatError):
                read_any_profile(bad)

    def test_corrupt_deflate_body(self, tmp_path, sketch_path):
        payload = bytearray(sketch_path.read_bytes())
        # Flip bytes well inside the compressed body.
        for offset in range(len(SKETCH_MAGIC) + 4, len(SKETCH_MAGIC) + 12):
            payload[offset] ^= 0xFF
        bad = tmp_path / "corrupt.sketch"
        bad.write_bytes(bytes(payload))
        with pytest.raises(SketchFormatError):
            read_sketch(bad)
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_trailing_bytes(self, tmp_path, sketch_path):
        bad = tmp_path / "trailing.sketch"
        bad.write_bytes(sketch_path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(SketchFormatError):
            read_sketch(bad)

    def test_sketch_magic_mangled_falls_to_text_and_types(self, tmp_path, sketch_path):
        # Break the magic: the sniffing loader treats it as a text image
        # and must still surface a typed error for the binary body.
        payload = bytearray(sketch_path.read_bytes())
        payload[0] ^= 0xFF
        bad = tmp_path / "notmagic.sketch"
        bad.write_bytes(bytes(payload))
        with pytest.raises(ProfileFormatError):
            read_any_profile(bad)

    def test_wrong_kind_for_read_sketch(self, text_path):
        with pytest.raises(SketchFormatError):
            read_sketch(text_path)
