"""Corrupt/truncated profile files must raise typed format errors.

``read_profile`` is the ingestion boundary: whatever garbage arrives —
a truncated file, a mangled magic line, binary noise — the loader must
fail with :class:`ProfileFormatError`, never a bare
``UnicodeDecodeError`` that callers cannot attribute to a bad file.
"""

from __future__ import annotations

import pytest

from repro.check import profile_records
from repro.machine import Executor
from repro.profiling import dumps_profile, save_profile
from repro.profiling.image_io import ProfileFormatError, read_profile
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


class TestTextProfiles:
    def test_round_trip_baseline(self, text_path, image):
        assert dumps_profile(read_profile(text_path)) == dumps_profile(image)

    def test_mangled_magic(self, tmp_path, text_path):
        bad = tmp_path / "magic.profile"
        bad.write_bytes(b"# wrong-magic v9\n" + text_path.read_bytes())
        with pytest.raises(ProfileFormatError):
            read_profile(bad)

    def test_truncated_mid_line(self, tmp_path, text_path):
        payload = text_path.read_bytes()
        bad = tmp_path / "trunc.profile"
        # Cut inside the last data row so the field count is wrong.
        bad.write_bytes(payload[: payload.rindex(b" ") - 1])
        with pytest.raises(ProfileFormatError):
            read_profile(bad)

    def test_binary_garbage_not_unicode_error(self, tmp_path):
        bad = tmp_path / "garbage.profile"
        bad.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(ProfileFormatError):
            read_profile(bad)

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
            read_profile(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.profile"
        bad.write_bytes(b"")
        with pytest.raises(ProfileFormatError):
            read_profile(bad)
