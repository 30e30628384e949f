"""Property tests for the profile-image format and merge algebra.

The v1 text format must be a *lossless* encoding — instructions AND the
per-address group detail — and ``merge_profiles`` must be associative
and commutative on counts (labels aside), in both ``require_common``
modes.  Both properties back the save→load→merge leg of the
differential oracle (:mod:`repro.check.oracle`).
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Category
from repro.profiling import merge_profiles
from repro.profiling.collector import InstructionProfile, ProfileImage
from repro.profiling.image_io import (
    ProfileFormatError,
    dump_profile,
    dumps_profile,
    load_profile,
    loads_profile,
)

_CATEGORIES = (Category.INT_ALU, Category.FP_ALU, Category.INT_LOAD, Category.FP_LOAD)


@st.composite
def counts(draw):
    """(executions, attempts, correct, nonzero) with the format's ordering."""
    executions = draw(st.integers(min_value=0, max_value=10_000))
    attempts = draw(st.integers(min_value=0, max_value=executions))
    correct = draw(st.integers(min_value=0, max_value=attempts))
    nonzero = draw(st.integers(min_value=0, max_value=correct))
    return executions, attempts, correct, nonzero


#: How an address's group accounting is drawn: none, homed (one group,
#: equal to its instruction row), disagreeing (one group row with its own
#: counts), in several phases, or a group row with no instruction row.
_SHAPES = ("none", "home", "disagree", "phases", "orphan")


@st.composite
def profile_images(draw):
    image = ProfileImage(
        draw(st.text(alphabet="abc129.gco-", min_size=0, max_size=12)),
        run_label=draw(st.text(alphabet="train-0123", min_size=0, max_size=8)),
    )
    addresses = draw(
        st.lists(st.integers(min_value=0, max_value=500), max_size=12, unique=True)
    )
    for address in addresses:
        shape = draw(st.sampled_from(_SHAPES))
        category = draw(st.sampled_from(_CATEGORIES))
        if shape in ("home", "phases"):
            # Collected this way: one add per phase run, as the fold does.
            phases = [0]
            if shape == "phases":
                phases = draw(
                    st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                             max_size=3, unique=True)
                )
            for phase in phases:
                image.add_counts(address, (category, phase), *draw(counts()))
            continue
        if shape != "orphan":
            executions, attempts, correct, nonzero = draw(counts())
            image.instructions[address] = InstructionProfile(
                address=address,
                executions=executions,
                attempts=attempts,
                correct=correct,
                nonzero_stride_correct=nonzero,
            )
        if shape in ("disagree", "orphan"):
            phase = draw(st.integers(min_value=0, max_value=2))
            executions, attempts, correct, _ = draw(counts())
            slot = image.group_slot(category, phase, address)
            slot[0] += executions
            slot[1] += attempts
            slot[2] += correct
    return image


def canonical_counts(image: ProfileImage):
    """Counts only — the part of a merge that is label-independent."""
    return (
        {
            address: (p.executions, p.attempts, p.correct, p.nonzero_stride_correct)
            for address, p in image.instructions.items()
        },
        {
            (category, phase, address): tuple(slot)
            for (category, phase), members in image.group_detail.items()
            for address, slot in members.items()
        },
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(profile_images())
    def test_loads_dumps_is_identity(self, image):
        assert loads_profile(dumps_profile(image)) == image

    @settings(max_examples=100, deadline=None)
    @given(profile_images())
    def test_dump_is_canonical(self, image):
        """Same image always serializes to the same bytes."""
        assert dumps_profile(image) == dumps_profile(
            loads_profile(dumps_profile(image))
        )

    @settings(max_examples=50, deadline=None)
    @given(profile_images())
    def test_group_rows_are_comments(self, image):
        """v1 back-compat: readers that predate group rows skip # lines."""
        for line in dumps_profile(image).splitlines():
            if "group:" in line:
                assert line.startswith("#")

    def test_image_without_groups_round_trips(self):
        image = ProfileImage("p", run_label="r")
        image.instructions[3] = InstructionProfile(3, 10, 9, 8, 7)
        assert loads_profile(dumps_profile(image)) == image
        assert "group:" not in dumps_profile(image)


class TestStoredOnce:
    @settings(max_examples=200, deadline=None)
    @given(profile_images())
    def test_loader_homes_each_agreeing_address(self, image):
        """A loaded address keeps explicit slots only when it must."""
        loaded = loads_profile(dumps_profile(image))
        for address, slots in loaded.splits.items():
            profile = loaded.instructions.get(address)
            if profile is None or len(slots) > 1:
                continue
            (counts,) = slots.values()
            assert counts != [profile.executions, profile.attempts, profile.correct]
        assert not set(loaded.homes) & set(loaded.splits)

    @settings(max_examples=100, deadline=None)
    @given(profile_images(), profile_images(), profile_images())
    def test_merge_is_byte_exact_through_the_format(self, first, second, third):
        """dumps -> loads -> merge gives the bytes of the in-memory merge,
        in either argument order, in both ``require_common`` modes."""
        images = [first, second, third]
        for require_common in (False, True):
            direct = dumps_profile(
                merge_profiles(images, program_name="p", require_common=require_common)
            )
            via_disk = merge_profiles(
                [loads_profile(dumps_profile(image)) for image in images],
                program_name="p",
                require_common=require_common,
            )
            assert dumps_profile(via_disk) == direct
            assert loads_profile(direct) == via_disk
            backward = merge_profiles(
                images[::-1], program_name="p", require_common=require_common
            )
            assert dumps_profile(backward) == direct


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(profile_images(), profile_images())
    def test_commutative_on_counts(self, first, second):
        for require_common in (False, True):
            forward = merge_profiles([first, second], require_common=require_common)
            backward = merge_profiles([second, first], require_common=require_common)
            assert canonical_counts(forward) == canonical_counts(backward)

    @settings(max_examples=100, deadline=None)
    @given(profile_images(), profile_images(), profile_images())
    def test_associative_on_counts(self, first, second, third):
        for require_common in (False, True):
            left = merge_profiles(
                [
                    merge_profiles([first, second], require_common=require_common),
                    third,
                ],
                require_common=require_common,
            )
            right = merge_profiles(
                [
                    first,
                    merge_profiles([second, third], require_common=require_common),
                ],
                require_common=require_common,
            )
            assert canonical_counts(left) == canonical_counts(right)

    @settings(max_examples=100, deadline=None)
    @given(profile_images(), profile_images())
    def test_merge_commutes_with_serialization(self, first, second):
        """The oracle's save→load→merge leg, as a property."""
        for require_common in (False, True):
            direct = merge_profiles([first, second], require_common=require_common)
            via_disk = merge_profiles(
                [
                    loads_profile(dumps_profile(first)),
                    loads_profile(dumps_profile(second)),
                ],
                require_common=require_common,
            )
            assert canonical_counts(direct) == canonical_counts(via_disk)


class TestRequireCommonGroups:
    def _image(self, name, addresses):
        image = ProfileImage(name, run_label=name)
        for address in addresses:
            image.instructions[address] = InstructionProfile(address, 4, 3, 2, 1)
            slot = image.group_slot(Category.INT_ALU, 1, address)
            slot[0] += 4
            slot[1] += 3
            slot[2] += 2
        return image

    def test_groups_filtered_to_common_addresses(self):
        """Regression: group counts must honour the common-address filter."""
        first = self._image("a", [1, 2, 3])
        second = self._image("b", [2, 3, 4])
        merged = merge_profiles([first, second], require_common=True)
        assert sorted(merged.instructions) == [2, 3]
        members = merged.group_detail[(Category.INT_ALU, 1)]
        assert sorted(members) == [2, 3]
        assert members[2] == [8, 6, 4]
        # The aggregate view sums only the surviving members.
        stats = merged.groups[(Category.INT_ALU, 1)]
        assert (stats.executions, stats.attempts, stats.correct) == (16, 12, 8)

    def test_without_require_common_groups_keep_everything(self):
        first = self._image("a", [1, 2])
        second = self._image("b", [2, 3])
        merged = merge_profiles([first, second])
        members = merged.group_detail[(Category.INT_ALU, 1)]
        assert sorted(members) == [1, 2, 3]


class TestFormatErrors:
    def _text_with_extra(self, extra_line):
        image = ProfileImage("p", run_label="r")
        image.instructions[7] = InstructionProfile(7, 10, 9, 8, 7)
        slot = image.group_slot(Category.INT_ALU, 1, 7)
        slot[0] += 10
        slot[1] += 9
        slot[2] += 8
        return dumps_profile(image) + extra_line + "\n"

    def test_duplicate_instruction_row_rejected(self):
        text = self._text_with_extra("7 1 1 1 1")
        with pytest.raises(ProfileFormatError, match=r"line \d+: duplicate row for address 7"):
            loads_profile(text)

    def test_duplicate_group_row_rejected(self):
        text = self._text_with_extra("# group: int_alu 1 7 1 1 1")
        with pytest.raises(
            ProfileFormatError,
            match=r"line \d+: duplicate group row for int_alu phase 1 address 7",
        ):
            loads_profile(text)

    def test_group_row_field_count_checked(self):
        text = self._text_with_extra("# group: int_alu 1 9 1 1")
        with pytest.raises(ProfileFormatError, match="expects 6 fields"):
            loads_profile(text)

    def test_group_row_unknown_category_rejected(self):
        text = self._text_with_extra("# group: warp_core 1 9 1 1 1")
        with pytest.raises(ProfileFormatError, match="unknown group category"):
            loads_profile(text)

    def test_group_row_inconsistent_counts_rejected(self):
        text = self._text_with_extra("# group: int_alu 1 9 1 2 3")
        with pytest.raises(ProfileFormatError, match="inconsistent group counts"):
            loads_profile(text)

    def test_instruction_row_inconsistent_counts_name_line(self):
        text = "\n".join(
            ["# repro-profile-image v1", "# program: p", "# run: r", "3 1 2 3 4", ""]
        )
        with pytest.raises(ProfileFormatError, match="line 4"):
            loads_profile(text)

    def test_dump_load_stream_symmetry(self):
        image = ProfileImage("p")
        image.instructions[1] = InstructionProfile(1, 2, 2, 1, 0)
        buffer = io.StringIO()
        dump_profile(image, buffer)
        buffer.seek(0)
        assert load_profile(buffer) == image
