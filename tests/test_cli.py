"""Tests for the toolchain CLI (python -m repro ...)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, parse_input_sets, parse_input_stream, parse_inputs_spec

DEMO_SOURCE = """
int t[8];
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        t[i] = in() * 2;
        total = total + t[i];
    }
    out(total);
}
"""


@pytest.fixture
def demo(tmp_path):
    source = tmp_path / "demo.mc"
    source.write_text(DEMO_SOURCE, encoding="utf-8")
    return tmp_path, source


class TestParseInputs:
    def test_inline(self):
        assert parse_inputs_spec("1,2,3.5") == [1, 2, 3.5]

    def test_empty(self):
        assert parse_inputs_spec(None) == []
        assert parse_inputs_spec("") == []

    def test_file(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("4 5\n6.5\n", encoding="utf-8")
        assert parse_inputs_spec(f"@{path}") == [4, 5, 6.5]

    def test_stream_concatenates(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("3 4", encoding="utf-8")
        assert parse_input_stream(["1,2", f"@{path}", "5"]) == [1, 2, 3, 4, 5]
        assert parse_input_stream([]) == []

    def test_sets_stay_separate(self):
        assert parse_input_sets(["1,2", "", "3"]) == [[1, 2], [], [3]]


class TestPipeline:
    def test_compile_run(self, demo, capsys):
        directory, source = demo
        assembly = directory / "demo.asm"
        assert main(["compile", str(source), "-o", str(assembly)]) == 0
        assert assembly.exists()
        assert main(["run", str(assembly), "--inputs", "1,2,3,4,5,6,7,8"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == str(2 * sum(range(1, 9)))

    def test_full_three_phases(self, demo, capsys):
        directory, source = demo
        assembly = directory / "demo.asm"
        profile = directory / "demo.profile"
        tagged = directory / "tagged.asm"
        main(["compile", str(source), "-o", str(assembly)])
        assert (
            main(
                [
                    "profile",
                    str(assembly),
                    "--inputs",
                    "1,2,3,4,5,6,7,8",
                    "--inputs",
                    "8,7,6,5,4,3,2,1",
                    "-o",
                    str(profile),
                ]
            )
            == 0
        )
        assert profile.read_text().startswith("# repro-profile-image v1")
        assert (
            main(
                [
                    "annotate",
                    str(assembly),
                    str(profile),
                    "--threshold",
                    "80",
                    "-o",
                    str(tagged),
                ]
            )
            == 0
        )
        text = tagged.read_text()
        assert ".s " in text or ".lv " in text
        # The annotated binary still runs and computes the same function.
        capsys.readouterr()
        main(["run", str(tagged), "--inputs", "1,1,1,1,1,1,1,1"])
        assert capsys.readouterr().out.strip() == "16"

    def test_disasm_roundtrip(self, demo, capsys):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        capsys.readouterr()
        assert main(["disasm", str(assembly)]) == 0
        out = capsys.readouterr().out
        assert ".text" in out and "call main" in out

    def test_profile_to_stdout(self, demo, capsys):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        capsys.readouterr()
        main(["profile", str(assembly), "--inputs", "1,2,3,4,5,6,7,8"])
        assert capsys.readouterr().out.startswith("# repro-profile-image v1")

    def test_no_optimize_flag(self, demo):
        directory, source = demo
        optimized = directory / "o2.asm"
        plain = directory / "o0.asm"
        main(["compile", str(source), "-o", str(optimized)])
        main(["compile", str(source), "--no-optimize", "-o", str(plain)])
        count = lambda path: sum(  # noqa: E731
            1
            for line in path.read_text().splitlines()
            if line.startswith("    ")
        )
        assert count(optimized) <= count(plain)

    def test_report(self, demo, capsys):
        directory, source = demo
        assembly = directory / "demo.asm"
        profile = directory / "demo.profile"
        main(["compile", str(source), "-o", str(assembly)])
        main(
            ["profile", str(assembly), "--inputs", "1,2,3,4,5,6,7,8",
             "-o", str(profile)]
        )
        capsys.readouterr()
        assert main(["report", str(assembly), str(profile), "--top", "3",
                     "--min-attempts", "2"]) == 0
        out = capsys.readouterr().out
        assert "most predictable" in out
        assert "least predictable" in out
        assert "overall accuracy" in out

    def test_trace_and_offline_profile(self, demo, capsys):
        # Trace once into a store, then profile by replaying it: the
        # profile is byte-identical to a live one and the replay
        # captures nothing new.
        directory, source = demo
        assembly = directory / "demo.asm"
        store = directory / "traces"
        offline = directory / "offline.profile"
        live = directory / "live.profile"
        main(["compile", str(source), "-o", str(assembly)])
        assert main(
            ["trace", str(assembly), "--inputs", "1,2,3,4,5,6,7,8",
             "--store", str(store)]
        ) == 0
        captured = sorted(store.rglob("*"))
        assert captured
        assert main(
            ["profile", str(assembly), "--inputs", "1,2,3,4,5,6,7,8",
             "--store", str(store), "-o", str(offline)]
        ) == 0
        assert sorted(store.rglob("*")) == captured
        assert main(
            ["profile", str(assembly), "--inputs", "1,2,3,4,5,6,7,8",
             "-o", str(live)]
        ) == 0
        assert offline.read_bytes() == live.read_bytes()

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--inputs", "1,2,3,4,5,6,7,8", "--max-instructions", "20"],
             "InstructionBudgetExceeded"),
            (["--inputs", "1,2,3"], "InputExhausted"),
        ],
    )
    def test_faulting_trace_leaves_no_file(self, demo, capsys, flags, error):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        out = directory / "out"
        out.mkdir()
        trace = out / "part.trace"
        capsys.readouterr()
        assert main(["trace", str(assembly), *flags, "-o", str(trace)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"trace: {error}: ")
        assert list(out.iterdir()) == []


def test_cli_and_daemon_import_without_numpy():
    """The CLI and the service daemon load no numerical stack.

    Checked in a fresh interpreter, since this test process may have
    imported anything.  numpy would cost every CLI call and every daemon
    its import time and resident memory.
    """
    script = (
        "import sys\n"
        "import repro.cli, repro.service.server\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_root},
        check=True,
    )
    assert result.stdout.strip() == "[]"
