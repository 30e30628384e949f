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


#: Commands that take ``--inputs``, with the flags each needs to run.
_INPUTS_COMMANDS = {"run": [], "trace": ["-o", "{out}"], "profile": []}
#: A bad inline spec, a missing ``@file`` and a non-UTF-8 one.
_BAD_INPUTS = {"inline": "1,x", "missing": "@{missing}.txt", "non-utf8": "@{binary}"}


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

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_execution_fault_is_one_line(self, tmp_path, capsys, command):
        assembly = tmp_path / "divide.asm"
        assembly.write_text(
            ".text\n    li r1, 7\n    li r2, 0\n    div r3, r1, r2\n"
            "    out r3\n    halt\n",
            encoding="utf-8",
        )
        profile = tmp_path / "divide.profile"
        output = ["-o", str(profile)] if command == "profile" else []
        assert main([command, str(assembly), *output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{command}: DivisionByZero: ")
        assert not profile.exists()

    @pytest.mark.parametrize("rate", ["0", "-3"])
    def test_sample_every_below_one_is_a_usage_error(self, demo, capsys, rate):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit:
            main(["profile", str(assembly), "--sample-every", rate])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"repro profile: error: argument --sample-every: "
            f"must be an integer >= 1, got {rate}"
        ]

    def test_trace_writes_integers_past_the_decimal_limit_in_hex(
        self, tmp_path, capsys
    ):
        # Eleven squarings of 1000003 reach about 12,000 decimal digits,
        # past int's decimal conversion limit of 4,300.
        assembly = tmp_path / "square.asm"
        assembly.write_text(
            ".text\n    li r1, 1000003\n    li r2, 0\n    li r3, 11\n"
            "loop:\n    mul r1, r1, r1\n    addi r2, r2, 1\n"
            "    slt r4, r2, r3\n    bnez r4, loop\n    out r2\n    halt\n",
            encoding="utf-8",
        )
        trace = tmp_path / "square.trace"
        assert main(["trace", str(assembly), "-o", str(trace)]) == 0
        assert capsys.readouterr().err.startswith("wrote 49 records")
        values = [line.split()[1] for line in trace.read_text().splitlines()[2:]]
        assert hex(1000003 ** (2 ** 11)) in values
        assert "1000003" in values

    @pytest.mark.parametrize("command", ["annotate", "report", "fuse"])
    @pytest.mark.parametrize(
        "payload",
        [bytes(range(256)), b"# not a profile image\n1 2 3\n"],
        ids=["non-utf8", "text-garbage"],
    )
    def test_bad_profile_is_a_usage_error(self, demo, capsys, command, payload):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        bad = directory / "bad.profile"
        bad.write_bytes(payload)
        capsys.readouterr()
        files = [str(bad)] if command == "fuse" else [str(assembly), str(bad)]
        assert main([command, *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{command}: bad profile: ")

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["run", "{missing}.asm"], "run: bad program: "),
            (["disasm", "{bad_asm}"], "disasm: bad program: "),
            (["run", "{binary}"], "run: bad program: "),
            (["compile", "{bad_mc}"], "compile: bad source: "),
            (["compile", "{missing}.mc"], "compile: bad source: "),
            (["annotate", "{assembly}", "{missing}.profile"], "annotate: bad profile: "),
            (["classify", "predict", "{missing}.model", "{assembly}"],
             "classify: bad model: "),
            *(
                ([command, "{assembly}", *extra, "--inputs", spec],
                 f"{command}: bad inputs: ")
                for command, extra in _INPUTS_COMMANDS.items()
                for spec in _BAD_INPUTS.values()
            ),
        ],
        ids=[
            "run-missing", "disasm-unknown-mnemonic", "run-non-utf8",
            "compile-parse-error", "compile-missing", "annotate-missing-profile",
            "classify-missing-model",
            *(
                f"{command}-inputs-{case}"
                for command in _INPUTS_COMMANDS
                for case in _BAD_INPUTS
            ),
        ],
    )
    def test_bad_input_file_is_a_usage_error(self, demo, capsys, argv, prefix):
        directory, source = demo
        assembly = directory / "demo.asm"
        main(["compile", str(source), "-o", str(assembly)])
        (directory / "bad.asm").write_text("    frobnicate r1\n", encoding="utf-8")
        (directory / "bad.mc").write_text("int main( {\n", encoding="utf-8")
        (directory / "binary.asm").write_bytes(bytes(range(256)))
        names = {
            "missing": str(directory / "missing"),
            "bad_asm": str(directory / "bad.asm"),
            "bad_mc": str(directory / "bad.mc"),
            "binary": str(directory / "binary.asm"),
            "assembly": str(assembly),
            "out": str(directory / "out.trace"),
        }
        capsys.readouterr()
        assert main([part.format(**names) for part in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(prefix)
        assert not (directory / "out.trace").exists()


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
