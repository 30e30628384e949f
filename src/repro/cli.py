"""The ``repro`` toolchain CLI.

Mirrors the paper's three-phase workflow as shell commands::

    python -m repro compile  program.mc -o program.asm
    python -m repro run      program.asm --inputs 3,4,5
    python -m repro profile  program.asm --inputs in0.txt -o program.profile
    python -m repro annotate program.asm program.profile --threshold 90 -o tagged.asm
    python -m repro disasm   tagged.asm
    python -m repro fuse     "profiles/*.profile" -o merged.profile

and exposes the whole experiment suite through the same entry point::

    python -m repro experiments all --jobs 4
    python -m repro experiments fig-2.2 table-5.2 --scale 0.3
    python -m repro experiments all --jobs 4 --retries 2 --job-timeout 600 \\
        --report-json run-report.json

and the correctness tooling (differential oracle + invariant lint)::

    python -m repro check
    python -m repro check --smoke

plus the learned predictability classifier (profile-free phase 3)::

    python -m repro classify train -o model.json
    python -m repro classify predict model.json program.asm -o tagged.asm
    python -m repro classify eval model.json

plus the profiling service (one shared trace store, many tenants)::

    python -m repro serve --port 8750
    python -m repro client compile demo.mc -o demo.asm
    python -m repro client profile demo.asm --inputs 1,2,3 -o demo.profile
    python -m repro client shutdown

Programs on disk are stored in the textual assembly format
(:mod:`repro.isa.assembler`); ``compile`` turns mini-C into it, and every
other command consumes it.  Inputs may be given inline (``--inputs 1,2,3``)
or as a whitespace-separated file (``--inputs @file``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .annotate import AnnotationPolicy, annotate_program, annotation_report
from .isa import Program, assemble, disassemble
from .lang import compile_source
from .machine import ExecutionError, run_program, save_trace
from .profiling import collect_profile, merge_profiles, read_profile, save_profile

Number = Union[int, float]


def _load_program(path: str) -> Program:
    text = Path(path).read_text(encoding="utf-8")
    return assemble(text, name=Path(path).stem)


def _write_output(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _parse_number(token: str) -> Number:
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_inputs_spec(spec: Optional[str]) -> List[Number]:
    """One ``--inputs`` value: ``1,2,3.5`` inline or ``@file`` on disk.

    The single parser behind every subcommand's ``--inputs`` flag —
    ``run``/``trace``/``profile`` here and the ``repro client`` mirror
    commands (:mod:`repro.service.cli`) all route through it, so the
    spec syntax cannot drift between commands.
    """
    if not spec:
        return []
    if spec.startswith("@"):
        text = Path(spec[1:]).read_text(encoding="utf-8")
        return [_parse_number(token) for token in text.split()]
    return [_parse_number(token) for token in spec.split(",") if token]


def parse_input_stream(specs: Sequence[Optional[str]]) -> List[Number]:
    """Repeated ``--inputs`` flags as *one* stream (``run``/``trace``).

    These commands execute the program once, so repeated flags
    concatenate in order; a single flag behaves exactly as before.
    """
    stream: List[Number] = []
    for spec in specs:
        stream.extend(parse_inputs_spec(spec))
    return stream


def parse_input_sets(specs: Sequence[Optional[str]]) -> List[List[Number]]:
    """Repeated ``--inputs`` flags as one stream *each* (``profile``).

    Profiling runs the program once per training stream, so every flag
    stays its own input set.
    """
    return [parse_inputs_spec(spec) for spec in specs]


def _command_compile(arguments: argparse.Namespace) -> int:
    source = Path(arguments.source).read_text(encoding="utf-8")
    program = compile_source(
        source, name=Path(arguments.source).stem, optimize=not arguments.no_optimize
    )
    _write_output(disassemble(program), arguments.output)
    print(
        f"compiled {arguments.source}: {len(program)} instructions, "
        f"{len(program.candidate_addresses)} prediction candidates",
        file=sys.stderr,
    )
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    result = run_program(
        program,
        inputs=parse_input_stream(arguments.inputs or []),
        max_instructions=arguments.max_instructions,
    )
    for value in result.outputs:
        print(value)
    print(
        f"retired {result.instruction_count} instructions",
        file=sys.stderr,
    )
    return 0


def _command_profile(arguments: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    program = _load_program(arguments.program)
    sample_every = getattr(arguments, "sample_every", 1)
    jobs = getattr(arguments, "jobs", 1)
    store_dir = getattr(arguments, "store", None)
    input_sets = parse_input_sets(arguments.inputs or [""])
    with contextlib.ExitStack() as stack:
        store = None
        if jobs > 1 or store_dir:
            # Capture the training runs across worker processes into one
            # shared TraceStore, then profile by (in-process) replay.  A
            # --store directory persists the traces; otherwise they live
            # in a temporary directory for the duration of the command.
            from .machine import TraceStore, capture_sharded

            if store_dir is None:
                store_dir = stack.enter_context(tempfile.TemporaryDirectory())
            report = capture_sharded(
                program, input_sets, directory=store_dir, jobs=jobs
            )
            if report.failures:
                # The replay below re-raises each fault at the exact same
                # record a serial run would — surface them early instead.
                for failure in report.failures:
                    print(
                        f"profile: input set {failure.index} faulted: "
                        f"{failure.error}",
                        file=sys.stderr,
                    )
                return 1
            store = TraceStore(directory=store_dir)
        images = [
            collect_profile(
                program,
                inputs,
                run_label=f"run-{index}",
                sample_every=sample_every,
                store=store,
            )
            for index, inputs in enumerate(input_sets)
        ]
    image = images[0] if len(images) == 1 else merge_profiles(images)
    if arguments.output:
        save_profile(image, arguments.output)
        print(
            f"profiled {len(image)} instructions over {len(images)} run(s) "
            f"-> {arguments.output}",
            file=sys.stderr,
        )
    else:
        from .profiling import dumps_profile

        sys.stdout.write(dumps_profile(image))
    return 0


def _command_fuse(arguments: argparse.Namespace) -> int:
    """Merge many profile images/sketches into one, streaming."""
    import glob as glob_module
    import json

    from .profiling import (
        MergeAccumulator,
        ProfileSketch,
        dumps_profile,
        fidelity_report,
        read_any_profile,
        save_sketch,
    )

    paths: List[str] = []
    for pattern in arguments.patterns:
        matches = sorted(glob_module.glob(pattern))
        if not matches:
            print(f"fuse: no profiles match {pattern!r}", file=sys.stderr)
            return 2
        paths.extend(match for match in matches if match not in paths)

    make_sketch = arguments.sketch or arguments.quantize > 0
    if make_sketch and (not arguments.output or arguments.output == "-"):
        print("fuse: --sketch output is binary; -o PATH is required",
              file=sys.stderr)
        return 2

    if arguments.batch:
        image = merge_profiles(
            (read_any_profile(path) for path in paths),
            require_common=arguments.require_common,
        )
    else:
        accumulator = MergeAccumulator(require_common=arguments.require_common)
        for path in paths:
            accumulator.fold(read_any_profile(path))
        image = accumulator.result()

    if arguments.report:
        report = fidelity_report(read_any_profile(path) for path in paths)
        Path(arguments.report).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )

    if make_sketch:
        save_sketch(
            ProfileSketch.from_image(image, arguments.quantize), arguments.output
        )
        destination = arguments.output
    elif arguments.output and arguments.output != "-":
        save_profile(image, arguments.output)
        destination = arguments.output
    else:
        sys.stdout.write(dumps_profile(image))
        destination = "stdout"
    engine = "batch" if arguments.batch else "streaming"
    print(
        f"fused {len(paths)} profile(s) into {len(image)} instructions "
        f"({engine}) -> {destination}",
        file=sys.stderr,
    )
    return 0


def _command_corpus(arguments: argparse.Namespace) -> int:
    """Generate a seeded mini-C workload corpus; compile and verify it."""
    import json

    from .machine import ExecutionError
    from .workloads import TEST_INDEX
    from .workloads.corpus import DEFAULT_MIX, generate_corpus, parse_mix

    try:
        mix = parse_mix(arguments.mix) if arguments.mix else DEFAULT_MIX
        workloads = generate_corpus(
            arguments.seed, arguments.count, mix, name_prefix=arguments.prefix
        )
    except ValueError as error:
        print(f"corpus: {error}", file=sys.stderr)
        return 2
    out_dir = Path(arguments.out_dir) if arguments.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    compiled = [
        (
            workload,
            workload.compile(),
            [workload.input_set(index) for index in range(TEST_INDEX + 1)],
        )
        for workload in workloads
    ]
    verification: dict = {}
    if not arguments.no_verify and getattr(arguments, "jobs", 1) > 1:
        # Flatten every (workload, input set) run into one case list and
        # verify across worker processes; results come back in case order.
        from .machine import parallel_runs

        cases = [
            (program, inputs)
            for _workload, program, input_sets in compiled
            for inputs in input_sets
        ]
        outcomes = parallel_runs(
            cases, jobs=arguments.jobs,
            max_instructions=arguments.max_instructions,
        )
        cursor = 0
        for workload, _program, input_sets in compiled:
            verification[workload.name] = outcomes[
                cursor : cursor + len(input_sets)
            ]
            cursor += len(input_sets)
    manifest = []
    for workload, program, input_sets in compiled:
        entry = {
            "name": workload.name,
            "suite": workload.suite,
            "seed": arguments.seed,
            "static_instructions": len(program),
            "candidates": len(program.candidate_addresses),
        }
        if not arguments.no_verify:
            dynamic = 0
            outcomes = verification.get(workload.name)
            for index, inputs in enumerate(input_sets):
                if outcomes is not None:
                    count, error_text = outcomes[index]
                else:
                    try:
                        result = run_program(
                            program,
                            inputs=inputs,
                            max_instructions=arguments.max_instructions,
                        )
                        count, error_text = result.instruction_count, None
                    except ExecutionError as error:
                        count, error_text = 0, str(error)
                if error_text is not None:
                    print(
                        f"corpus: {workload.name} failed on input set "
                        f"{index}: {error_text}",
                        file=sys.stderr,
                    )
                    return 1
                dynamic += count
            entry["dynamic_instructions"] = dynamic
        if out_dir is not None:
            # Workload names contain dots, so build filenames by plain
            # concatenation — Path.with_suffix would clobber the last part.
            (out_dir / f"{workload.name}.mc").write_text(
                workload.source, encoding="utf-8"
            )
            (out_dir / f"{workload.name}.asm").write_text(
                disassemble(program), encoding="utf-8"
            )
            for index, inputs in enumerate(input_sets):
                (out_dir / f"{workload.name}.inputs-{index}.txt").write_text(
                    " ".join(str(value) for value in inputs) + "\n",
                    encoding="utf-8",
                )
        manifest.append(entry)
    if arguments.manifest:
        Path(arguments.manifest).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    verified = "verified" if not arguments.no_verify else "unverified"
    suites = {entry["suite"] for entry in manifest}
    print(
        f"generated {len(manifest)} workloads (seed {arguments.seed}, "
        f"suites {'+'.join(sorted(suites))}, {verified})"
        + (f" -> {out_dir}" if out_dir is not None else ""),
        file=sys.stderr,
    )
    return 0


def _command_annotate(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    image = read_profile(arguments.profile)
    policy = AnnotationPolicy(
        accuracy_threshold=arguments.threshold,
        stride_threshold=arguments.stride_threshold,
    )
    annotated = annotate_program(program, image, policy)
    report = annotation_report(program, image, policy)
    _write_output(disassemble(annotated), arguments.output)
    print(
        f"tagged {report.stride_tagged} stride + {report.last_value_tagged} "
        f"last-value of {report.candidates} candidates "
        f"(threshold {arguments.threshold:g}%)",
        file=sys.stderr,
    )
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    if arguments.store:
        # Sharded capture: each --inputs flag is its own run, captured
        # into one content-addressed TraceStore across --jobs workers.
        from .machine import DEFAULT_BUDGET, capture_sharded

        if arguments.output:
            print(
                "trace: choose one of -o (single trace file) or "
                "--store (sharded capture directory)",
                file=sys.stderr,
            )
            return 2
        input_sets = parse_input_sets(arguments.inputs or [""])
        report = capture_sharded(
            program,
            input_sets,
            directory=arguments.store,
            jobs=arguments.jobs,
            # No --max-instructions means the default budget: the key
            # that `repro profile --store` replays.
            max_instructions=(
                DEFAULT_BUDGET
                if arguments.max_instructions is None
                else arguments.max_instructions
            ),
        )
        for failure in report.failures:
            print(
                f"trace: input set {failure.index} faulted: {failure.error} "
                "(partial trace stored; it replays the same fault)",
                file=sys.stderr,
            )
        print(
            f"captured {len(report.results)} run(s), {report.records} records "
            f"({report.jobs} job(s), {report.elapsed:.2f}s) "
            f"-> {arguments.store}",
            file=sys.stderr,
        )
        return 0
    if not arguments.output:
        print("trace: -o is required without --store", file=sys.stderr)
        return 2
    if arguments.jobs != 1:
        print(
            "trace: --jobs needs --store (a single trace file is one run)",
            file=sys.stderr,
        )
        return 2
    try:
        count = save_trace(
            program,
            arguments.output,
            inputs=parse_input_stream(arguments.inputs or []),
            max_instructions=arguments.max_instructions,
        )
    except ExecutionError as error:
        print(f"trace: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(f"wrote {count} records to {arguments.output}", file=sys.stderr)
    return 0


def _command_disasm(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    _write_output(disassemble(program), arguments.output)
    return 0


def _command_report(arguments: argparse.Namespace) -> int:
    """Rank instructions by profiled value predictability."""
    program = _load_program(arguments.program)
    image = read_profile(arguments.profile)
    rows = []
    for address, profile in image.instructions.items():
        if profile.attempts < arguments.min_attempts:
            continue
        rows.append((profile.accuracy, profile.stride_efficiency, profile, address))
    rows.sort(key=lambda row: (row[0], row[1], row[3]), reverse=True)
    limit = arguments.top

    def print_section(title: str, section) -> None:
        print(title)
        print(f"  {'addr':>6s} {'exec':>8s} {'acc%':>7s} {'stride%':>8s}  instruction")
        for accuracy, stride_ratio, profile, address in section:
            print(
                f"  {address:6d} {profile.executions:8d} {accuracy:7.1f} "
                f"{stride_ratio:8.1f}  {program[address].render()}"
            )

    print_section(f"most predictable ({limit}):", rows[:limit])
    print()
    print_section(f"least predictable ({limit}):", rows[-limit:][::-1])
    executed = sum(profile.executions for _, _, profile, _ in rows)
    correct = sum(profile.correct for _, _, profile, _ in rows)
    attempts = sum(profile.attempts for _, _, profile, _ in rows)
    overall = 100.0 * correct / attempts if attempts else 0.0
    print(
        f"\n{len(rows)} instructions, {executed} dynamic executions, "
        f"overall accuracy {overall:.1f}%"
    )
    return 0


def _classify_corpus(arguments: argparse.Namespace):
    """The seeded corpus shared by ``classify train`` and ``classify eval``.

    Returns ``(training slice, held-out slice)``; the split point is
    ``--train-count``, so the two subcommands agree on which programs the
    model has never seen.
    """
    from .workloads.corpus import DEFAULT_MIX, generate_corpus

    workloads = generate_corpus(
        arguments.corpus_seed, arguments.corpus_count, DEFAULT_MIX
    )
    cut = max(1, min(arguments.train_count, len(workloads) - 1))
    return workloads[:cut], workloads[cut:]


def _classify_policy(arguments: argparse.Namespace) -> AnnotationPolicy:
    return AnnotationPolicy(
        accuracy_threshold=arguments.threshold,
        stride_threshold=arguments.stride_threshold,
    )


def _command_classify_train(arguments: argparse.Namespace) -> int:
    """Train the predictability model on the corpus training slice."""
    from .classify import (
        build_dataset,
        dataset_rows,
        dumps_model,
        model_digest,
        train_model,
    )

    training, _held_out = _classify_corpus(arguments)
    labeled = build_dataset(
        training,
        training_runs=arguments.training_runs,
        scale=arguments.scale,
        policy=_classify_policy(arguments),
    )
    rows = dataset_rows(labeled)
    model = train_model(
        rows,
        seed=arguments.seed,
        max_depth=arguments.max_depth,
        min_leaf=arguments.min_leaf,
    )
    _write_output(dumps_model(model), arguments.output)
    print(
        f"trained on {len(labeled)} programs ({model.training_rows} rows): "
        f"{model.node_count} nodes, depth {model.depth}, "
        f"digest {model_digest(model)[:16]}",
        file=sys.stderr,
    )
    return 0


def _command_classify_predict(arguments: argparse.Namespace) -> int:
    """Re-tag a program with model-predicted directives (no profile)."""
    from .classify import (
        ModelFormatError,
        annotate_with_model,
        loads_model,
        model_digest,
    )

    try:
        model = loads_model(Path(arguments.model).read_text(encoding="utf-8"))
    except ModelFormatError as error:
        print(f"classify: bad model: {error}", file=sys.stderr)
        return 2
    program = _load_program(arguments.program)
    annotated = annotate_with_model(model, program)
    _write_output(disassemble(annotated), arguments.output)
    print(
        f"tagged {len(annotated.directives())} of "
        f"{len(program.candidate_addresses)} candidates "
        f"(model digest {model_digest(model)[:16]})",
        file=sys.stderr,
    )
    return 0


def _command_classify_eval(arguments: argparse.Namespace) -> int:
    """Held-out per-instruction label accuracy vs the majority baseline."""
    from .classify import (
        LABEL_NAMES,
        ModelFormatError,
        build_dataset,
        dataset_rows,
        loads_model,
        majority_label,
    )

    try:
        model = loads_model(Path(arguments.model).read_text(encoding="utf-8"))
    except ModelFormatError as error:
        print(f"classify: bad model: {error}", file=sys.stderr)
        return 2
    _training, held_out = _classify_corpus(arguments)
    labeled = build_dataset(
        held_out,
        training_runs=arguments.training_runs,
        scale=arguments.scale,
        policy=_classify_policy(arguments),
    )
    rows = dataset_rows(labeled)
    if not rows:
        print("classify: held-out slice has no candidates", file=sys.stderr)
        return 1
    baseline = majority_label(rows)
    learned = sum(1 for features, label in rows if model.predict(features) == label)
    majority = sum(1 for _, label in rows if label == baseline)
    print(
        f"held-out: {len(held_out)} programs, {len(rows)} candidate "
        f"instructions"
    )
    print(f"learned accuracy:  {100.0 * learned / len(rows):.1f}%")
    print(
        f"majority baseline: {100.0 * majority / len(rows):.1f}% "
        f"(always {LABEL_NAMES[baseline]!r})"
    )
    return 0 if learned > majority else 1


def _command_experiments(arguments: argparse.Namespace) -> int:
    from .experiments.runner import run_from_arguments

    return run_from_arguments(arguments)


def _command_check(arguments: argparse.Namespace) -> int:
    from .check.cli import run_from_arguments

    return run_from_arguments(arguments)


def _command_serve(arguments: argparse.Namespace) -> int:
    from .service.cli import run_serve

    return run_serve(arguments)


def _command_client(arguments: argparse.Namespace) -> int:
    from .service.cli import run_client

    return run_client(arguments)


def build_parser() -> argparse.ArgumentParser:
    # Imported here so `import repro.cli` stays light and the
    # cli -> experiments dependency exists only at parser-build time.
    from .check.cli import add_arguments as add_check_arguments
    from .experiments.runner import add_arguments as add_experiment_arguments
    from .service.cli import (
        add_client_arguments,
        add_serve_arguments,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Toolchain for the MICRO-30 1997 profiling/value-prediction "
        "reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments_parser = commands.add_parser(
        "experiments",
        help="reproduce the paper's tables and figures (parallel engine, "
        "content-addressed cache)",
    )
    add_experiment_arguments(experiments_parser)
    experiments_parser.set_defaults(handler=_command_experiments)

    check_parser = commands.add_parser(
        "check",
        help="run the differential oracle (fast vs reference paths) and "
        "the static invariant lint",
    )
    add_check_arguments(check_parser)
    check_parser.set_defaults(handler=_command_check)

    classify_parser = commands.add_parser(
        "classify",
        help="learned predictability classifier: train on profiled corpus "
        "programs, re-tag binaries with no profile at all",
    )
    classify_commands = classify_parser.add_subparsers(
        dest="classify_command", required=True
    )

    def add_classify_corpus_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--corpus-seed", type=int, default=1997,
            help="seed of the generated corpus (default 1997)",
        )
        subparser.add_argument(
            "--corpus-count", type=int, default=24,
            help="corpus size (default 24)",
        )
        subparser.add_argument(
            "--train-count", type=int, default=16,
            help="corpus prefix used for training; the rest is the "
            "held-out slice (default 16)",
        )
        subparser.add_argument(
            "--training-runs", type=int, default=5,
            help="profiling runs per program for labels (default 5)",
        )
        subparser.add_argument(
            "--scale", type=float, default=1.0,
            help="workload input scale (default 1.0)",
        )
        subparser.add_argument(
            "--threshold", type=float, default=90.0,
            help="label accuracy threshold [%%] (default 90)",
        )
        subparser.add_argument(
            "--stride-threshold", type=float, default=50.0,
            help="label stride-efficiency split [%%] (default 50)",
        )

    classify_train_parser = classify_commands.add_parser(
        "train",
        help="profile the corpus training slice and train the model",
    )
    add_classify_corpus_arguments(classify_train_parser)
    classify_train_parser.add_argument(
        "--seed", type=int, default=1997,
        help="training seed for subsampling (default 1997)",
    )
    classify_train_parser.add_argument(
        "--max-depth", type=int, default=8,
        help="decision-tree depth limit (default 8)",
    )
    classify_train_parser.add_argument(
        "--min-leaf", type=int, default=2,
        help="minimum rows per leaf (default 2)",
    )
    classify_train_parser.add_argument(
        "-o", "--output", help="model file (default stdout)"
    )
    classify_train_parser.set_defaults(handler=_command_classify_train)

    classify_predict_parser = classify_commands.add_parser(
        "predict",
        help="insert model-predicted directives into a program (phase 3 "
        "with no profile)",
    )
    classify_predict_parser.add_argument("model", help="trained model file")
    classify_predict_parser.add_argument("program", help="assembly file")
    classify_predict_parser.add_argument(
        "-o", "--output", help="annotated assembly output (default stdout)"
    )
    classify_predict_parser.set_defaults(handler=_command_classify_predict)

    classify_eval_parser = classify_commands.add_parser(
        "eval",
        help="held-out label accuracy vs the majority-class baseline "
        "(non-zero exit when the model does not beat it)",
    )
    classify_eval_parser.add_argument("model", help="trained model file")
    add_classify_corpus_arguments(classify_eval_parser)
    classify_eval_parser.set_defaults(handler=_command_classify_eval)

    serve_parser = commands.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon (schema repro-serve/1, "
        "shared trace store, per-tenant quotas)",
    )
    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    client_parser = commands.add_parser(
        "client",
        help="submit compile/trace/profile/annotate/experiment jobs to a "
        "running daemon",
    )
    add_client_arguments(client_parser)
    client_parser.set_defaults(handler=_command_client)

    compile_parser = commands.add_parser(
        "compile", help="compile mini-C to textual assembly (phase 1)"
    )
    compile_parser.add_argument("source", help="mini-C source file")
    compile_parser.add_argument("-o", "--output", help="assembly output (default stdout)")
    compile_parser.add_argument(
        "--no-optimize", action="store_true", help="disable -O2 stand-in passes"
    )
    compile_parser.set_defaults(handler=_command_compile)

    run_parser = commands.add_parser("run", help="execute a program")
    run_parser.add_argument("program", help="assembly file")
    run_parser.add_argument(
        "--inputs", action="append",
        help="input stream: '1,2,3' inline or '@file' (repeatable; "
        "streams concatenate)",
    )
    run_parser.add_argument(
        "--max-instructions", type=int, default=None, help="dynamic budget"
    )
    run_parser.set_defaults(handler=_command_run)

    profile_parser = commands.add_parser(
        "profile", help="collect a profile image (phase 2)"
    )
    profile_parser.add_argument("program", help="assembly file")
    profile_parser.add_argument(
        "--inputs",
        action="append",
        help="one training input stream per flag (repeatable)",
    )
    profile_parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="K",
        help="keep every K-th dynamic record (1 = full profile, the default)",
    )
    profile_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="capture the training runs across N worker processes, then "
        "profile by replay (default 1: in-process)",
    )
    profile_parser.add_argument(
        "--store",
        metavar="DIR",
        help="TraceStore directory shared between the capture workers "
        "(default: a temporary directory; traces persist when given)",
    )
    profile_parser.add_argument("-o", "--output", help="profile image file")
    profile_parser.set_defaults(handler=_command_profile)

    corpus_parser = commands.add_parser(
        "corpus",
        help="generate a seeded mini-C workload corpus (compile + verify "
        "termination by default)",
    )
    corpus_parser.add_argument(
        "--seed", type=int, default=1997, help="corpus seed (default 1997)"
    )
    corpus_parser.add_argument(
        "--count", type=int, default=24, help="number of workloads (default 24)"
    )
    corpus_parser.add_argument(
        "--mix",
        help="idiom mix weights, e.g. 'stride=2,table=1,chain=1,mixed=1'",
    )
    corpus_parser.add_argument(
        "--prefix", default="gen", help="workload name prefix (default 'gen')"
    )
    corpus_parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write <name>.mc, <name>.asm and per-run input files here",
    )
    corpus_parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a JSON manifest of the generated corpus",
    )
    corpus_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip executing each workload on all of its input sets",
    )
    corpus_parser.add_argument(
        "--max-instructions",
        type=int,
        default=200_000,
        help="per-run dynamic budget during verification (default 200000)",
    )
    corpus_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify workloads across N worker processes (default 1)",
    )
    corpus_parser.set_defaults(handler=_command_corpus)

    fuse_parser = commands.add_parser(
        "fuse",
        help="merge many profile images/sketches into one (streaming, "
        "bounded memory)",
    )
    fuse_parser.add_argument(
        "patterns",
        nargs="+",
        help="profile/sketch files or glob patterns (formats auto-detected)",
    )
    fuse_parser.add_argument(
        "-o", "--output",
        help="merged output (default stdout; required with --sketch)",
    )
    fuse_parser.add_argument(
        "--require-common",
        action="store_true",
        help="keep only instructions present in every input (Section 4)",
    )
    fuse_parser.add_argument(
        "--sketch",
        action="store_true",
        help="write the merged image as a compact binary sketch",
    )
    fuse_parser.add_argument(
        "--quantize",
        type=int,
        default=0,
        metavar="LEVEL",
        help="sketch count-quantization level (implies --sketch; 0 = lossless)",
    )
    fuse_parser.add_argument(
        "--batch",
        action="store_true",
        help="use the batch merge engine instead of streaming "
        "(byte-identity checks)",
    )
    fuse_parser.add_argument(
        "--report",
        metavar="PATH",
        help="write a JSON size/fidelity report over the inputs",
    )
    fuse_parser.set_defaults(handler=_command_fuse)

    annotate_parser = commands.add_parser(
        "annotate", help="insert value-prediction directives (phase 3)"
    )
    annotate_parser.add_argument("program", help="assembly file")
    annotate_parser.add_argument("profile", help="profile image file")
    annotate_parser.add_argument(
        "--threshold", type=float, default=90.0, help="accuracy threshold [%%]"
    )
    annotate_parser.add_argument(
        "--stride-threshold",
        type=float,
        default=50.0,
        help="stride-efficiency split [%%]",
    )
    annotate_parser.add_argument("-o", "--output", help="annotated assembly output")
    annotate_parser.set_defaults(handler=_command_annotate)

    disasm_parser = commands.add_parser(
        "disasm", help="canonicalize/inspect an assembly file"
    )
    disasm_parser.add_argument("program", help="assembly file")
    disasm_parser.add_argument("-o", "--output", help="output (default stdout)")
    disasm_parser.set_defaults(handler=_command_disasm)

    trace_parser = commands.add_parser(
        "trace", help="execute and store the dynamic trace(s)"
    )
    trace_parser.add_argument("program", help="assembly file")
    trace_parser.add_argument(
        "--inputs", action="append",
        help="input stream: '1,2,3' inline or '@file' (repeatable; "
        "streams concatenate with -o, one run each with --store)",
    )
    trace_parser.add_argument(
        "--max-instructions", type=int, default=None, help="dynamic budget"
    )
    trace_parser.add_argument(
        "-o", "--output",
        help="text trace export (.gz suffix compresses); required without "
        "--store",
    )
    trace_parser.add_argument(
        "--store",
        metavar="DIR",
        help="capture each input set into this TraceStore directory "
        "instead of writing one trace file",
    )
    trace_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --store capture (default 1)",
    )
    trace_parser.set_defaults(handler=_command_trace)

    report_parser = commands.add_parser(
        "report", help="rank instructions by profiled value predictability"
    )
    report_parser.add_argument("program", help="assembly file")
    report_parser.add_argument("profile", help="profile image file")
    report_parser.add_argument(
        "--top", type=int, default=10, help="rows per section (default 10)"
    )
    report_parser.add_argument(
        "--min-attempts",
        type=int,
        default=5,
        help="ignore instructions profiled fewer times than this",
    )
    report_parser.set_defaults(handler=_command_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
