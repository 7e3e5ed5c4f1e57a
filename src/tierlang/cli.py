"""Command-line interface.

Subcommands: ``check`` (type-check or infer tiers), ``run`` (execute
under a scheduler), ``explore`` (enumerate interleavings), ``ni``
(non-interference probe), ``measure`` (growth curves and degree fit),
and ``tm-compile`` (machine spec to safe program).

Exit codes: 0 success, 1 rejection or counterexample or inconclusive
result, 2 usage, I/O, or malformed-input errors.  All randomness is
seeded (``--seed``, default 0), so reports are byte-identical across
runs with the same arguments.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, Iterable, Mapping

from .analysis import GROWTH_COLUMNS, fit_polynomial, measure_growth, ni_suite
from .lang import Alphabet, Store, Word, unary
from .parser import ParseError, SourceFile, parse, pretty
from .scheduling import (
    TRACE_CAP,
    FirstAlive,
    dump_global_trace,
    explore,
    named_schedulers,
    run_with_scheduler,
)
from .ops import OPERATORS
from .semantics import StuckGuardError
from .tm import TMFormatError, compile_tm, parse_tm, simulate_tm
from .typecheck import CheckReport, Diagnostic, check_program, infer_tiers, interpret


class CliError(Exception):
    """Usage or I/O failure; maps to exit code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read {path}: {getattr(err, 'strerror', None) or err}") from err


def _write_file(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err.strerror or err}") from err


def _load_source(path: str) -> SourceFile:
    text = _read_file(path)
    try:
        return parse(text)
    except ParseError as err:
        raise CliError(f"{path}: {err}") from err


def _parse_inputs(pairs: list[str], alphabet: Alphabet) -> dict[str, Word]:
    out: dict[str, Word] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise CliError(f"--input takes VAR=WORD, got {pair!r}")
        stray = sorted(set(value) - alphabet.letters)
        if stray:
            raise CliError(
                f"--input {pair!r}: {', '.join(map(repr, stray))} not in the program's "
                f"alphabet {' '.join(alphabet.sorted_letters())}"
            )
        if name in out:
            raise CliError(f"--input {name} given twice")
        out[name] = value
    return out


def _parse_sizes(spec: str) -> list[int]:
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) == 2:
                start, stop = parts
                step = 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError
            return list(range(start, stop + 1, step))
        return [int(p) for p in spec.split(",")]
    except ValueError:
        raise CliError(f"--sizes takes START:STOP[:STEP] or a comma list, got {spec!r}") from None


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise CliError(f"{flag} must be at least {low}, got {value}")


def _scheduler(name: str, seed: int):
    table = named_schedulers(seed)
    if name not in table:
        raise CliError(f"unknown scheduler {name!r}; pick one of {', '.join(sorted(table))}")
    return table[name]


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _gate(source: SourceFile, unsafe_ok: bool, json_out: bool) -> int:
    """Type-check before running and return the exit code to stop with,
    or 0: rejected programs need --unsafe-ok, and none runs with an
    operator the library lacks at its arity."""
    report = check_program(source)
    if report.safe:
        return 0
    if unsafe_ok:
        for decl in source.op_decls:
            found = interpret(decl, OPERATORS)
            if isinstance(found, Diagnostic):
                raise CliError(f"{found}; --unsafe-ok cannot run it")
        return 0
    if not json_out:
        print("rejected: the program does not type-check (--unsafe-ok runs it anyway)")
        for line in _check_lines(report):
            print(line)
    else:
        _emit_json({"command": "gate", **report.to_dict()})
    return 1


def _check_lines(report: CheckReport) -> list[str]:
    lines = []
    for diag in report.diagnostics:
        lines.append(f"  {diag}")
    for thread in report.threads:
        if thread.ok:
            tiers = ", ".join(str(int(t)) for t in sorted(thread.tiers))
            lines.append(f"  thread {thread.tid!r} types at tier(s) {tiers}")
        else:
            lines.append(f"  thread {thread.tid!r}: {thread.diagnostic}")
    return lines


# --- subcommands ---------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    source = _load_source(args.program)
    report = None if args.infer else check_program(source)
    # A program missing annotations goes to inference, as --infer does.
    if report is None or any(d.rule == "annotations" for d in report.diagnostics):
        inference = infer_tiers(source)
        if args.json:
            _emit_json({"command": "check", "mode": "infer", **inference.to_dict()})
            return 0 if inference.ok else 1
        if inference.gamma is not None:
            gamma = dict(inference.gamma)
            print("safe (tiers inferred): " + ", ".join(f"{v}:{int(t)}" for v, t in gamma.items()))
            for line in _check_lines(check_program(source.with_annotations(gamma))):
                print(line)
            return 0
        print("rejected: no tier assignment makes the program safe")
        if inference.core:
            print(f"conflicting constraints (variables: {', '.join(inference.core_variables())}):")
        for constraint in inference.core:
            where = f" at {constraint.span}" if constraint.span else ""
            print(f"  {constraint.description}{where}")
        if inference.note:
            print(f"note: {inference.note}")
        return 1
    if args.json:
        _emit_json({"command": "check", "mode": "check", **report.to_dict()})
        return 0 if report.safe else 1
    if report.safe:
        gamma = ", ".join(f"{v}:{int(t)}" for v, t in report.gamma)
        print(f"safe: {gamma}")
    else:
        print("rejected")
    for line in _check_lines(report):
        print(line)
    return 0 if report.safe else 1


def cmd_run(args: argparse.Namespace) -> int:
    _at_least("--fuel", args.fuel, 0)
    source = _load_source(args.program)
    gate_code = _gate(source, args.unsafe_ok, args.json)
    if gate_code:
        return gate_code
    store = Store(_parse_inputs(args.input, source.alphabet()))
    scheduler = _scheduler(args.scheduler, args.seed)
    run = run_with_scheduler(store, source.program(), scheduler, fuel=args.fuel)
    if args.trace is not None:
        lines = dump_global_trace(run)
        if args.trace == "-":
            for line in lines:
                print(line)
        else:
            _write_file(args.trace, (line + "\n" for line in lines))
    payload = {
        "command": "run",
        "finished": run.finished,
        "steps": run.steps,
        "loops": run.loops,
        "store": dict(run.store.items()),
        "scheduler": scheduler.name,
    }
    if args.json:
        _emit_json(payload)
    else:
        state = "terminated" if run.finished else f"out of fuel ({args.fuel} steps)"
        print(f"{state} after {run.steps} steps, {run.loops} loop iterations")
        for name, value in run.store.items():
            print(f"  {name} = {value!r}")
    return 0 if run.finished else 1


def cmd_explore(args: argparse.Namespace) -> int:
    _at_least("--max-steps", args.max_steps, 0)
    _at_least("--max-states", args.max_states, 1)
    source = _load_source(args.program)
    gate_code = _gate(source, args.unsafe_ok, args.json)
    if gate_code:
        return gate_code
    store = Store(_parse_inputs(args.input, source.alphabet()))
    report = explore(
        store,
        source.program(),
        max_steps=args.max_steps,
        max_states=args.max_states,
    )
    if args.json:
        _emit_json({"command": "explore", **report.to_dict()})
    else:
        print(
            f"visited {report.visited_states} states, "
            f"{len(report.terminal_stores)} terminal stores"
        )
        print(f"cycle found: {report.cycle_found}; exploration complete: {report.complete}")
        if report.max_steps_terminating is not None:
            print(
                f"worst terminating schedule: {report.max_steps_terminating} steps, "
                f"{report.max_loops_terminating} loop iterations"
            )
        for terminal in sorted(report.terminal_stores, key=lambda s: s.items()):
            shown = ", ".join(f"{k}={v!r}" for k, v in terminal.items()) or "(empty)"
            print(f"  terminal: {shown}")
    return 0 if report.strongly_terminating else 1


def cmd_ni(args: argparse.Namespace) -> int:
    if args.mode == "explore":
        unread = {"--fuel": args.fuel, "--scheduler": args.scheduler}
    else:
        unread = {"--max-steps": args.max_steps}
    for flag, value in unread.items():
        if value is not None:
            raise CliError(f"{flag} does not apply to --mode {args.mode}")
    fuel = 100_000 if args.fuel is None else args.fuel
    scheduler = "round-robin" if args.scheduler is None else args.scheduler
    max_steps = 200 if args.max_steps is None else args.max_steps
    _at_least("--trials", args.trials, 1)
    _at_least("--fuel", fuel, 0)
    _at_least("--max-len", args.max_len, 0)
    _at_least("--max-steps", max_steps, 0)
    source = _load_source(args.program)
    gate_code = _gate(source, args.unsafe_ok, args.json)
    if gate_code:
        return gate_code
    gamma = source.annotations()
    program = source.program()
    missing = [v for v in program.table.variables if v not in gamma]
    if missing:
        raise CliError(
            "non-interference needs a tier for every variable; missing: " + ", ".join(missing)
        )
    ni = ni_suite(
        program,
        gamma,
        scheduler=_scheduler(scheduler, args.seed) if args.mode == "scheduler" else None,
        trials=args.trials,
        fuel=fuel,
        seed=args.seed,
        alphabet=source.alphabet(),
        max_len=args.max_len,
        mode=args.mode,
        explore_max_steps=max_steps,
    )
    if args.json:
        _emit_json({"command": "ni", **ni.to_dict()})
    elif ni.passed:
        print(f"no interference found in {ni.trials} trials ({ni.mode} mode)")
    else:
        failure = ni.failure
        assert failure is not None
        if failure.reason in ("fuel", "stuck"):
            print(f"inconclusive at trial {failure.trial}: {failure.detail}")
        else:
            print(f"counterexample at trial {failure.trial}: {failure.reason}: {failure.detail}")
    return 0 if ni.passed else 1


def cmd_measure(args: argparse.Namespace) -> int:
    _at_least("--fuel", args.fuel, 0)
    _at_least("--max-degree", args.max_degree, 1)
    if not (args.threshold > 0 and math.isfinite(args.threshold)):
        raise CliError(f"--threshold must be positive and finite, got {args.threshold}")
    sizes = _parse_sizes(args.sizes)
    _at_least("--sizes", min(sizes, default=0), 0)
    distinct = len(set(sizes))
    if distinct < args.max_degree + 2:
        raise CliError(
            f"--sizes: a fit up to degree {args.max_degree} needs at least "
            f"{args.max_degree + 2} distinct sizes, got {distinct}"
        )
    source = _load_source(args.program)
    gate_code = _gate(source, args.unsafe_ok, args.json)
    if gate_code:
        return gate_code
    fixed = _parse_inputs(args.input, source.alphabet())
    scaled = args.scale
    if not scaled:
        raise CliError("measure needs at least one --scale VAR")
    for i, var in enumerate(scaled):
        if var in scaled[:i]:
            raise CliError(f"--scale {var} given twice")
        if var in fixed:
            raise CliError(f"--scale {var} conflicts with --input {var}")
    program = source.program()
    absent = sorted(set(scaled) - set(program.table.variables))
    if absent:
        raise CliError(f"--scale {', '.join(absent)}: no such variable in the program")

    def input_gen(n: int) -> Mapping[str, Word]:
        values = dict(fixed)
        for var in scaled:
            values[var] = unary(n)
        return values

    scheduler = _scheduler(args.scheduler, args.seed)
    table = measure_growth(program, input_gen, sizes, scheduler, fuel=args.fuel)
    fit = fit_polynomial(table, args.max_degree, args.column, args.threshold)
    csv_text = table.to_csv()
    if args.csv:
        _write_file(args.csv, [csv_text])
    if args.json:
        _emit_json({"command": "measure", **asdict(table), "fit": fit.to_dict()})
    else:
        if not args.csv:
            print(csv_text, end="")
        if fit.verdict == "polynomial":
            print(f"fit: {args.column} looks degree {fit.degree} (residual {fit.residual:.4f})")
        else:
            print(
                f"fit: superpolynomial-suspect on {args.column} "
                f"(best residual {fit.residual:.4f} at max degree {args.max_degree})"
            )
        if any(r.fuel_hit for r in table.rows):
            print("warning: some runs hit the fuel bound; counts there are lower bounds")
    return 0 if fit.verdict == "polynomial" else 1


def cmd_tm_compile(args: argparse.Namespace) -> int:
    if args.verify_len is not None:
        _at_least("--verify-len", args.verify_len, 0)
    text = _read_file(args.machine)
    try:
        spec = parse_tm(text)
    except TMFormatError as err:
        raise CliError(f"{args.machine}: {err}") from err
    compiled = compile_tm(spec)
    rendered = pretty(compiled.source)
    if args.output:
        _write_file(args.output, [rendered])
    check = check_program(compiled.source)
    verified = None
    if args.verify_len is not None:
        verified = _verify_compiled(compiled, args.verify_len)
        if isinstance(verified, str):
            if args.json:
                _emit_json({"command": "tm-compile", "safe": check.safe, "mismatch": verified})
            else:
                print(f"mismatch against the simulator: {verified}", file=sys.stderr)
            return 1
    if args.json:
        _emit_json(
            {
                "command": "tm-compile",
                "safe": check.safe,
                "output": args.output,
                "verified_inputs": verified,
                "program": None if args.output else rendered,
            }
        )
    else:
        # Status goes to stderr, so stdout holds nothing but the program.
        if not args.output:
            print(rendered, end="")
        print(f"type-check of compiled program: {'safe' if check.safe else 'REJECTED'}",
              file=sys.stderr)
        if verified is not None:
            print(f"agrees with the simulator on all {verified} inputs up to length "
                  f"{args.verify_len}", file=sys.stderr)
    return 0 if check.safe else 1


def _verify_compiled(compiled, max_len: int) -> int | str:
    """Compare the compiled program against the simulator on every input
    up to ``max_len``, made one at a time, shortest first and in the
    spec's letter order; returns the input count or a mismatch message."""
    spec = compiled.spec
    program = compiled.source.program()  # the one thread ``machine``
    scheduler = FirstAlive()  # never asked: a lone thread's choices are forced
    inputs = (
        "".join(letters)
        for length in range(max_len + 1)
        for letters in itertools.product(spec.alphabet, repeat=length)
    )
    for checked, word in enumerate(inputs, 1):
        expected = simulate_tm(spec, word)
        if not expected.halted:
            return f"machine does not halt on {word!r} within the simulator budget"
        run = run_with_scheduler(Store({compiled.input_var: word}), program, scheduler, 10_000_000)
        if not run.finished:
            return f"compiled program ran out of fuel on {word!r}"
        got = run.store.lookup(compiled.output_var)
        if got != expected.tape:
            return f"on {word!r}: compiled gives {got!r}, simulator gives {expected.tape!r}"
    return checked


# --- argument wiring ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and building it costs more than a small check."""
    parser = argparse.ArgumentParser(
        prog="tierlang",
        description="Type checker, interpreter, and test harnesses for tiered programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def gate_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--unsafe-ok", action="store_true",
                       help="proceed even if the program is rejected by the checker")

    def input_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", action="append", default=[], metavar="VAR=WORD",
                       help="initial store binding (repeatable)")

    def seed_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p_check = sub.add_parser("check", help="type-check a program, inferring missing tiers")
    p_check.add_argument("program")
    p_check.add_argument("--infer", action="store_true",
                         help="run inference even when annotations are complete")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="run a program under a scheduler")
    p_run.add_argument("program")
    gate_flags(p_run)
    input_flag(p_run)
    seed_flag(p_run)
    p_run.add_argument("--scheduler", default="round-robin")
    p_run.add_argument("--fuel", type=int, default=100_000)
    p_run.add_argument("--trace", metavar="PATH",
                       help=f"write a trace of the run's first {TRACE_CAP:,} steps to PATH "
                            "('-' for stdout)")
    p_run.set_defaults(func=cmd_run)

    p_explore = sub.add_parser("explore", help="enumerate all interleavings up to bounds")
    p_explore.add_argument("program")
    gate_flags(p_explore)
    input_flag(p_explore)
    p_explore.add_argument("--max-steps", type=int, default=200)
    p_explore.add_argument("--max-states", type=int, default=200_000)
    p_explore.set_defaults(func=cmd_explore)

    p_ni = sub.add_parser("ni", help="probe non-interference with random store pairs")
    p_ni.add_argument("program")
    gate_flags(p_ni)
    seed_flag(p_ni)
    p_ni.add_argument("--trials", type=int, default=200)
    p_ni.add_argument("--fuel", type=int, help="step bound in scheduler mode (default 100000)")
    p_ni.add_argument("--scheduler", help="scheduler mode's scheduler (default round-robin)")
    p_ni.add_argument("--mode", choices=("scheduler", "explore"), default="scheduler")
    p_ni.add_argument("--max-len", type=int, default=6,
                      help="longest random word drawn for initial stores")
    p_ni.add_argument("--max-steps", type=int,
                      help="exploration depth bound in explore mode (default 200)")
    p_ni.set_defaults(func=cmd_ni)

    p_measure = sub.add_parser("measure", help="chart step counts against input size")
    p_measure.add_argument("program")
    gate_flags(p_measure)
    input_flag(p_measure)
    seed_flag(p_measure)
    p_measure.add_argument("--scale", action="append", default=[], metavar="VAR",
                           help="variable set to n ones at size n (repeatable)")
    p_measure.add_argument("--sizes", default="1:16", metavar="START:STOP[:STEP]")
    p_measure.add_argument("--scheduler", default="round-robin")
    p_measure.add_argument("--fuel", type=int, default=1_000_000)
    p_measure.add_argument("--csv", metavar="PATH", help="write the table to PATH")
    p_measure.add_argument("--column", choices=GROWTH_COLUMNS, default="max_k")
    p_measure.add_argument("--max-degree", type=int, default=4)
    p_measure.add_argument("--threshold", type=float, default=0.05)
    p_measure.set_defaults(func=cmd_measure)

    p_tm = sub.add_parser("tm-compile", help="compile a machine spec to a safe program")
    p_tm.add_argument("machine")
    p_tm.add_argument("-o", "--output", metavar="PATH",
                      help="write the program here instead of stdout")
    p_tm.add_argument("--verify-len", type=int, metavar="N",
                      help="check agreement with the simulator on all inputs up to length N")
    p_tm.add_argument("--json", action="store_true")
    p_tm.set_defaults(func=cmd_tm_compile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at the null device,
        # so the interpreter's final flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StuckGuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
