"""End-to-end command-line behavior: output text, exit codes, determinism."""

import json
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import tierlang
from tierlang import ControlTable, parse
from tierlang.cli import main
from tierlang.fixtures import MACHINE_FIXTURES, REJECTED_FIXTURES, SAFE_FIXTURES, fixture_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fx(tmp_path):
    def put(name):
        path = tmp_path / name
        path.write_text(fixture_text(name))
        return str(path)

    return put


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment for a child interpreter that imports this package."""
    src = Path(tierlang.__file__).resolve().parent.parent
    paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


# --- check -----------------------------------------------------------------------


def test_check_accepts_the_adder(fx, capsys):
    code, out, _ = run_cli(capsys, "check", fx("add.tier"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "safe: x:1, y:0"
    assert lines[1] == "  thread 'adder' types at tier(s) 1"


def test_check_rejects_binary_countdown_with_a_core(fx, capsys):
    code, out, _ = run_cli(capsys, "check", fx("badd.tier"))
    assert code == 1
    assert "rejected: no tier assignment makes the program safe" in out
    assert "conflicting constraints (variables: x):" in out


def test_check_rejects_the_doubler_naming_its_pivot(fx, capsys):
    code, out, _ = run_cli(capsys, "check", fx("exp.tier"))
    assert code == 1
    assert "conflicting constraints (variables: u, y):" in out


def test_check_can_infer_tiers_for_annotated_programs(fx, capsys):
    code, out, _ = run_cli(capsys, "check", fx("add.tier"), "--infer")
    assert code == 0
    assert out.splitlines()[0] == "safe (tiers inferred): x:1, y:0"


def test_check_json(fx, capsys):
    code, out, _ = run_cli(capsys, "check", fx("add.tier"), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["command"] == "check"
    assert data["mode"] == "check"
    assert data["safe"] is True
    assert data["gamma"] == {"x": 1, "y": 0}

    code, out, _ = run_cli(capsys, "check", fx("badd.tier"), "--json")
    data = json.loads(out)
    assert code == 1
    assert data["mode"] == "infer"
    assert data["ok"] is False


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_check_builds_one_control_table(tmp_path, capsys, monkeypatch, flags):
    # Without annotations the tiers are inferred; the text report then
    # checks the threads under them, on the same table.
    path = tmp_path / "add.tier"
    path.write_text(re.sub(r"vars \{.*?\}", "", fixture_text("add.tier"), flags=re.S))
    built = []
    init = ControlTable.__init__

    def counting_init(table, commands):
        built.append(table)
        init(table, commands)

    monkeypatch.setattr(ControlTable, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "check", str(path), *flags)
    assert code == 0 and "x" in out
    assert len(built) == 1


def test_check_json_gives_an_empty_gamma_for_a_program_without_variables(tmp_path, capsys):
    path = tmp_path / "novars.tier"
    path.write_text("thread a { skip }\n")
    for flags in ([], ["--infer"]):
        code, out, _ = run_cli(capsys, "check", str(path), "--json", *flags)
        assert code == 0
        assert json.loads(out)["gamma"] == {}, flags


def test_check_infer_keeps_annotated_variables_the_program_does_not_use(tmp_path, capsys):
    path = tmp_path / "unused.tier"
    path.write_text("op pred arity 1 class neutral;\nvars { z : 1; x : 0; }\n"
                    "thread a { x := pred(x) }\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert (code, out.splitlines()[0]) == (0, "safe: x:0, z:1")
    code, out, _ = run_cli(capsys, "check", str(path), "--infer")
    assert (code, out.splitlines()[0]) == (0, "safe (tiers inferred): x:0, z:1")
    code, out, _ = run_cli(capsys, "check", str(path), "--infer", "--json")
    assert code == 0
    assert json.loads(out)["gamma"] == {"x": 0, "z": 1}


@pytest.mark.parametrize("name", SAFE_FIXTURES + REJECTED_FIXTURES)
def test_check_json_matches_golden_output(name, fx, capsys):
    # Refactors keep every byte of this output.  When it changes on purpose,
    # rewrite the file with ``tierlang check --json FIXTURE > golden/...``.
    code, out, _ = run_cli(capsys, "check", fx(name), "--json")
    assert code == (1 if name in REJECTED_FIXTURES else 0)
    golden = GOLDEN / "check_json" / name.replace(".tier", ".json")
    assert out.encode() == golden.read_bytes()


def test_check_json_answers_a_deep_if_nest(tmp_path, capsys):
    # Shaped like the benchmark's deep/if_700 job.
    body = "a0 := pred(a0)"
    for _ in range(700):
        body = f"if (gt0(a0)) {{ {body} }} else {{ skip }}"
    path = tmp_path / "deep_if.tier"
    path.write_text("op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"
                    "vars { a0 : 1; }\nthread t {\n  " + body + "\n}\n")
    code, out, _ = run_cli(capsys, "check", str(path), "--json")
    assert code == 0
    assert json.loads(out)["safe"] is True


def test_a_diagnostic_names_its_own_threads_position(tmp_path, capsys):
    # Both threads are one slot of the control table, which keeps the
    # first node it saw; each diagnostic must still point into its thread.
    path = tmp_path / "twins.tier"
    path.write_text("op add1 arity 1 class positive;\nvars { x : 1; }\n"
                    "thread a { x := add1(x) }\nthread b {\n  skip;\n    x := add1(x)\n}\n")
    why = "variable 'x' has tier 1 but add1(x) only types at tier 0 [variables: x]"
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[1:] == [f"  thread 'a': assign at 3:12: {why}",
                                    f"  thread 'b': assign at 6:5: {why}"]
    code, out, _ = run_cli(capsys, "check", str(path), "--json")
    spans = [t["diagnostic"]["span"] for t in json.loads(out)["threads"]]
    assert (code, spans) == (1, ["3:12", "6:5"])


def test_check_reports_parse_errors_as_usage_failures(tmp_path, capsys):
    path = tmp_path / "broken.tier"
    for text in ("thread t { x := }\n", "op f arity \u00b2 class neutral;\nthread t { skip }\n"):
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error:")


def test_a_tier_other_than_0_or_1_is_a_usage_failure(tmp_path, capsys):
    path = tmp_path / "tier.tier"
    path.write_text("vars { x : 2; }\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert (code, err) == (2, f"error: {path}: 1:12: expected a tier (0 or 1), found '2'\n")


# --- run -------------------------------------------------------------------------


def test_run_reports_counters_and_store(fx, capsys):
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "x=111")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "terminated after 10 steps, 3 loop iterations"
    assert lines[1] == "  y = '111'"


def test_run_json(fx, capsys):
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "x=11", "--json")
    assert code == 0
    assert json.loads(out) == {
        "command": "run",
        "finished": True,
        "steps": 7,
        "loops": 2,
        "store": {"y": "11"},
        "scheduler": "round-robin",
    }


def test_run_out_of_fuel_exits_nonzero(fx, capsys):
    code, out, _ = run_cli(capsys, "run", fx("spin.tier"), "--input", "x=1", "--fuel", "30")
    assert code == 1
    assert out.splitlines()[0] == "out of fuel (30 steps) after 30 steps, 15 loop iterations"


def test_an_unknown_scheduler_is_a_usage_error(fx, capsys):
    code, out, err = run_cli(capsys, "run", fx("add.tier"), "--scheduler", "bogus")
    assert (code, out) == (2, "")
    assert err == ("error: unknown scheduler 'bogus'; "
                   "pick one of first-alive, random, round-robin\n")


def test_run_gates_on_the_type_check(fx, capsys):
    code, out, _ = run_cli(capsys, "run", fx("unsafe_loop.tier"), "--input", "secret=11")
    assert code == 1
    assert out.splitlines()[0] == (
        "rejected: the program does not type-check (--unsafe-ok runs it anyway)"
    )

    code, out, _ = run_cli(capsys, "run", fx("unsafe_loop.tier"), "--input", "secret=11", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["command"] == "gate" and data["safe"] is False
    assert data["threads"][0]["diagnostic"]["rule"] == "while"

    code, out, _ = run_cli(
        capsys, "run", fx("unsafe_loop.tier"), "--input", "secret=11", "--unsafe-ok"
    )
    assert code == 0
    assert out.splitlines()[0] == "terminated after 7 steps, 2 loop iterations"


# The checker accepts the guard ``pred(x)``, which is a word, not a truth value.
STUCK_GUARD = (
    "op pred arity 1 class neutral;\nvars { x : 1; }\nthread a { while (pred(x)) { skip } }\n"
)


@pytest.mark.parametrize("argv, value", [
    (["run", "--input", "x=1"], "''"),
    (["ni", "--trials", "3"], "'T0FTT'"),
    (["measure", "--scale", "x", "--sizes", "1:8"], "''"),
], ids=["run", "ni", "measure"])
def test_a_stuck_guard_is_one_error_line(tmp_path, capsys, argv, value):
    path = tmp_path / "stuck.tier"
    path.write_text(STUCK_GUARD)
    assert run_cli(capsys, "check", str(path))[0] == 0
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: guard evaluated to {value}, expected 'T' or 'F'\n"


UNRUNNABLE = {
    "unknown": (STUCK_GUARD.replace("pred", "foo"),
                "operator 'foo' has no interpretation in the registry"),
    "arity": (STUCK_GUARD.replace("arity 1", "arity 2").replace("pred(x)", "pred(x, x)"),
              "operator 'pred' declared with arity 2 but interpreted with arity 1"),
}
GATED_COMMANDS = {
    "run": ["--input", "x=1"],
    "explore": ["--input", "x=1"],
    "ni": ["--trials", "3"],
    "measure": ["--scale", "x", "--sizes", "1:8"],
}


@pytest.mark.parametrize("case", UNRUNNABLE)
@pytest.mark.parametrize("command", GATED_COMMANDS)
def test_unsafe_ok_refuses_operators_the_library_cannot_run(tmp_path, capsys, command, case):
    text, message = UNRUNNABLE[case]
    path = tmp_path / "prog.tier"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path), "--unsafe-ok", *GATED_COMMANDS[command])
    assert (code, out) == (2, "")
    assert err == f"error: operator at 1:1: {message}; --unsafe-ok cannot run it\n"


@pytest.mark.parametrize("text", [
    fixture_text("unsafe_loop.tier"),  # typing
    fixture_text("unsafe_subword.tier"),  # signature
    "op add1 arity 1 class neutral;\nvars { x : 1; }\nthread a { x := add1(x) }\n",  # class
], ids=["typing", "signature", "class"])
def test_unsafe_ok_runs_programs_the_checker_rejects(tmp_path, capsys, text):
    path = tmp_path / "prog.tier"
    path.write_text(text)
    assert run_cli(capsys, "run", str(path))[0] == 1
    code, out, _ = run_cli(capsys, "run", str(path), "--unsafe-ok", "--input", "x=1")
    assert code == 0
    assert out.startswith("terminated after ")


def test_run_rejects_malformed_input_bindings(fx, capsys):
    code, _, err = run_cli(capsys, "run", fx("add.tier"), "--input", "bogus")
    assert code == 2
    assert err.strip() == "error: --input takes VAR=WORD, got 'bogus'"


@pytest.mark.parametrize("command", ["run", "explore", "measure"])
def test_a_repeated_input_is_refused(command, fx, capsys):
    flags = ("--scale", "y", "--sizes", "1:7") if command == "measure" else ()
    code, out, err = run_cli(capsys, command, fx("add.tier"), "--input", "x=11",
                             "--input", "x=1", *flags)
    assert (code, out) == (2, "")
    assert err == "error: --input x given twice\n"
    # A variable the program never mentions is still accepted, once.
    code, _, _ = run_cli(capsys, command, fx("add.tier"), "--input", "x=1", "--input", "w=10",
                         *flags)
    assert code == 0


def test_run_trace_to_stdout_and_file(fx, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "x=1", "--trace", "-")
    assert code == 0
    assert out.splitlines()[0] == "step\tthread\trule\tloops\tassignment"

    path = tmp_path / "trace.tsv"
    code, out, _ = run_cli(
        capsys, "run", fx("add.tier"), "--input", "x=1", "--trace", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("step\tthread\trule\tloops\tassignment\n")
    assert text.endswith("\n")
    assert "step\t" not in out


def test_run_json_with_a_trace_on_stdout_is_a_usage_error(fx, tmp_path, capsys):
    # Both would go to stdout, which then parses as neither.
    code, out, err = run_cli(capsys, "run", fx("add.tier"), "--input", "x=1", "--json",
                             "--trace", "-")
    assert (code, out, err) == (2, "", "error: --trace - conflicts with --json\n")
    path = tmp_path / "trace.tsv"
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "x=1", "--json",
                           "--trace", str(path))
    assert code == 0
    assert json.loads(out)["finished"] is True
    assert path.read_text().startswith("step\tthread\trule\tloops\tassignment\n")


def test_run_reports_a_trace_file_it_cannot_write(fx, tmp_path, capsys):
    path = tmp_path / "missing" / "trace.tsv"
    code, _, err = run_cli(capsys, "run", fx("add.tier"), "--input", "x=1", "--trace", str(path))
    assert (code, err) == (2, f"error: cannot write {path}: No such file or directory\n")


@pytest.mark.parametrize("argv", [
    ["run", "add.tier", "--input", "x=" + "1" * 3000, "--trace", "-"],
    ["check", "wide.tier", "--json"],
], ids=["run-trace", "check-json"])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(fx, tmp_path, argv):
    # Each output outgrows the pipe, so writing goes on after the reader left.
    command, name, *flags = argv
    if name == "wide.tier":
        path = tmp_path / name
        path.write_text("thread t { " + "; ".join(f"v{i} := v{i}" for i in range(10_000)) + " }\n")
    else:
        path = fx(name)
    with subprocess.Popen([sys.executable, "-m", "tierlang.cli", command, path, *flags],
                          env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


# --- explore ---------------------------------------------------------------------


def test_explore_prints_the_full_summary(fx, capsys):
    code, out, _ = run_cli(
        capsys, "explore", fx("zrange.tier"), "--input", "x=11", "--input", "y=11"
    )
    assert code == 0
    assert out.splitlines() == [
        "visited 118 states, 3 terminal stores",
        "cycle found: False; exploration complete: True",
        "worst terminating schedule: 14 steps, 4 loop iterations",
        "  terminal: (empty)",
        "  terminal: z='1'",
        "  terminal: z='11'",
    ]


def test_explore_flags_cycles(fx, capsys):
    code, out, _ = run_cli(capsys, "explore", fx("spin.tier"), "--input", "x=1")
    assert code == 1
    assert out.splitlines() == [
        "visited 2 states, 0 terminal stores",
        "cycle found: True; exploration complete: True",
    ]


def test_explore_json(fx, capsys):
    code, out, _ = run_cli(capsys, "explore", fx("spin.tier"), "--input", "x=1", "--json")
    data = json.loads(out)
    assert code == 1
    assert data["strongly_terminating"] is False
    assert data["cycle_found"] is True


# Pinned inputs per fixture for the golden ``explore`` outputs.  ``w`` in
# the adder's store is a variable the program never mentions; ``badd``
# runs into the depth cap.
EXPLORE_INPUTS = {
    "add.tier": ("--input", "x=111", "--input", "y=1", "--input", "w=10"),
    "badd.tier": ("--unsafe-ok", "--input", "x=101", "--input", "y=1"),
    "binary_add.tier": ("--input", "x=10", "--input", "y=11", "--input", "c=F"),
    "exp.tier": ("--unsafe-ok", "--input", "x=11", "--input", "y=1"),
    "intro_sync.tier": ("--input", "x=11", "--input", "y=1"),
    "intro_zero.tier": ("--input", "x=11", "--input", "z=1"),
    "mul.tier": ("--input", "x=11", "--input", "y=11"),
    "shuffle.tier": ("--input", "x=101", "--input", "y=01"),
    "spin.tier": ("--input", "x=1"),
    "unsafe_loop.tier": ("--unsafe-ok", "--input", "secret=11", "--input", "out=1"),
    "unsafe_subword.tier": ("--unsafe-ok", "--input", "x=1"),
    "zrange.tier": ("--input", "x=11", "--input", "y=1"),
    "zrange2.tier": ("--input", "x=111"),
}


@pytest.mark.parametrize("name", sorted(EXPLORE_INPUTS))
def test_explore_json_matches_golden_output(name, fx, capsys):
    # As for check: rewrite the file with ``tierlang explore FIXTURE INPUTS
    # --json > golden/explore_json/...`` when the output changes on purpose.
    code, out, _ = run_cli(capsys, "explore", fx(name), *EXPLORE_INPUTS[name], "--json")
    golden = (GOLDEN / "explore_json" / name.replace(".tier", ".json")).read_bytes()
    assert out.encode() == golden
    assert code == (0 if json.loads(golden)["strongly_terminating"] else 1)


def test_explore_text_matches_golden_output(fx, capsys):
    code, out, _ = run_cli(capsys, "explore", fx("zrange.tier"), *EXPLORE_INPUTS["zrange.tier"])
    assert code == 0
    assert out.encode() == (GOLDEN / "explore_json" / "zrange.txt").read_bytes()


# The ``run`` calls of each golden transcript, from the pinned explore inputs.
RUN_SCHEDULERS = ("round-robin", "first-alive", "random")
RUN_CALLS = (
    *(("--json", "--scheduler", s, "--seed", "3", *fuel)
      for s in RUN_SCHEDULERS for fuel in ((), ("--fuel", "1000001"))),
    *(("--trace", "-", "--fuel", "300", "--scheduler", s, "--seed", "3") for s in RUN_SCHEDULERS),
)


def run_transcript(capsys, path: str, name: str) -> str:
    """Each of ``RUN_CALLS`` on one fixture: the call, its exit code, its
    stdout, and its stderr if any."""
    parts = []
    for flags in RUN_CALLS:
        args = (*EXPLORE_INPUTS[name], *flags)
        code, out, err = run_cli(capsys, "run", path, *args)
        parts.append(f"$ tierlang run {name} {' '.join(args)}\nexit {code}\n{out}")
        if err:
            parts.append(f"stderr:\n{err}")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(EXPLORE_INPUTS))
def test_run_matches_golden_output(name, fx, capsys):
    # Rewrite the file with ``run_transcript`` when the output changes on purpose.
    golden = GOLDEN / "run" / name.replace(".tier", ".txt")
    assert run_transcript(capsys, fx(name), name).encode() == golden.read_bytes()


# --- ni --------------------------------------------------------------------------


def test_ni_passes_on_a_safe_program(fx, capsys):
    code, out, _ = run_cli(capsys, "ni", fx("add.tier"), "--trials", "5")
    assert code == 0
    assert out.strip() == "no interference found in 5 trials (scheduler mode)"


def test_ni_explore_mode(fx, capsys):
    code, out, _ = run_cli(
        capsys, "ni", fx("add.tier"), "--trials", "3", "--mode", "explore", "--max-len", "3"
    )
    assert code == 0
    assert out.strip() == "no interference found in 3 trials (explore mode)"


def test_ni_prints_the_counterexample(fx, capsys):
    argv = ["ni", fx("unsafe_loop.tier"), "--unsafe-ok",
            "--trials", "20", "--seed", "7", "--max-len", "5", "--fuel", "10000"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.strip() == "counterexample at trial 0: loop-count: loop counts differ: 4 vs 3"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert out == (
        '{\n  "command": "ni",\n  "failure": {\n    "detail": "loop counts differ: 4 vs 3",\n'
        '    "reason": "loop-count",\n    "trial": 0\n  },\n  "mode": "scheduler",\n'
        '  "passed": false,\n  "scheduler": "round-robin",\n  "trials": 1\n}\n'
    )


def test_ni_reports_a_step_count_counterexample(tmp_path, capsys):
    # A tier-0 guard picks between branches of different lengths.
    path = tmp_path / "uneven.tier"
    path.write_text("op gt0 arity 1 class neutral;\nvars { h : 0; v : 1; }\n"
                    "thread t { if (gt0(h)) { v := v; skip } else { v := v } }\n")
    code, out, _ = run_cli(capsys, "ni", str(path), "--unsafe-ok")
    assert code == 1
    assert out.strip() == "counterexample at trial 2: step-count: step counts differ: 3 vs 2"


def test_ni_explore_mode_out_of_bounds_is_inconclusive(fx, capsys):
    argv = ["ni", fx("add.tier"), "--mode", "explore", "--max-steps", "3", "--max-len", "3",
            "--trials", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.strip() == (
        "inconclusive at trial 0: "
        "exploration did not close within bounds; raise them for this program"
    )
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["failure"] == {
        "trial": 0,
        "reason": "fuel",
        "detail": "exploration did not close within bounds; raise them for this program",
    }


def test_ni_explore_mode_reports_a_stuck_guard_as_inconclusive(tmp_path, capsys):
    # The guard is no truth word from any store, so no bounds would help.
    path = tmp_path / "stuck.tier"
    path.write_text("op pred arity 1 class neutral;\nvars { x : 1; }\n"
                    "thread a { while (pred(x)) { skip } }\n")
    argv = ["ni", str(path), "--mode", "explore", "--trials", "3"]
    detail = ("a guard evaluated to no truth word (stuck states: 1 vs 1); "
              "raising the bounds does not help")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (1, f"inconclusive at trial 0: {detail}\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["failure"] == {"trial": 0, "reason": "stuck", "detail": detail}


def test_ni_explore_mode_reports_a_side_that_can_loop_forever(tmp_path, capsys):
    # The loop spins exactly when the tier-0 ``h`` is nonempty.
    path = tmp_path / "spin_on_h.tier"
    path.write_text("op gt0 arity 1 class neutral;\nvars { h : 0; }\n"
                    "thread a { while (gt0(h)) { skip } }\n")
    argv = ["ni", str(path), "--mode", "explore", "--unsafe-ok", "--trials", "20"]
    detail = "one side can loop forever, the other cannot (cycles: True vs False)"
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (1, f"counterexample at trial 3: termination: {detail}\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert out == json.dumps({
        "command": "ni",
        "failure": {"detail": detail, "reason": "termination", "trial": 3},
        "mode": "explore",
        "passed": False,
        "scheduler": None,
        "trials": 4,
    }, indent=2, sort_keys=True) + "\n"


def test_ni_needs_a_complete_tier_assignment(tmp_path, capsys):
    path = tmp_path / "noann.tier"
    path.write_text(
        "op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\n\n"
        "thread t {\n  while (gt0(x)) {\n    x := sub1(x)\n  }\n}\n"
    )
    code, _, err = run_cli(capsys, "ni", str(path), "--unsafe-ok", "--trials", "2")
    assert code == 2
    assert "needs a tier for every variable" in err


@pytest.mark.parametrize("command", ["explore", "ni", "measure"])
def test_the_gate_refuses_a_rejected_program(fx, capsys, command):
    flags = {"explore": ["--input", "secret=11"], "ni": ["--trials", "3"],
             "measure": ["--scale", "secret"]}[command]
    code, out, _ = run_cli(capsys, command, fx("unsafe_loop.tier"), *flags)
    assert code == 1
    assert out.splitlines()[0] == (
        "rejected: the program does not type-check (--unsafe-ok runs it anyway)"
    )
    code, out, _ = run_cli(capsys, command, fx("unsafe_loop.tier"), *flags, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["command"] == "gate" and data["safe"] is False


# The golden ``ni`` transcripts.  Each failure's trial number and detail
# depend on the store pairs drawn, so these pin the draws end to end.
# The two inline programs are ROADMAP item 1's first two probes: a tier-0
# ``if`` whose branches differ in length, alone and before a write that
# another thread's loop reads.
NI_PROBES = {
    "step_count.tier": (
        "op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\n"
        "vars { h : 0; v : 1; }\n"
        "thread a { if (gt0(h)) { skip; skip } else { skip }; while (gt0(v)) { v := sub1(v) } }\n"
    ),
    "tier1_projection.tier": (
        "op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\n"
        "op zero arity 1 class neutral;\nvars { h : 0; u : 1; v : 1; }\n"
        "thread a { if (gt0(h)) { skip; skip; skip; skip } else { skip }; u := zero(u) }\n"
        "thread b { while (gt0(u)) { v := sub1(v) } }\n"
    ),
}
NI_MODES = (*(("--scheduler", s) for s in RUN_SCHEDULERS), ("--mode", "explore"))
NI_GOLDEN_CALLS = {
    "unsafe_loop": [
        ("unsafe_loop.tier", "--unsafe-ok", *mode, *extra, *out)
        for mode in NI_MODES for extra in ((), ("--max-len", "1", "--seed", "1"))
        for out in ((), ("--json",))
    ],
    **{name[:-len(".tier")]: [(name, "--trials", "100", "--scheduler", s, *out)
                              for s in RUN_SCHEDULERS for out in ((), ("--json",))]
       for name in NI_PROBES},
    "safe": [
        (name, "--scheduler", s, *out)
        for name, s in zip(("add.tier", "zrange.tier", "intro_sync.tier"), RUN_SCHEDULERS)
        for out in ((), ("--json",))
    ],
}


def ni_transcript(capsys, path, calls) -> str:
    """Each ``ni`` call, a file name then its flags, with ``path(name)``
    the file: the call, its exit code, its stdout, and its stderr if any."""
    parts = []
    for name, *flags in calls:
        code, out, err = run_cli(capsys, "ni", path(name), *flags)
        parts.append(f"$ tierlang ni {name} {' '.join(flags)}\nexit {code}\n{out}")
        if err:
            parts.append(f"stderr:\n{err}")
    return "".join(parts)


@pytest.mark.parametrize("golden", sorted(NI_GOLDEN_CALLS))
def test_ni_matches_golden_output(golden, fx, tmp_path, capsys):
    # Rewrite the file with ``ni_transcript`` when the output changes on purpose.
    def path(name):
        if name not in NI_PROBES:
            return fx(name)
        (tmp_path / name).write_text(NI_PROBES[name])
        return str(tmp_path / name)

    want = (GOLDEN / "ni" / f"{golden}.txt").read_bytes()
    assert ni_transcript(capsys, path, NI_GOLDEN_CALLS[golden]).encode() == want


# --- measure ---------------------------------------------------------------------


def test_measure_prints_csv_and_a_linear_fit(fx, capsys):
    code, out, _ = run_cli(capsys, "measure", fx("add.tier"), "--scale", "x", "--sizes", "1:8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,max_t,max_k,fuel_hit"
    assert lines[1] == "1,1,4,0"
    assert lines[8] == "8,8,25,0"
    assert lines[9] == "fit: max_k looks degree 1 (residual 0.0000)"


def test_measure_writes_csv_to_a_file(fx, tmp_path, capsys):
    path = tmp_path / "growth.csv"
    code, out, _ = run_cli(
        capsys, "measure", fx("add.tier"), "--scale", "x",
        "--sizes", "1,2,4,8,16,32", "--csv", str(path),
    )
    assert code == 0
    assert path.read_text() == (
        "n,max_t,max_k,fuel_hit\n1,1,4,0\n2,2,7,0\n4,4,13,0\n8,8,25,0\n16,16,49,0\n32,32,97,0\n"
    )
    assert out.strip() == "fit: max_k looks degree 1 (residual 0.0000)"


def test_measure_takes_a_size_range_with_a_step(fx, capsys):
    code, out, _ = run_cli(capsys, "measure", fx("add.tier"), "--scale", "x", "--sizes", "2:12:2")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:7]] == ["2", "4", "6", "8", "10", "12"]
    assert out.splitlines()[7] == "fit: max_k looks degree 1 (residual 0.0000)"


def test_measure_json_gives_the_rows_and_the_fit(fx, capsys):
    code, out, _ = run_cli(capsys, "measure", fx("add.tier"), "--scale", "x", "--sizes", "1:6",
                           "--json")
    assert code == 0
    rows = [{"fuel_hit": False, "max_k": 3 * n + 1, "max_t": n, "n": n} for n in range(1, 7)]
    assert out == json.dumps({
        "command": "measure",
        "fit": {"coefficients": [3.0, 1.0], "column": "max_k", "degree": 1, "residual": 0.0,
                "verdict": "polynomial"},
        "rows": rows,
    }, indent=2, sort_keys=True) + "\n"


def test_measure_warns_when_runs_hit_the_fuel_bound(fx, capsys):
    code, out, _ = run_cli(capsys, "measure", fx("spin.tier"), "--scale", "x", "--sizes", "1:8",
                           "--fuel", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:9] == [f"{n},10,20,1" for n in range(1, 9)]
    assert lines[-1] == "warning: some runs hit the fuel bound; counts there are lower bounds"


def test_measure_flags_the_doubler_as_superpolynomial(fx, capsys):
    code, out, _ = run_cli(
        capsys, "measure", fx("exp.tier"), "--unsafe-ok", "--scale", "x",
        "--input", "y=1", "--sizes", "4:12", "--max-degree", "2",
    )
    assert code == 1
    assert "fit: superpolynomial-suspect on max_k" in out


def test_measure_needs_only_the_standard_library(fx):
    # ``-S`` keeps site-packages off the path, so a third-party import
    # would fail; the module check catches one reached some other way.
    code = (
        "import sys\nimport tierlang\nimport tierlang.cli\n"
        f"status = tierlang.cli.main(['measure', {fx('add.tier')!r}, '--scale', 'x'])\n"
        "assert status == 0, status\n"
        "loaded = {name.partition('.')[0] for name in sys.modules}\n"
        "extra = loaded - set(sys.stdlib_module_names) - {'__main__', 'tierlang'}\n"
        "assert not extra, sorted(extra)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_measure_argument_validation(fx, capsys):
    code, _, err = run_cli(capsys, "measure", fx("add.tier"), "--sizes", "1:8")
    assert code == 2
    assert "needs at least one --scale" in err

    code, _, err = run_cli(capsys, "measure", fx("add.tier"), "--scale", "x", "--sizes", "zz")
    assert code == 2
    assert "--sizes takes START:STOP[:STEP]" in err

    code, _, err = run_cli(capsys, "measure", fx("add.tier"), "--scale", "x", "--sizes", "1:2:3:4")
    assert code == 2
    assert err == "error: --sizes takes START:STOP[:STEP] or a comma list, got '1:2:3:4'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--scale", "x", "--sizes", "1:3"], "a fit up to degree 4 needs at least 6"),
        (["measure", "--scale", "x", "--sizes", "5,5,5,5,5,5"],
         "a fit up to degree 4 needs at least 6 distinct sizes, got 1"),
        (["measure", "--scale", "x", "--sizes=-5:2"], "--sizes must be at least 0, got -5"),
        (["measure", "--scale", "x", "--max-degree", "0"], "--max-degree must be at least 1"),
        (["measure", "--scale", "x", "--fuel", "-1"], "--fuel must be at least 0"),
        (["ni", "--max-len", "-1"], "--max-len must be at least 0"),
        (["ni", "--trials", "-3"], "--trials must be at least 1"),
        (["ni", "--fuel", "-5"], "--fuel must be at least 0"),
        (["run", "--fuel", "-1"], "--fuel must be at least 0"),
        (["explore", "--max-steps", "-1"], "--max-steps must be at least 0, got -1"),
        (["explore", "--max-states", "0"], "--max-states must be at least 1, got 0"),
        (["ni", "--mode", "explore", "--max-steps", "-1"], "--max-steps must be at least 0"),
        (["tm-compile", "--verify-len", "-1"], "--verify-len must be at least 0, got -1"),
        (["measure", "--scale", "x", "--threshold", "-1"],
         "--threshold must be positive and finite, got -1.0"),
        (["measure", "--scale", "x", "--threshold", "0"],
         "--threshold must be positive and finite, got 0.0"),
        (["measure", "--scale", "x", "--threshold", "nan"],
         "--threshold must be positive and finite, got nan"),
    ],
    ids=["measure-sizes", "measure-repeated-sizes", "measure-negative-size",
         "measure-max-degree", "measure-fuel", "ni-max-len", "ni-trials", "ni-fuel", "run-fuel",
         "explore-max-steps", "explore-max-states", "ni-max-steps", "tm-compile-verify-len",
         "measure-negative-threshold", "measure-zero-threshold", "measure-nan-threshold"],
)
def test_bad_numeric_arguments_are_usage_errors(fx, capsys, argv, message):
    command, *flags = argv
    target = fx("binary_inc.tm" if command == "tm-compile" else "add.tier")
    code, out, err = run_cli(capsys, command, target, *flags)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--input", "x=1a1"], "'a' not in the program's alphabet 0 1 F T"),
        (["explore", "--input", "x=1a1"], "'a' not in the program's alphabet 0 1 F T"),
        (["measure", "--scale", "x", "--input", "y=2"],
         "'2' not in the program's alphabet 0 1 F T"),
        (["measure", "--scale", "q"], "--scale q: no such variable in the program"),
        (["measure", "--scale", "x", "--input", "x=11"], "--scale x conflicts with --input x"),
        (["measure", "--scale", "x", "--scale", "x"], "--scale x given twice"),
    ],
    ids=["run-input-letter", "explore-input-letter", "measure-input-letter", "measure-scale",
         "measure-scale-and-input", "measure-scale-twice"],
)
def test_inputs_outside_the_program_are_usage_errors(fx, capsys, argv, message):
    command, *flags = argv
    code, out, err = run_cli(capsys, command, fx("add.tier"), *flags)
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["ni", "--input", "x=1"], ["explore", "--seed", "3"]],
                         ids=["ni-input", "explore-seed"])
def test_flags_a_subcommand_does_not_read_are_refused(fx, capsys, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as exit_:
        main([command, fx("add.tier"), *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mode", "explore", "--fuel", "10"], "--fuel does not apply to --mode explore"),
        (["--mode", "explore", "--scheduler", "random"],
         "--scheduler does not apply to --mode explore"),
        (["--max-steps", "10"], "--max-steps does not apply to --mode scheduler"),
    ],
    ids=["explore-fuel", "explore-scheduler", "scheduler-max-steps"],
)
def test_ni_refuses_the_flags_of_the_other_mode(tmp_path, capsys, flags, message):
    # The file does not exist: the refusal comes before the program loads.
    code, out, err = run_cli(capsys, "ni", str(tmp_path / "missing.tier"), *flags)
    assert (code, out) == (2, "")
    assert message in err


def test_the_argument_parser_is_built_once_and_keeps_no_state(fx, capsys):
    from tierlang.cli import _build_parser

    assert _build_parser() is _build_parser()
    # ``--input`` appends to a list default; each call must start empty.
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "x=11", "--json")
    assert (code, json.loads(out)["store"]) == (0, {"y": "11"})
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--input", "y=1", "--json")
    assert (code, json.loads(out)["store"]) == (0, {"y": "1"})
    code, out, _ = run_cli(capsys, "run", fx("add.tier"), "--json")
    assert (code, json.loads(out)["store"]) == (0, {})


def test_usage_errors_exit_2_on_every_call(fx, capsys):
    for argv in (["run"], ["explore", fx("add.tier"), "--max-steps", "many"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "usage: tierlang" in capsys.readouterr().err
        assert run_cli(capsys, "check", fx("add.tier"))[0] == 0


# --- tm-compile ------------------------------------------------------------------


def test_tm_compile_verifies_against_the_simulator(fx, capsys):
    code, out, err = run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "--verify-len", "3")
    assert code == 0
    assert err.splitlines() == [
        "type-check of compiled program: safe",
        "agrees with the simulator on all 15 inputs up to length 3",
    ]
    assert "type-check" not in out and "simulator" not in out


def test_tm_compile_stdout_is_the_program(fx, tmp_path, capsys):
    path = tmp_path / "inc.tier"
    code, out, _ = run_cli(capsys, "tm-compile", fx("binary_inc.tm"))
    assert code == 0
    assert run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "-o", str(path))[0] == 0
    assert out.encode() == path.read_bytes()
    assert parse(out).program().thread_ids() == ("machine",)


def test_tm_compile_writes_a_loadable_program(fx, tmp_path, capsys):
    path = tmp_path / "inc.tier"
    code, out, _ = run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "-o", str(path))
    assert code == 0
    source = parse(path.read_text())
    assert source.program().thread_ids() == ("machine",)
    assert "thread machine" not in out


def test_tm_compile_json(fx, capsys):
    code, out, _ = run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "--json", "--verify-len", "2")
    data = json.loads(out)
    assert code == 0
    assert data["safe"] is True
    assert data["verified_inputs"] == 7
    assert "thread machine" in data["program"]


def test_tm_compile_rejects_malformed_machines(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("states s\nalphabet 0\n")
    code, _, err = run_cli(capsys, "tm-compile", str(path))
    assert code == 2
    assert "missing sections" in err


@pytest.mark.parametrize("blank", [False, True], ids=["letter", "blank"])
def test_tm_compile_refuses_letters_a_tier_file_cannot_spell(tmp_path, capsys, blank):
    path = tmp_path / "dash.tm"
    header = "alphabet 0\nblank -\n" if blank else "alphabet 0 -\n"
    deltas = "".join(f"delta s {c} -> h {c} R\n" for c in "0-B")
    path.write_text(f"states s h\n{header}init s\nhalt h\nclock 1\n{deltas}")
    code, out, err = run_cli(capsys, "tm-compile", str(path), "--verify-len", "2")
    assert (code, out) == (2, "")
    assert "tape letter '-' cannot be spelled in a .tier alphabet" in err


def test_tm_compile_reports_a_machine_that_never_halts(fx, capsys):
    code, out, err = run_cli(capsys, "tm-compile", fx("busy.tm"), "--verify-len", "0")
    assert (code, out) == (1, "")
    assert err == "mismatch against the simulator: machine does not halt on '' within the " \
        "simulator budget\n"


def test_tm_compile_reports_a_wrong_tape(fx, capsys, monkeypatch):
    from tierlang import cli

    simulate = cli.simulate_tm
    monkeypatch.setattr(cli, "simulate_tm",
                        lambda spec, word: replace(simulate(spec, word), tape="wrong"))
    code, out, err = run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "--verify-len", "2")
    assert (code, out) == (1, "")
    assert err == "mismatch against the simulator: on '': compiled gives '1', " \
        "simulator gives 'wrong'\n"


def test_tm_compile_reports_a_run_out_of_fuel_in_json(fx, capsys, monkeypatch):
    from tierlang import cli

    run = cli.run_with_scheduler
    monkeypatch.setattr(cli, "run_with_scheduler",
                        lambda *args: replace(run(*args), finished=False))
    code, out, err = run_cli(capsys, "tm-compile", fx("binary_inc.tm"), "--json",
                             "--verify-len", "2")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"command": "tm-compile", "safe": True,
                               "mismatch": "compiled program ran out of fuel on ''"}


def test_tm_compile_checks_inputs_as_it_generates_them(fx):
    # Lengths up to 40 make 2**41 - 1 inputs; the empty word comes first
    # and ends the check.  The cap on the child's address space turns a
    # list of all inputs into a quick failure, not an exhausted host.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "tierlang.cli", "tm-compile", fx("busy.tm"), "--verify-len", "40"],
        env=child_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "mismatch against the simulator: machine does not halt on '' within " \
        "the simulator budget\n"
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("name", MACHINE_FIXTURES)
def test_tm_compile_output_of_each_bundled_machine_checks(fx, tmp_path, capsys, name):
    path = tmp_path / "out.tier"
    # busy.tm never halts, so the simulator cannot verify it.
    verify = [] if name == "busy.tm" else ["--verify-len", "2"]
    assert run_cli(capsys, "tm-compile", fx(name), *verify, "-o", str(path))[0] == 0
    assert run_cli(capsys, "check", str(path))[0] == 0


@pytest.mark.parametrize("command, name", [("check", "b.tier"), ("tm-compile", "b.tm")])
def test_input_that_is_not_utf8_is_a_read_error(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


# --- whole-pipeline determinism ----------------------------------------------------


def test_fixed_seeds_give_byte_identical_reports(fx, capsys):
    argv = ["ni", fx("zrange.tier"), "--trials", "30", "--seed", "7", "--json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second

    argv = ["measure", fx("mul.tier"), "--scale", "x", "--scale", "y", "--sizes", "2:8", "--json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
