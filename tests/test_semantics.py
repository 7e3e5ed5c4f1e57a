"""Small-step interpreter: rules, counters, traces, exact run formulas."""

import pytest

from tierlang import (
    Assign,
    OpCall,
    Seq,
    Skip,
    Store,
    Var,
    While,
    eval_expr,
    run_sequential,
    step_command,
    unary,
)
from tierlang.fixtures import load_source
from tierlang.semantics import StuckGuardError


def test_eval_expr():
    store = Store.of(x="101", y="1")
    assert eval_expr(store, Var("x")) == "101"
    assert eval_expr(store, Var("unbound")) == ""
    nested = OpCall("concat", (OpCall("head", (Var("x"),)), Var("y")))
    assert eval_expr(store, nested) == "11"


def test_step_rules_one_by_one():
    store = Store.of(x="1")
    done = step_command(store, Skip())
    assert (done.rule, done.residual, done.loop_increment) == ("skip", None, 0)

    assign = step_command(store, Assign("y", Var("x")))
    assert assign.rule == "assign"
    assert assign.assigned == ("y", "1")
    assert assign.store.lookup("y") == "1"

    loop = While(OpCall("gt0", (Var("x"),)), Skip())
    unfolded = step_command(store, loop)
    assert (unfolded.rule, unfolded.loop_increment) == ("while-tt", 1)
    assert unfolded.residual == Seq(Skip(), loop)

    finished = step_command(Store(), loop)
    assert (finished.rule, finished.residual, finished.loop_increment) == ("while-ff", None, 0)


def test_seq_steps_into_first():
    cmd = Seq(Skip(), Assign("x", Var("y")))
    outcome = step_command(Store(), cmd)
    assert outcome.rule == "skip"
    assert outcome.residual == Assign("x", Var("y"))


def test_stuck_guard():
    loop = While(OpCall("head", (Var("x"),)), Skip())
    with pytest.raises(StuckGuardError) as err:
        step_command(Store.of(x="1"), loop)
    assert err.value.value == "1"


def adder_command():
    return load_source("add.tier").program().command("adder")


def test_add_rule_sequence_at_n2():
    run = run_sequential(Store.of(x="11"), adder_command())
    rules = [entry.rule for entry in run.trace]
    assert rules == [
        "while-tt", "assign", "assign",
        "while-tt", "assign", "assign",
        "while-ff",
    ]
    assert run.store == Store.of(y="11")


def test_add_run_formulas():
    # one unfold plus two assignments per letter, one failing guard
    for n in range(7):
        run = run_sequential(Store.of(x=unary(n)), adder_command())
        assert run.finished
        assert run.steps == 3 * n + 1
        assert run.loops == n
        assert run.store.lookup("y") == unary(n)


def test_mul_run_formulas():
    cmd = load_source("mul.tier").program().command("multiplier")
    for m in range(5):
        for n in range(5):
            run = run_sequential(Store.of(x=unary(m), y=unary(n), z="junk"), cmd)
            assert run.finished
            assert run.steps == m * (3 * n + 5) + 2
            assert run.loops == m * (n + 1)
            assert run.store.lookup("z") == unary(m * n)
            assert run.store.lookup("y") == unary(n)


def test_fuel_runs_out():
    spin = load_source("spin.tier").program().command("spinner")
    run = run_sequential(Store.of(x="1"), spin, fuel=50)
    assert not run.finished
    assert run.steps == 50
    assert run.residual is not None


def test_trace_cap_marks_incomplete():
    run = run_sequential(Store.of(x=unary(4)), adder_command(), trace_cap=5)
    assert run.finished
    assert len(run.trace) == 5
    assert not run.trace_complete
    assert run.steps == 13


def test_trace_records_stores():
    run = run_sequential(Store.of(x="1"), adder_command())
    assert run.trace[-1].store == run.store
    assert run.trace[-1].residual is None
    assert [e.index for e in run.trace] == list(range(1, run.steps + 1))
