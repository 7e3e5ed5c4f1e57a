"""Small-step interpreter: rules, counters, traces, exact run formulas."""

import pytest

from tierlang import (
    Assign,
    FirstAlive,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Var,
    While,
    eval_expr,
    run_with_scheduler,
    unary,
)
from tierlang import scheduling
from tierlang.fixtures import load_source
from tierlang.ops import UnknownOperatorError
from tierlang.semantics import DONE, ControlTable, StuckGuardError


def test_eval_expr():
    store = Store.of(x="101", y="1")
    assert eval_expr(store, Var("x")) == "101"
    assert eval_expr(store, Var("unbound")) == ""
    nested = OpCall("concat", (OpCall("head", (Var("x"),)), Var("y")))
    assert eval_expr(store, nested) == "11"
    # an operator resolves before its arguments, outermost first
    with pytest.raises(UnknownOperatorError) as err:
        eval_expr(store, OpCall("outer", (OpCall("inner", (Var("x"),)),)))
    assert err.value.args == ("outer",)


def step(store, cmd):
    """One step of ``cmd`` through its control table: the new store, the
    residual command (``None`` once it terminated), the rule and the
    assignment made."""
    table = ControlTable((cmd,))
    names = table.variables
    slot, rule, assigned = table.step(table.roots[0], [store.lookup(name) for name in names])
    if assigned is not None:
        at, word = assigned
        assigned = (names[at], word)
        store = Store({**dict(store.items()), names[at]: word})
    return store, None if slot == DONE else table.commands[slot], rule, assigned


def test_step_rules_one_by_one():
    store = Store.of(x="1")
    assert step(store, Skip()) == (store, None, "skip", None)
    assert step(store, Assign("y", Var("x"))) == (Store.of(x="1", y="1"), None, "assign", ("y", "1"))

    loop = While(OpCall("gt0", (Var("x"),)), Skip())
    assert step(store, loop) == (store, Seq(Skip(), loop), "while-tt", None)
    assert step(Store(), loop) == (Store(), None, "while-ff", None)


def test_seq_steps_into_first():
    cmd = Seq(Skip(), Assign("x", Var("y")))
    assert step(Store(), cmd) == (Store(), Assign("x", Var("y")), "skip", None)


def test_stuck_guard():
    loop = While(OpCall("head", (Var("x"),)), Skip())
    with pytest.raises(StuckGuardError) as err:
        step(Store.of(x="1"), loop)
    assert err.value.value == "1"


def adder_command():
    return load_source("add.tier").program().command("adder")


def run_alone(store, cmd, fuel=100_000):
    """``cmd`` run alone, with its trace kept."""
    return run_with_scheduler(store, Program.single(cmd), FirstAlive(), fuel, keep_trace=True)


def test_add_rule_sequence_at_n2():
    run = run_alone(Store.of(x="11"), adder_command())
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
        run = run_alone(Store.of(x=unary(n)), adder_command())
        assert run.finished
        assert run.steps == 3 * n + 1
        assert run.loops == n
        assert run.store.lookup("y") == unary(n)


def test_mul_run_formulas():
    cmd = load_source("mul.tier").program().command("multiplier")
    for m in range(5):
        for n in range(5):
            run = run_alone(Store.of(x=unary(m), y=unary(n), z="junk"), cmd)
            assert run.finished
            assert run.steps == m * (3 * n + 5) + 2
            assert run.loops == m * (n + 1)
            assert run.store.lookup("z") == unary(m * n)
            assert run.store.lookup("y") == unary(n)


def test_fuel_runs_out():
    spin = load_source("spin.tier").program().command("spinner")
    run = run_alone(Store.of(x="1"), spin, fuel=50)
    assert not run.finished
    assert run.steps == 50
    assert run.residual == Program.single(spin)  # 25 unfoldings, 25 skips


def test_trace_cap_marks_incomplete(monkeypatch):
    monkeypatch.setattr(scheduling, "TRACE_CAP", 5)
    run = run_alone(Store.of(x=unary(4)), adder_command())
    assert run.finished
    assert len(run.trace) == 5
    assert [e.index for e in run.trace] == [1, 2, 3, 4, 5]
    assert run.steps == 13


def test_trace_records_stores():
    run = run_alone(Store.of(x="1"), adder_command())
    assert run.trace[-1].store == run.store
    assert run.residual == Program(())
    assert [e.index for e in run.trace] == list(range(1, run.steps + 1))
    assert {e.thread for e in run.trace} == {"main"}
