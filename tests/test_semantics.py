"""Small-step interpreter: rules, counters, traces, exact run formulas."""

import pytest

from tierlang import (
    Assign,
    Expr,
    FirstAlive,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Var,
    While,
    Word,
    run_with_scheduler,
    unary,
)
from tierlang import scheduling
from tierlang.fixtures import load_source
from tierlang.ops import OPERATORS, UnknownOperatorError
from tierlang.semantics import DONE, ControlTable, StuckGuardError


def eval_expr(store: Store, expr: Expr) -> Word:
    """The word an expression denotes in the given store: the reference
    evaluator that compiled expressions are tested against.

    An operator is resolved before its arguments are evaluated, left to
    right; an explicit stack keeps deep expressions off the Python stack.
    """
    values: list[Word] = []
    stack: list = [expr]  # expressions, and (operator, arity) exit entries
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            op, arity = node
            if op.arity != arity:
                raise TypeError(f"{op.name} expects {op.arity} arguments, got {arity}")
            cut = len(values) - arity
            args = values[cut:]
            del values[cut:]
            values.append(op.fn(*args))
        elif isinstance(node, Var):
            values.append(store.lookup(node.name))
        elif isinstance(node, OpCall):
            stack.append((OPERATORS.resolve(node.op), len(node.args)))
            stack.extend(reversed(node.args))
        else:
            raise TypeError(f"not an expression: {node!r}")
    return values[0]


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
    with pytest.raises(TypeError, match="not an expression"):
        eval_expr(store, Skip())


def step(store, cmd):
    """One step of ``cmd`` through its control table: the new store, the
    residual command (``None`` once it terminated), the rule and the
    assignment made."""
    table = ControlTable((cmd,))
    names = table.variables
    cells = [*map(store.lookup, names), table.roots[0]]
    _, _, rule, var = table.advance(cells, len(names), 1)
    assigned = None
    if var is not None:
        assigned = (names[var], cells[var])
        store = Store({**dict(store.items()), names[var]: cells[var]})
    slot = cells[-1]
    return store, None if slot == DONE else table.nodes[slot], rule, assigned


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
    """``cmd`` run alone."""
    return run_with_scheduler(store, Program.single(cmd), FirstAlive(), fuel)


def test_add_rule_sequence_at_n2():
    run = run_alone(Store.of(x="11"), adder_command())
    rules = [entry.rule for entry in run.trace()]
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
    trace = tuple(run.trace())
    assert len(trace) == 5
    assert [e.index for e in trace] == [1, 2, 3, 4, 5]
    assert run.steps == 13


def test_trace_records_stores():
    run = run_alone(Store.of(x="1"), adder_command())
    trace = tuple(run.trace())
    assert trace[-1].store == run.store
    assert run.residual == Program(())
    assert [e.index for e in trace] == list(range(1, run.steps + 1))
    assert {e.thread for e in trace} == {"main"}
