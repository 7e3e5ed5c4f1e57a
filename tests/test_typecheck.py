"""Typing rules, safe signatures, whole-program verdicts, inference."""

import itertools

import pytest

from tierlang import (
    Assign,
    If,
    OpCall,
    Seq,
    Skip,
    Tier,
    Var,
    While,
    check_program,
    check_safe_sigs,
    command_tiers,
    default_registry,
    infer_tiers,
    maximal_safe_sigs,
    parse,
    word_literal,
)
from tierlang.cli import main
from tierlang.fixtures import SAFE_FIXTURES, load_source
from tierlang.semantics import ControlTable
from tierlang.typecheck import (
    UnboundVariableError,
    _explain,
    build_sig_env,
    render_sig,
    sig_is_safe,
    type_table,
)

Z, O = Tier.ZERO, Tier.ONE
reg = default_registry()
ENV = {
    op: maximal_safe_sigs(reg.resolve(op))
    for op in ("pred", "gt0", "eq", "add1", "concat", "head", "bit")
}


# --- safe signatures ----------------------------------------------------------


def test_maximal_safe_sigs_worked_out_by_hand():
    # neutral, one argument: the result may sit at or below the argument
    assert maximal_safe_sigs(reg.resolve("pred")) == {
        ((Z,), Z),
        ((O,), Z),
        ((O,), O),
    }
    # positive operators always land in tier 0
    assert maximal_safe_sigs(reg.resolve("add1")) == {((Z,), Z), ((O,), Z)}
    # neutral, two arguments: result at or below the meet
    assert maximal_safe_sigs(reg.resolve("eq")) == {
        ((Z, Z), Z),
        ((Z, O), Z),
        ((O, Z), Z),
        ((O, O), Z),
        ((O, O), O),
    }
    # constants: the empty meet is tier 1, positives still land at 0
    assert maximal_safe_sigs(reg.resolve("tt")) == {((), Z), ((), O)}
    assert maximal_safe_sigs(reg.resolve('"01"')) == {((), Z)}


def test_sig_is_safe_requires_result_below_arguments():
    pred = reg.resolve("pred")
    assert sig_is_safe(((O,), O), pred)
    assert not sig_is_safe(((Z,), O), pred)
    add1 = reg.resolve("add1")
    assert not sig_is_safe(((O,), O), add1)
    # a width-preserving grower is still positive, so tier 1 is out
    assert not sig_is_safe(((O,), O), reg.resolve("bdec"))


def test_render_sig():
    assert render_sig(((O, Z), Z)) == "1->0->0"
    assert render_sig(((), O)) == "1"


def test_check_safe_sigs_flags_violations():
    diags = check_safe_sigs({"pred": frozenset({((Z,), O)})})
    assert len(diags) == 1 and diags[0].rule == "signature"
    diags = check_safe_sigs({"suc_1": frozenset({((O,), O)})})
    assert len(diags) == 1 and "tier 0" in diags[0].message
    assert check_safe_sigs({"pred": maximal_safe_sigs(reg.resolve("pred"))}) == ()


def test_build_sig_env_diagnostics():
    src = parse("op gt0 arity 2 class neutral;\nthread t { skip }")
    _, diags = build_sig_env(src, reg)
    assert any("arity" in d.message for d in diags)
    src = parse("op add1 arity 1 class neutral;\nthread t { skip }")
    _, diags = build_sig_env(src, reg)
    assert any("positive" in d.message for d in diags)
    src = parse("op mystery arity 1 class neutral;\nthread t { skip }")
    _, diags = build_sig_env(src, reg)
    assert any("no interpretation" in d.message for d in diags)


UNKNOWN_OP = "op foo arity 1 class neutral;\nvars { x : 1; }\nthread a { x := foo(x) }\n"
NO_INTERPRETATION = "operator at 1:1: operator 'foo' has no interpretation in the registry"


@pytest.mark.parametrize("flags, text, lines", [
    ([], UNKNOWN_OP, ["rejected", f"  {NO_INTERPRETATION}"]),
    (["--infer"], UNKNOWN_OP, [
        "rejected: no tier assignment makes the program safe",
        f"note: {NO_INTERPRETATION}",
    ]),
    ([], "op pred arity 1 class neutral sig 0 -> 1;\nthread a { x := pred(x) }\n", [
        "rejected: no tier assignment makes the program safe",
        "note: signature: signature 0->1 of 'pred' returns tier 1 above an argument of tier 0",
    ]),
], ids=["check unknown operator", "infer unknown operator", "infer unsafe signature"])
def test_check_reports_what_stops_typing_before_it_starts(tmp_path, capsys, flags, text, lines):
    path = tmp_path / "prog.tier"
    path.write_text(text)
    assert main(["check", str(path), *flags]) == 1
    assert capsys.readouterr().out.splitlines() == lines


# --- expression tiers -----------------------------------------------------------


def expr_tiers(gamma, sig_env, expr):
    """The tier set the table pass gives ``expr``, as a loop's guard."""
    table = ControlTable((While(expr, Skip()),))
    return type_table(table, gamma, sig_env)[table.keys[table.roots[0]][1]]


def test_expr_tiers():
    gamma = {"x": O, "y": Z}
    assert expr_tiers(gamma, ENV, Var("x")) == {O}
    assert expr_tiers(gamma, ENV, Var("y")) == {Z}
    assert expr_tiers(gamma, ENV, OpCall("pred", (Var("x"),))) == {Z, O}
    assert expr_tiers(gamma, ENV, OpCall("pred", (Var("y"),))) == {Z}
    assert expr_tiers(gamma, ENV, OpCall("add1", (Var("x"),))) == {Z}
    assert expr_tiers(gamma, ENV, OpCall("eq", (Var("x"), Var("y")))) == {Z}
    assert expr_tiers(gamma, ENV, word_literal("01")) == {Z}
    assert expr_tiers(gamma, ENV, OpCall("tt", ())) == {Z, O}


def test_expr_tiers_unbound_variable():
    with pytest.raises(UnboundVariableError):
        expr_tiers({}, ENV, Var("ghost"))


# --- command tiers ---------------------------------------------------------------


def shrink_x():
    return Assign("x", OpCall("pred", (Var("x"),)))


def grow_y():
    return Assign("y", OpCall("add1", (Var("y"),)))


def test_command_tiers_rules():
    gamma = {"x": O, "y": Z}
    assert command_tiers(gamma, ENV, Skip()) == {Z, O}
    # an assignment checks at the target's tier when some signature reaches it
    assert command_tiers(gamma, ENV, shrink_x()) == {O}
    assert command_tiers(gamma, ENV, grow_y()) == {Z}
    # a tier-1 variable cannot receive a positive operator's output
    assert command_tiers(gamma, ENV, Assign("x", OpCall("add1", (Var("x"),)))) == set()
    # sequencing joins pairwise
    assert command_tiers(gamma, ENV, Seq(shrink_x(), grow_y())) == {O}
    assert command_tiers(gamma, ENV, Seq(grow_y(), grow_y())) == {Z}
    # branching intersects
    guard_high = OpCall("gt0", (Var("x"),))
    guard_low = OpCall("bit", (Var("y"),))
    assert command_tiers(gamma, ENV, If(guard_high, Skip(), Skip())) == {Z, O}
    assert command_tiers(gamma, ENV, If(guard_low, Skip(), Skip())) == {Z}
    assert command_tiers(gamma, ENV, If(guard_high, Skip(), grow_y())) == {Z}
    # loops demand a tier-1 guard and land exactly at tier 1
    assert command_tiers(gamma, ENV, While(guard_high, grow_y())) == {O}
    assert command_tiers(gamma, ENV, While(guard_low, grow_y())) == set()
    untypable = Assign("x", OpCall("add1", (Var("x"),)))
    assert command_tiers(gamma, ENV, While(guard_high, untypable)) == set()


def test_explain_failure_points_at_the_blocker():
    gamma = {"x": O, "y": Z}

    def explain(cmd):
        table = ControlTable((cmd,))
        return _explain(type_table(table, gamma, ENV), table, gamma, cmd, table.roots[0])

    diag = explain(Assign("x", OpCall("add1", (Var("x"),))))
    assert diag.rule == "assign" and "x" in diag.variables
    diag = explain(While(OpCall("bit", (Var("y"),)), Skip()))
    assert diag.rule == "while" and "y" in diag.variables


# Each branch types, and the guard types at both tiers, but the branches
# share no tier: ``y`` grows at tier 0 while ``x`` shrinks at tier 1.
SPLIT_IF = """op gt0 arity 1 class neutral;
op sub1 arity 1 class neutral;
op add1 arity 1 class positive;
vars { x : 1; y : 0; }
thread t {
  while (gt0(x)) { x := sub1(x) };
  if (gt0(x)) { y := add1(y) } else { x := sub1(x) }
}
"""


def test_explain_names_an_if_whose_branches_share_no_tier():
    report = check_program(parse(SPLIT_IF))
    assert not report.safe
    diag = report.threads[0].diagnostic
    assert diag.rule == "if"
    assert str(diag) == ("if at 7:3: guard and branches share no tier "
                         "(guard: 0, 1, then: 0, else: 1) [variables: x]")


def test_explain_names_a_loop_guard_that_types_at_no_tier():
    # ``gt0`` only takes a tier-0 argument, so it cannot read tier-1 ``x``.
    report = check_program(parse(
        "op gt0 arity 1 class neutral sig 0->0;\nop sub1 arity 1 class neutral;\n"
        "vars { x : 1; }\nthread a { while (gt0(x)) { x := sub1(x) } }\n"))
    assert not report.safe
    assert str(report.threads[0].diagnostic) == (
        "while at 4:12: loop guard gt0(x) must type at tier 1 but only types at no tier "
        "[variables: x]")


GROUPED_HEADER = ("op add1 arity 1 class positive;\nop pred arity 1 class neutral;\n"
                  "vars { x : 1; y : 0; }\n")


@pytest.mark.parametrize("thread, where", [
    ("thread t { { x := add1(x); skip }; y := pred(y); skip }", "4:14"),
    ("thread t { { y := pred(y); skip }; x := add1(x); skip }", "4:36"),
])
def test_explain_walks_a_grouped_thread_as_written(thread, where):
    # The thread's slot is its statement list, flattened out of the
    # group; the diagnostic follows the source tree's own id.
    report = check_program(parse(GROUPED_HEADER + thread + "\n"))
    assert not report.safe
    assert str(report.threads[0].diagnostic).startswith(f"assign at {where}: variable 'x'")


# --- whole programs ---------------------------------------------------------------


def test_all_safe_fixtures_check():
    for name in SAFE_FIXTURES:
        report = check_program(load_source(name))
        assert report.safe, name
        assert all(thread.ok for thread in report.threads)


def test_rejected_fixture_reports_the_guard():
    report = check_program(load_source("unsafe_loop.tier"))
    assert not report.safe
    messages = [str(t.diagnostic) for t in report.threads if not t.ok]
    assert any("secret" in m for m in messages)


def test_rejected_signature_fixture():
    report = check_program(load_source("unsafe_subword.tier"))
    assert not report.safe
    assert any(d.rule == "signature" for d in report.diagnostics)


def test_check_report_serializes():
    report = check_program(load_source("add.tier"))
    payload = report.to_dict()
    assert payload["safe"] is True
    assert payload["gamma"] == {"x": 1, "y": 0}


# --- inference ----------------------------------------------------------------------


def brute_force_safe_envs(source):
    """Every total tier assignment that makes the program check, found by
    exhaustive enumeration through the public checker."""
    from tierlang import free_vars

    names = sorted(free_vars(source.program()))
    safe = []
    for combo in itertools.product((Z, O), repeat=len(names)):
        env = dict(zip(names, combo))
        if check_program(source.with_annotations(env)).safe:
            safe.append(env)
    return safe


ADD_UNANNOTATED = """
op gt0 arity 1 class neutral;
op sub1 arity 1 class neutral;
op add1 arity 1 class positive;

thread main {
  while (gt0(x)) {
    x := sub1(x);
    y := add1(y)
  }
}
"""


def test_inference_agrees_with_enumeration_on_add():
    src = parse(ADD_UNANNOTATED)
    report = infer_tiers(src)
    oracle = brute_force_safe_envs(src)
    assert report.ok == bool(oracle)
    assert dict(report.gamma) in oracle
    assert dict(report.gamma) == {"x": O, "y": Z}


def test_inference_agrees_with_enumeration_on_fixtures():
    for name in ("exp.tier", "badd.tier", "zrange.tier", "shuffle.tier"):
        src = load_source(name)
        stripped = src.with_annotations({})
        report = infer_tiers(stripped)
        oracle = brute_force_safe_envs(stripped)
        assert report.ok == bool(oracle), name
        if report.ok:
            assert dict(report.gamma) in oracle, name


def test_conflict_cores_name_the_culprits():
    exp = infer_tiers(load_source("exp.tier"))
    assert not exp.ok
    assert "u" in exp.core_variables()
    badd = infer_tiers(load_source("badd.tier"))
    assert not badd.ok
    assert "x" in badd.core_variables()


def test_conflict_core_is_minimal():
    source = load_source("exp.tier")
    report = infer_tiers(source)
    constraints = list(report.core)
    assert constraints
    # Constraints name entries of the program's one table.
    table = source.program().table
    sig_env, _ = build_sig_env(source, reg)
    names = table.variables
    typings = [type_table(table, dict(zip(names, combo)), sig_env)
               for combo in itertools.product((Z, O), repeat=len(names))]
    # dropping any single member must make the rest satisfiable
    for leave_out in range(len(constraints)):
        rest = constraints[:leave_out] + constraints[leave_out + 1 :]
        satisfiable = any(all(c.holds(typing) for c in rest) for typing in typings)
        assert satisfiable, [c.description for c in rest]


def test_inference_respects_existing_annotations():
    # pinning y to tier 1 in the adder leaves no safe completion
    src = parse(ADD_UNANNOTATED).with_annotations({"y": O})
    report = infer_tiers(src)
    assert not report.ok


def test_inference_decides_many_unannotated_variables():
    # The search used to recurse once per variable and re-test every
    # decided constraint at each step.
    n = 1100
    body = ";\n".join(f"v{i} := pred(v{i})" for i in range(n))
    src = parse("op pred arity 1 class neutral;\nthread t {\n" + body + "\n}\n")
    report = infer_tiers(src)
    assert report.ok
    assert dict(report.gamma) == {f"v{i}": Z for i in range(n)}
    assert check_program(src.with_annotations(dict(report.gamma))).safe


def test_a_conflict_that_needs_whole_thread_typing_keeps_the_thread_constraint():
    # Every assignment and guard of SPLIT_IF is satisfiable on its own
    # (x : 1, y : 0); only typing the whole thread fails.
    report = infer_tiers(parse(SPLIT_IF).with_annotations({}))
    assert not report.ok and report.note == ""
    assert [(c.kind, c.description) for c in report.core] == [
        ("thread", "thread 't' must type at some tier"),
    ]
    assert report.core_variables() == ("x", "y")


def growing_loop(n):
    """``n`` assignments ``vi := pred(vi)``, then a loop whose guard reads
    ``x`` and whose body lengthens it: no tiers make it safe."""
    body = "".join(f"v{i} := pred(v{i}); " for i in range(n))
    return parse("op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"
                 "op add1 arity 1 class positive;\n"
                 f"thread t {{ {body}while (gt0(x)) {{ x := add1(x) }} }}\n")


def test_a_conflict_over_too_many_unknowns_comes_back_unminimized():
    # 17 unknowns, one past the cap on minimizing the conflict set.
    report = infer_tiers(growing_loop(16))
    assert not report.ok
    assert report.note == "too many variables to minimize the conflict set"
    assert [c.kind for c in report.core] == ["assign"] * 16 + ["guard", "assign"]


def test_inference_decides_the_variables_a_guard_reads_first(monkeypatch):
    # Decided in order of first occurrence, ``x`` came last, and its
    # conflict was found once per assignment of the 16 before it
    # (262,143 typing passes).
    from tierlang import typecheck

    typing_pass, calls = typecheck.type_table, []

    def counted(*args):
        calls.append(None)
        return typing_pass(*args)

    monkeypatch.setattr(typecheck, "type_table", counted)
    assert not infer_tiers(growing_loop(16)).ok
    assert len(calls) <= 10


def test_searches_without_a_thread_constraint_type_no_compound_slot(monkeypatch):
    # Only thread constraints read Seq/If/While slots.  The doubler's
    # conflict minimization runs searches both with and without them.
    from tierlang import typecheck

    make_solver, typing_pass = typecheck._solver, typecheck.type_table
    searching = []  # per running search: whether it carries a thread constraint
    kinds = {True: set(), False: set()}

    def solver(*args):
        solve = make_solver(*args)

        def search(constraints, forced):
            searching.append(any(c.kind == "thread" for c in constraints))
            try:
                return solve(constraints, forced)
            finally:
                searching.pop()

        return search

    def recording_type_table(table, gamma, sig_env, typing=None, entries=()):
        if searching:
            entries = list(entries)
            kinds[searching[-1]].update(table.keys[i][0] for i in entries
                                        if not isinstance(table.nodes[i], (Var, OpCall)))
        return typing_pass(table, gamma, sig_env, typing, entries)

    monkeypatch.setattr(typecheck, "_solver", solver)
    monkeypatch.setattr(typecheck, "type_table", recording_type_table)
    report = infer_tiers(load_source("exp.tier"))
    assert [c.kind for c in report.core] == ["assign", "guard", "assign"]
    assert kinds[False] == {Assign}
    assert kinds[True] == {Assign, Seq, While}
