"""The one-pass checker must agree with the recursive typing rules it
replaced, and must check long and deeply nested threads."""

import dataclasses
import itertools

import pytest

from tierlang import Assign, If, OpCall, Seq, Skip, Span, Tier, Var, While, parse, seq_all
from tierlang.fixtures import (
    MACHINE_FIXTURES,
    REJECTED_FIXTURES,
    SAFE_FIXTURES,
    fixture_text,
    load_source,
)
from tierlang.lang import free_vars, walk
from tierlang.ops import UnknownOperatorError, default_registry
from tierlang.parser import pretty_expr
from tierlang.semantics import DONE, ControlTable
from tierlang.tm import compile_tm, parse_tm
from tierlang.typecheck import (
    BOTH_TIERS,
    NO_TIERS,
    UnboundVariableError,
    Diagnostic,
    _explain,
    _op_sigs,
    _tier_names,
    build_sig_env,
    check_program,
    command_tiers,
    infer_tiers,
    maximal_safe_sigs,
    type_table,
)

TIER_FIXTURES = SAFE_FIXTURES + REJECTED_FIXTURES
REGISTRY = default_registry()
Z, O = Tier.ZERO, Tier.ONE

# Commands typing at both tiers, branches and arguments that fail
# together, and restricted signatures: the choices the fixtures leave open.
MIXED = """
op gt0 arity 1 class neutral;
op eq arity 2 class neutral;
op pred arity 1 class neutral sig 1->1, 1->0;
op add1 arity 1 class positive;
vars { x : 1; y : 0; z : 1; }
thread a { skip; if (eq(x, pred(z))) { skip } else { skip; skip }; y := eq(pred(x), y) }
thread b {
  while (gt0(x)) { if (tt) { skip } else { z := pred(z) }; x := pred(x) };
  if (gt0(y)) { y := add1(eq(x, ff)) } else { skip }
}
thread c { if (gt0(x)) { x := add1(x) } else { z := add1(z) } }
thread d { z := eq(pred(y), pred(add1(x))); skip }
"""


def load(name):
    return parse(MIXED) if name == "mixed" else load_source(name)


# --- reference: the recursive rules, one call per question ---------------------------


def ref_expr_tiers(gamma, sig_env, expr):
    if isinstance(expr, Var):
        return frozenset((gamma[expr.name],))
    sigs = _op_sigs(expr.op, sig_env)
    arg_tiers = [ref_expr_tiers(gamma, sig_env, a) for a in expr.args]
    return frozenset(r for args, r in sigs if all(t in arg_tiers[i] for i, t in enumerate(args)))


def ref_command_tiers(gamma, sig_env, cmd):
    if isinstance(cmd, Skip):
        return BOTH_TIERS
    if isinstance(cmd, Assign):
        target = gamma[cmd.var]
        rhs = ref_expr_tiers(gamma, sig_env, cmd.expr)
        return frozenset((target,)) if any(target <= t for t in rhs) else NO_TIERS
    if isinstance(cmd, Seq):
        first = ref_command_tiers(gamma, sig_env, cmd.first)
        second = ref_command_tiers(gamma, sig_env, cmd.second)
        return frozenset(max(a, b) for a in first for b in second)
    if isinstance(cmd, If):
        return (ref_expr_tiers(gamma, sig_env, cmd.guard)
                & ref_command_tiers(gamma, sig_env, cmd.then_branch)
                & ref_command_tiers(gamma, sig_env, cmd.else_branch))
    guard = ref_expr_tiers(gamma, sig_env, cmd.guard)
    body = ref_command_tiers(gamma, sig_env, cmd.body)
    return frozenset((O,)) if O in guard and body else NO_TIERS


def ref_explain_expr(gamma, sig_env, expr):
    for arg in expr.args:
        if not ref_expr_tiers(gamma, sig_env, arg):
            return ref_explain_expr(gamma, sig_env, arg)
    arg_tiers = [ref_expr_tiers(gamma, sig_env, a) for a in expr.args]
    shown = ", ".join(_tier_names(t) for t in arg_tiers) or "none"
    return Diagnostic("op", f"no declared signature of {expr.op!r} applies (argument tiers: "
                      f"{shown})", expr.span, tuple(sorted(free_vars(expr))))


def ref_explain_failure(gamma, sig_env, cmd):
    if isinstance(cmd, Assign):
        rhs = ref_expr_tiers(gamma, sig_env, cmd.expr)
        if not rhs:
            return ref_explain_expr(gamma, sig_env, cmd.expr)
        return Diagnostic("assign", f"variable {cmd.var!r} has tier {gamma[cmd.var]} but "
                          f"{pretty_expr(cmd.expr)} only types at tier {_tier_names(rhs)}",
                          cmd.span, (cmd.var,))
    if isinstance(cmd, Seq):
        if not ref_command_tiers(gamma, sig_env, cmd.first):
            return ref_explain_failure(gamma, sig_env, cmd.first)
        return ref_explain_failure(gamma, sig_env, cmd.second)
    if isinstance(cmd, If):
        guard = ref_expr_tiers(gamma, sig_env, cmd.guard)
        if not guard:
            return ref_explain_expr(gamma, sig_env, cmd.guard)
        for branch in (cmd.then_branch, cmd.else_branch):
            if not ref_command_tiers(gamma, sig_env, branch):
                return ref_explain_failure(gamma, sig_env, branch)
        then_t = ref_command_tiers(gamma, sig_env, cmd.then_branch)
        else_t = ref_command_tiers(gamma, sig_env, cmd.else_branch)
        return Diagnostic("if", f"guard and branches share no tier (guard: {_tier_names(guard)}, "
                          f"then: {_tier_names(then_t)}, else: {_tier_names(else_t)})",
                          cmd.span, tuple(sorted(free_vars(cmd.guard))))
    if isinstance(cmd, While):
        if not ref_command_tiers(gamma, sig_env, cmd.body):
            return ref_explain_failure(gamma, sig_env, cmd.body)
        guard = ref_expr_tiers(gamma, sig_env, cmd.guard)
        return Diagnostic("while", f"loop guard {pretty_expr(cmd.guard)} must type at tier 1 "
                          f"but only types at {_tier_names(guard)}",
                          cmd.span, tuple(sorted(free_vars(cmd.guard))))
    raise AssertionError(f"typable command reached explain_failure: {cmd!r}")


# --- differential checks -------------------------------------------------------------


def reach(table):
    """Step every slot reachable from the roots, so the table holds the
    residuals that stepping makes."""
    seen, frontier = set(), list(table.roots)
    while frontier:
        slot = frontier.pop()
        if slot != DONE and slot not in seen:
            seen.add(slot)
            frontier.extend(table.successors(slot))


def explain(gamma, sig_env, cmd):
    """The diagnostic ``check_program`` gives an untypable thread ``cmd``."""
    table = ControlTable((cmd,))
    return _explain(type_table(table, gamma, sig_env), table, gamma, cmd, table.roots[0])


def expression_count(table):
    """How many of the table's ids are expressions' (the rest are slots)."""
    return sum(isinstance(node, (Var, OpCall)) for node in table.nodes)


def assert_agrees(commands, gamma, sig_env, where):
    """The pass, on a fresh table of ``commands`` and again once the
    table holds its residual slots, against the recursive rules: the
    tier set of every node id, and the diagnostic of every untypable
    slot.  Returns the table, the typing and how many residual slots
    the second pass typed."""
    table = ControlTable(commands)
    built = type_table(table, gamma, sig_env)
    reach(table)
    typing = type_table(table, gamma, sig_env)
    assert typing[:len(built)] == built, where
    assert len(typing) == len(table.nodes) == len(table.keys), where
    for i, tiers in enumerate(typing):
        node = table.nodes[i]
        if isinstance(node, (Var, OpCall)):
            assert tiers == ref_expr_tiers(gamma, sig_env, node), where
            continue
        assert tiers == ref_command_tiers(gamma, sig_env, node), where
        if not tiers:
            want = ref_explain_failure(gamma, sig_env, node)
            assert _explain(typing, table, gamma, node, i) == want, where
    return table, typing, len(typing) - len(built)


def every_env(source):
    names = sorted(free_vars(source.program()))
    assert len(names) <= 5
    for combo in itertools.product((Z, O), repeat=len(names)):
        yield dict(zip(names, combo))


@pytest.mark.parametrize("name", TIER_FIXTURES + ("mixed",))
def test_fixtures_type_as_the_recursive_rules_under_every_environment(name):
    source = load(name)
    sig_env, diags = build_sig_env(source, REGISTRY)
    assert diags == ()
    commands = [cmd for _, cmd in source.threads]
    rejected = 0
    for gamma in every_env(source):
        table, typing, residuals = assert_agrees(commands, gamma, sig_env, (name, gamma))
        rejected += sum(not typing[root] for root in table.roots)
    assert rejected > 0  # the diagnostics were compared too
    loops = any(isinstance(node, While) for cmd in commands for node in walk(cmd))
    assert residuals > 0 or not loops  # and the slots that stepping adds


@pytest.mark.parametrize("name", TIER_FIXTURES + ("mixed",))
def test_check_program_reports_match_the_recursive_rules(name):
    source = load(name)
    gamma = source.annotations()
    if free_vars(source.program()) - set(gamma):
        gamma = next(every_env(source))
        source = source.with_annotations(gamma)
    sig_env, _ = build_sig_env(source, REGISTRY)
    report = check_program(source)
    assert len(report.threads) == len(source.threads) or name == "unsafe_subword.tier"
    for thread, (tid, cmd) in zip(report.threads, source.threads):
        tiers = ref_command_tiers(gamma, sig_env, cmd)
        assert (thread.tid, thread.tiers) == (tid, tiers)
        want = None if tiers else ref_explain_failure(gamma, sig_env, cmd)
        assert thread.diagnostic == want


@pytest.mark.parametrize("name", MACHINE_FIXTURES)
def test_compiled_machines_type_as_the_recursive_rules(name):
    source = compile_tm(parse_tm(fixture_text(name))).source
    sig_env, _ = build_sig_env(source, REGISTRY)
    gamma = source.annotations()
    for tid, cmd in source.threads:
        assert ref_command_tiers(gamma, sig_env, cmd)
    residuals = assert_agrees([cmd for _, cmd in source.threads], gamma, sig_env, (name,))[2]
    assert residuals > 0 and check_program(source).safe


def test_shared_subtrees_are_typed_once_per_node_and_agree():
    # One node object used twice, once needed at each tier, and an equal
    # copy of it: all three are one expression id of the table.
    gamma = {"x": O}
    sig_env = {"pred": frozenset({((O,), O), ((O,), Z)}), "eq": frozenset({((Z, O), Z)})}
    shared = OpCall("pred", (Var("x"),))
    for cmd in (Assign("x", OpCall("eq", (shared, shared))),
                Assign("x", OpCall("eq", (shared, OpCall("pred", (Var("x"),)))))):
        assert command_tiers(gamma, sig_env, cmd) == NO_TIERS
        table = ControlTable((cmd,))
        typing = type_table(table, gamma, sig_env)
        eq = table.keys[table.roots[0]][1]
        pred = table.keys[eq][1]
        assert (table.keys[eq], expression_count(table)) == (("eq", pred, pred), 3)
        assert (typing[pred], typing[eq]) == ({Z, O}, {Z})
        assert explain(gamma, sig_env, cmd) == ref_explain_failure(gamma, sig_env, cmd)


def test_errors_raise_in_reading_order():
    sig_env = {op: maximal_safe_sigs(REGISTRY.resolve(op)) for op in ("pred", "eq")}
    gamma = {"x": O}
    # an assignment's target before its expression, left before right
    cases = [
        (Assign("ghost", OpCall("nosuch", ())), UnboundVariableError, "ghost"),
        (Seq(Assign("x", Var("ghost")), Assign("x", OpCall("nosuch", ()))),
         UnboundVariableError, "ghost"),
        (Assign("x", OpCall("nosuch", (Var("ghost"),))), UnknownOperatorError, "nosuch"),
        (Assign("x", OpCall("eq", (Var("a"), OpCall("nosuch", ())))), UnboundVariableError, "a"),
        (If(Var("x"), Assign("x", OpCall("pred", (Var("a"),))), Assign("b", Var("x"))),
         UnboundVariableError, "a"),
    ]
    for cmd, error, name in cases:
        with pytest.raises(error) as raised:
            command_tiers(gamma, sig_env, cmd)
        assert type(raised.value) is error and raised.value.args == (name,)


class CountingSigEnv(dict):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_a_subtree_shared_within_a_tree_is_typed_once():
    # Residuals such as ``body; while g { body }`` share subtrees.
    sig_env = CountingSigEnv(eq=maximal_safe_sigs(REGISTRY.resolve("eq")))
    expr = Var("x")
    for _ in range(12):
        expr = OpCall("eq", (expr, expr))
    table = ControlTable((Assign("x", expr),))
    typing = type_table(table, {"x": O}, sig_env)
    assert typing[table.keys[table.roots[0]][1]] == {Z, O}
    assert (expression_count(table), sig_env.lookups) == (13, 12)


def test_a_typing_holds_four_tier_set_objects():
    # However many nodes a table has, each tier set of its typing is one
    # of four shared objects (no tier, tier 0, tier 1, both), so a wide
    # program's typing costs one pointer per node.
    wide = parse("op pred arity 1 class neutral;\nthread t {\n"
                 + ";\n".join(f"v{i} := pred(v{i})" for i in range(2000)) + "\n}\n")
    tables = [(wide, {f"v{i}": (Z, O)[i % 2] for i in range(2000)})]
    tables += [(load(name), None) for name in ("binary_add.tier", "unsafe_loop.tier", "mixed")]
    objects = set()
    for source, gamma in tables:
        sig_env, _ = build_sig_env(source, REGISTRY)
        gamma = gamma or next(every_env(source))
        typing = type_table(source.program().table, gamma, sig_env)
        assert NO_TIERS in typing or source is wide
        objects |= {id(tiers) for tiers in typing}
    assert len(objects) <= 4


# --- scale: no recursion per statement, nesting level or expression depth -------------

HEADER = """
op gt0 arity 1 class neutral;
op sub1 arity 1 class neutral;
op add1 arity 1 class positive;
vars { x : 1; y : 0; }
thread t { skip }
"""


def with_thread(cmd):
    return dataclasses.replace(parse(HEADER), threads=(("t", cmd),))


def statements(n):
    return [Assign("x", OpCall("sub1", (Var("x"),))) if i % 2 else
            Assign("y", OpCall("add1", (Var("y"),))) for i in range(n)]


def typed_table(source):
    """The program's table and its typing under the file's annotations."""
    sig_env, _ = build_sig_env(source, REGISTRY)
    table = source.program().table
    return table, type_table(table, source.annotations(), sig_env)


def test_a_3000_statement_thread_checks():
    cmd = seq_all(statements(3000))
    source = with_thread(cmd)
    report = check_program(source)
    assert report.safe
    thread = report.threads[0]
    assert (thread.tiers, thread.diagnostic) == ({O}, None)
    assert report == check_program(source)  # a report holds no tree to compare recursively
    table, typing = typed_table(source)
    keys, chain = table.keys, [table.roots[0]]
    while keys[chain[-1]][0] is Seq:
        chain.append(keys[chain[-1]][2])
    assert len(chain) == 3000
    assert [typing[s] for s in chain[-2:]] == [{O}, {O}]
    assert typing[keys[chain[-2]][1]] == {Z}
    assert keys[chain[-1]][0] is Assign and keys[chain[-1]][2] == "x"


def test_a_3000_statement_thread_is_rejected_at_its_last_statement():
    last = Assign("x", OpCall("add1", (Var("x"),)), Span(3001, 3))
    report = check_program(with_thread(seq_all(statements(3000) + [last])))
    assert not report.safe
    diag = report.threads[0].diagnostic
    assert (diag.rule, diag.span, diag.variables) == ("assign", Span(3001, 3), ("x",))
    assert diag.message == "variable 'x' has tier 1 but add1(x) only types at tier 0"


def test_a_900_deep_expression_checks():
    expr = Var("x")
    for _ in range(900):
        expr = OpCall("sub1", (expr,))
    source = with_thread(Assign("x", expr))
    report = check_program(source)
    assert report.safe and report.threads[0].tiers == {O}
    table, typing = typed_table(source)
    eid, depth = table.keys[table.roots[0]][1], 0
    while table.keys[eid] != "x":
        assert typing[eid] == {Z, O} and table.keys[eid][0] == "sub1"
        eid, depth = table.keys[eid][1], depth + 1
    assert (depth, expression_count(table), typing[eid]) == (900, 901, {O})


def nested(op, depth, leaf):
    expr = leaf
    for _ in range(depth):
        expr = OpCall(op, (expr,))
    return expr


def test_tiers_of_a_900_deep_expression_are_inferred():
    loop = While(OpCall("gt0", (Var("x"),)), Assign("x", nested("sub1", 900, Var("x"))))
    report = infer_tiers(with_thread(loop).with_annotations({}))
    assert report.ok and dict(report.gamma) == {"x": O}


def test_a_rejected_900_deep_expression_is_printed_in_its_diagnostic():
    report = check_program(with_thread(Assign("x", nested("add1", 900, Var("x")))))
    diag = report.threads[0].diagnostic
    shown = "add1(" * 900 + "x" + ")" * 900
    assert diag.message == f"variable 'x' has tier 1 but {shown} only types at tier 0"


# 700 is the deepest nest in the benchmark; 1500 is past Python's default
# recursion limit even for a checker that recurses once per level.
@pytest.mark.parametrize("depth", [700, 1500])
def test_a_deep_if_nest_checks(depth):
    cmd = Assign("x", OpCall("sub1", (Var("x"),)))
    for _ in range(depth):
        cmd = If(OpCall("gt0", (Var("x"),)), cmd, Skip())
    source = with_thread(cmd)
    report = check_program(source)
    assert report.safe and report.threads[0].tiers == {O}
    table, typing = typed_table(source)
    keys, chain = table.keys, [table.roots[0]]
    while keys[chain[-1]][0] is If:
        assert typing[keys[chain[-1]][1]] == {Z, O}
        chain.append(keys[chain[-1]][2])
    assert len(chain) == depth + 1
    assert all(typing[s] == {O} for s in chain)


def test_a_deep_rejected_thread_names_the_innermost_blocker():
    cmd = While(OpCall("gt0", (Var("y"),)), Skip(), Span(1, 1))
    for level in range(700):
        cmd = If(OpCall("gt0", (Var("x"),)), Seq(Skip(), cmd), Skip())
    diag = check_program(with_thread(cmd)).threads[0].diagnostic
    assert (diag.rule, diag.span, diag.variables) == ("while", Span(1, 1), ("y",))
