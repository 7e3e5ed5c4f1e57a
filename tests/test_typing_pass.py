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
from tierlang.lang import free_vars
from tierlang.ops import UnknownOperatorError, default_registry
from tierlang.parser import pretty_expr
from tierlang.tm import compile_tm, parse_tm
from tierlang.typecheck import (
    BOTH_TIERS,
    NO_TIERS,
    UnboundVariableError,
    Diagnostic,
    _explain,
    _op_sigs,
    _tier_names,
    _tier_table,
    build_sig_env,
    check_program,
    command_tiers,
    infer_tiers,
    expr_tiers,
    maximal_safe_sigs,
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
    sigs = _op_sigs(expr, sig_env)
    arg_tiers = [ref_expr_tiers(gamma, sig_env, a) for a in expr.args]
    return frozenset(r for args, r in sigs if all(t in arg_tiers[i] for i, t in enumerate(args)))


def ref_command_tiers(gamma, sig_env, cmd):
    if isinstance(cmd, Skip):
        return BOTH_TIERS
    if isinstance(cmd, Assign):
        target = gamma[cmd.var]
        rhs = ref_expr_tiers(gamma, sig_env, cmd.expr)
        return frozenset((target,)) if any(target.leq(t) for t in rhs) else NO_TIERS
    if isinstance(cmd, Seq):
        first = ref_command_tiers(gamma, sig_env, cmd.first)
        second = ref_command_tiers(gamma, sig_env, cmd.second)
        return frozenset(a.join(b) for a in first for b in second)
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


def subterms(cmd):
    """Every command and expression node of a (small) thread, pre-order."""
    out, stack = [], [cmd]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, OpCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, Assign):
            stack.append(node.expr)
        elif isinstance(node, Seq):
            stack += (node.second, node.first)
        elif isinstance(node, If):
            stack += (node.else_branch, node.then_branch, node.guard)
        elif isinstance(node, While):
            stack += (node.body, node.guard)
    return out


def explain(gamma, sig_env, cmd):
    """The diagnostic ``check_program`` gives an untypable thread ``cmd``."""
    return _explain(_tier_table(gamma, sig_env, cmd), gamma, cmd)


def assert_agrees(gamma, sig_env, cmd, where):
    """Tier sets of every node, and the diagnostic of every untypable command."""
    args = (gamma, sig_env)
    for node in subterms(cmd):
        if isinstance(node, (Var, OpCall)):
            assert expr_tiers(*args, node) == ref_expr_tiers(*args, node), where
            continue
        tiers = command_tiers(*args, node)
        assert tiers == ref_command_tiers(*args, node), where
        if not tiers:
            assert explain(gamma, sig_env, node) == ref_explain_failure(*args, node), where


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
    rejected = 0
    for gamma in every_env(source):
        for tid, cmd in source.threads:
            assert_agrees(gamma, sig_env, cmd, (name, tid, gamma))
            rejected += not command_tiers(gamma, sig_env, cmd)
    assert rejected > 0  # the diagnostics were compared too


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
        assert_agrees(gamma, sig_env, cmd, (name, tid))
    assert check_program(source).safe


def test_shared_subtrees_are_typed_once_per_node_and_agree():
    # One node object used twice, once needed at each tier.
    gamma = {"x": O}
    sig_env = {"pred": frozenset({((O,), O), ((O,), Z)}), "eq": frozenset({((Z, O), Z)})}
    shared = OpCall("pred", (Var("x"),))
    cmd = Assign("x", OpCall("eq", (shared, shared)))
    assert command_tiers(gamma, sig_env, cmd) == NO_TIERS
    table = _tier_table(gamma, sig_env, cmd)
    assert (table[id(shared)], table[id(cmd.expr)]) == ({Z, O}, {Z})
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
    assert expr_tiers({"x": O}, sig_env, expr) == {Z, O}
    assert sig_env.lookups == 12


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


def tier_table(source, root):
    sig_env, _ = build_sig_env(source, REGISTRY)
    return _tier_table(source.annotations(), sig_env, root)


def test_a_3000_statement_thread_checks():
    cmd = seq_all(statements(3000))
    source = with_thread(cmd)
    report = check_program(source)
    assert report.safe
    thread = report.threads[0]
    assert (thread.tiers, thread.diagnostic) == ({O}, None)
    assert report == check_program(source)  # a report holds no tree to compare recursively
    tiers, chain = tier_table(source, cmd), [cmd]
    while isinstance(chain[-1], Seq):
        chain.append(chain[-1].second)
    assert len(chain) == 3000
    assert [tiers[id(c)] for c in chain[-2:]] == [{O}, {O}]
    assert tiers[id(chain[-2].first)] == {Z}
    assert isinstance(chain[-1], Assign) and chain[-1].var == "x"


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
    tiers, depth = tier_table(source, expr), 0
    while isinstance(expr, OpCall):
        assert tiers[id(expr)] == {Z, O}
        expr, depth = expr.args[0], depth + 1
    assert (depth, expr, tiers[id(expr)]) == (900, Var("x"), {O})


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
    tiers, chain = tier_table(source, cmd), [cmd]
    while isinstance(chain[-1], If):
        assert tiers[id(chain[-1].guard)] == {Z, O}
        chain.append(chain[-1].then_branch)
    assert len(chain) == depth + 1
    assert all(tiers[id(c)] == {O} for c in chain)


def test_a_deep_rejected_thread_names_the_innermost_blocker():
    cmd = While(OpCall("gt0", (Var("y"),)), Skip(), Span(1, 1))
    for level in range(700):
        cmd = If(OpCall("gt0", (Var("x"),)), Seq(Skip(), cmd), Skip())
    diag = check_program(with_thread(cmd)).threads[0].diagnostic
    assert (diag.rule, diag.span, diag.variables) == ("while", Span(1, 1), ("y",))
