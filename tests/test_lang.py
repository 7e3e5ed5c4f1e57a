"""Core data model: words, tiers, syntax trees, stores, thread pools."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tierlang import (
    DEFAULT_ALPHABET,
    Alphabet,
    Assign,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Tier,
    Var,
    While,
    free_vars,
    seq_all,
    subword_invariant,
    unary,
    word_literal,
)
from tierlang.fixtures import MACHINE_FIXTURES, REJECTED_FIXTURES, SAFE_FIXTURES, fixture_text
from tierlang.lang import walk
from tierlang.parser import parse
from tierlang.tm import compile_tm, parse_tm

words = st.text(alphabet="01TF", max_size=8)


# --- tiers ------------------------------------------------------------------


def test_tier_lattice_tables():
    # The checker joins tiers with max and orders them with <=.
    zero, one = Tier.ZERO, Tier.ONE
    assert max(zero, zero) is zero
    assert max(zero, one) is one
    assert max(one, zero) is one
    assert max(one, one) is one
    assert zero <= zero and zero <= one and one <= one
    assert not one <= zero


def test_tier_strings():
    assert str(Tier.ZERO) == "0"
    assert str(Tier.ONE) == "1"


# --- words ------------------------------------------------------------------


def subword(needle, haystack):
    """Whether the subword invariant accepts ``needle`` as the later value
    of a tier-1 variable that started as ``haystack``."""
    gamma = {"x": Tier.ONE}
    return subword_invariant(Store.of(x=haystack), [(1, Store.of(x=needle))], gamma).passed


def test_subword_is_contiguous_factor():
    assert subword("", "0110")
    assert subword("01", "1011")
    assert subword("101", "101")
    assert not subword("11", "101")
    assert not subword("1011", "101")


def test_unary():
    assert unary(0) == ""
    assert unary(4) == "1111"
    with pytest.raises(ValueError):
        unary(-1)


@given(words, words)
def test_subword_matches_python_containment(needle, haystack):
    assert subword(needle, haystack) == (needle in haystack or needle in ("T", "F"))


# --- alphabet ---------------------------------------------------------------


def test_alphabet_membership_and_words():
    ab = Alphabet(frozenset("01"))
    assert "0" in ab.letters and "x" not in ab.letters


def test_alphabet_rejects_multichar_letters():
    with pytest.raises(ValueError):
        Alphabet(frozenset({"ab"}))
    with pytest.raises(ValueError):
        Alphabet(frozenset())


def test_default_alphabet_has_truth_letters():
    assert {"T", "F"} <= DEFAULT_ALPHABET.letters


# --- syntax -----------------------------------------------------------------


def test_ast_equality_ignores_spans():
    from tierlang import Span

    a = Var("x", span=Span(1, 1))
    b = Var("x", span=Span(9, 9))
    assert a == b
    assert hash(a) == hash(b)


def test_word_literal_is_a_nullary_call():
    lit = word_literal("01")
    assert isinstance(lit, OpCall)
    assert lit.args == ()
    assert lit.op == '"01"'


def test_seq_all():
    a, b, c = Assign("x", Var("y")), Skip(), Assign("z", Var("x"))
    assert seq_all([a]) == a
    assert seq_all([a, b, c]) == Seq(a, Seq(b, c))
    assert seq_all([]) == Skip()


def test_variable_walkers():
    body = Seq(Assign("x", OpCall("sub1", (Var("x"),))), Assign("y", OpCall("add1", (Var("y"),))))
    loop = While(OpCall("gt0", (Var("x"),)), body)
    cmd = If(OpCall("eq", (Var("a"), Var("b"))), loop, Skip())
    assert free_vars(cmd) == {"a", "b", "x", "y"}


def test_walkers_cover_programs():
    prog = Program.of({"t1": Assign("x", Var("y")), "t2": Assign("z", word_literal("1"))})
    assert free_vars(prog) == {"x", "y", "z"}


def reference_walk(node):
    """Recursive pre-order, children in field order."""
    yield node
    children = ()
    if isinstance(node, OpCall):
        children = node.args
    elif isinstance(node, Assign):
        children = (node.expr,)
    elif isinstance(node, Seq):
        children = (node.first, node.second)
    elif isinstance(node, If):
        children = (node.guard, node.then_branch, node.else_branch)
    elif isinstance(node, While):
        children = (node.guard, node.body)
    for child in children:
        yield from reference_walk(child)


def fixture_threads():
    for name in SAFE_FIXTURES + REJECTED_FIXTURES:
        yield from ((name, tid, cmd) for tid, cmd in parse(fixture_text(name)).threads)
    for name in MACHINE_FIXTURES:
        source = compile_tm(parse_tm(fixture_text(name))).source
        yield from ((name, tid, cmd) for tid, cmd in source.threads)


def test_walk_visits_nodes_in_recursive_pre_order():
    for name, tid, cmd in fixture_threads():
        assert [id(n) for n in walk(cmd)] == [id(n) for n in reference_walk(cmd)], (name, tid)


def test_walk_needs_no_recursion():
    expr = Var("x")
    for _ in range(5000):
        expr = OpCall("pred", (expr, Var("y")))
    names = [getattr(node, "name", None) for node in walk(Assign("x", expr))]
    assert names == [None] * 5001 + ["x"] + ["y"] * 5000


def test_walk_rejects_what_is_no_node():
    with pytest.raises(TypeError, match="not an AST node: 'y'"):
        list(walk(Assign("x", "y")))


def test_package_exports_resolve_once():
    import tierlang

    assert len(set(tierlang.__all__)) == len(tierlang.__all__)
    for name in tierlang.__all__:
        assert getattr(tierlang, name) is not None, name


# --- stores -----------------------------------------------------------------


def test_store_defaults_to_empty_word():
    s = Store.of(x="11")
    assert s.lookup("x") == "11"
    assert s.lookup("never_bound") == ""


def test_store_normalizes_empty_bindings():
    assert Store.of(x="") == Store()
    assert Store.of(x="", y="1") == Store.of(y="1")
    assert Store.of(x="").items() == []


def test_store_restrict_and_items_sorted():
    s = Store.of(b="1", a="0", c="11")
    assert s.items() == [("a", "0"), ("b", "1"), ("c", "11")]
    assert s.restrict(["a", "c", "missing"]) == Store.of(a="0", c="11")


def test_store_equality_and_hash():
    assert Store.of(x="1", y="0") == Store.of(y="0", x="1")
    assert hash(Store.of(x="1")) == hash(Store.of(x="1"))
    assert Store.of(x="1") != Store.of(x="0")


def test_store_is_immutable():
    s = Store.of(x="1")
    with pytest.raises(AttributeError):
        s.whatever = 3


@given(st.dictionaries(st.sampled_from("abcxyz"), words, max_size=4))
def test_store_roundtrips_nonempty_bindings(bindings):
    s = Store(bindings)
    for var, value in bindings.items():
        assert s.lookup(var) == value
    assert s.items() == sorted((v, w) for v, w in bindings.items() if w)


# --- thread pools -----------------------------------------------------------


def test_program_threads_sorted_by_name():
    prog = Program.of({"zed": Skip(), "alpha": Skip()})
    assert prog.thread_ids() == ("alpha", "zed")
    assert prog.command("zed") == Skip()
    with pytest.raises(KeyError):
        prog.command("beta")


def test_program_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Program((("t", Skip()), ("t", Skip())))


def test_program_single():
    prog = Program.single(Skip())
    assert prog.thread_ids() == ("main",)
