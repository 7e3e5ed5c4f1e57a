"""Built-in operators: exact values, growth classes, family resolution."""

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tierlang.fixtures
from tierlang import OperatorDef, Registry, Store, builtins, default_registry, unary
from tierlang.analysis import measure_growth, ni_suite, tier_preservation
from tierlang.cli import main
from tierlang.fixtures import fixture_text, load_source
from tierlang.lang import DEFAULT_ALPHABET, FF, TT, Alphabet, Word
from tierlang.ops import (
    NEUTRAL_PREDICATE,
    NEUTRAL_SUBWORD,
    POSITIVE,
    DuplicateOperatorError,
    UnknownOperatorError,
)
from tierlang.scheduling import RoundRobin, explore, run_with_scheduler
from tierlang.tm import compile_tm, parse_tm
from tierlang.typecheck import build_sig_env, check_program, infer_tiers

words = st.text(alphabet="01TF", max_size=6)
reg = default_registry()


def ap(name, *args):
    return reg.resolve(name).apply(*args)


# --- exact values, worked out by hand ----------------------------------------


def test_word_shrinkers():
    assert ap("pred", "101") == "01"
    assert ap("pred", "") == ""
    assert ap("head", "101") == "1"
    assert ap("head", "") == ""
    assert ap("sub1", "111") == "11"
    assert ap("zero", "101") == ""


def test_predicates():
    assert ap("gt0", "10") == "T"
    assert ap("gt0", "0") == "T"  # any nonempty word counts as positive
    assert ap("gt0", "") == "F"
    assert ap("eq_eps", "") == "T"
    assert ap("eq_eps", "0") == "F"
    assert ap("not", "F") == "T"
    assert ap("not", "T") == "F"
    assert ap("not", "10") == "F"
    assert ap("eq", "10", "10") == "T"
    assert ap("eq", "10", "1") == "F"
    assert ap("neq", "10", "1") == "T"
    assert ap("or", "T", "F") == "T"
    assert ap("or", "F", "F") == "F"
    assert ap("and", "T", "T") == "T"
    assert ap("and", "T", "F") == "F"


def test_first_digit_view():
    # T counts as the digit 1 and F as 0, so predicates can feed
    # arithmetic ops directly.
    assert ap("bit", "10") == "T"
    assert ap("bit", "01") == "F"
    assert ap("bit", "T") == "T"
    assert ap("bit", "F") == "F"
    assert ap("bit", "") == "F"


def test_binary_adder_helpers():
    # carry = majority, bitsum = parity of the three first digits
    assert ap("carry", "1", "1", "0") == "T"
    assert ap("carry", "1", "0", "F") == "F"
    assert ap("carry", "T", "F", "T") == "T"
    assert ap("bitsum", "1", "1", "0") == "F"
    assert ap("bitsum", "1", "0", "0") == "T"
    assert ap("bitsum", "1", "1", "1") == "T"
    assert ap("bitsum", "0", "0", "0") == "F"


def test_growers():
    assert ap("add1", "11") == "111"
    assert ap("add1", "") == "1"
    assert ap("concat", "1", "01") == "101"
    assert ap("concat", "T", "01") == "101"
    assert ap("concat", "F", "01") == "001"
    assert ap("concat", "", "01") == "01"
    assert ap("binc", "011") == "100"  # most significant digit first: 3 -> 4
    assert ap("binc", "11") == "100"   # 3 -> 4, one digit wider
    assert ap("bdec", "110") == "101"  # 6 -> 5, width kept
    assert ap("bdec", "000") == "000"
    assert ap("tt") == "T"
    assert ap("ff") == "F"


# --- operator families --------------------------------------------------------


def test_quoted_constants():
    assert ap('"01"') == "01"
    assert ap('""') == ""


def test_prefix_test_family():
    assert ap("eq_0", "01") == "T"
    assert ap("eq_0", "10") == "F"
    assert ap("eq_B", "B1") == "T"
    assert ap("eq_B", "") == "F"


def test_prepend_family():
    assert ap("suc_1", "0") == "10"
    assert ap("suc_B", "") == "B"
    op = reg.resolve("suc_1")
    assert op.kind == POSITIVE and op.growth == 1


def test_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        reg.resolve("frobnicate")
    assert reg.resolve("eq_anything").arity == 1
    assert reg.resolve('"literal"').arity == 0


def test_registry_rejects_duplicates():
    with pytest.raises(DuplicateOperatorError):
        Registry(builtins() + (OperatorDef("pred", 1, lambda u: u, NEUTRAL_SUBWORD),))


def test_every_layer_shares_one_library(monkeypatch, capsys):
    assert default_registry() is default_registry()
    built = []
    init = Registry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    source = load_source("add.tier")
    program, gamma = source.program(), source.annotations()
    sig_env, _ = build_sig_env(source, default_registry())
    store = Store.of(x="11")
    monkeypatch.setattr(Registry, "__init__", counting_init)
    check_program(source)
    infer_tiers(source.with_annotations({}))
    run_with_scheduler(store, program, RoundRobin())
    explore(store, program)
    ni_suite(program, gamma, scheduler=RoundRobin(), trials=2)
    ni_suite(program, gamma, trials=2, mode="explore")
    tier_preservation(store, program, gamma, sig_env)
    measure_growth(program, lambda n: {"x": unary(n)}, [1, 2], RoundRobin())
    compile_tm(parse_tm(fixture_text("binary_inc.tm")))
    assert main(["check", str(Path(tierlang.fixtures.__file__).parent / "add.tier")]) == 0
    assert built == []


# --- growth classes -----------------------------------------------------------


def test_operator_def_validation():
    with pytest.raises(ValueError):
        OperatorDef("bad", 1, lambda u: u, "weird-kind")
    with pytest.raises(ValueError):
        OperatorDef("bad", -1, lambda u: u, NEUTRAL_SUBWORD)
    with pytest.raises(ValueError):
        # neutral operators must not claim growth
        OperatorDef("bad", 1, lambda u: u, NEUTRAL_SUBWORD, growth=1)


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of checking an operator against its declared class."""

    ok: bool
    checked: int
    exhaustive: bool
    counterexample: tuple[Word, ...] | None = None
    output: Word | None = None


def words_up_to(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All words of length at most ``max_len``, shortest first."""
    letters = alphabet.sorted_letters()
    return ["".join(w) for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]


def validate_class(
    op: OperatorDef,
    max_len: int = 4,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    sample_cap: int = 20000,
    seed: int = 0,
) -> ClassVerdict:
    """Check the declared growth class on all argument tuples of words up
    to ``max_len``, falling back to a seeded random sample when the full
    product exceeds ``sample_cap`` tuples.
    """
    words = words_up_to(alphabet, max_len)
    total = len(words) ** op.arity
    exhaustive = total <= sample_cap
    if exhaustive:
        tuples = itertools.product(words, repeat=op.arity)
        count = total
    else:
        rng = random.Random(seed)
        tuples = (tuple(rng.choice(words) for _ in range(op.arity)) for _ in range(sample_cap))
        count = sample_cap
    for args in tuples:
        out = op.fn(*args)
        if op.kind == NEUTRAL_PREDICATE:
            good = out == TT or out == FF
        elif op.kind == NEUTRAL_SUBWORD:
            good = any(out in arg for arg in args)
        else:
            longest = max((len(a) for a in args), default=0)
            good = len(out) <= longest + op.growth
        if not good:
            return ClassVerdict(False, count, exhaustive, tuple(args), out)
    return ClassVerdict(True, count, exhaustive)


def test_every_builtin_validates():
    for op in builtins():
        verdict = validate_class(op, max_len=3)
        assert verdict.ok, (op.name, verdict.counterexample)
        if op.arity <= 2:  # arity-3 spaces exceed the sample cap
            assert verdict.exhaustive, op.name


def test_validate_class_finds_liars():
    liar = OperatorDef("liar", 1, lambda u: u + u, NEUTRAL_SUBWORD)
    verdict = validate_class(liar, max_len=3)
    assert not verdict.ok
    assert verdict.counterexample is not None
    bad_pred = OperatorDef("liar2", 1, lambda u: u, NEUTRAL_PREDICATE)
    assert not validate_class(bad_pred, max_len=2).ok
    undergrown = OperatorDef("liar3", 1, lambda u: u + "11", POSITIVE, growth=1)
    assert not validate_class(undergrown, max_len=2).ok


def test_validate_class_samples_large_spaces():
    op = reg.resolve("concat")
    verdict = validate_class(op, max_len=5, sample_cap=500, seed=1)
    assert verdict.ok
    assert not verdict.exhaustive
    assert verdict.checked == 500


# --- growth laws as properties -------------------------------------------------


@given(words)
def test_neutral_unary_ops_never_grow(u):
    for name in ("pred", "head", "sub1", "zero"):
        out = ap(name, u)
        assert out in u  # contiguous factor of the input


@given(words, words)
def test_binary_predicates_return_truth_words(u, v):
    for name in ("eq", "neq", "or", "and"):
        assert ap(name, u, v) in ("T", "F")


@given(words, words)
def test_positive_ops_respect_growth_budget(u, v):
    assert len(ap("concat", u, v)) <= max(len(u), len(v)) + 1
    assert len(ap("add1", u)) <= len(u) + 1
    assert len(ap("binc", u)) <= len(u) + 1
    assert len(ap("bdec", u)) <= len(u)


@given(st.integers(min_value=0, max_value=200))
def test_binary_increment_matches_arithmetic(n):
    # most significant digit first: binc is +1 on the represented value
    word = format(n, "b")
    out = ap("binc", word)
    assert int(out, 2) == n + 1


@given(st.integers(min_value=0, max_value=200))
def test_binary_decrement_matches_arithmetic(n):
    word = format(n, "b").zfill(n.bit_length() + 1)
    out = ap("bdec", word)
    assert len(out) == len(word)
    assert int(out, 2) == max(n - 1, 0)
