"""Hypothesis strategies for small generated programs and their stores.

A program has one to three threads over the variables ``x``, ``y`` and
``z``, built from the builtin operators and word constants, with nested
``if``s and ``while`` loops.  Nothing is filtered: a program need not
type-check, a loop may never end, a guard may yield a word that is no
truth value (the step then raises ``StuckGuardError``), and data of any
tier may flow anywhere.  Differential tests that compare the tool with a
reference import ``programs`` and ``stores`` from here.
"""

from hypothesis import strategies as st

from tierlang import Assign, If, OpCall, Program, Seq, Skip, Store, Var, While

VARIABLES = ("x", "y", "z")
PREDICATES = ("gt0", "not", "eq_eps", "bit", "eq_1")  # unary, each yields T or F
UNARY = ("pred", "head", "zero", "add1", "binc", "bdec")
BINARY = ("eq", "and", "or", "concat")

variables = st.sampled_from(VARIABLES)
words = st.text(alphabet="01TF", max_size=4)
constants = st.one_of(words.map(lambda w: OpCall(f'"{w}"', ())),
                      st.sampled_from([OpCall("tt", ()), OpCall("ff", ())]))


def _calls(inner):
    return st.one_of(
        st.builds(lambda op, a: OpCall(op, (a,)), st.sampled_from(PREDICATES + UNARY), inner),
        st.builds(lambda op, a, b: OpCall(op, (a, b)), st.sampled_from(BINARY), inner, inner),
    )


expressions = st.recursive(st.one_of(variables.map(Var), constants), _calls, max_leaves=4)

# Mostly a predicate of some expression, so most guards are truth words;
# sometimes any expression, which may not be.
guards = st.one_of(
    st.builds(lambda op, e: OpCall(op, (e,)), st.sampled_from(PREDICATES), expressions),
    expressions,
)

commands = st.recursive(
    st.one_of(st.just(Skip()), st.builds(Assign, variables, expressions)),
    lambda inner: st.one_of(
        st.builds(Seq, inner, inner),
        st.builds(If, guards, inner, inner),
        st.builds(While, guards, inner),
    ),
    max_leaves=6,
)

programs = st.integers(1, 3).flatmap(lambda n: st.lists(commands, min_size=n, max_size=n)).map(
    lambda cmds: Program(tuple((f"t{i}", cmd) for i, cmd in enumerate(cmds)))
)

stores = st.dictionaries(variables, words).map(Store)
