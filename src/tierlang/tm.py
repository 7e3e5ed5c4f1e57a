"""Turing machines: a small spec format, a simulator, and a compiler
into safe tiered programs.

The compiled program keeps the machine state and the tape, split at the
head, in tier-0 variables ``State``, ``Left``, ``Right`` (``Left``
reversed, so both tape heads sit at position 0) and drives the
simulation with tier-1 clock loops over the untouched input variable.
One machine step becomes a cascade of conditionals that dispatches on
the letter under the head and then on the state code; blanks are never
stored beyond the written tape, they are read off the end of ``Right``
lazily.

A machine with clock degree ``k`` is assumed to halt within ``n^k``
steps on inputs of length ``n``; the compiled program executes
``2*n^k + 2`` step cascades, after which it rewinds the head so the
whole tape ends up in ``Right``.  Once a machine halts, further cascades
fall through without touching anything, so overshooting is harmless.
``simulate_tm`` runs the machine on one tape and a head index instead of
the compiled program's split tape, and is the independent oracle the
compiler is tested against.  ``compile_tm`` returns a
``CompiledProgram``: the safe source and the spec it was compiled from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

from .lang import (
    Assign,
    Command,
    If,
    OpCall,
    Seq,
    Skip,
    Tier,
    Var,
    While,
    Word,
    seq_all,
    word_literal,
)
from .ops import OPERATORS
from .parser import OpDecl, SourceFile, alphabet_letter

Move = str  # "R" | "L"
TransitionKey = tuple[str, str]  # (state, read letter)
TransitionValue = tuple[str, str, Move]  # (next state, written letter, move)


class TMFormatError(ValueError):
    pass


MAX_CLOCK_DEGREE = 1000  # compile_tm declares two counters per degree


@dataclass(frozen=True)
class TMSpec:
    """A deterministic one-tape machine with a polynomial clock degree."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    init: str
    halting: frozenset[str]
    clock_degree: int
    transitions: Mapping[TransitionKey, TransitionValue]

    def __post_init__(self) -> None:
        if not self.states:
            raise TMFormatError("a machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise TMFormatError("duplicate state names")
        for letter in self.alphabet:
            if len(letter) != 1:
                raise TMFormatError(f"tape letters are single characters, got {letter!r}")
            if letter in ("T", "F"):
                raise TMFormatError("tape letters T and F collide with the truth words")
        if len(self.blank) != 1 or self.blank in self.alphabet or self.blank in ("T", "F"):
            raise TMFormatError("the blank must be a fresh single character")
        for letter in (*self.alphabet, self.blank):
            if not alphabet_letter(letter):
                raise TMFormatError(f"tape letter {letter!r} cannot be spelled in a .tier alphabet")
        if self.init not in self.states:
            raise TMFormatError(f"initial state {self.init!r} is not a state")
        if not self.halting <= set(self.states):
            raise TMFormatError("halting states must be states")
        if self.clock_degree < 1:
            raise TMFormatError("clock degree must be at least 1")
        if self.clock_degree > MAX_CLOCK_DEGREE:
            raise TMFormatError(f"clock degree must be at most {MAX_CLOCK_DEGREE}")
        letters = (*self.alphabet, self.blank)
        for (state, read), (target, written, move) in self.transitions.items():
            if state not in self.states:
                raise TMFormatError(f"transition from unknown state {state!r}")
            if state in self.halting:
                raise TMFormatError(f"halting state {state!r} has a transition")
            if read not in letters:
                raise TMFormatError(f"transition reads unknown letter {read!r}")
            if target not in self.states:
                raise TMFormatError(f"transition to unknown state {target!r}")
            if written not in letters:
                raise TMFormatError(f"transition writes unknown letter {written!r}")
            if move not in ("R", "L"):
                raise TMFormatError(f"move must be R or L, got {move!r}")
        for state in self.states:
            if state in self.halting:
                continue
            for letter in letters:
                if (state, letter) not in self.transitions:
                    raise TMFormatError(
                        f"transition table is not total: no entry for ({state!r}, {letter!r})"
                    )

    def validate_input(self, word: Word) -> None:
        bad = sorted({c for c in word if c not in self.alphabet})
        if bad:
            raise ValueError(f"input letters outside the tape alphabet: {bad}")


def parse_tm(text: str) -> TMSpec:
    """Parse the ``.tm`` format: one ``states`` / ``alphabet`` / ``init``
    / ``halt`` / ``clock`` line each, an optional ``blank`` line
    (default ``B``), and one ``delta`` line per transition::

        states scan done
        alphabet 0 1
        init scan
        halt done
        clock 1
        delta scan 0 -> done 1 R

    ``#`` starts a comment.
    """
    states: tuple[str, ...] | None = None
    alphabet: tuple[str, ...] | None = None
    blank = "B"
    init: str | None = None
    halting: tuple[str, ...] | None = None
    clock: int | None = None
    transitions: dict[TransitionKey, TransitionValue] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, rest = fields[0], fields[1:]
        if keyword == "states":
            states = tuple(rest)
        elif keyword == "alphabet":
            alphabet = tuple(rest)
        elif keyword == "blank":
            if len(rest) != 1:
                raise TMFormatError(f"line {lineno}: blank takes exactly one letter")
            blank = rest[0]
        elif keyword == "init":
            if len(rest) != 1:
                raise TMFormatError(f"line {lineno}: init takes exactly one state")
            init = rest[0]
        elif keyword == "halt":
            halting = tuple(rest)
        elif keyword == "clock":
            if len(rest) != 1 or not rest[0].isdecimal():
                raise TMFormatError(f"line {lineno}: clock takes one integer degree")
            try:
                clock = int(rest[0])
            except ValueError:  # more digits than int() converts, so above the limit
                clock = MAX_CLOCK_DEGREE + 1
        elif keyword == "delta":
            if len(rest) != 6 or rest[2] != "->":
                raise TMFormatError(
                    f"line {lineno}: delta lines read 'delta STATE LETTER -> STATE LETTER MOVE'"
                )
            key = (rest[0], rest[1])
            if key in transitions:
                raise TMFormatError(f"line {lineno}: duplicate transition for {key}")
            transitions[key] = (rest[3], rest[4], rest[5])
        else:
            raise TMFormatError(f"line {lineno}: unknown section {keyword!r}")
    missing = [
        name
        for name, value in (
            ("states", states),
            ("alphabet", alphabet),
            ("init", init),
            ("halt", halting),
            ("clock", clock),
        )
        if value is None
    ]
    if missing:
        raise TMFormatError("missing sections: " + ", ".join(missing))
    assert states is not None and alphabet is not None and init is not None
    assert halting is not None and clock is not None
    return TMSpec(states, alphabet, blank, init, frozenset(halting), clock, transitions)


# --- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class TMResult:
    halted: bool
    tape: Word | None
    steps: int


def simulate_tm(spec: TMSpec, word: Word, max_steps: int = 1_000_000) -> TMResult:
    """Run the machine directly on one tape and a head index.

    The tape holds the input; a head that steps past its end adds a
    blank cell there, which the step then overwrites.  The head stays in
    place when it moves left from cell 0.  The reported tape is every
    materialized cell, with no blank stripping.
    """
    spec.validate_input(word)
    tape = list(word)
    head = 0
    state = spec.init
    steps = 0
    while state not in spec.halting:
        if steps >= max_steps:
            return TMResult(False, None, steps)
        if head == len(tape):
            tape.append(spec.blank)
        state, tape[head], move = spec.transitions[(state, tape[head])]
        head = head + 1 if move == "R" else max(head - 1, 0)
        steps += 1
    return TMResult(True, "".join(tape), steps)


# --- compilation ---------------------------------------------------------------

INPUT_VAR = "input"
STATE_VAR = "State"
LEFT_VAR = "Left"
RIGHT_VAR = "Right"


@dataclass(frozen=True)
class CompiledProgram:
    source: SourceFile
    spec: TMSpec
    input_var: ClassVar[str] = INPUT_VAR
    output_var: ClassVar[str] = RIGHT_VAR


def _state_codes(states: tuple[str, ...]) -> dict[str, str]:
    width = max(1, (len(states) - 1).bit_length())
    return {state: format(i, "b").zfill(width) for i, state in enumerate(states)}


def _op(name: str, *args) -> OpCall:
    return OpCall(name, tuple(args))


def _machine_step(spec: TMSpec, codes: Mapping[str, str]) -> Command:
    """One simulation step: dispatch on the read letter, then the state."""

    def branch(state: str, read: str) -> Command:
        target, written, move = spec.transitions[(state, read)]
        parts: list[Command] = [Assign(STATE_VAR, word_literal(codes[target]))]
        if move == "R":
            parts.append(Assign(LEFT_VAR, _op(f"suc_{written}", Var(LEFT_VAR))))
            parts.append(Assign(RIGHT_VAR, _op("pred", Var(RIGHT_VAR))))
        else:
            parts.append(Assign(RIGHT_VAR, _op(f"suc_{written}", _op("pred", Var(RIGHT_VAR)))))
            parts.append(Assign(RIGHT_VAR, _op("concat", _op("head", Var(LEFT_VAR)), Var(RIGHT_VAR))))
            parts.append(Assign(LEFT_VAR, _op("pred", Var(LEFT_VAR))))
        return seq_all(parts)

    def state_dispatch(read: str) -> Command:
        cascade: Command = Skip()
        live = [s for s in spec.states if s not in spec.halting]
        for state in reversed(live):
            cascade = If(
                _op(f"eq_{codes[state]}", Var(STATE_VAR)),
                branch(state, read),
                cascade,
            )
        return cascade

    read_cases: Command = Skip()
    for letter in reversed(spec.alphabet):
        read_cases = If(_op(f"eq_{letter}", Var(RIGHT_VAR)), state_dispatch(letter), read_cases)
    read_cases = If(_op(f"eq_{spec.blank}", Var(RIGHT_VAR)), state_dispatch(spec.blank), read_cases)
    return If(_op("eq_eps", Var(RIGHT_VAR)), state_dispatch(spec.blank), read_cases)


def _rewind_step() -> Command:
    """Move one materialized letter from Left back onto Right."""
    return If(
        _op("not", _op("eq_eps", Var(LEFT_VAR))),
        seq_all(
            (
                Assign(RIGHT_VAR, _op("concat", _op("head", Var(LEFT_VAR)), Var(RIGHT_VAR))),
                Assign(LEFT_VAR, _op("pred", Var(LEFT_VAR))),
            )
        ),
        Skip(),
    )


def _counting_nest(counters: list[str], body: Command) -> Command:
    """Nested loops running ``body`` once per tuple in ``|input|^k``."""
    out = body
    for counter in reversed(counters):
        out = seq_all(
            (
                Assign(counter, Var(INPUT_VAR)),
                While(_op("gt0", Var(counter)), Seq(Assign(counter, _op("sub1", Var(counter))), out)),
            )
        )
    return out


def compile_tm(spec: TMSpec) -> CompiledProgram:
    """Compile the machine into a one-thread safe program.

    The input stays in the tier-1 variable ``input`` and the output is
    the full materialized tape in ``Right`` after the rewind.
    """
    codes = _state_codes(spec.states)
    degree = spec.clock_degree
    step = _machine_step(spec, codes)
    rewind = _rewind_step()

    sim_counters = [f"sim_{i}" for i in range(1, degree + 1)]
    rew_counters = [f"rew_{i}" for i in range(1, degree + 1)]

    body = seq_all(
        (
            Assign(RIGHT_VAR, Var(INPUT_VAR)),
            Assign(STATE_VAR, word_literal(codes[spec.init])),
            _counting_nest(sim_counters, Seq(step, step)),
            step,
            step,
            _counting_nest(rew_counters, Seq(rewind, rewind)),
            _counting_nest(["rew_0"], rewind),
            rewind,
            rewind,
        )
    )

    var_tiers = [(INPUT_VAR, Tier.ONE)]
    var_tiers += [(c, Tier.ONE) for c in sim_counters + rew_counters + ["rew_0"]]
    var_tiers += [(STATE_VAR, Tier.ZERO), (LEFT_VAR, Tier.ZERO), (RIGHT_VAR, Tier.ZERO)]

    used_ops = sorted(
        {"eq_eps", "pred", "head", "concat", "not", "gt0", "sub1"}
        | {f"eq_{letter}" for letter in (*spec.alphabet, spec.blank)}
        | {f"eq_{code}" for code in codes.values()}
        | {f"suc_{written}" for (_, written, _) in spec.transitions.values()}
    )
    decls = []
    for name in used_ops:
        op = OPERATORS.resolve(name)
        decls.append(OpDecl(name, op.arity, "neutral" if op.is_neutral else "positive"))

    letters = sorted(set(spec.alphabet) | {spec.blank} | {"0", "1"})
    source = SourceFile(
        alphabet_letters=tuple(letters),
        op_decls=tuple(decls),
        var_tiers=tuple(sorted(var_tiers)),
        threads=(("machine", body),),
    )
    return CompiledProgram(source, spec)
