"""Core vocabulary for the tiered while-language.

Values are finite words over a fixed alphabet, encoded as plain Python
strings.  The truth values are the one-letter words ``T`` and ``F``.
Stores map variable names to words, commands form a small structured
language (skip, assignment, sequence, conditional, loop), and a program
is a finite set of named threads sharing one store.

Everything here is immutable and hashable so that configurations can be
used as keys during state-space exploration.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .semantics import ControlTable

Word = str

TT: Word = "T"
FF: Word = "F"
EMPTY: Word = ""

DEFAULT_LETTERS = frozenset({"0", "1", "T", "F"})


def unary(n: int) -> Word:
    """The unary encoding of a natural number: ``n`` copies of ``1``."""
    if n < 0:
        raise ValueError("unary encoding needs a natural number")
    return "1" * n


class Tier(enum.IntEnum):
    """The two-point information-flow lattice: ZERO below ONE.

    Tier ONE data may steer loops but can never grow; tier ZERO data may
    grow but must stay out of loop guards.
    """

    ZERO = 0
    ONE = 1

    def __str__(self) -> str:
        return str(int(self))


@dataclass(frozen=True)
class Alphabet:
    """A finite, nonempty set of one-character letters."""

    letters: frozenset[str]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        for letter in self.letters:
            if len(letter) != 1:
                raise ValueError(f"alphabet letters are single characters, got {letter!r}")
        object.__setattr__(self, "_sorted", tuple(sorted(self.letters)))  # sorted once

    def sorted_letters(self) -> tuple[str, ...]:
        return self._sorted


DEFAULT_ALPHABET = Alphabet(DEFAULT_LETTERS)


class Span(NamedTuple):
    """A source position (1-based line and column) for diagnostics; a
    named tuple, the cheapest immutable record to build per node."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# --- expressions ----------------------------------------------------------


class Expr:
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OpCall(Expr):
    """An operator applied to argument expressions.

    Word literals and the truth constants are zero-argument calls: the
    literal ``"01"`` uses the operator name ``"01"`` including quotes,
    and ``tt`` / ``ff`` use their own names.
    """

    op: str
    args: tuple[Expr, ...] = ()
    span: Span | None = field(default=None, compare=False, repr=False)


def word_literal(word: Word, span: Span | None = None) -> OpCall:
    return OpCall('"' + word + '"', (), span)


# --- commands -------------------------------------------------------------


class Command:
    """Base class for commands."""

    __slots__ = ()


@dataclass(frozen=True)
class Skip(Command):
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Assign(Command):
    var: str
    expr: Expr
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Seq(Command):
    first: Command
    second: Command
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class If(Command):
    guard: Expr
    then_branch: Command
    else_branch: Command
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class While(Command):
    guard: Expr
    body: Command
    span: Span | None = field(default=None, compare=False, repr=False)


def seq_all(commands: Iterable[Command]) -> Command:
    """Right-nested sequence of the given commands; empty gives skip."""
    items = list(commands)
    if not items:
        return Skip()
    out = items[-1]
    for cmd in reversed(items[:-1]):
        out = Seq(cmd, out)
    return out


def walk(node: Expr | Command) -> Iterator[Expr | Command]:
    """Every expression and command node of a tree, in pre-order.

    A node comes before its children, and children come in field order:
    an assignment before its expression, an ``if`` guard before its then
    and else branches, a loop guard before its body, operator arguments
    left to right.  An explicit stack keeps deep trees off the Python
    stack.
    """
    stack: list[Expr | Command] = [node]
    while stack:
        node = stack.pop()
        yield node
        cls = node.__class__  # exact classes: the node types are never subclassed
        if cls is OpCall:
            stack.extend(reversed(node.args))
        elif cls is Assign:
            stack.append(node.expr)
        elif cls is Seq:
            stack += (node.second, node.first)
        elif cls is If:
            stack += (node.else_branch, node.then_branch, node.guard)
        elif cls is While:
            stack += (node.body, node.guard)
        elif cls is not Var and cls is not Skip:
            raise TypeError(f"not an AST node: {node!r}")


def free_vars(node: Expr | Command | "Program") -> frozenset[str]:
    """Variable names occurring in an expression, command, or program."""
    roots = [cmd for _, cmd in node.threads] if isinstance(node, Program) else [node]
    out: set[str] = set()
    for root in roots:
        for item in walk(root):
            if isinstance(item, Var):
                out.add(item.name)
            elif isinstance(item, Assign):
                out.add(item.var)
    return frozenset(out)


# --- stores ---------------------------------------------------------------


class Store:
    """An immutable map from variable names to words.

    Unbound variables read as the empty word, and bindings to the empty
    word are normalized away, so two stores that agree on every lookup
    compare (and hash) equal.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Word] | Iterable[tuple[str, Word]] | None = None):
        data: dict[str, Word] = {}
        if bindings is not None:
            items = bindings.items() if isinstance(bindings, Mapping) else bindings
            for name, word in items:
                if word:
                    data[name] = word
        object.__setattr__(self, "_bindings", data)

    @classmethod
    def _normalized(cls, data: dict[str, Word]) -> Store:
        """Wrap a dict that already holds no empty words, skipping the
        normalizing copy; the store takes ownership of ``data``."""
        store = object.__new__(cls)
        _set_bindings(store, data)
        return store

    @classmethod
    def of(cls, **bindings: Word) -> Store:
        return cls(bindings)

    def lookup(self, var: str) -> Word:
        return self._bindings.get(var, EMPTY)

    def _rebound(self, var: str, word: Word) -> Store:
        """This store with ``var`` bound to ``word``; a dict that lost a
        key by ``pop`` would keep its slot, so an empty word rebuilds it."""
        if word:
            data = self._bindings.copy()
            data[var] = word
        else:
            data = {name: kept for name, kept in self._bindings.items() if name != var}
        return Store._normalized(data)

    def restrict(self, variables: Iterable[str]) -> Store:
        keep = set(variables)
        return Store._normalized({k: v for k, v in self._bindings.items() if k in keep})

    def items(self) -> list[tuple[str, Word]]:
        return sorted(self._bindings.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"Store({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Store is immutable")


# The slot setter that bypasses the immutability guard in ``__setattr__``.
_set_bindings = Store._bindings.__set__  # type: ignore[attr-defined]


# --- programs -------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A finite set of named threads, each a command over the shared store.

    Threads are kept sorted by name so that equal programs compare equal
    regardless of construction order.  ``table`` is the program's one
    ``ControlTable``, built the first time a check, run or walk asks for it.
    """

    threads: tuple[tuple[str, Command], ...]

    def __post_init__(self) -> None:
        names = [tid for tid, _ in self.threads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate thread names: {names}")
        ordered = tuple(sorted(self.threads))
        object.__setattr__(self, "threads", ordered)

    @classmethod
    def of(cls, threads: Mapping[str, Command]) -> Program:
        return cls(tuple(threads.items()))

    @classmethod
    def single(cls, command: Command) -> Program:
        return cls((("main", command),))

    @functools.cached_property
    def table(self) -> ControlTable:
        from .semantics import ControlTable  # it imports this module

        return ControlTable(cmd for _, cmd in self.threads)

    @functools.cached_property
    def positions(self) -> dict[str, int]:
        """Each thread's index in a flat state, after the words of
        ``table.variables``; the keys are the thread ids in name order."""
        return {tid: i for i, (tid, _) in enumerate(self.threads, len(self.table.variables))}

    def thread_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.threads)

    def command(self, tid: str) -> Command:
        for name, cmd in self.threads:
            if name == tid:
                return cmd
        raise KeyError(tid)

