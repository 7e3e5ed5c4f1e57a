"""Operator library: total word functions with growth-class metadata.

Operators come in three classes:

* ``neutral-predicate``: every output is one of the truth words.
* ``neutral-subword``: every output is a contiguous factor of one of the
  inputs.
* ``positive``: output length is bounded by the longest input plus a
  fixed constant (the ``growth`` field).

Every neutral operator is positive with constant 0; the class recorded
here is the strongest claim the operator honestly satisfies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .lang import FF, TT, Word

NEUTRAL_PREDICATE = "neutral-predicate"
NEUTRAL_SUBWORD = "neutral-subword"
POSITIVE = "positive"

CLASSES = (NEUTRAL_PREDICATE, NEUTRAL_SUBWORD, POSITIVE)


class DuplicateOperatorError(ValueError):
    pass


class UnknownOperatorError(KeyError):
    pass


@dataclass(frozen=True)
class OperatorDef:
    """A named total function on words together with its growth class."""

    name: str
    arity: int
    fn: Callable[..., Word]
    kind: str
    growth: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CLASSES:
            raise ValueError(f"unknown operator class {self.kind!r}")
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if self.growth < 0:
            raise ValueError("growth constant must be nonnegative")
        if self.kind != POSITIVE and self.growth != 0:
            raise ValueError("neutral operators have growth constant 0")

    @property
    def is_neutral(self) -> bool:
        return self.kind != POSITIVE


# --- the builtin library ---------------------------------------------------


def _first_digit(word: Word) -> Word:
    """The first letter of a word, with truth values read as binary digits."""
    if not word:
        return ""
    head = word[0]
    if head == TT:
        return "1"
    if head == FF:
        return "0"
    return head


def _pred(u: Word) -> Word:
    return u[1:]


def _head(u: Word) -> Word:
    return u[:1]


def _erase(u: Word) -> Word:
    return ""


def _nonempty(u: Word) -> Word:
    return TT if u else FF


def _negate(u: Word) -> Word:
    return TT if u == FF else FF


def _is_empty(u: Word) -> Word:
    return TT if u == "" else FF


def _equal(u: Word, v: Word) -> Word:
    return TT if u == v else FF


def _not_equal(u: Word, v: Word) -> Word:
    return TT if u != v else FF


def _either(u: Word, v: Word) -> Word:
    return TT if u == TT or v == TT else FF


def _both(u: Word, v: Word) -> Word:
    return TT if u == TT and v == TT else FF


def _bit(u: Word) -> Word:
    return TT if _first_digit(u) == "1" else FF


def _carry(u: Word, v: Word, w: Word) -> Word:
    ones = sum(_first_digit(x) == "1" for x in (u, v, w))
    return TT if ones >= 2 else FF


def _bitsum(u: Word, v: Word, w: Word) -> Word:
    ones = sum(_first_digit(x) == "1" for x in (u, v, w))
    return TT if ones % 2 == 1 else FF


def _concat(u: Word, v: Word) -> Word:
    return _first_digit(u) + v


def _add_one(u: Word) -> Word:
    return "1" + u


_NOT_A_DIGIT = re.compile("[^01]")


def _binary_dec(u: Word) -> Word:
    """``u`` minus one in binary, at its width (zero stays zero): the
    last 1 borrows from the 0s after it."""
    u = _NOT_A_DIGIT.sub("0", u) if u.strip("01") else u
    head = u.rstrip("0")
    return head[:-1] + "0" + "1" * (len(u) - len(head)) if head else u


def _binary_inc(u: Word) -> Word:
    """``u`` plus one in binary, one digit wider when it is all 1s: the
    last 0 takes the carry of the 1s after it."""
    u = _NOT_A_DIGIT.sub("0", u) if u.strip("01") else u
    head = u.rstrip("1")
    return (head[:-1] if head else "") + "1" + "0" * (len(u) - len(head))


def builtins() -> tuple[OperatorDef, ...]:
    """The fixed operator library (word-family operators are resolved on
    demand by the registry and are not listed here)."""
    return (
        OperatorDef("pred", 1, _pred, NEUTRAL_SUBWORD),
        OperatorDef("head", 1, _head, NEUTRAL_SUBWORD),
        OperatorDef("sub1", 1, _pred, NEUTRAL_SUBWORD),
        OperatorDef("zero", 1, _erase, NEUTRAL_SUBWORD),
        OperatorDef("gt0", 1, _nonempty, NEUTRAL_PREDICATE),
        OperatorDef("not", 1, _negate, NEUTRAL_PREDICATE),
        OperatorDef("eq_eps", 1, _is_empty, NEUTRAL_PREDICATE),
        OperatorDef("bit", 1, _bit, NEUTRAL_PREDICATE),
        OperatorDef("eq", 2, _equal, NEUTRAL_PREDICATE),
        OperatorDef("neq", 2, _not_equal, NEUTRAL_PREDICATE),
        OperatorDef("or", 2, _either, NEUTRAL_PREDICATE),
        OperatorDef("and", 2, _both, NEUTRAL_PREDICATE),
        OperatorDef("carry", 3, _carry, NEUTRAL_PREDICATE),
        OperatorDef("bitsum", 3, _bitsum, NEUTRAL_PREDICATE),
        OperatorDef("tt", 0, lambda: TT, NEUTRAL_PREDICATE),
        OperatorDef("ff", 0, lambda: FF, NEUTRAL_PREDICATE),
        OperatorDef("add1", 1, _add_one, POSITIVE, growth=1),
        OperatorDef("concat", 2, _concat, POSITIVE, growth=1),
        OperatorDef("bdec", 1, _binary_dec, POSITIVE, growth=0),
        OperatorDef("binc", 1, _binary_inc, POSITIVE, growth=1),
    )


def _family_member(name: str) -> OperatorDef | None:
    """Resolve the word-indexed operator families.

    ``eq_<w>`` tests whether ``<w>`` is a prefix of the argument,
    ``suc_<w>`` prepends ``<w>``, and a double-quoted name is a word
    constant.  ``eq_eps`` is taken by the builtin emptiness test before
    this is consulted.
    """
    if len(name) >= 2 and name.startswith('"') and name.endswith('"'):
        word = name[1:-1]
        return OperatorDef(name, 0, lambda w=word: w, POSITIVE, growth=len(word))
    if name.startswith("eq_") and len(name) > 3:
        word = name[3:]
        return OperatorDef(name, 1, lambda u, w=word: TT if u.startswith(w) else FF,
                           NEUTRAL_PREDICATE)
    if name.startswith("suc_") and len(name) > 4:
        word = name[4:]
        return OperatorDef(name, 1, lambda u, w=word: w + u, POSITIVE, growth=len(word))
    return None


class Registry:
    """Name-to-operator resolution with support for the word families.

    The definitions are fixed at construction (a repeated name is
    rejected); resolution afterwards only adds family members, which are
    cached beside them.
    """

    def __init__(self, defs: tuple[OperatorDef, ...]):
        self._ops: dict[str, OperatorDef] = {}
        for op in defs:
            if op.name in self._ops:
                raise DuplicateOperatorError(f"operator {op.name!r} already registered")
            self._ops[op.name] = op

    def resolve(self, name: str) -> OperatorDef:
        op = self._ops.get(name)
        if op is None:
            op = _family_member(name)
            if op is None:
                raise UnknownOperatorError(name)
            self._ops[name] = op
        return op


OPERATORS = Registry(builtins())  # the one library, shared by the whole process


def default_registry() -> Registry:
    """The shared library ``OPERATORS``; every call returns the same instance."""
    return OPERATORS
