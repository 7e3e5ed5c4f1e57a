"""Small-step operational semantics for commands.

Expressions evaluate in one go (operators are total, unbound variables
read as the empty word).  Commands step one atomic action at a time;
each step reports the innermost rule that fired and whether it unfolded
a loop with a true guard.  The count of such unfoldings, written
``loops`` throughout, is the measure the polynomial-bound harnesses
track: it only grows on genuine loop iterations, never on bookkeeping
steps.

Conditionals and loops demand an exact truth word (``T`` or ``F``) from
their guard; any other value is a hard error rather than a silent
default, so ill-formed guards surface immediately.

Runs step a ``ControlTable``, which owns the step rules: every residual
a command can reach gets a hash-consed slot number, each distinct
expression is compiled into one closure on the first step, and each
slot, the first time it is stepped, records its redex's closure and the
slots that follow.  So a run state is a store plus one int per thread
and a step is a table lookup plus one operator call.  A step reads a
store's bindings and returns the assignment to make, which each caller
writes into its own state representation.  The same table lists each
slot's successors for questions that range over every store at once,
such as subject reduction, and ``typecheck.type_table`` types its keys.
A program builds its table on first use, as ``Program.table``, and
every later run, exploration and walk of it reuses that table; one
command runs as a one-thread ``Program.single``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .lang import (
    EMPTY,
    FF,
    TT,
    Assign,
    Command,
    Expr,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Var,
    While,
    Word,
    walk,
)
from .ops import OPERATORS, UnknownOperatorError


class StuckGuardError(RuntimeError):
    """A conditional or loop guard evaluated to a non-truth word."""

    def __init__(self, cmd: Command, value: Word):
        super().__init__(f"guard evaluated to {value!r}, expected {TT!r} or {FF!r}")
        self.cmd = cmd
        self.value = value


def eval_expr(store: Store, expr: Expr) -> Word:
    """The word an expression denotes in the given store.

    An operator is resolved before its arguments are evaluated, left to
    right; an explicit stack keeps deep expressions off the Python stack.
    """
    values: list[Word] = []
    stack: list = [expr]  # expressions, and (operator, arity) exit entries
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            op, arity = node
            cut = len(values) - arity
            args = values[cut:]
            del values[cut:]
            values.append(op.apply(*args))
        elif isinstance(node, Var):
            values.append(store.lookup(node.name))
        elif isinstance(node, OpCall):
            stack.append((OPERATORS.resolve(node.op), len(node.args)))
            stack.extend(reversed(node.args))
        else:
            raise TypeError(f"not an expression: {node!r}")
    return values[0]


UNFOLD = "while-tt"  # the one rule that counts as a loop iteration


# --- control tables ----------------------------------------------------------------

DONE = -1  # the slot of a command that has terminated

_Bindings = dict[str, Word]
# rule, next slot, other rule, other slot, assigned variable, expression, redex
_Entry = tuple[str, int, str, int, str | None, Callable[[_Bindings], Word] | None, Command]


_CLOSURE_DEPTH = 64  # an expression whose closures would nest deeper is run by ``eval_expr``

_Closure = tuple[Callable[[_Bindings], Word], int]  # a closure and how deep its calls nest


def _closure(node: Var | OpCall, args: list[_Closure]) -> _Closure:
    """``node``'s closure on a store's bindings, from its arguments' closures.

    Operators are resolved here, once.  A call that cannot succeed (an
    unknown operator, a wrong argument count), or whose closures would
    nest more than ``_CLOSURE_DEPTH`` deep, is left to ``eval_expr``: it
    raises the same error at the same step, and a deep expression never
    exhausts the Python stack.
    """
    if node.__class__ is Var:
        name = node.name
        return (lambda b: b.get(name, EMPTY)), 1
    depth = 1 + max((nested for _, nested in args), default=0)
    try:
        op = OPERATORS.resolve(node.op)
    except UnknownOperatorError:
        op = None
    if op is None or op.arity != len(args) or depth > _CLOSURE_DEPTH:
        # eval_expr only reads the store, so wrapping the live dict is safe.
        return (lambda b: eval_expr(Store._normalized(b), node)), 1
    fn = op.fn
    if not args:
        return (lambda b: fn()), depth
    if len(args) == 1:
        if node.args[0].__class__ is Var:
            name = node.args[0].name
            return (lambda b: fn(b.get(name, EMPTY))), depth
        arg = args[0][0]
        return (lambda b: fn(arg(b))), depth
    fns = [arg for arg, _ in args]
    return (lambda b: fn(*[a(b) for a in fns])), depth


class ControlTable:
    """Every residual the step rules can reach from some commands.

    The step rules only build residuals as ``Seq(residual, rest)`` or
    ``Seq(body, loop)``, so a command has finitely many.  They are
    hash-consed: a node's key is its kind and its children's slots
    (spans ignored), and nodes with equal keys share one slot, so equal
    states compare as small ints.  Guards and assigned expressions are
    hash-consed to int ids the same way, so building a table never
    hashes or compares an AST node, however deep.  One reversed
    ``lang.walk`` pass per command interns its nodes children first, so
    children have lower numbers than parents, residuals included.
    The first step compiles each distinct expression once, from its
    arguments' closures, and a slot's step rules from the slot keys the
    first time a run steps it; a table that is only typed compiles none.

    ``roots[i]`` is the slot of the i-th command and ``node_ids[i]`` the
    ids of its nodes, in reverse ``lang.walk`` order; ``variables`` lists
    the names the commands read or assign, sorted, and ``commands[s]``
    rebuilds slot ``s`` (the first equal node seen, maybe another thread's).
    """

    def __init__(self, commands: Iterable[Command]):
        self.commands: list[Command] = []
        # slot -> its key: the kind, the guard's or assigned expression's id
        # if any, then the child slots or the assigned variable
        self.keys: list[tuple] = []
        self.exprs: list[str | tuple] = []  # expression id -> a name, or (op, *arg ids)
        self._eids: dict[object, int] = {}  # expression key -> expression id
        self._nodes: list[Expr] = []  # expression id -> the first node seen
        self._entries: list[_Entry | None] = []
        self._slots: dict[tuple, int] = {}
        self._closures: list[_Closure] = []  # expression id -> its closure
        self.node_ids: list[list[int]] = []
        # The ids of the nodes whose parent is still to come, the first
        # child on top; after the loop, the roots' slots.
        done: list[int] = []
        pop = done.pop
        for root in commands:
            ids: list[int] = []
            for node in reversed(list(walk(root))):  # each node after its children
                cls = node.__class__
                if cls is Seq:
                    key: object = (Seq, pop(), pop())
                elif cls is If:
                    key = (If, pop(), pop(), pop())
                elif cls is While:
                    key = (While, pop(), pop())
                elif cls is Assign:
                    key = (Assign, pop(), node.var)
                elif cls is Skip:
                    key = (Skip,)
                else:
                    key = node.name if cls is Var else (node.op, *[pop() for _ in node.args])
                if cls is Var or cls is OpCall:
                    i = self._eids.get(key)
                    if i is None:
                        i = self._eids[key] = len(self.exprs)
                        self.exprs.append(key)
                        self._nodes.append(node)
                else:
                    i = self._intern(key, node)
                done.append(i)
                ids.append(i)
            self.node_ids.append(ids)
        self.roots = tuple(done)
        self.variables = tuple(sorted({key for key in self.exprs if key.__class__ is str}
                                      | {key[2] for key in self.keys if key[0] is Assign}))

    def _intern(self, key: tuple, node: Command) -> int:
        """The slot of the command ``node``, whose key is ``key``."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.commands)
            self.commands.append(node)
            self.keys.append(key)
            self._entries.append(None)
        return slot

    def _seq(self, first: int, second: int, spanned: int) -> int:
        """The slot of ``first; second``, at the source position of ``spanned``."""
        commands = self.commands
        node = Seq(commands[first], commands[second], commands[spanned].span)
        return self._intern((Seq, first, second), node)

    def _compile(self, slot: int) -> _Entry:
        """The step rules at ``slot``.  A command steps at its redex, the
        first command down the left spine of its sequences: the redex
        picks a rule (the true, then the false case for a guard) and
        leaves a residual or nothing (``DONE``), which is plugged back
        into the sequences around it, innermost first."""
        closures = self._closures
        if not closures:  # the first step compiles every expression, in one pass
            for node, key in zip(self._nodes, self.exprs):
                closures.append(_closure(node, [] if node.__class__ is Var
                                         else [closures[i] for i in key[1:]]))
        keys = self.keys
        context: list[int] = []
        redex = slot
        while keys[redex][0] is Seq:
            context.append(redex)
            redex = keys[redex][1]
        key = keys[redex]
        kind = key[0]
        fn = None if kind is Skip else closures[key[1]][0]  # guard or assigned expression
        var = key[2] if kind is Assign else None
        outcomes: tuple[tuple[str, int], ...]
        if kind is Skip:
            outcomes = (("skip", DONE),)
        elif kind is Assign:
            outcomes = (("assign", DONE),)
        elif kind is If:
            outcomes = (("if-tt", key[2]), ("if-ff", key[3]))
        else:
            outcomes = ((UNFOLD, self._seq(key[2], redex, redex)), ("while-ff", DONE))
        nexts: list[tuple[str, int]] = []
        for rule, residual in outcomes:
            for outer in reversed(context):
                rest = keys[outer][2]
                residual = rest if residual == DONE else self._seq(residual, rest, outer)
            nexts.append((rule, residual))
        (rule, nxt), (other_rule, other) = nexts[0], nexts[-1]
        return (rule, nxt, other_rule, other, var, fn, self.commands[redex])

    def successors(self, slot: int) -> tuple[int, ...]:
        """The slots that ``slot`` can step to in some store, ``DONE``
        included: both outcomes of a guard (a loop's unfold and exit), or
        the one next slot of a skip or an assignment."""
        entry = self._entries[slot]
        if entry is None:
            entry = self._entries[slot] = self._compile(slot)
        nxt, other = entry[1], entry[3]
        return (nxt,) if nxt == other else (nxt, other)

    def step(self, slot: int, bindings: _Bindings) -> tuple[int, str, tuple[str, Word] | None]:
        """Fire the redex at ``slot`` on a store's bindings (nonempty words
        only, as in ``Store``): the next slot (``DONE`` once the command has
        terminated), the rule, and the assignment to make.  The caller
        writes the assignment into its own state."""
        entry = self._entries[slot]
        if entry is None:
            entry = self._entries[slot] = self._compile(slot)
        rule, nxt, other_rule, other, var, fn, redex = entry
        if fn is None:
            return nxt, rule, None
        value = fn(bindings)
        if var is not None:
            return nxt, rule, (var, value)
        if value == TT:
            return nxt, rule, None
        if value == FF:
            return other, other_rule, None
        raise StuckGuardError(redex, value)


def run_sequential(store: Store, cmd: Command, fuel: int = 100_000, keep_trace: bool = True):
    """``cmd`` run as a one-thread program by ``run_with_scheduler``.

    Kept only for the benchmark in ``perfbench/``, its one caller.
    """
    from .scheduling import FirstAlive, run_with_scheduler  # it imports this module

    return run_with_scheduler(store, Program.single(cmd), FirstAlive(), fuel, keep_trace)
