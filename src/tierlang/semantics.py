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
a command can reach gets a hash-consed slot number, and each slot
records its redex's compiled expression and the slots that follow, so a
run state is a store plus one int per thread and a step is a table
lookup plus one operator call.  A step reads a store's bindings and
returns the assignment to make, which each caller writes into its own
state representation.  The same table lists each slot's
successors for questions that range over every store at once, such as
subject reduction.  A program builds its table on first use, as
``Program.table``, and every later run, exploration and walk of it
reuses that table; one command runs as a one-thread ``Program.single``.
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


_CLOSURE_DEPTH = 64  # nesting below this is evaluated by ``eval_expr``


def _compile_expr(expr: Expr, depth: int = 0) -> Callable[[_Bindings], Word]:
    """A closure that evaluates ``expr`` on a store's bindings.

    Operators are resolved once, here.  A call that cannot succeed (an
    unknown operator, a wrong argument count) is left to ``eval_expr``,
    so it raises the same error at the same step as before.  So is a
    call ``_CLOSURE_DEPTH`` levels down, so that nested closures never
    run deep enough to exhaust the Python stack.
    """
    if isinstance(expr, Var):
        name = expr.name
        return lambda b: b.get(name, EMPTY)
    if isinstance(expr, OpCall) and depth < _CLOSURE_DEPTH:
        try:
            op = OPERATORS.resolve(expr.op)
        except UnknownOperatorError:
            op = None
        if op is not None and op.arity == len(expr.args):
            fn = op.fn
            args = [_compile_expr(a, depth + 1) for a in expr.args]
            if not args:
                return lambda b: fn()
            if len(args) == 1:
                if isinstance(expr.args[0], Var):
                    name = expr.args[0].name
                    return lambda b: fn(b.get(name, EMPTY))
                (arg,) = args
                return lambda b: fn(arg(b))
            return lambda b: fn(*[a(b) for a in args])
    # eval_expr only reads the store, so wrapping the live dict is safe.
    return lambda b: eval_expr(Store._normalized(b), expr)


class ControlTable:
    """Every residual the step rules can reach from some commands.

    The step rules only build residuals as ``Seq(residual, rest)`` or
    ``Seq(body, loop)``, so a command has finitely many.  They are
    hash-consed: a node's slot number follows from its kind and its
    children's slots (spans ignored), so structurally equal residuals
    share one slot and equal states compare as small ints.  Guards and
    assigned expressions are hash-consed to int ids the same way, so
    building a table never hashes or compares an AST node, however deep.
    Slots are numbered children first and filled in on demand, the
    first time a run steps them.

    ``roots[i]`` is the slot of the i-th command, ``variables`` lists
    the names the commands read or assign, sorted, and ``commands[s]``
    rebuilds slot ``s`` (the first structurally equal node seen).
    """

    def __init__(self, commands: Iterable[Command]):
        self.commands: list[Command] = []
        self._entries: list[_Entry | None] = []
        self._slots: dict[tuple, int] = {}
        self._exprs: dict[object, int] = {}  # expression key -> expression id
        # id() -> slot (or expression id) for every node seen.  Once the
        # roots are interned only nodes under ``self.commands``, which the
        # table keeps alive, are looked up, so a freed id is never read.
        self._known: dict[int, int] = {}
        commands = tuple(commands)
        names: set[str] = set()
        self.roots = tuple(self._intern_tree(cmd, names) for cmd in commands)
        self.variables = tuple(sorted(names))

    def _intern(self, node: Command) -> int:
        """The slot of a node whose children are known."""
        known = self._known
        if isinstance(node, Seq):
            key: tuple = (Seq, known[id(node.first)], known[id(node.second)])
        elif isinstance(node, If):
            key = (If, known[id(node.guard)], known[id(node.then_branch)],
                   known[id(node.else_branch)])
        elif isinstance(node, While):
            key = (While, known[id(node.guard)], known[id(node.body)])
        elif isinstance(node, Assign):
            key = (Assign, node.var, known[id(node.expr)])
        else:
            key = (node.__class__,)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.commands)
            self.commands.append(node)
            self._entries.append(None)
            known[id(node)] = slot
        return slot

    def _intern_expr(self, node: Expr) -> int:
        """The id of an expression whose arguments are known."""
        if isinstance(node, OpCall):
            key: object = (node.op, *[self._known[id(arg)] for arg in node.args])
        else:
            key = node.name
        return self._exprs.setdefault(key, len(self._exprs))

    def _intern_tree(self, root: Command, names: set[str]) -> int:
        """The slot of ``root``; adds the names it reads or assigns to ``names``."""
        known = self._known
        stack: list[tuple[Command | Expr, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in known:
                continue
            if ready:
                is_expr = isinstance(node, Expr)
                known[id(node)] = self._intern_expr(node) if is_expr else self._intern(node)
                continue
            stack.append((node, True))
            if isinstance(node, Seq):
                stack += ((node.second, False), (node.first, False))
            elif isinstance(node, If):
                stack += ((node.else_branch, False), (node.then_branch, False), (node.guard, False))
            elif isinstance(node, While):
                stack += ((node.body, False), (node.guard, False))
            elif isinstance(node, Assign):
                names.add(node.var)
                stack.append((node.expr, False))
            elif isinstance(node, OpCall):
                stack += ((arg, False) for arg in reversed(node.args))
            elif isinstance(node, Var):
                names.add(node.name)
        return known[id(root)]

    def _compile(self, slot: int) -> _Entry:
        """The step rules at ``slot``.  A command steps at its redex, the
        first command down the left spine of its sequences: the redex
        picks a rule (the true, then the false case for a guard) and
        leaves a residual or nothing, which is plugged back into the
        sequences around it, innermost first."""
        context: list[Seq] = []
        redex = self.commands[slot]
        while isinstance(redex, Seq):
            context.append(redex)
            redex = redex.first
        var = None
        fn = None
        outcomes: tuple[tuple[str, Command | None], ...]
        if isinstance(redex, Skip):
            outcomes = (("skip", None),)
        elif isinstance(redex, Assign):
            outcomes = (("assign", None),)
            var = redex.var
            fn = _compile_expr(redex.expr)
        elif isinstance(redex, If):
            outcomes = (("if-tt", redex.then_branch), ("if-ff", redex.else_branch))
            fn = _compile_expr(redex.guard)
        elif isinstance(redex, While):
            outcomes = ((UNFOLD, Seq(redex.body, redex, redex.span)), ("while-ff", None))
            fn = _compile_expr(redex.guard)
        else:
            raise TypeError(f"not a command: {redex!r}")
        nexts: list[tuple[str, int]] = []
        for rule, residual in outcomes:
            for outer in reversed(context):
                if residual is None:
                    residual = outer.second
                else:
                    # A residual is rebuilt from kept nodes, so the table
                    # keeps everything under it alive.
                    first = self.commands[self._intern(residual)]
                    residual = self.commands[self._intern(Seq(first, outer.second, outer.span))]
            nexts.append((rule, DONE if residual is None else self._intern(residual)))
        (rule, nxt), (other_rule, other) = nexts[0], nexts[-1]
        return (rule, nxt, other_rule, other, var, fn, redex)

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
