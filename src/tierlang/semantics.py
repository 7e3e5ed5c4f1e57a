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

Runs step a ``ControlTable``, which owns the step rules: every node a
command holds or can reach, expression or residual command, gets one
hash-consed id, a command's id being its slot; each slot, the first time
it is stepped, records the slots that follow and its redex's expression
as generated straight-line code, shared by every expression of the same
shape.  ``;`` is associative, so a slot that follows is the redex's
outcome before one right-nested continuation, and no step copies the
sequences around its redex.  A configuration is one flat state: the
words of the table's ``variables`` in order, then each thread's slot.
Functions read words by position, and ``ControlTable.advance``, the one
place the step rules fire, steps a thread's slot and writes its
assignments in such a state in place, up to a budget of steps, so a step
is a table lookup plus one operator call and no store is built;
``scheduling`` makes ``Store`` objects from a state only where a caller
reads one.  The same table lists each slot's successors for questions
that range over every store at once, such as subject reduction, and
``typecheck.type_table`` types its ids in one list.  A program builds
its table on first use, as ``Program.table``, and every later run,
exploration and walk of it reuses that table; one command runs as a
one-thread ``Program.single``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Sequence

from .lang import (
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


UNFOLD = "while-tt"  # the one rule that counts as a loop iteration


# --- control tables ----------------------------------------------------------------

DONE = -1  # the slot of a command that has terminated

# rule, next slot, other rule, other slot, assigned position, expression, redex id
_Entry = tuple[str, int, str, int, int | None, Callable[[Sequence], Word] | None, int]


_FACTORIES: dict[tuple, Callable] = {}  # an expression's shape -> its factory (``_generate``)


class ControlTable:
    """Every residual the step rules can reach from some commands.

    A slot is a statement list, one right-nested sequence of source
    statements, roots included, so a command has finitely many.  Every node,
    expression or command, is hash-consed to an int id in one numbering:
    its key is its kind and its children's ids (spans ignored), and nodes
    with equal keys share one id, so equal states compare as small ints
    and building a table never hashes or compares an AST node, however
    deep.  A command's id is its *slot*.  One reversed ``lang.walk`` pass
    per command interns its nodes children first, so children have lower
    ids than parents, residuals included.  A slot's step rules are
    compiled from the keys the first time a run steps it, and with them
    the function of its guard or assigned expression, once per distinct
    expression; a table that is only typed compiles none.

    ``roots[i]`` is the slot of the i-th command's statements, its ``{ }``
    groups flattened, and ``node_ids[i]`` the ids of its nodes, in reverse
    ``lang.walk`` order, its tree's id last; ``variables`` lists
    the names the commands read or assign, sorted, and ``nodes[i]``
    rebuilds id ``i`` (the first equal node seen, maybe another thread's).
    """

    def __init__(self, commands: Iterable[Command]):
        self.nodes: list[Expr | Command] = []  # id -> the first node seen
        # id -> its key: a variable's name, (op, *argument ids), or a
        # command's kind, its guard's or assigned expression's id if any,
        # then its child ids or the assigned variable
        self.keys: list[object] = []
        self._ids: dict[object, int] = {}  # key -> id
        self._entries: list[_Entry | None] = []  # id -> a command's step rules
        self._fns: dict[int, Callable[[Sequence], Word]] = {}  # expression id -> its function
        self._writes: dict[int, list[int]] = {}  # loop id -> the positions its body assigns
        self.node_ids: list[list[int]] = []
        # The ids of the nodes whose parent is still to come, the first
        # child on top; after the loop, the roots' ids.
        done: list[int] = []
        pop = done.pop
        for root in commands:
            ids: list[int] = []
            for node in reversed(list(walk(root))):  # each node after its children
                cls = node.__class__
                if cls is Var:
                    key: object = node.name
                elif cls is OpCall:
                    key = (node.op, *[pop() for _ in node.args])
                elif cls is Seq:
                    key = (Seq, pop(), pop())
                elif cls is If:
                    key = (If, pop(), pop(), pop())
                elif cls is While:
                    key = (While, pop(), pop())
                elif cls is Assign:
                    key = (Assign, pop(), node.var)
                else:
                    key = (Skip,)
                i = self._intern(key, node)
                done.append(i)
                ids.append(i)
            self.node_ids.append(ids)
        self.roots = tuple([self._then(root, DONE) for root in done])
        self.variables = tuple(sorted({key if key.__class__ is str else key[2] for key in self.keys
                                       if key.__class__ is str or key[0] is Assign}))

    def _intern(self, key: object, node: Expr | Command) -> int:
        """The id of ``node``, whose key is ``key``."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.nodes)
            self.nodes.append(node)
            self.keys.append(key)
            self._entries.append(None)
        return i

    def _then(self, first: int, rest: int) -> int:
        """The slot of ``first; rest`` (of ``first`` if ``rest`` is ``DONE``)
        with ``first``'s statements flattened into one right-nested sequence."""
        stack = [first]  # popped last statement first
        while stack:
            i = stack.pop()
            if self.keys[i][0] is Seq:
                stack += self.keys[i][1:]
            elif rest == DONE:
                rest = i
            else:
                key = (Seq, i, rest)
                j = self._ids.get(key)  # build a node only for a new key
                rest = self._intern(key, Seq(self.nodes[i], self.nodes[rest])) if j is None else j
        return rest

    def _compile(self, slot: int) -> _Entry:
        """The step rules at ``slot``, a statement list.  It steps at its redex,
        its first statement: the redex picks a rule (the true, then the false
        case for a guard) and leaves an outcome or nothing (``DONE``) before
        the statements after it."""
        keys = self.keys
        redex, rest = keys[slot][1:] if keys[slot][0] is Seq else (slot, DONE)
        key = keys[redex]
        kind = key[0]
        if kind is not Skip and key[1] not in self._fns:
            self._fns[key[1]] = self._generate(key[1])
        fn = None if kind is Skip else self._fns[key[1]]  # guard or assigned expression
        var = bisect_left(self.variables, key[2]) if kind is Assign else None
        if kind is If:
            outcomes = ("if-tt", self._then(key[2], rest), "if-ff", self._then(key[3], rest))
        elif kind is While:
            outcomes = (UNFOLD, self._then(key[2], slot), "while-ff", rest)
        else:
            outcomes = ("skip" if kind is Skip else "assign", rest) * 2
        return (*outcomes, var, fn, redex)

    def _generate(self, expr: int) -> Callable[[Sequence], Word]:
        """The function of the expression with id ``expr`` on a flat state
        ``s``.  One walk over its keys in evaluation order resolves a call's
        operator on entering it and checks its argument count on leaving it,
        after its arguments, left to right.  An unknown operator or a wrong
        count ends the walk, and the function raises a fresh copy of that
        error on any state.  Otherwise it is straight-line code with one
        line ``v<k> = a<k>(...)`` per distinct call, node k being the k-th
        the walk leaves (children first), so no depth costs Python stack.
        Node k's operator or variable position ``a<k>`` is an argument of
        the factory that ``exec`` makes once per process per *shape* (each
        node's argument indices), never source text, since a word literal's
        operator name is user text."""
        keys = self.keys
        at: dict[int, int] = {}  # id -> its node's index
        shape, bound = [], []  # per node: None or its arguments' indices; a<k>
        stack: list = [expr]  # ids to enter, and (operator, id) for calls to leave
        while stack:
            i = stack.pop()
            if i.__class__ is tuple:
                op, i = i
                args = keys[i][1:]
                if op.arity != len(args):
                    error = TypeError(f"{op.name} expects {op.arity} arguments, got {len(args)}")
                    break
                shape.append(tuple([at[a] for a in args]))
                bound.append(op.fn)
            elif i in at:
                continue
            elif keys[i].__class__ is str:
                shape.append(None)
                bound.append(bisect_left(self.variables, keys[i]))
            else:
                try:
                    stack.append((OPERATORS.resolve(keys[i][0]), i))
                except UnknownOperatorError as err:
                    error = err
                    break
                stack.extend(reversed(keys[i][1:]))
                continue
            at[i] = len(at)
        else:
            factory = _FACTORIES.get(tuple(shape))
            if factory is None:
                lines, text = [], []  # a line per call; each node's value in the source
                for k, args in enumerate(shape):
                    text.append(f"s[a{k}]" if args is None else f"v{k}")
                    if args is not None:
                        lines.append(f"  v{k} = a{k}({', '.join(text[a] for a in args)})\n")
                namespace: dict = {}
                exec(f"def factory({', '.join(f'a{k}' for k in range(len(shape)))}):\n"
                     f" def fn(s):\n{''.join(lines)}  return {text[-1]}\n return fn", namespace)
                factory = _FACTORIES[tuple(shape)] = namespace["factory"]
            return factory(*bound)

        def fail(s: Sequence) -> Word:
            raise type(error)(*error.args)
        return fail

    def successors(self, slot: int) -> tuple[int, ...]:
        """The slots that ``slot`` can step to in some store, ``DONE``
        included: both outcomes of a guard (a loop's unfold and exit), or
        the one next slot of a skip or an assignment."""
        entry = self._entries[slot]
        if entry is None:
            entry = self._entries[slot] = self._compile(slot)
        nxt, other = entry[1], entry[3]
        return (nxt,) if nxt == other else (nxt, other)

    def advance(self, cells: list, at: int, budget: int, mark: int = 0,
                saved: list | None = None) -> tuple[int, int, str, int | None]:
        """Step the command whose slot is ``cells[at]`` on the flat state
        ``cells``, in place, at most ``budget`` (at least 1) times: the
        steps taken, the loops unfolded, and the last step's rule and the
        position it assigned (``None`` if it assigned nothing).

        It stops when the command terminates (its slot is then ``DONE``),
        after ``budget`` steps, and at an unfolding that is the ``mark``-th
        of this call (0: at none) or that leaves ``cells`` equal to
        ``saved``: compared at the position it wrote last (the slot at
        first), then at those the loop's body assigns, then whole, so a
        loop that changes a word fails the test in O(1).
        A guard that is no truth word raises ``StuckGuardError`` with the
        steps before it written and ``cells[at]`` at the stuck command."""
        entries, writes = self._entries, self._writes
        slot = cells[at]
        taken = unfolded = 0
        wrote = at  # the position this call wrote last
        while True:
            entry = entries[slot]
            if entry is None:
                entry = entries[slot] = self._compile(slot)
            rule, nxt, other_rule, other, var, fn, redex = entry
            if fn is not None:
                value = fn(cells)
                if var is not None:
                    cells[var] = value
                    wrote = var
                elif value != TT:
                    if value != FF:
                        cells[at] = slot
                        raise StuckGuardError(self.nodes[redex], value)
                    rule, nxt = other_rule, other
            slot = nxt
            taken += 1
            if rule == UNFOLD:
                unfolded += 1
                if unfolded == mark:
                    break
                if saved is not None:
                    cells[at] = slot
                    if cells[wrote] == saved[wrote]:
                        for i in writes[redex] if redex in writes else self._writes_of(redex):
                            if cells[i] != saved[i]:
                                break
                        else:  # each as saved: compare the whole state
                            if cells == saved:
                                break
            elif slot == DONE:
                break
            if taken == budget:
                break
        cells[at] = slot
        return taken, unfolded, rule, var

    def _writes_of(self, loop: int) -> list[int]:
        """The positions the body of the loop with id ``loop`` assigns."""
        self._writes[loop] = found = sorted({
            bisect_left(self.variables, node.var)
            for node in walk(self.nodes[loop].body) if node.__class__ is Assign})
        return found


def run_sequential(store: Store, cmd: Command, fuel: int = 100_000, keep_trace: bool = True):
    """``cmd`` run as a one-thread program by ``run_with_scheduler``.

    Kept only for the benchmark in ``perfbench/``, its one caller, which
    also passes ``keep_trace``: it is accepted and ignored, as a run
    holds no trace and replays one when read.
    """
    from .scheduling import FirstAlive, run_with_scheduler  # it imports this module

    return run_with_scheduler(store, Program.single(cmd), FirstAlive(), fuel)
