"""Multi-threaded execution: global steps, schedulers, and exploration.

A global configuration is one flat state: the words of the program's
free variables (``table.variables``), then one control slot per thread.
The slots index ``Program.table``, the program's one ``ControlTable``
(see ``semantics``), which hash-conses every residual command, and a
thread whose slot is ``DONE`` has terminated.  One global step picks a
live thread and advances it one atomic step.  The ``loops`` counter
accumulates loop unfoldings across all threads and the ``steps``
counter counts global steps, so ``loops <= steps`` always.

``run_with_scheduler`` steps a flat state in place, one list that ends
with the scheduler's state, and ``step_global`` copies a state into a
new tuple for ``explore``.  ``Store`` objects are built from a state
only at the edges (a run's result, the store passed at each choice to
a scheduler that reads one, the terminal stores of ``explore``), each
with the input's bindings of the variables the program never mentions.
A trace builds none from a state: an entry after a step that assigned
has the store before it with that one binding changed.

Schedulers are deterministic: one method, ``Scheduler.picks``, gives
the choices over the live thread ids as a lazy iterator from private
state, reading the store if the scheduler's ``reads`` declares it.
The built-in three declare that they read nothing: they are passed
``None`` in place of a store, so a run builds none for them.
A scheduler is *quiet* when its choice never depends on tier-0 data.
One that reads nothing is quiet by construction; for one that reads
the store, ``quietness_test`` asks for each choice of a run twice, on
two stores that differ only in their tier-0 words, and compares the
answers.  A scheduler is only asked while two or more threads are
live: with one left the choice is forced, reads no data, and so is
quiet under every policy.  ``run_with_scheduler`` is the one run loop,
so one command runs as a one-thread program.  A run's ``choices`` (a
``Choices``) iterate over the ids chosen, one per step, kept as a lasso
that ends in a skipped period or a lone thread's id.  A run holds no
trace: ``ScheduledRun.trace()`` replays its first ``TRACE_CAP`` steps
from its input store and its choices each time it is read.  Every step
is taken by ``ControlTable.advance``; a replay and ``explore`` take one
step per call.  A run has two phases.  While two or more threads are
live, the run takes its choices among them from ``picks``, whatever
the scheduler's ``reads``, and one call steps them in a block, up to
the rest of the fuel; a lone thread's call also takes up to the rest
of the fuel.  Either call stops early where a thread finishes or
Brent's check has work.
A run whose list repeats, under a *pure* scheduler or once the scheduler is no
longer asked, is periodic from then on: Brent's cycle detection finds
the repeat, and the run skips whole periods towards the fuel bound.

``explore`` builds the graph of flat states over every interleaving up
to bounded depth, then one forward pass in topological order finds a
cycle (a non-terminating schedule) or else the longest terminating
counts.  A thread's slot is its statement list, and equal lists share
a slot, whatever ``{ }`` groups or step built them, so memoizing on flat
states is memoizing on the store and each thread's statements, equal up
to the associativity of ``;``; ``visited_states`` counts those.
"""

from __future__ import annotations

import copy
import itertools
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lang import Alphabet, DEFAULT_ALPHABET, Program, Store, Tier, Word
from .semantics import DONE, UNFOLD, ControlTable, StuckGuardError

TRACE_CAP = 10_000  # the most steps a trace replays
_FINISHED = Program(())  # the residual of every run that finished


def step_global(table: ControlTable, state: tuple, index: int) -> tuple[tuple, str]:
    """Advance thread ``index`` of a flat state (the words of
    ``table.variables``, then one slot per thread) one step: a new state
    tuple and the rule that fired."""
    cells = list(state)
    rule = table.advance(cells, len(table.variables) + index, 1)[2]
    return tuple(cells), rule


def _flat(table: ControlTable, store: Store) -> tuple[list, dict[str, Word]]:
    """The flat state of ``table``'s roots in ``store``, and ``outside``:
    the bindings of ``store`` to variables the table never mentions."""
    outside = store._bindings.copy()
    for name in table.variables:
        outside.pop(name, None)
    return [*map(store.lookup, table.variables), *table.roots], outside


def _store(names: tuple[str, ...], state: Sequence, outside: dict[str, Word]) -> Store:
    """The store of a flat state whose words are those of ``names``, with
    ``outside``: the bindings of the variables the program never mentions."""
    data = {name: word for name, word in zip(names, state) if word}
    data.update(outside)
    return Store._normalized(data)


# --- schedulers ---------------------------------------------------------------


class Scheduler:
    """Deterministic thread choice with private state.

    ``picks(tids, state, store)`` is the policy: the ``(id, state)``
    pairs it chooses among the live ids ``tids`` (sorted by name, never
    empty), one after the other from ``state``, while ``tids`` stay
    live.  Each pair is made when it is taken, never ahead, and the
    first pair of ``picks(tids, s, store)`` is the next choice from
    state ``s``: a run asks for a new iterator whenever the live threads
    change, and takes its pairs as it steps, in blocks.

    ``reads`` declares what ``picks`` reads besides the live ids and its
    state: ``"store"`` (the default), the store of the configuration it
    chooses in, or ``None``, nothing.  ``picks`` is handed a function
    that builds that store as it is when called, or else ``None``, so a
    scheduler that reads nothing is quiet by construction and a run
    builds no store for it.

    ``pure`` claims that ``picks`` is a function of its arguments alone
    and that the state is an immutable value compared by ``==``; it lets
    ``run_with_scheduler`` skip the periods of a repeating run while two
    or more threads are live.
    """

    name = "scheduler"
    reads: str | None = "store"
    pure = False

    def fresh_state(self) -> object:
        return None

    def picks(self, tids: tuple[str, ...], state: object,
              store: Callable[[], Store] | None) -> Iterator[tuple[str, object]]:
        raise NotImplementedError


class RoundRobin(Scheduler):
    """Cycle through live threads in name order."""

    name = "round-robin"
    reads = None
    pure = True

    def picks(self, tids: tuple[str, ...], state: object, store: None) -> Iterator[tuple[str, object]]:
        if isinstance(state, str):  # start after the last choice
            first = bisect_right(tids, state) % len(tids)
            tids = tids[first:] + tids[:first]
        return itertools.cycle(zip(tids, tids))  # each id is its own state


class FirstAlive(Scheduler):
    """Always run the alphabetically first live thread.

    Deterministic and quiet but unfair: it starves every other thread
    while its favorite can still move.
    """

    name = "first-alive"
    reads = None
    pure = True

    def picks(self, tids: tuple[str, ...], state: object, store: None) -> Iterator[tuple[str, object]]:
        return itertools.repeat((tids[0], None))


class SeededRandom(Scheduler):
    """Pseudo-random choice from a seed; quiet because it reads no store.
    Not pure: the state is a mutable generator that changes with every
    choice, so a run skips periods only once one thread is left."""

    name = "random"
    reads = None
    pure = False

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fresh_state(self) -> object:
        return random.Random(self.seed)

    def picks(self, tids: tuple[str, ...], state: object, store: None) -> Iterator[tuple[str, object]]:
        assert isinstance(state, random.Random)
        # One draw per pair taken: ``zip`` asks ``map`` for a pair's id first.
        return zip(map(state.choice, itertools.repeat(tids)), itertools.repeat(state))


def named_schedulers(seed: int = 0) -> dict[str, Scheduler]:
    return {
        "round-robin": RoundRobin(),
        "first-alive": FirstAlive(),
        "random": SeededRandom(seed),
    }


# --- scheduled runs --------------------------------------------------------------


class GlobalTraceStep(NamedTuple):
    """A trace's step.  Its ``store`` is the one before it, or after an
    assignment that store with the ``assigned`` binding changed."""

    index: int
    thread: str
    rule: str
    loops: int
    assigned: tuple[str, Word] | None
    store: Store


@dataclass(frozen=True, eq=False)
class Choices:
    """The thread ids a scheduled run chose, one per step, as a lasso:
    ``prefix``, then ``cycle`` over and over, cut off after ``length``
    ids.

    A run that skips whole periods keeps one copy of the period, and a
    lone thread's forced steps are its id as a one-id cycle, so choices
    cost memory for the choices the scheduler made, not for the steps.
    Two ``Choices`` are equal when they hold the same ids in the same
    order, however they are split, and both tests cost
    O(|prefix| + |cycle|) ids, however many laps there are.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...] = ()
    length: int = 0  # the ids after the prefix

    def __len__(self) -> int:
        return len(self.prefix) + self.length

    def __iter__(self):
        laps = itertools.cycle(self.cycle)
        return itertools.chain(self.prefix, itertools.islice(laps, self.length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Choices):
            return NotImplemented
        # Past both prefixes each side repeats its cycle, so by Fine and
        # Wilf's theorem sides that agree on as many ids again as the two
        # cycles hold agree on all.
        window = max(len(self.prefix), len(other.prefix)) + len(self.cycle) + len(other.cycle)
        return len(self) == len(other) and (
            tuple(itertools.islice(self, window)) == tuple(itertools.islice(other, window)))

    def __hash__(self) -> int:
        # The polynomial hash of the ids, a function of the ids alone: a
        # lap multiplies what comes before it by ``shift``, so whole laps
        # sum as a geometric series.
        laps, rest = divmod(self.length, len(self.cycle)) if self.cycle else (0, 0)
        shift = pow(_BASE, len(self.cycle), _MOD)
        after = pow(shift, laps, _MOD)
        series = laps if shift == 1 else (after - 1) * pow(shift - 1, -1, _MOD)
        folded = _fold(self.prefix) * after + _fold(self.cycle) * series
        return _fold(self.cycle[:rest], folded % _MOD)


_BASE, _MOD = 1_000_003, (1 << 61) - 1  # a Mersenne prime, so ``shift - 1`` has an inverse


def _fold(ids: Iterable[str], folded: int = 0) -> int:
    """``folded`` extended by ``ids`` in the hash of ``Choices``."""
    for tid in ids:
        folded = (folded * _BASE + hash(tid)) % _MOD
    return folded


@dataclass(frozen=True)
class ScheduledRun:
    store: Store
    residual: Program  # each live thread's statement list, nested to the right
    steps: int
    loops: int
    finished: bool
    choices: Choices
    start: Store = field(repr=False, compare=False)  # the input store
    program: Program = field(repr=False, compare=False)

    def trace(self) -> Iterator[GlobalTraceStep]:
        """The run's first ``TRACE_CAP`` steps, replayed from its input
        store and its choices as they are read; each call starts anew."""
        table, store = self.program.table, self.start
        cells = _flat(table, store)[0]
        names = table.variables
        at = self.program.positions
        advance = table.advance
        loops = 0
        for steps, tid in enumerate(itertools.islice(self.choices, TRACE_CAP), 1):
            _, unfolded, rule, var = advance(cells, at[tid], 1)
            loops += unfolded
            assigned = None if var is None else (names[var], cells[var])
            if assigned is not None:
                store = store._rebound(*assigned)
            yield GlobalTraceStep(steps, tid, rule, loops, assigned, store)


def run_with_scheduler(
    store: Store,
    program: Program,
    scheduler: Scheduler,
    fuel: int = 100_000,
    keep_trace: bool = False,
) -> ScheduledRun:
    """Drive the pool with the scheduler until it empties or fuel runs out.

    Once one thread is left every choice is forced, so the scheduler is
    not asked again: its state stays as it was, and the run records no
    id per forced step; its ``choices`` end with that thread's id as a
    cycle of one.  From then on, and under a pure scheduler from the
    start, a run that revisits a configuration skips ahead by whole
    periods; steps, loops and choices are those of stepping to the fuel
    bound.  While two or more threads are live, the scheduler's ``picks``
    for them, handed a builder of the current store if it ``reads`` one,
    are stepped by ``ControlTable.advance`` in blocks until a thread
    finishes.  A block, and a lone thread's call, hands back to this
    loop at each unfolding where Brent's check has work.  The run holds
    no trace; its ``trace()`` replays one when read.  ``keep_trace`` is
    accepted and ignored, for the benchmark in ``perfbench/`` that still
    passes it.
    """
    table = program.table
    names = table.variables
    cells, outside = _flat(table, store)  # the flat state, stepped in place,
    cells.append(scheduler.fresh_state())  # and the scheduler's state as its last cell
    at = program.positions  # each thread's index in ``cells``
    live = tuple(at)
    advance = table.advance
    view = None if scheduler.reads is None else lambda: _store(names, cells, outside)
    steps = loops = 0
    choices: list[str] = []  # one per step while two or more threads are live
    tid = ""
    # After a skip with more than one thread live, ``choices[start:end]``
    # is the period, repeated from ``start`` to the end of the run.
    period: tuple[int, int] | None = None
    # Brent's cycle detection on the configurations right after a loop
    # unfolds, since every cycle unfolds some loop: the checkpoint moves
    # to the live configuration at the 1st, 2nd, 4th, 8th, ... unfolding.
    # ``mark`` is the next such loop count, and 0 while detection is off
    # (under a scheduler that is not pure, until one thread is left).
    # The checkpoint is a copy of ``cells`` (at first none, as no slot is
    # None), its steps and loops.  A call of ``advance`` returns at an
    # unfolding only where this test has work or the fuel runs out.
    mark = 1 if scheduler.pure or len(live) == 1 else 0
    saved, saved_steps, saved_loops = [None] * len(cells), 0, 0
    picks = None  # the scheduler's choices among ``live``, taken as the run steps
    while live and steps < fuel:
        if len(live) == 1:
            tid = live[0]
            taken, unfolded, rule, _ = advance(cells, at[tid], fuel - steps, mark and mark - loops, saved)
        else:
            if picks is None:
                picks = scheduler.picks(live, cells[-1], view)
            taken, unfolded, rule, _ = advance(cells, 0, fuel - steps, mark and mark - loops,
                                               saved, picks, at, choices)
            tid = choices[-1]
        steps += taken
        loops += unfolded
        if cells[at[tid]] == DONE:
            live, picks = tuple([t for t in live if t != tid]), None
            if len(live) == 1 and not mark:
                mark = loops + 1
        if not (mark and rule == UNFOLD):
            continue
        if cells == saved:
            length, gained = steps - saved_steps, loops - saved_loops
            repeats = (fuel - steps) // length
            # A repeat keeps the live threads, so a period is all forced,
            # or all chosen like every step before it, and then a step
            # count is an index into ``choices``.
            if len(live) > 1:
                period = (saved_steps, steps)
            steps += repeats * length
            loops += repeats * gained
            mark = 0
        elif loops == mark:
            saved, saved_steps, saved_loops = cells[:], steps, loops
            mark *= 2
    choices.append(tid)  # unless a period was skipped, the cycle: the forced steps' thread
    start, end = period or (len(choices) - 1, len(choices))
    ran = Choices(tuple(choices[:start]), tuple(choices[start:end]), steps - start)
    residual = Program(tuple((t, table.nodes[cells[at[t]]]) for t in live)) if live else _FINISHED
    return ScheduledRun(_store(names, cells, outside), residual, steps, loops, not live, ran,
                        store, program)


def dump_global_trace(run: ScheduledRun) -> Iterator[str]:
    """The lines of a run's trace as TSV, a header first, without newlines."""
    yield "step\tthread\trule\tloops\tassignment"
    for entry in run.trace():
        if entry.assigned is not None:
            var, value = entry.assigned
            shown = f"{var}={value!r}"
        else:
            shown = "-"
        yield f"{entry.index}\t{entry.thread}\t{entry.rule}\t{entry.loops}\t{shown}"


# --- exhaustive exploration --------------------------------------------------------


@dataclass(frozen=True)
class ExplorationReport:
    """What bounded exhaustive interleaving found.

    ``complete`` means no path was cut off by the depth or state caps;
    with ``cycle_found`` false as well, every schedule terminates, and
    the maxima are exact over all interleavings.  A revisited
    configuration along one path (a cycle) witnesses an infinite
    schedule, in which case the maxima are reported as ``None``.
    """

    terminal_stores: frozenset[Store]
    max_steps_terminating: int | None
    max_loops_terminating: int | None
    cycle_found: bool
    complete: bool
    visited_states: int
    stuck_states: int

    @property
    def strongly_terminating(self) -> bool:
        return self.complete and not self.cycle_found

    def to_dict(self) -> dict:
        return {
            "terminal_stores": [dict(s.items()) for s in sorted(
                self.terminal_stores, key=lambda s: s.items()
            )],
            "max_steps_terminating": self.max_steps_terminating,
            "max_loops_terminating": self.max_loops_terminating,
            "cycle_found": self.cycle_found,
            "complete": self.complete,
            "strongly_terminating": self.strongly_terminating,
            "visited_states": self.visited_states,
            "stuck_states": self.stuck_states,
        }


def explore(
    store: Store,
    program: Program,
    max_steps: int = 200,
    max_states: int = 200_000,
) -> ExplorationReport:
    """Enumerate all interleavings: ``build_graph`` over flat states, each
    live thread stepping once per move, then ``longest_terminating``'s
    forward pass in topological order.

    Bindings of ``store`` to variables the program never mentions are
    left out of the states and put back into the terminal stores."""
    table = program.table
    names = table.variables
    offset = len(names)
    threads = range(len(program.threads))
    finished = (DONE,) * len(program.threads)
    stuck: set[tuple] = set()  # the expanded states where some guard is no truth value

    def moves(state: tuple):
        for index in threads:
            if state[offset + index] == DONE:
                continue
            try:
                child, rule = step_global(table, state, index)
            except StuckGuardError:
                stuck.add(state)
                continue
            yield child, rule == UNFOLD

    root, outside = _flat(table, store)
    graph = build_graph([tuple(root)], moves, lambda state: state[offset:] == finished,
                        max_steps, max_states)
    longest = longest_terminating(graph)
    steps, loops = longest or (None, None)
    return ExplorationReport(
        terminal_stores=frozenset(_store(names, graph.nodes[n], outside) for n in graph.terminal),
        max_steps_terminating=steps,
        max_loops_terminating=loops,
        cycle_found=longest is None,
        complete=graph.complete and not stuck,
        visited_states=len(graph.nodes),
        stuck_states=len(stuck),
    )


@dataclass(frozen=True)
class StateGraph:
    nodes: list  # in order of discovery; a node's id is its index
    edges: list[tuple[tuple[int, bool], ...]]  # per node: (child id, unfolded)
    parent: list[int]  # per node: the node it was first reached from, -1 for a root
    terminal: list[int]  # the ids of the final nodes
    complete: bool  # no node was left unexpanded or dropped by a cap


def build_graph(roots: Iterable, successors: Callable[[object], Iterable[tuple[object, bool]]],
                final: Callable[[object], bool], max_depth: int | None = None,
                max_nodes: int | None = None) -> StateGraph:
    """Every state reachable from ``roots``, breadth first.

    ``successors(state)`` yields ``(child state, unfolded)`` moves, and
    equal states are one node, reached first at its distance from the
    roots.  A ``final`` state, or one at ``max_depth``, is not expanded;
    a new state beyond ``max_nodes`` is dropped with its move.  Both caps
    leave the graph incomplete."""
    # The node list doubles as the breadth-first queue, and the nodes at
    # distance ``depth`` from the roots end before index ``layer_end``.
    nodes = list(dict.fromkeys(roots))
    ids = {state: nid for nid, state in enumerate(nodes)}
    parent = [-1] * len(nodes)
    edges: list[tuple[tuple[int, bool], ...]] = []
    terminal: list[int] = []
    complete = True
    depth, layer_end = 0, len(nodes)
    for nid, state in enumerate(nodes):
        if nid == layer_end:
            depth, layer_end = depth + 1, len(nodes)
        out = []
        if final(state):
            terminal.append(nid)
        elif max_depth is not None and depth >= max_depth:
            complete = False
        else:
            for child_state, unfolded in successors(state):
                child = ids.get(child_state)
                if child is None:
                    if max_nodes is not None and len(nodes) >= max_nodes:
                        complete = False
                        continue
                    child = ids[child_state] = len(nodes)
                    nodes.append(child_state)
                    parent.append(nid)
                out.append((child, unfolded))
        edges.append(tuple(out))
    return StateGraph(nodes, edges, parent, terminal, complete)


def longest_terminating(graph: StateGraph) -> tuple[int | None, int | None] | None:
    """The most steps and, separately, the most unfoldings on a path from
    node 0 to a terminal node (``None`` each if there is none), or
    ``None`` if the graph has a cycle: one forward pass in topological
    order (Kahn's), where a node is taken once every move into it has
    been and carries its longest counts from node 0 into its children.
    A node never taken lies on or behind a cycle, so every node must be
    reachable from node 0, as ``build_graph`` makes it from one root."""
    succ = graph.edges
    waiting = [0] * len(succ)  # per node: the moves into it not yet taken
    for out in succ:
        for child, _ in out:
            waiting[child] += 1
    if waiting[0]:
        return None  # a move into node 0 closes a cycle: node 0 reaches every node
    steps = [0] * len(succ)
    loops = [0] * len(succ)
    order = [0]
    for nid in order:
        k, t = steps[nid] + 1, loops[nid]
        for child, unfolded in succ[nid]:
            if steps[child] < k:
                steps[child] = k
            if loops[child] < t + unfolded:
                loops[child] = t + unfolded
            waiting[child] -= 1
            if not waiting[child]:
                order.append(child)
    if len(order) < len(succ):
        return None
    if not graph.terminal:
        return None, None
    return max(steps[n] for n in graph.terminal), max(loops[n] for n in graph.terminal)


# --- store pairs and quietness -------------------------------------------------------


def random_equiv_stores(
    gamma: dict[str, Tier],
    variables: Iterable[str],
    rng: random.Random,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    max_len: int = 6,
) -> tuple[Store, Store]:
    """Two stores agreeing on every tier-1 variable and drawing tier-0
    values independently.

    The draws are fixed, so one seed gives the same pairs on every
    supported Python: the variables are taken in name order; a tier-1
    variable's word is drawn once, a tier-0 variable's twice, left then
    right; and each word draws its length, ``rng.randrange(max_len + 1)``,
    then its letters, one ``rng.choice`` each from the sorted alphabet."""
    letters, choice, bound = alphabet.sorted_letters(), rng.choice, max_len + 1
    left: dict[str, Word] = {}
    right: dict[str, Word] = {}
    for var in sorted(set(variables)):
        tier = gamma.get(var)
        if tier is None:
            raise KeyError(f"no tier for variable {var!r}")
        word = "".join(map(choice, itertools.repeat(letters, rng.randrange(bound))))
        if word:
            left[var] = word
        if tier != Tier.ONE:
            word = "".join(map(choice, itertools.repeat(letters, rng.randrange(bound))))
        if word:
            right[var] = word
    return Store._normalized(left), Store._normalized(right)


@dataclass(frozen=True)
class QuietnessReport:
    passed: bool
    trials: int
    scheduler: str
    divergence: tuple[int, int, str, str] | None = None  # trial, step, choice_a, choice_b

    def to_dict(self) -> dict:
        return asdict(self)


def quietness_test(
    scheduler: Scheduler,
    program: Program,
    gamma: dict[str, Tier],
    trials: int = 100,
    fuel: int = 100_000,
    seed: int = 0,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    max_len: int = 6,
) -> QuietnessReport:
    """Test the scheduler's choices for quietness on one program.

    A scheduler that reads nothing (``reads`` is ``None``) is passed no
    store, so it is quiet by construction and passes at once.  For one
    that reads the store, each trial draws two stores ``a`` and ``b``
    that agree exactly on the tier-1 variables and runs the program from
    ``a``.  At each choice of that run, the first pair of a new
    ``picks`` is taken twice: with the run's store, and with the same
    store holding ``b``'s tier-0 words, from a copy of the scheduler
    state.  Two different answers mean the choice read tier-0 data; the
    report names the trial, the choice's step and both answers.  The
    program's own timing plays no part, since both see one configuration.
    """
    if scheduler.reads is None:
        return QuietnessReport(True, trials, scheduler.name)
    names = program.table.variables
    rng = random.Random(seed)
    for trial in range(trials):
        a, b = random_equiv_stores(gamma, names, rng, alphabet, max_len)
        probe = _QuietProbe(scheduler, {v: b.lookup(v) for v in names if gamma[v] != Tier.ONE})
        try:
            run_with_scheduler(a, program, probe, fuel)
        except _Divergence as found:
            return QuietnessReport(False, trial + 1, scheduler.name, (trial, *found.args))
    return QuietnessReport(True, trials, scheduler.name)


class _Divergence(Exception):
    """A choice that read tier-0 data: its step and both answers."""


class _QuietProbe(Scheduler):
    """``inner``, asked for each choice a second time, the first pair of
    a new ``picks`` from a copy of its state, on the store with the words
    of ``low`` in place of its own."""

    def __init__(self, inner: Scheduler, low: dict[str, Word]):
        self.inner, self.low = inner, low
        self.name, self.pure = inner.name, inner.pure
        self.step = 0  # the index of the next choice

    def fresh_state(self) -> object:
        return self.inner.fresh_state()

    def picks(self, tids: tuple[str, ...], state: object,
              store: Callable[[], Store]) -> Iterator[tuple[str, object]]:
        while True:
            shown = store()
            copied = copy.deepcopy(state)
            chosen, state = next(self.inner.picks(tids, state, lambda: shown))
            swapped = Store({**dict(shown.items()), **self.low})
            other = next(self.inner.picks(tids, copied, lambda: swapped))[0]
            if other != chosen:
                raise _Divergence(self.step, chosen, other)
            self.step += 1
            yield chosen, state
