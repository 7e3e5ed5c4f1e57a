"""Multi-threaded execution: global steps, schedulers, and exploration.

A global configuration is one flat state: the words of the program's
free variables (``table.variables``), then one control slot per thread.
The slots index ``Program.table``, the program's one ``ControlTable``
(see ``semantics``), which hash-conses every residual command, and a
thread whose slot is ``DONE`` has terminated.  One global step picks a
live thread and advances it one atomic step.  The ``loops`` counter
accumulates loop unfoldings across all threads and the ``steps``
counter counts global steps, so ``loops <= steps`` always.

``run_with_scheduler`` steps one list in place, and ``step_global``
copies a state into a new tuple for ``explore``.  ``Store`` objects are
built from a state only at the edges (a run's result and trace, the
store a scheduler chooses by, the terminal stores of ``explore``), each
with the input's bindings of the variables the program never mentions.

Schedulers are deterministic: a choice function over the live thread
ids and the store plus private state.  A scheduler is *quiet* when its
choice never depends on tier-0 data; ``quietness_test`` probes that
behaviorally by running the same program from stores that agree on
tier-1 variables only.  A scheduler is only asked while two or more
threads are live: with one left the choice is forced, reads no data,
and so is quiet under every policy.  ``run_with_scheduler`` is the one
run loop, so one command runs as a one-thread program.  A run's
``choices`` (a ``Choices``) iterate over the ids the scheduler chose.

A scheduler is *pure* when its choice is a function of the live ids,
the store and an immutable state.  Under such a scheduler a run whose
configuration (flat state and scheduler state) repeats is periodic
from then on, so ``run_with_scheduler`` finds the repeat with Brent's
cycle detection and jumps whole periods towards the fuel bound; a run
that keeps a trace jumps only once the trace holds ``TRACE_CAP`` steps,
so every trace entry is a step the run took.  The result is the one
stepping to the bound would give, field for field.

``explore`` enumerates every interleaving up to bounded depth, memoizing
on flat states.  Structurally equal residuals share a slot, so this is
the same as memoizing on the store and the pool of residual commands.
A configuration revisited along one path is a cycle, which witnesses a
non-terminating schedule.  One depth-first pass over the explored
graph finds such a cycle, or else the longest terminating counts.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

from .lang import Alphabet, DEFAULT_ALPHABET, Program, Store, Tier, Word
from .semantics import DONE, UNFOLD, ControlTable, StuckGuardError

TRACE_CAP = 10_000  # the most steps a kept trace records


def step_global(table: ControlTable, state: tuple, index: int) -> tuple[tuple, str]:
    """Advance thread ``index`` of a flat state (the words of
    ``table.variables``, then one slot per thread) one step: a new state
    tuple and the rule that fired."""
    at = len(table.variables) + index
    slot, rule, assigned = table.step(state[at], state)
    cells = list(state)
    cells[at] = slot
    if assigned is not None:
        cells[assigned[0]] = assigned[1]
    return tuple(cells), rule


def _store(names: tuple[str, ...], state: Sequence, outside: dict[str, Word]) -> Store:
    """The store of a flat state whose words are those of ``names``, with
    ``outside``: the bindings of the variables the program never mentions."""
    data = {name: word for name, word in zip(names, state) if word}
    data.update(outside)
    return Store._normalized(data)


# --- schedulers ---------------------------------------------------------------


class Scheduler:
    """Deterministic thread choice with private state.

    ``pure`` claims that ``choose`` is a function of its arguments alone
    and that the state is an immutable value compared by ``==``; it lets
    ``run_with_scheduler`` skip the periods of a repeating run.
    """

    name = "scheduler"
    pure = False

    def fresh_state(self) -> object:
        return None

    def choose(self, tids: tuple[str, ...], store: Store, state: object) -> tuple[str, object]:
        """Pick one of the live thread ids (sorted by name, never empty)."""
        raise NotImplementedError


class RoundRobin(Scheduler):
    """Cycle through live threads in name order."""

    name = "round-robin"
    pure = True

    def choose(self, tids: tuple[str, ...], store: Store, state: object) -> tuple[str, object]:
        last = state
        if isinstance(last, str):
            later = [t for t in tids if t > last]
            chosen = later[0] if later else tids[0]
        else:
            chosen = tids[0]
        return chosen, chosen


class FirstAlive(Scheduler):
    """Always run the alphabetically first live thread.

    Deterministic and quiet but unfair: it starves every other thread
    while its favorite can still move.
    """

    name = "first-alive"
    pure = True

    def choose(self, tids: tuple[str, ...], store: Store, state: object) -> tuple[str, object]:
        return tids[0], None


class SeededRandom(Scheduler):
    """Pseudo-random choice from a seed; quiet because the draw ignores
    the store entirely.  Not pure: the state is a mutable generator that
    compares by identity, so equal-looking configurations do not repeat."""

    name = "random"
    pure = False

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fresh_state(self) -> object:
        return random.Random(self.seed)

    def choose(self, tids: tuple[str, ...], store: Store, state: object) -> tuple[str, object]:
        assert isinstance(state, random.Random)
        return state.choice(tids), state


def named_schedulers(seed: int = 0) -> dict[str, Scheduler]:
    return {
        "round-robin": RoundRobin(),
        "first-alive": FirstAlive(),
        "random": SeededRandom(seed),
    }


# --- scheduled runs --------------------------------------------------------------


@dataclass(frozen=True)
class GlobalTraceStep:
    index: int
    thread: str
    rule: str
    loops: int
    assigned: tuple[str, Word] | None
    store: Store


@dataclass(frozen=True, eq=False)
class Choices:
    """The thread ids a scheduled run chose, one per step: ``prefix``,
    then ``cycle`` ``repeats`` times, then ``tail``.

    A run that skips whole periods keeps one copy of the period, so its
    choices cost memory for the steps it took, not the steps it skipped.
    Two ``Choices`` are equal when they hold the same ids in the same
    order, however they are split.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...] = ()
    repeats: int = 0
    tail: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle) * self.repeats + len(self.tail)

    def __iter__(self):
        return chain(self.prefix, chain.from_iterable(repeat(self.cycle, self.repeats)), self.tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Choices):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class ScheduledRun:
    store: Store
    residual: Program
    steps: int
    loops: int
    finished: bool
    choices: Choices
    trace: tuple[GlobalTraceStep, ...] = field(repr=False, default=())


def run_with_scheduler(
    store: Store,
    program: Program,
    scheduler: Scheduler,
    fuel: int = 100_000,
    keep_trace: bool = False,
) -> ScheduledRun:
    """Drive the pool with the scheduler until it empties or fuel runs out.

    Once one thread is left every choice is forced, so the scheduler is
    not asked again: its state stays as it was, and the run keeps a count
    of the forced steps instead of one id per step.  Under a pure
    scheduler a run that revisits a configuration skips ahead by whole
    periods, and a run that keeps a trace does so only once the trace
    holds its first ``TRACE_CAP`` steps; steps, loops, choices and trace
    are those of stepping to the fuel bound.
    """
    table = program.table
    names = table.variables
    outside = dict(store.items())  # the input's bindings of variables the program never mentions
    for name in names:
        outside.pop(name, None)
    live = program.thread_ids()
    at = {tid: len(names) + i for i, tid in enumerate(live)}  # each thread's slot in ``cells``
    cells = [*map(store.lookup, names), *table.roots]  # the flat state, stepped in place
    step = table.step
    seen: Store | None = store  # the store of ``cells``, or None until it is needed again
    state = scheduler.fresh_state()
    steps = 0
    loops = 0
    choices: list[str] = []
    forced = 0  # steps taken once one thread was left, all by ``tid``
    tid = ""
    # After a skip with more than one thread live, ``choices[start:end]``
    # is the period: stepped once, then skipped ``repeats`` more times.
    skip: tuple[int, int, int] | None = None
    trace: list[GlobalTraceStep] = []
    # Brent's cycle detection on the configurations right after a loop
    # unfolds, since every cycle unfolds some loop: the checkpoint moves
    # to the live configuration at the 1st, 2nd, 4th, 8th, ... unfolding.
    # ``mark`` is the next such loop count, and 0 once detection is off.
    # The saved cells are a list, so that they can equal the live ones.
    mark = 1 if scheduler.pure else 0
    saved: tuple = (None, None, 0, 0)
    while live and steps < fuel:
        if len(live) > 1:
            if seen is None:
                seen = _store(names, cells, outside)
            tid, state = scheduler.choose(live, seen, state)
            choices.append(tid)
        else:
            tid = live[0]
            forced += 1
        i = at[tid]
        slot, rule, assigned = step(cells[i], cells)
        cells[i] = slot
        if assigned is not None:
            cells[assigned[0]] = assigned[1]
            seen = None
        steps += 1
        if rule == UNFOLD:
            loops += 1
        if slot == DONE:
            live = tuple(t for t in live if t != tid)
        if keep_trace and len(trace) < TRACE_CAP:
            if seen is None:
                seen = _store(names, cells, outside)
            made = None if assigned is None else (names[assigned[0]], assigned[1])
            trace.append(GlobalTraceStep(steps, tid, rule, loops, made, seen))
        if not (mark and rule == UNFOLD):
            continue
        # A kept trace holds only steps taken: skip once it is full.
        if cells == saved[0] and state == saved[1] and (
            not keep_trace or len(trace) == TRACE_CAP
        ):
            start, start_loops = saved[2], saved[3]
            period, gained = steps - start, loops - start_loops
            repeats = (fuel - steps) // period
            # A repeat keeps the live threads, so a period is either all
            # forced or holds no forced step.
            if forced:
                forced += repeats * period
            else:
                skip = (start, len(choices), repeats)
            steps += repeats * period
            loops += repeats * gained
            mark = 0
        elif loops == mark:
            saved = (cells[:], state, steps, loops)
            mark *= 2
    residual = Program(tuple((t, table.commands[cells[at[t]]]) for t in live))
    return ScheduledRun(
        _store(names, cells, outside), residual, steps, loops, not live,
        _choices(choices, skip, tid, forced), tuple(trace),
    )


def _choices(
    stepped: list[str], skip: tuple[int, int, int] | None, tid: str, forced: int
) -> Choices:
    if forced:
        return Choices(tuple(stepped), (tid,), forced)
    if skip is None:
        return Choices(tuple(stepped))
    start, end, repeats = skip
    return Choices(
        tuple(stepped[:start]), tuple(stepped[start:end]), repeats + 1, tuple(stepped[end:])
    )


def dump_global_trace(run: ScheduledRun) -> str:
    lines = ["step\tthread\trule\tloops\tassignment"]
    for entry in run.trace:
        if entry.assigned is not None:
            var, value = entry.assigned
            shown = f"{var}={value!r}"
        else:
            shown = "-"
        lines.append(f"{entry.index}\t{entry.thread}\t{entry.rule}\t{entry.loops}\t{shown}")
    return "\n".join(lines)


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
    """Enumerate all interleavings, memoizing on flat states.

    Bindings of ``store`` to variables the program never mentions are
    left out of the states and put back into the terminal stores.

    A breadth-first pass builds the state graph within the caps; one
    depth-first pass from the root then looks for a cycle and, if there
    is none, takes the longest terminating counts."""
    table = program.table
    names = table.variables
    offset = len(names)
    threads = range(len(program.threads))
    finished = (DONE,) * len(program.threads)
    root = (*map(store.lookup, names), *table.roots)
    # The node list doubles as the breadth-first queue: node ``nid`` is
    # expanded once every node before it has been.
    nodes: list[tuple] = [root]
    ids: dict[tuple, int] = {root: 0}
    depth = [0]
    succ: list[tuple[tuple[int, int], ...]] = []
    terminal: list[int] = []
    stuck = 0
    complete = True

    for nid, state in enumerate(nodes):
        if state[offset:] == finished:
            terminal.append(nid)
            succ.append(())
            continue
        if depth[nid] >= max_steps:
            complete = False
            succ.append(())
            continue
        edges: list[tuple[int, int]] = []
        got_stuck = False
        for index in threads:
            if state[offset + index] == DONE:
                continue
            try:
                child_state, rule = step_global(table, state, index)
            except StuckGuardError:
                got_stuck = True
                continue
            child = ids.get(child_state)
            if child is None:
                if len(nodes) >= max_states:
                    complete = False
                    continue
                child = ids[child_state] = len(nodes)
                nodes.append(child_state)
                depth.append(depth[nid] + 1)
            edges.append((child, int(rule == UNFOLD)))
        stuck += got_stuck
        succ.append(tuple(edges))

    # One depth-first pass from the root (every node is reachable from
    # it).  A child still on the path closes a cycle.  Otherwise a node's
    # longest terminating step and loop counts are final once its
    # children are finished: ``None`` when no explored path from it
    # terminates.
    NEW, ON_PATH, FINISHED = 0, 1, 2
    mark = bytearray(len(nodes))
    best_k: list[int | None] = [None] * len(nodes)
    best_t: list[int | None] = [None] * len(nodes)
    for nid in terminal:
        best_k[nid] = best_t[nid] = 0
    cycle_found = False
    mark[0] = ON_PATH
    path = [(0, iter(succ[0]))]
    while path:
        nid, children = path[-1]
        for child, _ in children:
            status = mark[child]
            if status == ON_PATH:
                cycle_found = True
                path.clear()
                break
            if status == NEW:
                mark[child] = ON_PATH
                path.append((child, iter(succ[child])))
                break
        else:
            path.pop()
            mark[nid] = FINISHED
            k = t = None
            for child, inc in succ[nid]:
                ck = best_k[child]
                if ck is None:
                    continue
                if k is None or ck > k:
                    k = ck
                ct = best_t[child] + inc
                if t is None or ct > t:
                    t = ct
            if k is not None:
                best_k[nid], best_t[nid] = k + 1, t
    outside = dict(store.items())  # the input's bindings of variables the program never mentions
    for name in names:
        outside.pop(name, None)
    return ExplorationReport(
        terminal_stores=frozenset(_store(names, nodes[n], outside) for n in terminal),
        max_steps_terminating=None if cycle_found else best_k[0],
        max_loops_terminating=None if cycle_found else best_t[0],
        cycle_found=cycle_found,
        complete=complete and not stuck,
        visited_states=len(nodes),
        stuck_states=stuck,
    )


# --- store pairs and quietness -------------------------------------------------------


def random_word(rng: random.Random, alphabet: Alphabet = DEFAULT_ALPHABET, max_len: int = 6) -> Word:
    letters = alphabet.sorted_letters()
    length = rng.randint(0, max_len)
    return "".join(rng.choice(letters) for _ in range(length))


def random_equiv_stores(
    gamma: dict[str, Tier],
    variables: Iterable[str],
    rng: random.Random,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    max_len: int = 6,
) -> tuple[Store, Store]:
    """Two stores agreeing on every tier-1 variable and drawing tier-0
    values independently."""
    left: dict[str, Word] = {}
    right: dict[str, Word] = {}
    for var in sorted(set(variables)):
        tier = gamma.get(var)
        if tier is None:
            raise KeyError(f"no tier for variable {var!r}")
        if tier == Tier.ONE:
            value = random_word(rng, alphabet, max_len)
            left[var] = value
            right[var] = value
        else:
            left[var] = random_word(rng, alphabet, max_len)
            right[var] = random_word(rng, alphabet, max_len)
    return Store(left), Store(right)


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
    """Probe the scheduler's quietness claim on one program.

    Each trial runs the program from two stores that agree exactly on
    the tier-1 variables and compares the choice sequences; a divergence
    in the common prefix means some choice read tier-0 data.  Meaningful
    for programs whose tier-1 state evolves identically from equivalent
    stores (safe programs).
    """
    rng = random.Random(seed)
    for trial in range(trials):
        a, b = random_equiv_stores(gamma, program.table.variables, rng, alphabet, max_len)
        run_a = run_with_scheduler(a, program, scheduler, fuel)
        run_b = run_with_scheduler(b, program, scheduler, fuel)
        for i, (ca, cb) in enumerate(zip(run_a.choices, run_b.choices)):
            if ca != cb:
                return QuietnessReport(False, trial + 1, scheduler.name, (trial, i, ca, cb))
    return QuietnessReport(True, trials, scheduler.name)
