"""Control tables: runs and explorations on hash-consed residual slots
must match stepping command trees with a reference ``step_command``."""

import random
import re
import tracemalloc
from dataclasses import replace
from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tierlang import (
    Assign,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Tier,
    Var,
    While,
    parse,
    seq_all,
)
from tierlang import lang, scheduling, semantics, typecheck
from tierlang.analysis import measure_growth, ni_suite, tier_preservation
from tierlang.cli import main
from tierlang.fixtures import (
    MACHINE_FIXTURES,
    REJECTED_FIXTURES,
    SAFE_FIXTURES,
    fixture_text,
    load_source,
)
from tierlang.lang import DEFAULT_ALPHABET, FF, TT, free_vars, walk
from tierlang.ops import UnknownOperatorError, default_registry
from tierlang.scheduling import (
    ExplorationReport,
    FirstAlive,
    RoundRobin,
    Scheduler,
    SeededRandom,
    explore,
    named_schedulers,
    quietness_test,
    run_with_scheduler,
)
from tierlang.semantics import DONE, ControlTable, StuckGuardError
from tierlang.tm import compile_tm, parse_tm
from tierlang.typecheck import build_sig_env, check_program, command_tiers, maximal_safe_sigs
from programs import commands, expressions, programs, stores
from test_scheduling import StorePeek
from test_semantics import eval_expr

TIER_FIXTURES = SAFE_FIXTURES + REJECTED_FIXTURES

# Guards on ``head`` read letters other than T and F, so runs get stuck.
HEAD_GUARDS = """
op head arity 1 class neutral;
op pred arity 1 class neutral;
vars { x : 1; y : 1; }
thread a { while (head(x)) { x := pred(x) } }
thread b { if (head(y)) { y := pred(y) } else { x := y } }
"""

CONVERGING = """
op gt0 arity 1 class neutral;
op zero arity 1 class neutral;
vars { x : 1; z : 0; }
thread branch { if (gt0(x)) { skip; z := x } else { skip; z := x } }
thread reset { x := zero(x) }
"""

# Both branches reach equal conditionals and loops.
CONVERGING_NESTED = """
op gt0 arity 1 class neutral;
op zero arity 1 class neutral;
vars { x : 1; z : 0; }
thread branch {
  if (gt0(x)) {
    if (gt0(z)) { skip } else { z := x };
    while (gt0(z)) { z := zero(z) }
  } else {
    if (gt0(z)) { skip } else { z := x };
    while (gt0(z)) { z := zero(z) }
  }
}
thread reset { x := zero(x) }
"""

# ``y``'s expression nests 70 calls deep, and its innermost call reads
# the bindings of whichever state steps it.
DEEP_ASSIGN = f"""
op add1 arity 1 class positive;
op pred arity 1 class neutral;
vars {{ x : 1; y : 0; }}
thread a {{ y := {"add1(" * 70}x{")" * 70} }}
thread b {{ x := pred(x); x := pred(x) }}
"""

# ``b``'s fourth step is a guard that reads a letter other than T and F;
# ``a`` has terminated by then under every named scheduler.
LATE_STUCK = """
op head arity 1 class neutral;
vars { x : 1; }
thread a { skip }
thread b { skip; skip; skip; while (head(x)) { skip } }
"""

# A loop whose period changes the store: y flips and flips back.
FLIP = """
op gt0 arity 1 class neutral;
op not arity 1 class neutral;
vars { x : 1; y : 0; }
thread flip { while (gt0(x)) { y := not(y) } }
thread idle { while (gt0(x)) { skip } }
"""

# A lone loop whose last assignment puts ``z`` back to its word at each
# unfolding while ``y`` shrinks: Brent's check finds the word it wrote
# last equal to the checkpoint's and must compare the rest.
REZERO = """
op gt0 arity 1 class neutral;
op pred arity 1 class neutral;
op zero arity 1 class neutral;
vars { y : 1; z : 0; }
thread a { while (gt0(y)) { y := pred(y); z := zero(z) } }
"""


def random_stores(program, seed, count):
    rng = random.Random(seed)
    letters = DEFAULT_ALPHABET.sorted_letters()
    names = sorted(free_vars(program))
    for _ in range(count):
        yield Store({v: "".join(rng.choices(letters, k=rng.randint(0, 4))) for v in names})


def outcome(fn):
    """What a call returns, or the type and arguments of what it raised."""
    try:
        return fn()
    except (StuckGuardError, KeyError, TypeError) as err:
        return type(err), err.args, getattr(err, "cmd", None)


# --- reference loops over command trees ---------------------------------------------


class Stepped(NamedTuple):
    store: Store
    residual: object  # the command left to run, None once it terminated
    rule: str
    loop_increment: int
    assigned: tuple | None


def bind(store, var, word):
    """``store`` with ``var`` bound to ``word``."""
    return Store({**dict(store.items()), var: word})


def guard_holds(store, cmd):
    value = eval_expr(store, cmd.guard)
    if value not in (TT, FF):
        raise StuckGuardError(cmd, value)
    return value == TT


def step_command(store, cmd):
    """One atomic step of a command tree, by the rules as written."""
    if isinstance(cmd, Seq):
        out = step_command(store, cmd.first)
        rest = cmd.second if out.residual is None else Seq(out.residual, cmd.second, cmd.span)
        return out._replace(residual=rest)
    if isinstance(cmd, Skip):
        return Stepped(store, None, "skip", 0, None)
    if isinstance(cmd, Assign):
        value = eval_expr(store, cmd.expr)
        return Stepped(bind(store, cmd.var, value), None, "assign", 0, (cmd.var, value))
    if isinstance(cmd, If):
        if guard_holds(store, cmd):
            return Stepped(store, cmd.then_branch, "if-tt", 0, None)
        return Stepped(store, cmd.else_branch, "if-ff", 0, None)
    if guard_holds(store, cmd):
        return Stepped(store, Seq(cmd.body, cmd, cmd.span), "while-tt", 1, None)
    return Stepped(store, None, "while-ff", 0, None)


def statements(cmd):
    """``cmd``'s statements in order, its sequences flattened, or ``None``
    for a terminated command.  ``;`` is associative, and the control table
    nests a residual's sequences to the right of its redex where the rules
    as written nest them to the left, so residuals are compared this way;
    a conditional or loop is one statement, compared whole."""
    if cmd is None:
        return None
    out, stack = [], [cmd]
    while stack:
        cmd = stack.pop()
        if isinstance(cmd, Seq):
            stack += (cmd.second, cmd.first)
        else:
            out.append(cmd)
    return tuple(out)


def thread_statements(program):
    return tuple((tid, statements(cmd)) for tid, cmd in program.threads)


def reference_scheduled(store, program, scheduler, fuel):
    pool = dict(program.threads)
    state = scheduler.fresh_state()
    steps = loops = 0
    choices, trace = [], []
    while pool and steps < fuel:
        tid, state = scheduler.choose(tuple(sorted(pool)), store, state)
        out = step_command(store, pool[tid])
        store = out.store
        steps += 1
        loops += out.loop_increment
        if out.residual is None:
            del pool[tid]
        else:
            pool[tid] = out.residual
        choices.append(tid)
        trace.append((steps, tid, out.rule, loops, out.assigned, store))
    residual = thread_statements(Program(tuple(pool.items())))
    return store, residual, steps, loops, not pool, tuple(choices), trace


def table_scheduled(store, program, scheduler, fuel):
    run = run_with_scheduler(store, program, scheduler, fuel)
    trace = [(e.index, e.thread, e.rule, e.loops, e.assigned, e.store) for e in run.trace()]
    return (run.store, thread_statements(run.residual), run.steps, run.loops, run.finished,
            tuple(run.choices), trace)


def reference_sequential(store, cmd, fuel):
    steps = loops = 0
    trace = []
    while cmd is not None and steps < fuel:
        out = step_command(store, cmd)
        store, cmd = out.store, out.residual
        steps += 1
        loops += out.loop_increment
        trace.append((steps, out.rule, loops, out.assigned, store, statements(cmd)))
    return store, statements(cmd), steps, loops, cmd is None, trace


def table_sequential(store, cmd, fuel):
    """``reference_sequential`` stepped on ``cmd``'s control table."""
    table = ControlTable((cmd,))
    names = table.variables
    cells = [*map(store.lookup, names), table.roots[0]]
    at = len(names)
    steps, loops, trace = 0, 0, []
    while cmd is not None and steps < fuel:
        _, _, rule, var = table.advance(cells, at, 1)
        assigned = None
        if var is not None:
            assigned = (names[var], cells[var])
            store = bind(store, *assigned)
        cmd = None if cells[at] == DONE else table.nodes[cells[at]]
        steps += 1
        loops += rule == "while-tt"
        trace.append((steps, rule, loops, assigned, store, statements(cmd)))
    return store, statements(cmd), steps, loops, cmd is None, trace


def one_at_a_time(table, cells, at, budget, mark=0, saved=None):
    """What ``table.advance(cells, at, budget, mark, saved)`` should do,
    done by calls of budget 1: the summed steps and unfoldings, and the
    last step's rule and assigned position."""
    taken = unfolded = 0
    while True:
        one, unfold, rule, var = table.advance(cells, at, 1)
        taken += one
        unfolded += unfold
        if cells[at] == DONE or taken == budget or unfold and (unfolded == mark or cells == saved):
            return taken, unfolded, rule, var


def assert_batches_agree(cmd, store):
    """One ``advance`` of a budget leaves the cells and returns the counts,
    rule and assignment of single steps, or raises their error, and stops
    where they would: at ``DONE``, at the budget, at the ``mark``-th
    unfolding, or at an unfolding that is back at the ``saved`` cells."""
    table = ControlTable((cmd,))
    start = [*map(store.lookup, table.variables), table.roots[0]]
    at = len(start) - 1
    saved = start[:]  # the cells at the second unfolding, if there is one
    outcome(lambda: one_at_a_time(table, saved, at, 400, mark=2))
    for budget in (1, 2, 7, 400):
        for mark, back_at in ((0, None), (1, None), (3, None), (0, saved)):
            batch, single = start[:], start[:]
            want = outcome(lambda: one_at_a_time(table, single, at, budget, mark, back_at))
            got = outcome(lambda: table.advance(batch, at, budget, mark, back_at))
            assert (got, batch) == (want, single), (budget, mark, back_at)


def scheduled_alone(store, cmd, fuel):
    """``cmd`` run alone by ``run_with_scheduler``, in the fields of
    ``reference_sequential`` apart from the residual of each step."""
    run = run_with_scheduler(store, Program.single(cmd), FirstAlive(), fuel)
    trace = [(e.index, e.rule, e.loops, e.assigned, e.store) for e in run.trace()]
    residual = run.residual.command("main") if run.residual.threads else None
    return run.store, statements(residual), run.steps, run.loops, run.finished, trace


def drop_step_residuals(result):
    *fields, trace = result
    return (*fields, [entry[:-1] for entry in trace])


def reference_explore(store, program, max_steps=200, max_states=200_000):
    """The exploration report of a breadth-first walk keyed on the store
    and each live thread's statements, so that two groupings of one
    statement list are one state, one level of depth at a time.  A node at depth
    ``max_steps`` that has not terminated is not expanded, and a new node
    beyond ``max_states`` is dropped with its edge; either leaves the walk
    incomplete.  Cycles and the longest terminating counts come from
    peeling sinks off the recorded graph (Kahn's algorithm on the
    reversed edges): a node is peeled once all its successors are, and
    nodes left unpeeled lie on or lead into a cycle."""
    def key(node_store, pool):
        return node_store, tuple((tid, statements(cmd)) for tid, cmd in pool)

    root = key(store, program.threads)
    seen = {root}
    frontier = [(store, tuple(program.threads))]  # each state's first pool of commands
    edges = {}  # state -> [(successor, loop increment)], one per move
    terminal, stuck, cut = set(), 0, False
    level = 0
    while frontier:
        nxt = []
        for node_store, pool in frontier:
            node = key(node_store, pool)
            if not pool:
                terminal.add(node)
            moves = edges[node] = []
            if pool and level >= max_steps:
                cut = True
                continue
            got_stuck = False
            for i, (tid, cmd) in enumerate(pool):
                try:
                    out = step_command(node_store, cmd)
                except StuckGuardError:
                    got_stuck = True
                    continue
                rest = pool[:i] + pool[i + 1:]
                if out.residual is not None:
                    rest = pool[:i] + ((tid, out.residual),) + pool[i + 1:]
                child = key(out.store, rest)
                if child not in seen:
                    if len(seen) >= max_states:
                        cut = True
                        continue
                    seen.add(child)
                    nxt.append((out.store, rest))
                moves.append((child, out.loop_increment))
            stuck += got_stuck
        frontier = nxt
        level += 1
    waiting = {node: len(moves) for node, moves in edges.items()}
    preds = {node: [] for node in edges}
    for node, moves in edges.items():
        for child, _ in moves:
            preds[child].append(node)
    longest = {}  # node -> (steps, loops) of its longest terminating paths, or None
    sinks = [node for node, count in waiting.items() if count == 0]
    while sinks:
        node = sinks.pop()
        counts = [(1 + longest[child][0], inc + longest[child][1])
                  for child, inc in edges[node] if longest[child] is not None]
        if node in terminal:
            longest[node] = (0, 0)
        elif counts:
            longest[node] = (max(k for k, _ in counts), max(t for _, t in counts))
        else:
            longest[node] = None
        for pred in preds[node]:
            waiting[pred] -= 1
            if waiting[pred] == 0:
                sinks.append(pred)
    cycle = len(longest) < len(edges)
    best = (None, None) if cycle or longest[root] is None else longest[root]
    return ExplorationReport(
        terminal_stores=frozenset(node_store for node_store, _ in terminal),
        max_steps_terminating=best[0],
        max_loops_terminating=best[1],
        cycle_found=cycle,
        complete=not (stuck or cut),
        visited_states=len(seen),
        stuck_states=stuck,
    )


# --- differential tests -------------------------------------------------------------


def fixture_program(name):
    inline = {"head_guards": HEAD_GUARDS, "flip": FLIP, "deep_assign": DEEP_ASSIGN,
              "rezero": REZERO}
    return parse(inline[name]).program() if name in inline else load_source(name).program()


def capped(result, cap):
    """A run's result with its trace cut to ``cap`` steps; a raised error,
    as ``outcome`` gives it, as it is."""
    if isinstance(result[0], type):
        return result
    *fields, trace = result
    return (*fields, trace[:cap])


@pytest.mark.parametrize("name", TIER_FIXTURES + ("head_guards", "flip", "deep_assign", "rezero"))
def test_scheduled_runs_match_reference_loop(name, monkeypatch):
    # 1501 is no multiple of any period, and a cap of 333 cuts the trace
    # off inside one, so runs that skip periods must stop where stepping
    # would, and their replayed traces too.
    program = fixture_program(name)
    schedulers = [*named_schedulers(seed=3).values(), StorePeek(min(free_vars(program)))]
    for scheduler in schedulers:
        for fuel, cap, count in ((0, 10_000, 1), (1, 10_000, 2), (25, 10_000, 4),
                                 (400, 10_000, 4), (1500, 10_000, 2), (1501, 333, 2)):
            monkeypatch.setattr(scheduling, "TRACE_CAP", cap)
            for store in random_stores(program, sum(map(ord, name)) + fuel, count):
                want = outcome(lambda: reference_scheduled(store, program, scheduler, fuel))
                got = outcome(lambda: table_scheduled(store, program, scheduler, fuel))
                assert got == capped(want, cap), (name, scheduler.name, fuel, store)


@pytest.mark.parametrize("name", TIER_FIXTURES + ("head_guards", "rezero"))
def test_sequential_runs_match_reference_loop(name):
    program = fixture_program(name)
    for _, cmd in program.threads:
        for fuel in (25, 400):
            for store in random_stores(program, fuel, 4):
                want = outcome(lambda: reference_sequential(store, cmd, fuel))
                assert outcome(lambda: table_sequential(store, cmd, fuel)) == want, (name, store)
                want = outcome(lambda: drop_step_residuals(reference_sequential(store, cmd, fuel)))
                assert outcome(lambda: scheduled_alone(store, cmd, fuel)) == want, (name, store)
                assert_batches_agree(cmd, store)


@pytest.mark.parametrize("name", MACHINE_FIXTURES)
def test_compiled_machines_match_reference_loop(name):
    compiled = compile_tm(parse_tm(fixture_text(name)))
    program = compiled.source.program()
    cmd = program.command("machine")
    for word in ("", "1", "01", "110"):
        store = Store({compiled.input_var: word})
        want = reference_sequential(store, cmd, 3000)
        assert table_sequential(store, cmd, 3000) == want, (name, word)
        assert scheduled_alone(store, cmd, 3000) == drop_step_residuals(want), (name, word)
        assert_batches_agree(cmd, store)
    for store in random_stores(program, len(name), 3):
        assert_batches_agree(cmd, store)


def test_a_guard_stuck_in_a_batch_raises_as_single_steps():
    # After a skip, ``a``'s loop unfolds twice, then its guard reads "1".
    loop = fixture_program("head_guards").command("a")
    cmd = Seq(Skip(), loop)
    store = Store.of(x=TT + TT + "1")
    assert_batches_agree(cmd, store)
    table = ControlTable((cmd,))
    cells = [store.lookup("x"), table.roots[0]]
    with pytest.raises(StuckGuardError) as err:
        table.advance(cells, 1, 100)
    # The steps before the guard are written, and the slot is the loop's.
    assert (err.value.cmd, err.value.value, cells[0]) == (loop, "1", "1")
    assert table.nodes[cells[1]] == loop


@pytest.mark.parametrize(
    "name", ["add.tier", "zrange.tier", "zrange2.tier", "shuffle.tier", "intro_sync.tier",
             "spin.tier", "unsafe_loop.tier", "head_guards", "deep_assign"],
)
def test_explore_matches_reference_walk(name):
    program = fixture_program(name)
    stores = list(random_stores(program, 11, 6))
    # Explored states leave out a binding the program never mentions;
    # the terminal stores must still carry it.
    assert "unmentioned" not in free_vars(program)
    stores.append(Store([*stores[0].items(), ("unmentioned", "10")]))
    stuck_seen = cycles_seen = cut = 0
    for store in stores:
        report = explore(store, program)
        assert report == reference_explore(store, program), store
        stuck_seen += report.stuck_states
        cycles_seen += report.cycle_found
        for caps in ({"max_steps": 0}, {"max_steps": 1}, {"max_steps": 3},
                     {"max_states": 1}, {"max_states": 7}, {"max_states": 50}):
            capped_report = explore(store, program, **caps)
            assert capped_report == reference_explore(store, program, **caps), (store, caps)
            cut += capped_report.visited_states < report.visited_states
    assert all(Store.of(unmentioned="10") == s.restrict(["unmentioned"])
               for s in explore(stores[-1], program).terminal_stores)
    assert (stuck_seen > 0) == (name == "head_guards")
    assert (cycles_seen > 0) == (name in ("intro_sync.tier", "spin.tier"))
    assert cut > 0


# Fuels that cut the periods of repeating runs at odd points; with the
# trace cap at 333, the longest runs' traces stop part way.
GENERATED_FUELS = (1501, 400, 25, 1, 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(programs, stores, st.sampled_from(GENERATED_FUELS))
def test_generated_runs_match_reference_loop(program, store, fuel):
    with patch.object(scheduling, "TRACE_CAP", 333):
        for scheduler in (*named_schedulers(seed=3).values(), StorePeek("x")):
            want = outcome(lambda: reference_scheduled(store, program, scheduler, fuel))
            got = outcome(lambda: table_scheduled(store, program, scheduler, fuel))
            assert got == capped(want, 333), scheduler.name


@settings(derandomize=True, max_examples=60, deadline=None)
@given(programs, stores, st.sampled_from([15, 6, 2, 0]), st.sampled_from([400, 60, 5]))
def test_generated_explorations_match_reference_walk(program, store, max_steps, max_states):
    want = reference_explore(store, program, max_steps, max_states)
    assert explore(store, program, max_steps, max_states) == want


def test_a_guard_stuck_after_the_other_thread_finished():
    # ``b`` reaches its guard only once ``a`` has terminated, so a run
    # gets stuck in its loop for a lone thread.
    program = parse(LATE_STUCK).program()
    store = Store.of(x="1")
    for scheduler in named_schedulers(seed=3).values():
        ahead = run_with_scheduler(store, program, scheduler, fuel=3)
        assert ahead.residual.thread_ids() == ("b",)
        want = outcome(lambda: reference_scheduled(store, program, scheduler, 100))
        assert want[0] is StuckGuardError
        got = outcome(lambda: table_scheduled(store, program, scheduler, 100))
        assert got == want, scheduler.name


def test_stuck_guard_reports_the_guard_command():
    loop = While(OpCall("head", (Var("x"),)), Skip())
    with pytest.raises(StuckGuardError) as err:
        run_with_scheduler(Store.of(x="1"), Program.single(Seq(Skip(), loop)), RoundRobin())
    assert err.value.cmd is loop
    assert err.value.value == "1"


# --- pinned semantics ----------------------------------------------------------------


def test_converging_branches_share_one_slot():
    program = parse(CONVERGING).program()
    report = explore(Store.of(x="1"), program)
    assert report.visited_states == 9
    assert report.max_steps_terminating == 4
    assert report.terminal_stores == frozenset({Store(), Store.of(z="1")})
    branch = program.command("branch")
    table = ControlTable((branch,))
    assert table.nodes.count(branch.then_branch) == 1
    nested = parse(CONVERGING_NESTED).program()
    for store in (Store.of(x="1"), Store.of(x="1", z="1")):
        report = explore(store, nested)
        assert (report.visited_states, report.max_steps_terminating) == (14, 7)
        assert report.terminal_stores == frozenset({Store()})


def regrouped(then_branch, else_branch):
    """Thread ``a`` sets ``y``, and thread ``b`` branches on it."""
    return parse("op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"
                 'thread a { y := "1" }\n'
                 f"thread b {{ if (gt0(y)) {{ {then_branch} }} else {{ {else_branch} }} }}\n"
                 ).program()


REGROUPED = [
    ("{ while (gt0(x)) { x := pred(x) }; skip }; skip",
     "while (gt0(x)) { x := pred(x) }; skip; skip", 18),
    ("{ if (gt0(x)) { x := pred(x) } else { skip }; skip }; skip",
     "if (gt0(x)) { { x := pred(x); skip }; skip } else { skip; skip }", 13),
]


@pytest.mark.parametrize("then_branch, else_branch, states", REGROUPED, ids=["loop", "if"])
def test_groupings_of_one_statement_list_are_one_state(then_branch, else_branch, states):
    # A state is the store and each thread's statement list, so two
    # groupings of one list are one state, and so are a grouped branch
    # and a residual of its list; a walk over command trees counts 23
    # and 13.
    program = regrouped(then_branch, else_branch)
    report = explore(Store.of(x="11"), program)
    assert report == reference_explore(Store.of(x="11"), program)
    assert report.visited_states == states


@st.composite
def groupings(draw, statements):
    """One command of ``statements`` in order, grouped by some ``Seq``s."""
    if len(statements) == 1:
        return statements[0]
    k = draw(st.integers(1, len(statements) - 1))
    return Seq(draw(groupings(statements[:k])), draw(groupings(statements[k:])))


LOOP_BRANCHES = regrouped(*REGROUPED[0][:2]).command("b")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(commands, min_size=2, max_size=4).flatmap(
    lambda statements: st.tuples(groupings(statements), groupings(statements))), stores)
@example((LOOP_BRANCHES.then_branch, LOOP_BRANCHES.else_branch), Store.of(x="11"))
def test_branches_that_group_one_list_two_ways_explore_as_equal_ones(branches, store):
    first, second = branches

    def program(then_branch):
        guard = OpCall("gt0", (Var("y"),))
        return Program.of({"a": Assign("y", OpCall('"1"', ())), "b": If(guard, then_branch, second)})

    want = explore(store, program(second), max_steps=15, max_states=400)
    assert explore(store, program(first), max_steps=15, max_states=400) == want


def test_long_sequence_needs_no_recursion():
    # Seq chains this long raised RecursionError when states were keyed
    # on command trees.
    cmds = [Assign("x", OpCall("sub1", (Var("x"),))) if i % 2 else
            Assign("y", OpCall("add1", (Var("y"),))) for i in range(3000)]
    program = Program.single(seq_all(cmds))
    store = Store.of(x="1" * 1600)
    run = run_with_scheduler(store, program, RoundRobin())
    assert (run.finished, run.steps, run.store.lookup("y")) == (True, 3000, "1" * 1500)
    report = explore(store, program, max_steps=5000)
    assert (report.visited_states, report.max_steps_terminating) == (3001, 3000)
    registry = default_registry()
    sig_env = {op: maximal_safe_sigs(registry.resolve(op)) for op in ("sub1", "add1")}
    gamma = {"x": Tier.ONE, "y": Tier.ZERO}
    tiers = tier_preservation(store, program, gamma, sig_env)
    assert (tiers.passed, tiers.complete, tiers.edges_checked) == (True, True, 3000)


def test_a_loop_nest_grows_the_table_by_one_node_per_loop():
    # Each unfolding leaves the body before one shared continuation, so
    # stepping the n-deep nest adds a node per loop.  Re-nesting the
    # residual's sequences around each redex added about n * n / 2.
    n = 1000
    program = parse("op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"
                    "vars { x : 1; }\nthread t { " + "while (gt0(x)) { " * n
                    + "x := pred(x)" + " }" * n + " }\n").program()
    sources = len(program.table.nodes)
    run = run_with_scheduler(Store.of(x="1"), program, FirstAlive())
    assert (run.finished, run.steps, run.loops) == (True, 2 * n + 1, n)
    assert len(program.table.nodes) - sources <= n + 4


@settings(derandomize=True, max_examples=60, deadline=None)
@given(programs, stores)
def test_a_residual_sequence_starts_with_a_source_command(program, store):
    # A thread's root and every residual is one right-nested sequence of
    # source statements, so no sequence sits on the left of another in
    # any slot, however its thread was grouped.
    table = program.table
    sources = len(table.nodes)
    explore(store, program, max_steps=15, max_states=400)
    for slot in (*table.roots, *range(sources, len(table.nodes))):
        while table.keys[slot][0] is Seq:
            first, slot = table.keys[slot][1:]
            assert first < sources and table.keys[first][0] is not Seq, table.nodes[first]


def test_command_tiers_walks_long_loop_bodies_without_recursion():
    # The body is one 1500-statement sequence inside a loop, so
    # tier_preservation cannot split it per slot.
    body = seq_all([Assign("x", OpCall("sub1", (Var("x"),)))] * 1500)
    program = Program.single(While(OpCall("gt0", (Var("x"),)), body))
    registry = default_registry()
    sig_env = {op: maximal_safe_sigs(registry.resolve(op)) for op in ("gt0", "sub1")}
    gamma = {"x": Tier.ONE}
    assert command_tiers(gamma, sig_env, program.command("main")) == {Tier.ONE}
    report = tier_preservation(Store.of(x="1"), program, gamma, sig_env)
    assert (report.passed, report.complete, report.edges_checked) == (True, True, 1502)


def test_deep_expressions_need_no_recursion():
    # A frozen dataclass hashes recursively, so building a table must key
    # nothing on an AST node, and a compiled expression must not nest one
    # closure per level.
    expr = Var("x")
    for _ in range(1500):
        expr = OpCall("pred", (expr,))
    program = Program.single(seq_all([Assign("x", expr), While(OpCall("gt0", (expr,)), Skip())]))
    run = run_with_scheduler(Store.of(x="11"), program, FirstAlive())
    assert (run.finished, run.steps, run.store) == (True, 2, Store())
    assert eval_expr(Store.of(x="1" * 1502), expr) == "11"
    registry = default_registry()
    sig_env = {op: maximal_safe_sigs(registry.resolve(op)) for op in ("gt0", "pred")}
    report = tier_preservation(Store.of(x="11"), program, {"x": Tier.ONE}, sig_env)
    assert (report.passed, report.complete, report.edges_checked) == (True, True, 4)


def expression_count(table):
    """How many of the table's ids are expressions' (the rest are slots)."""
    return sum(isinstance(node, (Var, OpCall)) for node in table.nodes)


def redex_expression(table, slot):
    """The id of the guard or assigned expression that ``slot`` steps
    (``None`` for a skip)."""
    while table.keys[slot][0] is Seq:
        slot = table.keys[slot][1]
    return None if table.keys[slot][0] is Skip else table.keys[slot][1]


def test_slots_that_share_an_expression_share_one_function():
    # The machine repeats its guards and assignments in every state
    # branch: 70 slots step an expression, and 28 expressions are distinct.
    program = compile_tm(parse_tm(fixture_text("binary_inc.tm"))).source.program()
    nodes = list(walk(program.command("machine")))
    expressions = {node for node in nodes if isinstance(node, (Var, OpCall))}
    redex_exprs = {node.expr if isinstance(node, Assign) else node.guard
                   for node in nodes if isinstance(node, (Assign, If, While))}
    table = program.table
    reached, frontier = set(), list(table.roots)
    while frontier:
        slot = frontier.pop()
        if slot != DONE and slot not in reached:
            reached.add(slot)
            frontier.extend(table.successors(slot))
    fns = [entry[5] for entry in table._entries if entry is not None and entry[5] is not None]
    assert (len(expressions), len(fns)) == (28, 70)
    assert len(table._fns) == len({id(fn) for fn in fns}) == len(redex_exprs)
    for slot in reached:
        expr = redex_expression(table, slot)
        assert table._entries[slot][5] is (None if expr is None else table._fns[expr])


def test_a_variable_and_a_call_of_the_same_name_stay_apart():
    program = Program.single(Seq(Assign("z", OpCall("x")), Assign("y", Var("x"))))
    with pytest.raises(UnknownOperatorError) as err:
        run_with_scheduler(Store.of(x="1"), program, FirstAlive(), fuel=1)
    assert err.value.args == ("x",)


def test_a_call_with_the_wrong_argument_count_raises_when_it_steps():
    # The parser rejects such a call; one built in code compiles to a
    # function that raises, when it steps, what ``eval_expr`` raises.
    call = OpCall("pred", (Var("x"), Var("x")))
    program = Program.single(Assign("y", call))
    message = "pred expects 1 arguments, got 2"
    with pytest.raises(TypeError, match=message):
        eval_expr(Store.of(x="1"), call)
    with pytest.raises(TypeError, match=message):
        run_with_scheduler(Store.of(x="1"), program, FirstAlive())
    with pytest.raises(TypeError, match=message):
        explore(Store.of(x="1"), program)


def test_walking_a_table_never_evaluates():
    # A bad call is an error of evaluating it, not of compiling its slot:
    # ``successors`` compiles every slot it is asked about, and subject
    # reduction walks them all without raising.
    registry = default_registry()
    sig_env = {op: maximal_safe_sigs(registry.resolve("pred")) for op in ("pred", "nosuch")}
    gamma = {"x": Tier.ONE}
    reports = []
    for call in (OpCall("pred", (Var("x"), Var("x"))), OpCall("nosuch", (Var("x"),))):
        program = Program.single(Seq(Assign("x", call), Skip()))
        table = program.table
        assert [table.successors(slot) for slot in table.roots] == [(table.keys[table.roots[0]][2],)]
        reports.append(tier_preservation(Store.of(x="1"), program, gamma, sig_env))
    wrong_count, unknown = reports
    assert (wrong_count.passed, wrong_count.edges_checked, wrong_count.complete) == (False, 1, True)
    violation = wrong_count.violation
    assert (violation.thread, violation.depth, violation.before, violation.after) == (
        "main", 0, "x := pred(x, x);\nskip", "skip")
    assert (violation.tiers_before, violation.tiers_after) == ((), ("0", "1"))
    assert (unknown.passed, unknown.edges_checked, unknown.complete, unknown.violation) == (
        True, 2, True, None)


def _bad_calls(inner):
    # Any operator name, known or not, over any number of arguments, so
    # some calls have the wrong count; and calls that reuse an argument.
    return st.one_of(
        st.builds(lambda op, args: OpCall(op, tuple(args)),
                  st.sampled_from(("pred", "concat", "gt0", "nosuch")), st.lists(inner, max_size=3)),
        st.builds(lambda op, a: OpCall(op, (a, a)), st.sampled_from(("concat", "eq", "pred")), inner),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.recursive(expressions, _bad_calls, max_leaves=6), stores)
def test_a_stepped_expression_gives_what_eval_expr_gives(expr, store):
    program = Program.single(Assign("y", expr))
    try:
        want = eval_expr(store, expr)
    except (UnknownOperatorError, TypeError) as err:
        with pytest.raises(type(err)) as got:
            run_with_scheduler(store, program, FirstAlive())
        assert got.value.args == err.args
    else:
        assert run_with_scheduler(store, program, FirstAlive()).store.lookup("y") == want


def test_a_run_compiles_only_the_slots_it_reaches(monkeypatch):
    # A clock of degree 1000 nests 2001 counting loops; compiling every
    # slot up front takes seconds where the run on the empty word takes
    # a few thousand steps.
    text = fixture_text("binary_inc.tm").replace("\nclock 1\n", "\nclock 1000\n")
    program = compile_tm(parse_tm(text)).source.program()
    compiled = []
    compile_slot = ControlTable._compile

    def recording(self, slot):
        compiled.append(slot)
        return compile_slot(self, slot)

    monkeypatch.setattr(ControlTable, "_compile", recording)
    run = run_with_scheduler(Store(), program, FirstAlive())
    assert run.finished
    monkeypatch.undo()
    # Single steps on a table of its own number the slots alike, and
    # first come to them in the order they compiled.
    reference = ControlTable(cmd for _, cmd in program.threads)
    cells, stepped = [""] * len(reference.variables) + [reference.roots[0]], []
    while cells[-1] != DONE:
        stepped.append(cells[-1])
        reference.advance(cells, len(cells) - 1, 1)
    assert compiled == list(dict.fromkeys(stepped))
    table = program.table
    assert {slot for slot, entry in enumerate(table._entries) if entry is not None} == set(stepped)
    assert len(stepped) < len(table.nodes) - expression_count(table)


def test_tier_preservation_types_each_node_once(monkeypatch):
    # Each unfolding of a nested loop leaves a residual that repeats the
    # loops around it, so typing residuals one by one looks the same
    # operator calls up again and again.  The table pass looks up each
    # distinct expression's operator once: gt0(x), pred(x) and pred(y).
    cmd = Assign("y", OpCall("pred", (Var("y"),)))
    for _ in range(60):
        step = Assign("x", OpCall("pred", (Var("x"),)))
        cmd = While(OpCall("gt0", (Var("x"),)), Seq(step, cmd))
    calls = sum(isinstance(node, OpCall) for node in walk(cmd))
    registry = default_registry()
    sig_env = {op: maximal_safe_sigs(registry.resolve(op)) for op in ("gt0", "pred")}
    looked_up = []
    op_sigs = typecheck._op_sigs

    def counting(call, *args):
        looked_up.append(call)
        return op_sigs(call, *args)

    monkeypatch.setattr(typecheck, "_op_sigs", counting)
    report = tier_preservation(Store(), Program.single(cmd), {"x": Tier.ONE, "y": Tier.ONE},
                               sig_env)
    assert report.passed
    assert (calls, sorted(looked_up)) == (121, ["gt0", "pred", "pred"])


def test_a_program_builds_one_control_table(monkeypatch):
    built = []
    init = ControlTable.__init__

    def counting(self, commands):
        built.append(self)
        init(self, commands)

    monkeypatch.setattr(ControlTable, "__init__", counting)
    source = load_source("zrange.tier")
    program, gamma = source.program(), source.annotations()
    sig_env, _ = build_sig_env(source, default_registry())
    for _ in range(2):
        run_with_scheduler(Store.of(x="11", y="1"), program, RoundRobin(), fuel=300)
        explore(Store.of(x="1", y="11"), program)
        for mode in ("scheduler", "explore"):
            ni_suite(program, gamma, RoundRobin(), trials=3, max_len=3, mode=mode)
        quietness_test(RoundRobin(), program, gamma, trials=3, max_len=3)
        measure_growth(program, lambda n: {"x": "1" * n, "y": "1"}, [1, 2, 3], RoundRobin())
        tier_preservation(Store(), program, gamma, sig_env)
    assert built == [program.table]


def test_a_check_generates_no_function(monkeypatch):
    # Typing reads the table's keys; functions wait for the first step
    # of a slot that evaluates them.
    generated = []
    generate = ControlTable._generate

    def counting(self, expr):
        generated.append(expr)
        return generate(self, expr)

    monkeypatch.setattr(ControlTable, "_generate", counting)
    for source in (load_source("binary_add.tier"),
                   compile_tm(parse_tm(fixture_text("binary_inc.tm"))).source):
        assert check_program(source).safe
        assert generated == []
        run_with_scheduler(Store(), source.program(), FirstAlive(), fuel=3)
        table = source.program().table
        stepped = [slot for slot, entry in enumerate(table._entries) if entry is not None]
        expected = {redex_expression(table, slot) for slot in stepped} - {None}
        assert (sorted(generated), len(generated)) == (sorted(expected), len(expected))
        generated.clear()


def test_expressions_of_one_shape_share_generated_code(monkeypatch):
    # ``gt0(x)`` and ``pred(y)`` differ in operator and variable only, so
    # the second program's table binds the first one's factory.
    sources = []

    def recording(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(semantics, "_FACTORIES", {})
    monkeypatch.setattr(semantics, "exec", recording, raising=False)
    for text in ("op gt0 arity 1 class neutral; thread a { if (gt0(x)) { skip } else { skip } }",
                 "op pred arity 1 class neutral; thread a { y := pred(y) }"):
        run_with_scheduler(Store.of(x="1", y="11"), parse(text).program(), FirstAlive())
    assert len(sources) == 1
    # Its only words are its own: no operator, literal or variable name.
    assert set(re.findall(r"[^\W\d]\w*", sources[0])) == {"def", "factory", "fn", "return", "s",
                                                           "a0", "a1", "v1"}


def test_a_word_literal_is_never_source_text():
    # The parser takes a literal in double quotes only; one built in code
    # may hold any text, Python syntax included.
    word = '"x"); raise SystemExit("boom"'
    program = Program.single(Assign("y", OpCall(word, ())))
    run = run_with_scheduler(Store(), program, FirstAlive())
    assert (run.finished, run.store) == (True, Store.of(y=word[1:-1]))


def test_a_bad_call_inside_a_call_raises_what_eval_expr_raises():
    # ``eval_expr`` resolves ``outer`` before it reaches the wrong
    # argument count of ``pred``; every stepper raises the same.
    call = OpCall("outer", (OpCall("pred", (Var("x"), Var("x"))),))
    program = Program.single(Assign("y", call))
    with pytest.raises(UnknownOperatorError) as err:
        eval_expr(Store.of(x="1"), call)
    assert err.value.args == ("outer",)
    with pytest.raises(UnknownOperatorError) as err:
        run_with_scheduler(Store.of(x="1"), program, FirstAlive())
    assert err.value.args == ("outer",)
    with pytest.raises(UnknownOperatorError) as err:
        explore(Store.of(x="1"), program)
    assert err.value.args == ("outer",)


def test_a_run_after_a_check_builds_no_second_table(monkeypatch, tmp_path, capsys):
    built = []
    init = ControlTable.__init__

    def counting(self, commands):
        built.append(self)
        init(self, commands)

    monkeypatch.setattr(ControlTable, "__init__", counting)
    source = load_source("zrange.tier")
    assert check_program(source).safe
    run_with_scheduler(Store.of(x="11", y="1"), source.program(), RoundRobin(), fuel=300)
    assert built == [source.program().table]
    path = tmp_path / "zrange.tier"
    path.write_text(fixture_text("zrange.tier"))
    assert main(["run", str(path), "--input", "x=11", "--input", "y=1"]) == 0
    assert capsys.readouterr().out.startswith("terminated after 11 steps")
    assert len(built) == 2  # the gate's check and the run share one table


def test_one_table_serves_runs_of_several_programs():
    # Each program's one table serves all its runs, with runs of other
    # programs in between, and they match runs on freshly built tables.
    zrange, spin = load_source("zrange.tier").program(), load_source("spin.tier").program()
    tables = (zrange.table, spin.table)
    roots = tuple(table.roots for table in tables)
    for name, program, store in (("zrange.tier", zrange, Store.of(x="11", y="1")),
                                 ("spin.tier", spin, Store.of(x="1")),
                                 ("zrange.tier", zrange, Store.of(x="1", y="111"))):
        fresh = run_with_scheduler(store, load_source(name).program(), RoundRobin(), fuel=300)
        shared = run_with_scheduler(store, program, RoundRobin(), fuel=300)
        assert shared == fresh
        assert tuple(shared.trace()) == tuple(fresh.trace())
    assert (zrange.table, spin.table) == tables
    assert tuple(table.roots for table in tables) == roots
    assert spin.table.nodes[spin.table.roots[0]] == spin.command("spinner")


def test_explorations_read_the_table_for_the_free_variables(monkeypatch):
    source = load_source("zrange.tier")
    program, gamma = source.program(), source.annotations()
    assert program.table.variables == tuple(sorted(free_vars(program))) == ("x", "y", "z")
    walked = []
    walk = lang.walk

    def counting(node):
        walked.append(node)
        return walk(node)

    monkeypatch.setattr(lang, "walk", counting)
    explore(Store.of(x="1", y="11"), program)
    for mode in ("scheduler", "explore"):
        ni_suite(program, gamma, RoundRobin(), trials=3, max_len=3, mode=mode)
    assert walked == []


# --- skipping the periods of a repeating run ------------------------------------------


class CountedEntries(list):
    """A table's step entries that log the slot of each entry read."""

    def __init__(self, entries, taken):
        super().__init__(entries)
        self.taken = taken

    def __getitem__(self, slot):
        self.taken.append(slot)
        return super().__getitem__(slot)


@pytest.fixture
def counted_steps(monkeypatch):
    """How many steps runs actually take on the tables built from now on:
    a step reads its slot's entry once, in ``ControlTable.advance``."""
    taken = []
    init = ControlTable.__init__

    def counting(self, commands):
        init(self, commands)
        self._entries = CountedEntries(self._entries, taken)

    monkeypatch.setattr(ControlTable, "__init__", counting)
    return taken


@pytest.mark.parametrize("scheduler", [RoundRobin(), FirstAlive()], ids=lambda s: s.name)
def test_repeating_runs_skip_to_the_fuel_bound(scheduler, counted_steps):
    spin = load_source("spin.tier").program()
    run = run_with_scheduler(Store.of(x="1"), spin, scheduler, fuel=1_000_001)
    assert (run.finished, run.steps, run.loops, len(run.choices)) == (
        False, 1_000_001, 500_001, 1_000_001)
    assert run.residual == Program.of({"spinner": Seq(Skip(), spin.command("spinner"))})
    assert len(counted_steps) < 100


@pytest.mark.parametrize("name", ["spin.tier", "flip"])
def test_a_traced_run_skips_as_an_untraced_one(name, monkeypatch, counted_steps):
    # The trace is replayed from the run's choices when it is read: every
    # entry is a step the run took, a run whose trace is read is built as
    # one whose trace is not, and it skips its periods as that one does.
    monkeypatch.setattr(scheduling, "TRACE_CAP", 50)
    advanced = []  # one entry per ``advance`` call
    advance = ControlTable.advance
    monkeypatch.setattr(ControlTable, "advance",
                        lambda self, *args: advanced.append(args) or advance(self, *args))
    program = fixture_program(name)
    store = Store.of(x="1")
    traced = run_with_scheduler(store, program, RoundRobin(), fuel=1_000_001)
    built_calls, built_steps = len(advanced), len(counted_steps)
    plain = run_with_scheduler(store, program, RoundRobin(), fuel=1_000_001)
    assert (len(advanced), len(counted_steps)) == (2 * built_calls, 2 * built_steps)
    trace = traced.trace()
    assert len(counted_steps) == 2 * built_steps  # nothing replays until the trace is read
    entries = [(e.index, e.thread, e.rule, e.loops, e.assigned, e.store) for e in trace]
    replayed = len(counted_steps) - 2 * built_steps
    assert replayed == 50
    assert 50 <= built_steps + replayed <= scheduling.TRACE_CAP + 100
    assert (traced.store, traced.residual, traced.steps, traced.loops, traced.finished) == (
        plain.store, plain.residual, plain.steps, plain.loops, plain.finished)
    assert tuple(traced.choices) == tuple(plain.choices)
    *_, want = reference_scheduled(store, program, RoundRobin(), fuel=50)
    assert entries == want
    assert list(traced.trace()) == entries  # each call replays anew


# Two threads that flip a word each, ``a`` with a period of 2 steps and
# ``b`` of 8; under round-robin the run first repeats after 34 steps.
TWO_FLIPS = """
op gt0 arity 1 class neutral;
op not arity 1 class neutral;
vars { x : 1; y : 0; z : 0; }
thread a { while (gt0(x)) { y := not(y) } }
thread b { while (gt0(x)) { z := not(z); z := not(z); z := not(z) } }
"""


class CountedRoundRobin(RoundRobin):
    """Round-robin that counts the times it is asked."""

    def __init__(self):
        self.asked = 0

    def choose(self, tids, store, state):
        self.asked += 1
        return super().choose(tids, store, state)


def test_tracing_does_not_change_the_run(monkeypatch):
    # The run repeats after 34 steps, before a 50-step trace is full;
    # reading the trace must change neither where the lasso splits nor the
    # scheduler's calls, and its replay asks the scheduler nothing.
    monkeypatch.setattr(scheduling, "TRACE_CAP", 50)
    program = parse(TWO_FLIPS).program()
    store = Store.of(x="1")
    runs = []
    for _ in range(2):
        scheduler = CountedRoundRobin()
        runs.append((run_with_scheduler(store, program, scheduler, fuel=1_000_001), scheduler))
    (traced, traced_scheduler), (plain, plain_scheduler) = runs
    trace = tuple(traced.trace())
    assert replace(traced, choices=None) == replace(plain, choices=None)
    assert vars(traced.choices) == vars(plain.choices)
    assert traced_scheduler.asked == plain_scheduler.asked
    assert len(trace) == 50


def test_skipped_periods_take_no_memory_for_their_choices():
    spin = load_source("spin.tier").program()
    tracemalloc.start()
    try:
        run = run_with_scheduler(Store.of(x="1"), spin, RoundRobin(), fuel=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(run.choices), set(run.choices)) == (2_000_000, {"spinner"})
    assert peak < 1_000_000


def test_a_lone_thread_keeps_no_choice_per_step():
    add = load_source("add.tier").program()
    tracemalloc.start()
    try:
        run = run_with_scheduler(Store.of(x="1" * 20_000), add, RoundRobin(), fuel=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (run.finished, len(run.choices), set(run.choices)) == (True, 60_001, {"adder"})
    assert peak < 200_000


class Alternate(Scheduler):
    """Round-robin without the claim that its choices can be replayed."""

    def choose(self, tids, store, state):
        return RoundRobin().choose(tids, store, state)


@pytest.mark.parametrize("scheduler", [SeededRandom(3), Alternate()], ids=lambda s: s.name)
def test_schedulers_that_do_not_opt_in_step_every_step(scheduler, counted_steps):
    # Both threads spin forever, so the scheduler is asked at every step.
    run = run_with_scheduler(Store.of(x="1"), fixture_program("flip"), scheduler, fuel=2000)
    assert (run.steps, len(counted_steps)) == (2000, 2000)


def test_a_lone_thread_skips_periods_under_any_scheduler(counted_steps):
    # With one thread left the scheduler is not asked, so its state no
    # longer changes and a repeating run is periodic.
    spin = load_source("spin.tier").program()
    want = run_with_scheduler(Store.of(x="1"), spin, RoundRobin(), fuel=10**9)
    del counted_steps[:]
    run = run_with_scheduler(Store.of(x="1"), spin, SeededRandom(3), fuel=10**9)
    # Field for field, with the choices compared by their parts, not by
    # iterating a billion ids.
    assert replace(run, choices=None) == replace(want, choices=None)
    assert vars(run.choices) == vars(want.choices)
    assert (run.steps, run.choices.length) == (10**9, 10**9)
    assert len(counted_steps) < 100


LONE_LOOP_OPS = "op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"


def test_a_repeated_last_write_compares_the_loop_body_first():
    # The loop's last write leaves ``a0`` empty, as the checkpoint has it,
    # so the repeat test compares the positions the body assigns, ``a0``
    # and ``x``, before the state's 2003 words, of which ``x`` comes last.
    assigns = "".join(f"a{i} := pred(a{i}); " for i in range(1, 2001))
    program = parse(LONE_LOOP_OPS + "thread t { " + assigns
                    + "while (gt0(x)) { x := pred(x); a0 := pred(a0) } }").program()
    run = run_with_scheduler(Store.of(x="1" * 50), program, FirstAlive(), fuel=10**6)
    assert (run.finished, run.steps, run.loops) == (True, 2000 + 3 * 50 + 1, 50)
    table = program.table
    assert list(table._writes.values()) == [[table.variables.index(v) for v in ("a0", "x")]]


@pytest.mark.parametrize("body", ["y := pred(y)", "skip"])
def test_a_loop_that_writes_nothing_new_still_repeats(body, counted_steps):
    program = parse(LONE_LOOP_OPS + "thread t { while (gt0(x)) { " + body + " } }").program()
    run = run_with_scheduler(Store.of(x="1"), program, FirstAlive(), fuel=10**6)
    assert (run.finished, run.steps, run.loops) == (False, 10**6, 5 * 10**5)
    assert len(counted_steps) < 100
