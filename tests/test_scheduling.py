"""Thread pools, schedulers, bounded exhaustive exploration, quietness."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierlang import (
    Assign,
    OpCall,
    Program,
    Seq,
    Store,
    Tier,
    Var,
    parse,
    unary,
    word_literal,
)
from tierlang import scheduling
from tierlang.fixtures import load_source
from tierlang.lang import free_vars
from tierlang.semantics import DONE
from tierlang.scheduling import (
    Choices,
    FirstAlive,
    RoundRobin,
    Scheduler,
    SeededRandom,
    StateGraph,
    dump_global_trace,
    explore,
    longest_terminating,
    named_schedulers,
    quietness_test,
    random_equiv_stores,
    run_with_scheduler,
    step_global,
)


def zrange_program():
    return load_source("zrange.tier").program()


def step_root(table, program, store, index):
    """Step thread ``index`` of the program's flat root state from
    ``store``: the store and the slots of the new state, and the rule."""
    names = table.variables
    assert names == tuple(sorted(free_vars(program)))
    state, rule = step_global(table, (*map(store.lookup, names), *table.roots), index)
    return Store(zip(names, state)), state[len(names):], rule


def test_step_global_removes_finished_thread():
    program = Program.of({"solo": Assign("y", Var("x"))})
    table = program.table
    store, slots, rule = step_root(table, program, Store.of(x="1"), 0)
    assert rule == "assign"
    assert store == Store.of(x="1", y="1")
    assert slots == (DONE,)


def test_step_global_counts_loop_unfoldings():
    program = zrange_program()
    table = program.table
    _, slots, rule = step_root(table, program, Store.of(x="1", y="1"), 0)
    assert program.thread_ids() == ("bump", "wipe")
    assert rule == "while-tt"
    assert slots[1] == table.roots[1]
    bump = program.command("bump")
    # the body's two statements, then the loop, as one right-nested sequence
    assert table.nodes[slots[0]] == Seq(bump.body.first, Seq(bump.body.second, bump))


def test_round_robin_alternates_in_name_order():
    run = run_with_scheduler(Store.of(x="1", y="1"), zrange_program(), RoundRobin())
    assert run.finished
    assert tuple(run.choices) == ("bump", "wipe") * 4
    assert run.steps == 8
    assert run.loops == 2
    # wipe zeroes z after bump grew it
    assert run.store.lookup("z") == ""


def test_global_trace_dump():
    run = run_with_scheduler(Store.of(x="1", y="1"), zrange_program(), RoundRobin())
    assert "\n".join(dump_global_trace(run)) == "\n".join([
        "step\tthread\trule\tloops\tassignment",
        "1\tbump\twhile-tt\t1\t-",
        "2\twipe\twhile-tt\t2\t-",
        "3\tbump\tassign\t2\tz='1'",
        "4\twipe\tassign\t2\tz=''",
        "5\tbump\tassign\t2\tx=''",
        "6\twipe\tassign\t2\ty=''",
        "7\tbump\twhile-ff\t2\t-",
        "8\twipe\twhile-ff\t2\t-",
    ])


def test_first_alive_starves_the_second_thread():
    run = run_with_scheduler(Store.of(x="11", y="1"), zrange_program(), FirstAlive())
    assert tuple(run.choices) == ("bump",) * 7 + ("wipe",) * 4
    # bump finished untouched by wipe, so z held both letters before the wipe
    assert run.store.lookup("z") == ""


def test_seeded_random_is_reproducible():
    store = Store.of(x="11", y="11")
    first = run_with_scheduler(store, zrange_program(), SeededRandom(5))
    again = run_with_scheduler(store, zrange_program(), SeededRandom(5))
    other = run_with_scheduler(store, zrange_program(), SeededRandom(6))
    assert first.choices == again.choices
    assert first.choices != other.choices


@pytest.mark.parametrize("scheduler", named_schedulers(seed=3).values(), ids=lambda s: s.name)
def test_a_finished_run_leaves_the_empty_program(scheduler):
    run = run_with_scheduler(Store.of(x="11", y="1"), zrange_program(), scheduler)
    assert run.finished
    assert run.residual == Program(())
    assert run.residual.threads == () and run.residual.thread_ids() == ()


@pytest.mark.parametrize("scheduler", named_schedulers(seed=3).values(), ids=lambda s: s.name)
def test_bindings_the_program_never_mentions_come_back_unchanged(scheduler):
    # ``w`` and ``a`` are bound but never mentioned, so the result and each
    # trace entry are those of the run without them, with them added.
    extra = {"w": "0110", "a": "T"}
    plain = run_with_scheduler(Store.of(x="11", y="1"), zrange_program(), scheduler)
    store = Store.of(x="11", y="1", **extra)
    run = run_with_scheduler(store, zrange_program(), scheduler)
    assert store == Store.of(x="11", y="1", **extra)  # the input store is not changed

    def with_extra(got):
        return Store({**dict(got.items()), **extra})

    assert run.store == with_extra(plain.store)
    entries, plain_entries = list(run.trace()), list(plain.trace())
    assert len(entries) == len(plain_entries) == plain.steps
    for entry, want in zip(entries, plain_entries):
        assert entry._replace(store=None) == want._replace(store=None)
        assert entry.store == with_extra(want.store), entry.index


def test_programs_run_alternately_keep_their_own_thread_positions():
    # Each program places its threads after its own variables; runs of two
    # programs with different thread names and variables, taken in turn,
    # match runs of fresh copies of each.
    racing = zrange_program()
    counting = parse(
        "op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\nvars { n : 1; }\n"
        "thread a { while (gt0(n)) { n := sub1(n) } }\nthread b { skip }\n"
        "thread c { n := sub1(n) }\n").program()
    assert racing.positions == {"bump": 3, "wipe": 4}
    assert counting.positions == {"a": 1, "b": 2, "c": 3}
    stores = {racing: Store.of(x="11", y="1"), counting: Store.of(n="111")}
    for _ in range(2):
        for program, store in stores.items():
            run = run_with_scheduler(store, program, RoundRobin())
            fresh = run_with_scheduler(store, Program(program.threads), RoundRobin())
            assert run == fresh
            assert list(run.trace()) == list(fresh.trace())


LIVE_SETS = [tids for size in (1, 2, 3) for tids in itertools.combinations("abc", size)]


def test_round_robin_picks_the_next_live_id_after_the_last_choice():
    # The last choice may be any id, also one that has finished since.
    for tids in LIVE_SETS:
        for last in (None, "a", "b", "c"):
            want, state = [], last
            for _ in range(6):
                later = [tid for tid in tids if state is None or tid > state]
                state = (later or tids)[0]
                want.append((state, state))
            got = list(itertools.islice(RoundRobin().picks(tids, last, None), 6))
            assert got == want, (tids, last)


def test_random_draws_once_per_pair_taken():
    for seed in (0, 3, 7):
        for tids in LIVE_SETS:
            for k in range(5):
                state = SeededRandom(seed).fresh_state()
                got = list(itertools.islice(SeededRandom(seed).picks(tids, state, None), k))
                drawn = random.Random(seed)
                assert got == [(drawn.choice(tids), state) for _ in range(k)]
                assert state.getstate() == drawn.getstate(), (seed, tids, k)


def test_choices_iterate_and_compare_by_content():
    lasso = Choices(("a",), ("b", "c"), 5)
    flat = Choices(("a", "b", "c", "b", "c", "b"))
    assert (lasso, hash(lasso), len(lasso)) == (flat, hash(flat), 6)
    assert tuple(lasso) == flat.prefix
    assert lasso != Choices(("a", "b", "c", "b", "c", "c"))
    assert lasso != Choices(("a", "b", "c", "b", "c"))


def test_billion_id_choices_compare_and_hash_by_their_parts():
    # One sequence split two ways: a cycle of two and a prefix of one,
    # against the same cycle twice over, one id further on.
    lasso = Choices(("x",), ("a", "b"), 10**9)
    split = Choices(("x", "a"), ("b", "a", "b", "a"), 10**9 - 1)
    # Equal to both, but for its fifth id.
    near = Choices(("x", "a", "b", "a", "c"), ("a", "b"), 10**9 - 4)
    start = time.perf_counter()
    assert (lasso, hash(lasso), len(lasso)) == (split, hash(split), len(split))
    assert (lasso != near, len(lasso)) == (True, len(near))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("left, right", [
    # Three laps of a four-id cycle, and a long prefix before three laps
    # of one id: no reshaping of either lasso gives the other.
    (Choices(tuple("abbbabbba"), ("b",), 3), Choices((), tuple("abbb"), 12)),
    # Lassos cut off inside their first lap.
    (Choices(("a",), ("b", "c", "d"), 1), Choices(("a", "b"), ("z",), 0)),
    (Choices((), ("a", "b", "a"), 2), Choices((), ("a", "b"), 2)),
])
def test_choices_of_one_sequence_are_equal_however_shaped(left, right):
    assert tuple(left) == tuple(right)
    assert (left, hash(left)) == (right, hash(right))
    assert (left, hash(left)) == (Choices(tuple(left)), hash(Choices(tuple(left))))


@settings(max_examples=300)
@given(*[st.tuples(st.lists(st.sampled_from("ab"), max_size=5).map(tuple),
                   st.lists(st.sampled_from("ab"), min_size=1, max_size=4).map(tuple),
                   st.integers(0, 12))] * 2)
def test_choices_compare_as_their_ids(left, right):
    left, right = Choices(*left), Choices(*right)
    assert (left == right) == (tuple(left) == tuple(right))
    assert hash(left) == hash(Choices(tuple(left)))


def test_scheduler_fuel_bound():
    spin = load_source("spin.tier").program()
    run = run_with_scheduler(Store.of(x="1"), spin, RoundRobin(), fuel=30)
    assert not run.finished
    assert run.steps == 30
    assert run.residual.thread_ids() == ("spinner",)


class Offered(Scheduler):
    """A scheduler that records the live ids each choice is offered."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.pure = inner.name, inner.pure
        self.offered = []

    def fresh_state(self):
        return self.inner.fresh_state()

    def picks(self, tids, state, store):
        for pair in self.inner.picks(tids, state, store):
            self.offered.append(tids)
            yield pair


@pytest.mark.parametrize("name", ["intro_sync", "mul", "zrange"])
def test_a_lone_thread_steps_without_a_choice(name):
    # Each of these runs ends with one thread left, finished or out of fuel.
    program = load_source(f"{name}.tier").program()
    for inner in named_schedulers(seed=3).values():
        for store in (Store.of(x="1", y="11"), Store.of(x="TT", y="T"), Store.of(x="F", y="T")):
            scheduler = Offered(inner)
            run = run_with_scheduler(store, program, scheduler, fuel=500)
            assert all(len(tids) > 1 for tids in scheduler.offered), (inner.name, store)
            assert len(scheduler.offered) < len(run.choices), (inner.name, store)


# --- exploration ---------------------------------------------------------------


def test_explore_commuting_assignments():
    prog = Program.of({
        "a": Assign("x", OpCall("add1", (Var("x"),))),
        "b": Assign("y", OpCall("add1", (Var("y"),))),
    })
    rep = explore(Store(), prog)
    # root, each single step, and the shared final state
    assert rep.visited_states == 4
    assert rep.terminal_stores == frozenset({Store.of(x="1", y="1")})
    assert rep.max_steps_terminating == 2
    assert rep.max_loops_terminating == 0
    assert rep.strongly_terminating


def test_explore_race_on_one_variable():
    prog = Program.of({
        "a": Assign("x", word_literal("0")),
        "b": Assign("x", word_literal("1")),
    })
    rep = explore(Store(), prog)
    assert rep.visited_states == 5
    assert rep.terminal_stores == frozenset({Store.of(x="0"), Store.of(x="1")})


def test_explore_zrange_exact():
    rep = explore(Store.of(x=unary(2), y=unary(2)), zrange_program())
    assert rep.strongly_terminating
    assert rep.visited_states == 118
    lengths = sorted({len(s.lookup("z")) for s in rep.terminal_stores})
    assert lengths == [0, 1, 2]
    assert rep.max_steps_terminating == 14
    assert rep.max_loops_terminating == 4


def test_explore_finds_spin_cycle():
    rep = explore(Store.of(x="1"), load_source("spin.tier").program())
    assert rep.cycle_found
    assert rep.complete
    assert not rep.strongly_terminating
    assert rep.terminal_stores == frozenset()
    assert rep.max_steps_terminating is None
    assert rep.visited_states == 2


def test_explore_depth_cap_reported():
    rep = explore(Store.of(x=unary(2), y=unary(2)), zrange_program(), max_steps=3)
    assert not rep.complete
    assert not rep.strongly_terminating


def test_explore_counts_stuck_guards():
    from tierlang import While, Skip

    prog = Program.of({"t": While(OpCall("head", (Var("x"),)), Skip())})
    rep = explore(Store.of(x="1"), prog)
    assert rep.stuck_states == 1
    assert not rep.complete


def test_exploration_report_round_trips_to_dict():
    rep = explore(Store.of(x="1", y="1"), zrange_program())
    data = rep.to_dict()
    assert data["strongly_terminating"] is True
    assert data["visited_states"] == rep.visited_states
    assert {frozenset(d.items()) for d in data["terminal_stores"]} == {
        frozenset(s.items()) for s in rep.terminal_stores
    }


@st.composite
def rooted_graphs(draw):
    """A ``StateGraph`` whose every node hangs off node 0 by a parent
    move, with extra moves (parallel ones, self-loops and back edges
    among them), random unfolding flags and a random terminal set, which
    may be empty."""
    size = draw(st.integers(1, 7))
    parent = [-1] + [draw(st.integers(0, nid - 1)) for nid in range(1, size)]
    node = st.integers(0, size - 1)
    moves = [(parent[nid], nid) for nid in range(1, size)]
    moves += draw(st.lists(st.tuples(node, node), max_size=8))
    edges = [[] for _ in range(size)]
    for start, end in draw(st.permutations(moves)):
        edges[start].append((end, draw(st.booleans())))
    terminal = sorted(draw(st.sets(node)))
    return StateGraph(list(range(size)), [tuple(out) for out in edges], parent, terminal, True)


def enumerated_longest(graph):
    """``longest_terminating`` by brute force: a cycle is a node that
    reaches itself, and otherwise every path from node 0 is listed."""
    def reached(start):
        seen, todo = set(), [start]
        while todo:
            for child, _ in graph.edges[todo.pop()]:
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
        return seen

    if any(nid in reached(nid) for nid in range(len(graph.nodes))):
        return None
    ends = []  # (steps, unfoldings) of each path from node 0 to a terminal
    paths = [(0, 0, 0)]
    while paths:
        nid, steps, loops = paths.pop()
        if nid in graph.terminal:
            ends.append((steps, loops))
        paths += [(child, steps + 1, loops + unfolded) for child, unfolded in graph.edges[nid]]
    if not ends:
        return None, None
    return max(steps for steps, _ in ends), max(loops for _, loops in ends)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(rooted_graphs())
def test_longest_terminating_matches_path_enumeration(graph):
    assert longest_terminating(graph) == enumerated_longest(graph)


# --- equivalent stores and quietness ------------------------------------------


class StorePeek(Scheduler):
    """Negative control: pick a thread by the length of one variable's
    value.  When that variable is tier 0 the scheduler is not quiet, and
    the quietness test should expose it."""

    pure = True

    def __init__(self, var):
        self.var = var
        self.name = f"peek-{var}"

    def picks(self, tids, state, store):
        while True:
            yield tids[len(store().lookup(self.var)) % len(tids)], None


@given(st.integers(min_value=0, max_value=10_000))
def test_equiv_stores_agree_on_tier_one(seed):
    gamma = {"a": Tier.ONE, "b": Tier.ZERO, "c": Tier.ONE}
    left, right = random_equiv_stores(gamma, ["a", "b", "c"], random.Random(seed))
    assert left.lookup("a") == right.lookup("a")
    assert left.lookup("c") == right.lookup("c")


def test_equiv_stores_need_a_tier_for_every_variable():
    with pytest.raises(KeyError):
        random_equiv_stores({"a": Tier.ONE}, ["a", "b"], random.Random(0))


def test_round_robin_is_quiet_on_the_racing_pair():
    gamma = {"x": Tier.ONE, "y": Tier.ONE, "z": Tier.ZERO}
    report = quietness_test(RoundRobin(), zrange_program(), gamma, trials=40, seed=3)
    assert report.passed
    assert report.trials == 40
    assert report.divergence is None


def test_store_peeking_scheduler_fails_quietness():
    gamma = {"x": Tier.ONE, "y": Tier.ONE, "z": Tier.ZERO}
    report = quietness_test(StorePeek("z"), zrange_program(), gamma, trials=40, seed=3)
    assert not report.passed
    assert report.trials == 1
    assert report.divergence == (0, 0, "bump", "wipe")
    assert report.scheduler == "peek-z"
    assert json.dumps(report.to_dict(), sort_keys=True) == (
        '{"divergence": [0, 0, "bump", "wipe"], "passed": false, "scheduler": "peek-z", '
        '"trials": 1}')


# A tier-0 ``if`` whose branches differ in length decides when thread
# ``a`` ends, and so the configurations a fixed schedule reaches.
TIER0_BRANCH = """op gt0 arity 1 class neutral;
op sub1 arity 1 class neutral;
op zero arity 1 class neutral;
vars { h : 0; u : 1; v : 1; }
thread a { if (gt0(h)) { skip; skip; skip; skip } else { skip }; u := zero(u) }
thread b { while (gt0(u)) { v := sub1(v) } }
"""


def test_quietness_tests_the_choice_not_the_program_timing():
    source = parse(TIER0_BRANCH)
    program, gamma = source.program(), source.annotations()
    # Read nothing, so quiet by construction, though two runs from stores
    # that differ only in ``h`` choose differently.
    assert quietness_test(FirstAlive(), program, gamma, trials=100, seed=0) == (
        scheduling.QuietnessReport(True, 100, "first-alive"))
    # The same choices from a scheduler that is passed the store: each is
    # asked on both stores of one configuration, so they agree.  The
    # random one passes only if its second call gets a copy of the state.
    for inner in (FirstAlive(), SeededRandom(3)):
        report = quietness_test(Offered(inner), program, gamma, trials=100, seed=0)
        assert (report.passed, report.trials) == (True, 100), inner.name
    # A choice that reads ``h`` is caught.
    report = quietness_test(StorePeek("h"), program, gamma, trials=100, seed=0)
    assert (report.passed, report.trials, report.divergence) == (False, 5, (4, 0, "b", "a"))


@pytest.mark.parametrize("scheduler", named_schedulers(seed=3).values(), ids=lambda s: s.name)
def test_trace_stores_equal_stores_built_from_the_replayed_state(scheduler):
    # ``w`` is bound but never mentioned; ``wipe`` empties ``z`` with
    # ``zero`` and ``bump`` sets it again with ``add1``.
    program = zrange_program()
    store = Store.of(x="111", y="11", w="0110")
    trace = tuple(run_with_scheduler(store, program, scheduler).trace())
    assert {("z", ""), ("z", "1")} <= {entry.assigned for entry in trace}
    table = program.table
    names = table.variables
    cells = [*map(store.lookup, names), *table.roots]
    at = {tid: len(names) + i for i, tid in enumerate(program.thread_ids())}
    before = store
    for entry in trace:
        table.advance(cells, at[entry.thread], 1)
        assert entry.store == scheduling._store(names, cells, {"w": "0110"}), entry.index
        if entry.assigned is None:
            assert entry.store is before, entry.index
        before = entry.store


@pytest.mark.parametrize("scheduler", [*named_schedulers(seed=3).values(), StorePeek("z")],
                         ids=lambda s: s.name)
def test_a_store_blind_run_builds_no_store_per_step(scheduler, monkeypatch):
    store = Store.of(x="1" * 50, y="1" * 50)
    trace = tuple(run_with_scheduler(store, zrange_program(), scheduler).trace())
    calls = []
    built = scheduling._store

    def counted(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(scheduling, "_store", counted)
    run = run_with_scheduler(store, zrange_program(), scheduler)
    assert run.finished and len(run.choices) == len(trace) > 150
    # The result store; and for a scheduler that reads the store, one
    # store for each choice.  No period repeats, so the prefix holds
    # every choice the scheduler made.
    asked = len(run.choices.prefix)
    if scheduler.reads is not None:
        assert 1 + asked == len(calls)
    else:
        assert len(calls) == 1
