"""Non-interference probes, the subword scan, tier preservation, growth fits."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierlang import (
    Assign,
    OpCall,
    Program,
    Seq,
    Skip,
    Store,
    Tier,
    Var,
    While,
    parse,
    unary,
)
from tierlang.analysis import (
    GrowthRow,
    GrowthTable,
    SubwordViolation,
    fit_polynomial,
    measure_growth,
    ni_suite,
    scheduled_run_stores,
    subword_invariant,
    tier_preservation,
)
from tierlang.fixtures import SAFE_FIXTURES, load_source
from tierlang.lang import FF, TT, free_vars
from tierlang.ops import default_registry
from tierlang.scheduling import RoundRobin, run_with_scheduler
from tierlang.semantics import DONE, ControlTable
from tierlang.typecheck import build_sig_env


def test_store_equiv_ignores_tier_zero():
    # Final tier-0 values differ between the stores of every trial, and
    # only tier-1 values are compared; the first tier-1 variable in name
    # order that differs is named.
    gamma = {"x": Tier.ONE, "y": Tier.ONE, "s": Tier.ZERO}
    keep = Program.of({"t": Seq(Assign("s", Var("s")), Assign("x", Var("x")))})
    assert ni_suite(keep, gamma, scheduler=RoundRobin(), trials=20, seed=0).passed
    leaky = Program.of({"t": Seq(Assign("y", Var("s")), Assign("x", Var("s")))})
    report = ni_suite(leaky, gamma, scheduler=RoundRobin(), trials=20, seed=0)
    assert report.failure.reason == "tier1-projection"
    assert re.fullmatch(r"final values of 'x' differ: '[01TF]*' vs '[01TF]*'",
                        report.failure.detail)


def test_tier_one_projection():
    # Explore mode compares terminal stores restricted to tier-1 variables.
    gamma = {"x": Tier.ONE, "s": Tier.ZERO}
    keep = Program.of({"t": Seq(Assign("s", Var("s")), Assign("x", Var("x")))})
    assert ni_suite(keep, gamma, trials=20, mode="explore").passed
    leaky = Program.of({"t": Assign("x", Var("s"))})
    report = ni_suite(leaky, gamma, trials=20, mode="explore")
    assert report.failure.reason == "terminal-set"
    assert "'x'" in report.failure.detail and "'s'" not in report.failure.detail


def test_ni_passes_on_the_adder():
    src = load_source("add.tier")
    report = ni_suite(src.program(), src.annotations(), scheduler=RoundRobin(), trials=30, seed=1)
    assert report.passed
    assert report.trials == 30
    assert report.mode == "scheduler"
    assert report.scheduler == "round-robin"
    assert report.to_dict()["failure"] is None


def test_ni_catches_a_projection_leak():
    leaky = Program.of({"t": Assign("x", Var("s"))})
    gamma = {"x": Tier.ONE, "s": Tier.ZERO}
    report = ni_suite(leaky, gamma, scheduler=RoundRobin(), trials=20, seed=0)
    assert not report.passed
    assert report.trials == 1
    assert report.failure.reason == "tier1-projection"
    assert "'x'" in report.failure.detail


def test_ni_catches_secret_steered_loop_counts():
    src = load_source("unsafe_loop.tier")
    report = ni_suite(
        src.program(), src.annotations(), scheduler=RoundRobin(),
        trials=200, fuel=10_000, seed=7, max_len=5,
    )
    assert not report.passed
    assert report.failure.reason == "loop-count"
    assert report.failure.detail == "loop counts differ: 4 vs 3"


def test_ni_catches_mixed_termination():
    # the guard reads tier-0 data, so one store spins while the other stops
    prog = Program.of({"t": While(OpCall("gt0", (Var("s"),)), Skip())})
    report = ni_suite(
        prog, {"s": Tier.ZERO}, scheduler=RoundRobin(),
        trials=10, fuel=50, seed=0, max_len=1,
    )
    assert not report.passed
    assert report.failure.reason == "termination"
    assert "the other did not" in report.failure.detail


def test_ni_explore_mode_on_safe_fixture():
    src = load_source("intro_zero.tier")
    report = ni_suite(
        src.program(), src.annotations(), trials=25, seed=7, max_len=4,
        mode="explore", explore_max_steps=300,
    )
    assert report.passed
    assert report.mode == "explore"
    assert report.scheduler is None


def test_ni_explore_mode_builds_one_control_table(monkeypatch):
    # Every trial explores the same program, so one table serves them all.
    built = []
    init = ControlTable.__init__

    def counting(self, commands):
        built.append(self)
        init(self, commands)

    monkeypatch.setattr(ControlTable, "__init__", counting)
    src = load_source("add.tier")
    report = ni_suite(src.program(), src.annotations(), trials=5, seed=7, max_len=3,
                      mode="explore")
    assert (report.passed, report.trials) == (True, 5)
    assert len(built) == 1


def test_ni_explore_mode_flags_worst_case_loops():
    src = load_source("unsafe_loop.tier")
    report = ni_suite(
        src.program(), src.annotations(), trials=200, seed=7, max_len=4,
        mode="explore", explore_max_steps=300,
    )
    assert not report.passed
    assert report.trials == 1
    assert report.failure.reason == "loop-count"


def test_ni_explore_mode_flags_terminal_sets():
    leaky = Program.of({"t": Assign("x", Var("s"))})
    gamma = {"x": Tier.ONE, "s": Tier.ZERO}
    report = ni_suite(leaky, gamma, trials=20, seed=0, mode="explore")
    assert not report.passed
    assert report.failure.reason == "terminal-set"


def test_ni_explore_mode_reports_unclosed_graphs():
    src = load_source("zrange.tier")
    report = ni_suite(
        src.program(), src.annotations(), trials=5, seed=7, max_len=4,
        mode="explore", explore_max_steps=2,
    )
    assert not report.passed
    assert report.failure.reason == "fuel"


def test_ni_argument_validation():
    src = load_source("add.tier")
    with pytest.raises(ValueError):
        ni_suite(src.program(), src.annotations(), mode="scheduler")
    with pytest.raises(ValueError):
        ni_suite(src.program(), src.annotations(), mode="bogus")


# --- subword invariant -----------------------------------------------------------


def test_subword_holds_along_an_adder_run():
    src = load_source("add.tier")
    store = Store.of(x=unary(4))
    run = run_with_scheduler(store, src.program(), RoundRobin())
    report = subword_invariant(store, scheduled_run_stores(run), src.annotations())
    assert report.passed
    assert report.steps_checked == 13
    assert report.violation is None


def test_subword_violated_by_a_growing_tier_one_var():
    src = load_source("unsafe_subword.tier")
    store = Store.of(x="0110")
    run = run_with_scheduler(store, src.program(), RoundRobin())
    report = subword_invariant(store, scheduled_run_stores(run), src.annotations())
    assert not report.passed
    assert report.steps_checked == 1
    assert report.violation.step == 1
    assert report.violation.var == "x"
    assert report.violation.value == "10110"


def test_subword_accepts_truth_words():
    gamma = {"x": Tier.ONE}
    report = subword_invariant(Store.of(x="0101"), [(1, Store.of(x="T"))], gamma)
    assert report.passed


def plain_subword_scan(initial, stores, gamma):
    """The reference scan: every store, and every tier-1 word that is no
    truth word searched for in every source, with nothing remembered."""
    ones = sorted(v for v, t in gamma.items() if t == Tier.ONE)
    sources = [initial.lookup(v) for v in ones]
    checked = 0
    for step, store in stores:
        checked += 1
        for var in ones:
            value = store.lookup(var)
            if value not in (TT, FF) and not any(value in src for src in sources):
                return False, checked, SubwordViolation(step, var, value)
    return True, checked, None


# How a move changes the word of one variable; "same" passes the last
# store object on again.
SUBWORD_MOVES = {
    "left": lambda word, extra: word[1:],
    "right": lambda word, extra: word[:-1],
    "grow": lambda word, extra: word + extra,
    "jump": lambda word, extra: extra,
    "truth": lambda word, extra: (TT, FF)[len(extra) % 2],
    "empty": lambda word, extra: "",
    "same": None,
}
subword_words = st.text(alphabet="01TF", max_size=8)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 3), st.tuples(subword_words, subword_words, subword_words),
       st.lists(st.tuples(st.sampled_from(sorted(SUBWORD_MOVES)), st.sampled_from("abch"),
                          st.text(alphabet="01TF", max_size=3)), max_size=30))
def test_subword_scan_matches_the_plain_scan(ones, words, moves):
    # ``a`` is unbound at the start; ``h`` is tier 0 and never checked.
    gamma = {**{var: Tier.ONE for var in "abc"[:ones]}, "h": Tier.ZERO}
    initial = Store.of(b=words[0], c=words[1], h=words[2])
    now, store, stores = dict(initial.items()), initial, []
    for step, (move, var, extra) in enumerate(moves, 1):
        if SUBWORD_MOVES[move] is not None:
            now[var] = SUBWORD_MOVES[move](now.get(var, ""), extra)
            store = Store(now)
        stores.append((step, store))
    report = subword_invariant(initial, stores, gamma)
    assert (report.passed, report.steps_checked, report.violation) == plain_subword_scan(
        initial, stores, gamma)


# --- tier preservation -----------------------------------------------------------


def test_tiers_preserved_along_adder_runs():
    src = load_source("add.tier")
    registry = default_registry()
    sig_env, diags = build_sig_env(src, registry)
    assert not diags
    report = tier_preservation(Store.of(x="11"), src.program(), src.annotations(), sig_env)
    assert report.passed
    assert report.complete
    # loop unfold, loop exit, and the body's two assignments
    assert report.edges_checked == 4


def test_rejected_program_fails_tier_preservation_immediately():
    src = load_source("unsafe_loop.tier")
    registry = default_registry()
    sig_env, _ = build_sig_env(src, registry)
    report = tier_preservation(
        Store.of(secret="11"), src.program(), src.annotations(), sig_env
    )
    assert not report.passed
    assert report.edges_checked == 1
    violation = report.violation
    assert violation.thread == "leak"
    assert violation.depth == 0
    assert violation.tiers_before == ()
    assert "while" in violation.before
    assert report.to_dict()["violation"]["thread"] == "leak"


def test_a_violation_names_the_thread_whose_root_reaches_it():
    # The walk checks the first root's edges, then fails on the second
    # root's first edge: the violation belongs to that thread, at depth 0.
    src = parse("op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\n"
                "vars { s : 0; x : 1; }\n"
                "thread a { while (gt0(x)) { x := sub1(x) } }\n"
                "thread b { while (gt0(s)) { skip } }\n")
    sig_env, _ = build_sig_env(src, default_registry())
    program = src.program()
    report = tier_preservation(Store(), program, src.annotations(), sig_env)
    table = program.table
    assert not report.passed
    assert (report.violation.thread, report.violation.depth) == ("b", 0)
    assert report.edges_checked == len(table.successors(table.roots[0])) + 1


def test_threads_sharing_a_root_slot_check_its_edges_once():
    text = ("op gt0 arity 1 class neutral;\nop sub1 arity 1 class neutral;\n"
            "vars { x : 1; }\n")
    loop = "{ while (gt0(x)) { x := sub1(x) } }\n"
    reports = []
    for threads in (f"thread a {loop}", f"thread a {loop}thread b {loop}"):
        src = parse(text + threads)
        sig_env, _ = build_sig_env(src, default_registry())
        reports.append(tier_preservation(Store(), src.program(), src.annotations(), sig_env))
    one, two = reports
    first, second = src.program().table.roots
    assert first == second
    assert two.passed and two.complete
    # the loop's unfold and exit, and its body stepping back to it
    assert two.edges_checked == one.edges_checked == 3


def test_a_violation_below_a_root_names_its_depth(monkeypatch):
    # Subject reduction holds for the typing rules, so a typing pass that
    # loses the last assignment's tiers stands in for one that breaks it.
    from tierlang import analysis

    src = parse("op pred arity 1 class neutral;\nvars { x : 1; y : 1; }\n"
                "thread a { skip }\n"
                "thread b { x := pred(x); y := pred(y); x := pred(y) }\n")
    sig_env, _ = build_sig_env(src, default_registry())
    program = src.program()
    last = program.table.nodes.index(Assign("x", OpCall("pred", (Var("y"),))))
    typing_pass = analysis.type_table

    def blanking(*args):
        typed = typing_pass(*args)
        typed[last] = frozenset()
        return typed

    monkeypatch.setattr(analysis, "type_table", blanking)
    violation = tier_preservation(Store(), program, src.annotations(), sig_env).violation
    assert (violation.thread, violation.depth) == ("b", 1)
    assert (violation.before, violation.after) == ("y := pred(y);\nx := pred(y)", "x := pred(y)")
    assert (violation.tiers_before, violation.tiers_after) == (("1",), ())


def test_a_violation_after_an_unfolding_reads_as_one_statement_list(monkeypatch):
    # The unfolded body is followed by the loop and the statement after
    # it as one continuation, so the residual prints with no brace group.
    from tierlang import analysis

    src = parse("op gt0 arity 1 class neutral;\nop pred arity 1 class neutral;\n"
                "vars { x : 1; y : 1; }\n"
                "thread b { while (gt0(x)) { x := pred(x) }; y := pred(y) }\n")
    sig_env, _ = build_sig_env(src, default_registry())
    program = src.program()
    typing_pass = analysis.type_table

    def blanking(table, *args):
        typed = typing_pass(table, *args)
        typed[table.successors(table.roots[0])[0]] = frozenset()  # the unfolding's residual
        return typed

    monkeypatch.setattr(analysis, "type_table", blanking)
    violation = tier_preservation(Store(), program, src.annotations(), sig_env).violation
    assert (violation.thread, violation.depth) == ("b", 0)
    assert violation.before == "while (gt0(x)) {\n  x := pred(x)\n};\ny := pred(y)"
    assert violation.after == "x := pred(x);\nwhile (gt0(x)) {\n  x := pred(x)\n};\ny := pred(y)"


def test_tier_drop_violation_serializes_tier_names():
    src = parse("op add1 arity 1 class positive;\nvars { s : 0; x : 1; }\n"
                "thread t { x := add1(s); skip }\n")
    sig_env, _ = build_sig_env(src, default_registry())
    report = tier_preservation(Store(), src.program(), src.annotations(), sig_env)
    assert json.dumps(report.to_dict(), sort_keys=True) == (
        '{"complete": true, "edges_checked": 1, "passed": false, "violation": '
        '{"after": "skip", "before": "x := add1(s);\\nskip", "depth": 0, "thread": "t", '
        '"tiers_after": ["0", "1"], "tiers_before": []}}'
    )


@pytest.mark.parametrize("name", SAFE_FIXTURES)
def test_tier_preservation_does_not_depend_on_the_store(name):
    src = load_source(name)
    registry = default_registry()
    sig_env, _ = build_sig_env(src, registry)
    program, gamma = src.program(), src.annotations()
    names = sorted(free_vars(program))
    results = set()
    for n in range(6):
        for word in ("1" * n, ("01" * n)[:n], ("TF" * n)[:n]):
            report = tier_preservation(Store({v: word for v in names}), program, gamma, sig_env)
            results.add((report.passed, report.complete, report.edges_checked))
    assert len(results) == 1
    (passed, complete, edges), = results
    assert passed and complete and edges > 0
    if name == "spin.tier":
        # The loop unfolds, its body steps back to it, and it exits: no
        # store both unfolds the loop and later leaves it.
        table = program.table
        unfold, exit_ = table.successors(table.roots[0])
        assert exit_ == DONE and table.successors(unfold) == (table.roots[0],)
        assert edges == 3


# --- growth measurement ----------------------------------------------------------


def test_measure_growth_csv():
    src = load_source("add.tier")
    table = measure_growth(src.program(), lambda n: {"x": unary(n)}, [1, 2, 3], RoundRobin())
    assert table.to_csv() == "n,max_t,max_k,fuel_hit\n1,1,4,0\n2,2,7,0\n3,3,10,0\n"
    assert [(r.n, r.max_t, r.max_k) for r in table.rows] == [(1, 1, 4), (2, 2, 7), (3, 3, 10)]
    with pytest.raises(KeyError):
        fit_polynomial(table, column="bogus")


def test_measure_growth_marks_fuel_exhaustion():
    src = load_source("spin.tier")
    table = measure_growth(src.program(), lambda n: {"x": unary(n)}, [1], RoundRobin(), fuel=40)
    assert table.rows[0].fuel_hit
    assert table.rows[0].max_k == 40


def test_fit_recovers_exact_degrees():
    rows = tuple(GrowthRow(n, n * n, 2 * n * n + 3 * n + 1, False) for n in range(2, 12))
    steps_fit = fit_polynomial(GrowthTable(rows), column="max_k")
    loops_fit = fit_polynomial(GrowthTable(rows), column="max_t")
    assert (steps_fit.verdict, steps_fit.degree) == ("polynomial", 2)
    assert (loops_fit.verdict, loops_fit.degree) == ("polynomial", 2)
    assert steps_fit.residual == 0.0


@pytest.mark.parametrize(
    "name, scaled, sizes, coefficients",
    [
        ("add.tier", ("x",), range(4, 41, 4), [3.0, 1.0]),
        ("mul.tier", ("x", "y"), range(2, 21, 2), [3.0, 5.0, 2.0]),
    ],
    ids=["add", "mul"],
)
def test_fit_is_exact_on_polynomial_fixtures(name, scaled, sizes, coefficients):
    table = measure_growth(
        load_source(name).program(), lambda n: {v: unary(n) for v in scaled}, sizes, RoundRobin()
    )
    report = fit_polynomial(table)
    assert (report.verdict, list(report.coefficients), report.residual) == (
        "polynomial", coefficients, 0.0)


def test_fit_of_the_doubler_agrees_with_floating_point_least_squares():
    # The top half is taken by size, so the order of the rows does not matter.
    for sizes in (range(1, 12), range(11, 0, -1)):
        table = measure_growth(
            load_source("exp.tier").program(), lambda n: {"x": unary(n), "y": "1"}, sizes,
            RoundRobin(),
        )
        report = fit_polynomial(table)
        # Floating-point least squares (polyfit) on the same table, as printed.
        assert report.verdict == "superpolynomial-suspect"
        assert report.coefficients == pytest.approx(
            [3.290209790209828, -57.2237762237775, 351.37412587414036, -814.8391608392228,
             568.3636363637117], rel=1e-9)
        assert report.residual == pytest.approx(0.08024593887139404, rel=1e-9)


def test_fit_flags_exponential_growth():
    rows = tuple(GrowthRow(n, 2**n, 3 * 2**n, False) for n in range(2, 14))
    report = fit_polynomial(GrowthTable(rows))
    assert report.verdict == "superpolynomial-suspect"
    assert report.degree is None
    assert report.residual > 0.05
    assert report.to_dict()["degree"] is None


def test_fit_needs_enough_rows():
    rows = tuple(GrowthRow(n, n, n, False) for n in range(5))
    with pytest.raises(ValueError):
        fit_polynomial(GrowthTable(rows), max_degree=4)


@pytest.mark.parametrize("sizes", [[5] * 6, [1, 2, 3, 4, 5, 5, 4]])
def test_fit_needs_enough_distinct_sizes(sizes):
    rows = tuple(GrowthRow(n, n, 3 * n + 1, False) for n in sizes)
    with pytest.raises(ValueError, match="distinct sizes"):
        fit_polynomial(GrowthTable(rows), max_degree=4)
