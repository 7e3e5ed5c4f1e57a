"""Acceptance gate: every guarantee the package promises, asserted at its
stated tolerance, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen; without ``-s`` they appear in the captured output.
"""

import time

from tierlang import Store, unary
from tierlang.analysis import (
    fit_polynomial,
    measure_growth,
    ni_suite,
    scheduled_run_stores,
    subword_invariant,
    tier_preservation,
)
from tierlang.fixtures import SAFE_FIXTURES, fixture_text, load_source
from tierlang.ops import default_registry
from tierlang.scheduling import RoundRobin, explore, quietness_test, run_with_scheduler
from tierlang.tm import compile_tm, parse_tm, simulate_tm
from tierlang.typecheck import build_sig_env, check_program, infer_tiers


def verdict(label, ok, detail):
    line = f"acceptance: {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def bits(pattern, n):
    return (pattern * n)[:n]


# Concrete stores that drive every thread of each safe fixture at size n.
SAFE_INPUTS = {
    "add.tier": lambda n: {"x": unary(n)},
    "mul.tier": lambda n: {"x": unary(n), "y": unary(n)},
    "intro_sync.tier": lambda n: {"x": unary(n), "y": unary(n)},
    "intro_zero.tier": lambda n: {"x": unary(n), "z": unary(n)},
    "zrange.tier": lambda n: {"x": unary(n), "y": unary(n)},
    "zrange2.tier": lambda n: {"x": unary(n)},
    "shuffle.tier": lambda n: {"x": bits("10", n), "y": bits("01", n)},
    "binary_add.tier": lambda n: {"x": bits("10", n), "y": bits("11", n), "c": "F"},
    "spin.tier": lambda n: {"x": unary(n)},
}

# Fixtures that can spin forever under some schedule get a short fuel
# rope in scheduler-mode probes; everything else terminates on its own.
NI_FUEL = {"intro_sync.tier": 1500, "spin.tier": 1500, "intro_zero.tier": 1500}


def test_typing_verdicts():
    start = time.perf_counter()
    for name in SAFE_FIXTURES:
        report = check_program(load_source(name))
        assert report.safe, f"{name} should be accepted"
    rejected = {"exp.tier": "u", "badd.tier": "x"}
    for name, pivot in rejected.items():
        inference = infer_tiers(load_source(name))
        assert not inference.ok, f"{name} should be rejected"
        assert pivot in inference.core_variables(), (
            f"{name} conflict core {inference.core_variables()} should name {pivot}"
        )
    elapsed = time.perf_counter() - start
    verdict(
        "typing verdicts",
        elapsed < 1.0,
        f"{len(SAFE_FIXTURES)} accepted, {len(rejected)} rejected with cores, {elapsed:.3f}s < 1s",
    )


def test_interleaving_envelopes():
    cases = [
        ("zrange.tier", 3, 3),
        ("zrange.tier", 4, 4),
        ("zrange2.tier", 3, 6),
    ]
    for name, n, bound in cases:
        start = time.perf_counter()
        source = load_source(name)
        store = Store(SAFE_INPUTS[name](n))
        report = explore(store, source.program(), max_steps=300, max_states=50_000)
        assert report.strongly_terminating, f"{name} n={n} should close without cycles"
        lengths = {len(s.lookup("z")) for s in report.terminal_stores}
        allowed = set(range(bound + 1))
        elapsed = time.perf_counter() - start
        verdict(
            f"interleaving envelope {name} n={n}",
            lengths <= allowed and elapsed < 30.0,
            f"z lengths {sorted(lengths)} within [0,{bound}], "
            f"{report.visited_states} states, {elapsed:.2f}s < 30s",
        )


def test_non_interference():
    trials = 200
    for name in SAFE_FIXTURES:
        source = load_source(name)
        gamma = source.annotations()
        sched = ni_suite(
            source.program(), gamma, scheduler=RoundRobin(), trials=trials,
            fuel=NI_FUEL.get(name, 100_000), seed=7,
            alphabet=source.alphabet(), max_len=5,
        )
        assert sched.passed, f"{name} scheduler-mode divergence: {sched.failure}"
        explored = ni_suite(
            source.program(), gamma, trials=trials, seed=7,
            alphabet=source.alphabet(), max_len=4, mode="explore",
            explore_max_steps=300,
        )
        assert explored.passed, f"{name} explore-mode divergence: {explored.failure}"
    control = load_source("unsafe_loop.tier")
    neg_sched = ni_suite(
        control.program(), control.annotations(), scheduler=RoundRobin(),
        trials=trials, fuel=10_000, seed=7, max_len=5,
    )
    neg_explored = ni_suite(
        control.program(), control.annotations(), trials=trials, seed=7,
        max_len=4, mode="explore", explore_max_steps=300,
    )
    ok = not neg_sched.passed and not neg_explored.passed
    verdict(
        "non-interference",
        ok,
        f"{len(SAFE_FIXTURES)} fixtures x {trials} trials x 2 modes clean; "
        f"control diverges at trials {neg_sched.trials}/{neg_explored.trials}",
    )


def test_subword_invariant():
    checked = 0
    for name in SAFE_FIXTURES:
        source = load_source(name)
        gamma = source.annotations()
        for n in range(13):
            store = Store(SAFE_INPUTS[name](n))
            run = run_with_scheduler(store, source.program(), RoundRobin(), fuel=10 * n + 100)
            stores = [(0, store)] + scheduled_run_stores(run)
            report = subword_invariant(store, stores, gamma)
            assert report.passed, f"{name} n={n}: {report.violation}"
            checked += report.steps_checked
    control = load_source("unsafe_subword.tier")
    violated = True
    for n in range(1, 13):
        store = Store({"x": unary(n)})
        run = run_with_scheduler(store, control.program(), RoundRobin())
        report = subword_invariant(store, scheduled_run_stores(run), control.annotations())
        if report.passed or report.violation.step > n + 2:
            violated = False
    verdict(
        "subword invariant",
        violated,
        f"{checked} store snapshots clean across {len(SAFE_FIXTURES)} fixtures at n <= 12; "
        "control violates within n+2 steps",
    )


def test_growth_degrees():
    start = time.perf_counter()
    add = load_source("add.tier")
    table = measure_growth(
        add.program(), SAFE_INPUTS["add.tier"], range(4, 65, 4), RoundRobin()
    )
    add_fit = fit_polynomial(table, column="max_k")
    assert (add_fit.verdict, add_fit.degree) == ("polynomial", 1), add_fit
    assert add_fit.residual < 0.05

    mul = load_source("mul.tier")
    table = measure_growth(
        mul.program(), SAFE_INPUTS["mul.tier"], range(2, 25, 2), RoundRobin()
    )
    mul_fit = fit_polynomial(table, column="max_k")
    assert (mul_fit.verdict, mul_fit.degree) == ("polynomial", 2), mul_fit
    assert mul_fit.residual < 0.05

    exp = load_source("exp.tier")
    table = measure_growth(
        exp.program(), lambda n: {"x": unary(n), "y": "1"}, range(4, 17), RoundRobin()
    )
    exp_fit = fit_polynomial(table, column="max_k")
    assert exp_fit.verdict == "superpolynomial-suspect", exp_fit
    elapsed = time.perf_counter() - start
    verdict(
        "growth degrees",
        elapsed < 60.0,
        f"add degree 1 (residual {add_fit.residual:.4f}), "
        f"mul degree 2 (residual {mul_fit.residual:.4f}), "
        f"doubler suspect (residual {exp_fit.residual:.2f}), {elapsed:.1f}s < 60s",
    )


def test_cooperative_termination():
    source = load_source("intro_zero.tier")
    program = source.program()
    # some schedule spins forever: the state graph closes and has a cycle
    report = explore(Store(SAFE_INPUTS["intro_zero.tier"](3)), program)
    assert report.complete and report.cycle_found, report
    assert not report.strongly_terminating
    # yet round-robin always drives it home on a linear fuel budget
    for n in range(17):
        run = run_with_scheduler(
            Store(SAFE_INPUTS["intro_zero.tier"](n)), program, RoundRobin(),
            fuel=10 * n + 100,
        )
        assert run.finished, f"round-robin did not finish at n={n}"
    quiet = quietness_test(
        RoundRobin(), program, source.annotations(), trials=100, fuel=1500, seed=7
    )
    verdict(
        "cooperative termination",
        quiet.passed,
        "cycle exists, round-robin finishes for all n <= 16, quietness 100 trials",
    )


def test_machine_compilation():
    start = time.perf_counter()
    spec = parse_tm(fixture_text("binary_inc.tm"))
    compiled = compile_tm(spec)
    report = check_program(compiled.source)
    assert report.safe, "compiled machine program should type-check"
    program = compiled.source.program()
    agreed = 0
    for value in range(256):
        word = format(value, "b").zfill(8)
        expected = simulate_tm(spec, word)
        assert expected.halted
        run = run_with_scheduler(
            Store({compiled.input_var: word}), program, RoundRobin(), fuel=10_000_000
        )
        assert run.finished
        got = run.store.lookup(compiled.output_var)
        assert got == expected.tape, f"{word}: compiled {got!r} vs simulator {expected.tape!r}"
        agreed += 1
    elapsed = time.perf_counter() - start
    verdict(
        "machine compilation",
        agreed == 256 and elapsed < 30.0,
        f"type-checks safe, agrees on all {agreed} length-8 inputs, {elapsed:.2f}s < 30s",
    )


def test_tier_preservation():
    registry = default_registry()
    edges = 0
    for name in SAFE_FIXTURES:
        source = load_source(name)
        sig_env, diags = build_sig_env(source, registry)
        assert not diags, f"{name}: {diags}"
        report = tier_preservation(
            Store(SAFE_INPUTS[name](3)), source.program(), source.annotations(),
            sig_env,
        )
        assert report.passed, f"{name}: {report.violation}"
        assert report.complete, f"{name} walk should close within bounds"
        edges += report.edges_checked
    verdict(
        "tier preservation",
        edges > 0,
        f"{edges} reachable steps re-checked across {len(SAFE_FIXTURES)} fixtures, zero drops",
    )
