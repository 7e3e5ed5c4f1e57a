"""Empirical harnesses for the guarantees the type system promises.

* ``ni_suite`` probes non-interference: runs from stores that agree on
  tier-1 variables must agree on tier-1 results, loop counts, and (under
  one fixed deterministic scheduler) step counts.
* ``subword_invariant`` checks that tier-1 variables only ever hold
  truth words or contiguous factors of the initial tier-1 values.
* ``tier_preservation`` checks subject reduction on every residual
  command each thread can reach, independently of the store.
* ``measure_growth`` and ``fit_polynomial`` chart how loop (``max_t``)
  and step (``max_k``) counts scale with input size and estimate the
  polynomial degree.

These are test harnesses, not proofs: apart from ``tier_preservation``
they sample or enumerate within stated bounds, and each reports the
first counterexample found, reading tier-1 variables in name order.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .lang import (
    DEFAULT_ALPHABET,
    FF,
    TT,
    Alphabet,
    Program,
    Store,
    Tier,
    Word,
)
from .parser import pretty_command
from .scheduling import (
    ExplorationReport,
    Scheduler,
    ScheduledRun,
    explore,
    random_equiv_stores,
    run_with_scheduler,
)
from .semantics import DONE
from .typecheck import BOTH_TIERS, SigEnv, type_table

TierEnv = Mapping[str, Tier]


# --- non-interference ------------------------------------------------------------


@dataclass(frozen=True)
class NiFailure:
    trial: int
    # "termination" | "tier1-projection" | "loop-count" | "step-count" | "terminal-set",
    # or, inconclusive and not a counterexample, "stuck" when an exploration met a guard
    # that is no truth word and "fuel" when one did not close within its bounds
    reason: str
    detail: str


@dataclass(frozen=True)
class NiReport:
    passed: bool
    trials: int
    mode: str
    scheduler: str | None
    failure: NiFailure | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _compare_runs(ones: list[str], a: ScheduledRun, b: ScheduledRun, trial: int) -> NiFailure | None:
    """Both runs used the same deterministic scheduler, so they must
    stay in lockstep on everything tier-1 visible (the ``ones``).  Runs
    that both hit the fuel bound are compared at that common horizon;
    one run terminating without the other is a temporal divergence."""
    if a.finished != b.finished:
        return NiFailure(
            trial,
            "termination",
            f"one run terminated ({a.steps} vs {b.steps} steps), the other did not",
        )
    for var in ones:
        left, right = a.store.lookup(var), b.store.lookup(var)
        if left != right:
            return NiFailure(
                trial, "tier1-projection", f"final values of {var!r} differ: {left!r} vs {right!r}"
            )
    if a.loops != b.loops:
        return NiFailure(trial, "loop-count", f"loop counts differ: {a.loops} vs {b.loops}")
    if a.steps != b.steps:
        return NiFailure(trial, "step-count", f"step counts differ: {a.steps} vs {b.steps}")
    return None


def ni_suite(
    program: Program,
    gamma: TierEnv,
    scheduler: Scheduler | None = None,
    trials: int = 200,
    fuel: int = 100_000,
    seed: int = 0,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    max_len: int = 6,
    mode: str = "scheduler",
    explore_max_steps: int = 200,
) -> NiReport:
    """Randomized non-interference probe.

    ``scheduler`` mode runs each pair of tier-1-equivalent stores under
    one fixed deterministic scheduler and demands equal tier-1 results,
    equal loop counts, and equal step counts; non-terminating runs are
    compared at the shared fuel horizon.  ``explore`` mode compares the
    terminal tier-1 outcome sets and worst-case loop counts across every
    interleaving of both runs; it needs the state graph to close within
    the given bounds.
    """
    rng = random.Random(seed)
    variables = program.table.variables
    ones = sorted(v for v, t in gamma.items() if t == Tier.ONE)
    if mode == "scheduler":
        if scheduler is None:
            raise ValueError("scheduler mode needs a scheduler")
        for trial in range(trials):
            a, b = random_equiv_stores(gamma, variables, rng, alphabet, max_len)
            run_a = run_with_scheduler(a, program, scheduler, fuel)
            run_b = run_with_scheduler(b, program, scheduler, fuel)
            failure = _compare_runs(ones, run_a, run_b, trial)
            if failure is not None:
                return NiReport(False, trial + 1, mode, scheduler.name, failure)
        return NiReport(True, trials, mode, scheduler.name)
    if mode != "explore":
        raise ValueError(f"unknown mode {mode!r}")
    for trial in range(trials):
        a, b = random_equiv_stores(gamma, variables, rng, alphabet, max_len)
        failure = _compare_explorations(program, ones, a, b, trial, explore_max_steps)
        if failure is not None:
            return NiReport(False, trial + 1, mode, None, failure)
    return NiReport(True, trials, mode, None)


def _outcome_set(report: ExplorationReport, ones: list[str]) -> frozenset[Store]:
    return frozenset(s.restrict(ones) for s in report.terminal_stores)


def _compare_explorations(
    program: Program,
    ones: list[str],
    a: Store,
    b: Store,
    trial: int,
    max_steps: int,
) -> NiFailure | None:
    rep_a = explore(a, program, max_steps)
    rep_b = explore(b, program, max_steps)
    if rep_a.stuck_states or rep_b.stuck_states:
        return NiFailure(
            trial,
            "stuck",
            f"a guard evaluated to no truth word (stuck states: {rep_a.stuck_states} vs "
            f"{rep_b.stuck_states}); raising the bounds does not help",
        )
    if not (rep_a.complete and rep_b.complete):
        return NiFailure(
            trial, "fuel", "exploration did not close within bounds; raise them for this program"
        )
    if rep_a.cycle_found != rep_b.cycle_found:
        return NiFailure(
            trial,
            "termination",
            f"one side can loop forever, the other cannot "
            f"(cycles: {rep_a.cycle_found} vs {rep_b.cycle_found})",
        )
    set_a = _outcome_set(rep_a, ones)
    set_b = _outcome_set(rep_b, ones)
    if set_a != set_b:
        return NiFailure(
            trial,
            "terminal-set",
            f"tier-1 outcome sets differ: {sorted(s.items() for s in set_a)} vs "
            f"{sorted(s.items() for s in set_b)}",
        )
    if rep_a.max_loops_terminating != rep_b.max_loops_terminating:
        return NiFailure(
            trial,
            "loop-count",
            f"worst-case loop counts differ: {rep_a.max_loops_terminating} vs "
            f"{rep_b.max_loops_terminating}",
        )
    return None


# --- subword invariant ------------------------------------------------------------


@dataclass(frozen=True)
class SubwordViolation:
    step: int
    var: str
    value: Word


@dataclass(frozen=True)
class SubwordReport:
    passed: bool
    steps_checked: int
    violation: SubwordViolation | None = None


def subword_invariant(
    initial: Store,
    stores: Iterable[tuple[int, Store]],
    gamma: TierEnv,
) -> SubwordReport:
    """Check that along a run every tier-1 value is a truth word or a
    contiguous factor of some initial tier-1 value.

    ``stores`` yields (step index, store) pairs; pair the initial store
    as step 0 yourself if it should be checked too.  A store that is the
    object before it (a trace shares one over steps that assign nothing)
    is counted, not scanned.  A new word is looked for first in the word
    its variable last passed with, as a factor of a factor of a source is
    a factor of that source, so a word that shrinks by a letter is found
    in two alignments.
    """
    ones = sorted(v for v, t in gamma.items() if t == Tier.ONE)
    sources = [initial.lookup(v) for v in ones]
    held = dict(zip(ones, sources))  # per variable: the word it last passed with
    accepted = {TT, FF}  # words already found to pass, searched for once each
    checked = 0
    last = None
    for step, store in stores:
        checked += 1
        if store is last:
            continue
        last = store
        for var in ones:
            value = store.lookup(var)
            if value in accepted:
                continue
            if value in held[var] or any(value in src for src in sources):
                accepted.add(value)
                held[var] = value
                continue
            return SubwordReport(False, checked, SubwordViolation(step, var, value))
    return SubwordReport(True, checked)


def scheduled_run_stores(run: ScheduledRun) -> list[tuple[int, Store]]:
    return [(entry.index, entry.store) for entry in run.trace()]


# --- tier preservation ---------------------------------------------------------------


@dataclass(frozen=True)
class TierDropViolation:
    """An edge where a thread's command lost typing or climbed tiers."""

    thread: str
    depth: int
    before: str
    after: str | None
    tiers_before: tuple[str, ...]
    tiers_after: tuple[str, ...]


@dataclass(frozen=True)
class TierPreservationReport:
    passed: bool
    edges_checked: int
    complete: bool
    violation: TierDropViolation | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def tier_preservation(
    store: Store,
    program: Program,
    gamma: TierEnv,
    sig_env: SigEnv,
) -> TierPreservationReport:
    """Check that stepping a thread never makes its command harder to type.

    Subject reduction is syntactic, so this walks the control table, not
    runs: a breadth-first walk over ``table.successors`` from the
    threads' roots reaches every residual slot, and each edge is then
    checked once, in node order.  The successor must check at a tier no
    higher than the lowest its predecessor checks at, and a predecessor
    that does not check fails at once.  One ``type_table`` pass after the walk
    types each distinct command once.  The walk always closes and covers
    every store and schedule, so ``complete`` is always true and
    ``store`` does not affect the result; a violation names the thread
    whose root first reached its slot, at the slot's distance from it.
    """
    table = program.table
    slots = list(dict.fromkeys(table.roots))  # in order of discovery, and the walk's queue
    ids = {slot: nid for nid, slot in enumerate(slots)}
    parent = [-1] * len(slots)  # per node: the node it was first reached from
    successors = []  # per node: the ids of the nodes it steps to
    for nid, slot in enumerate(slots):
        out = []
        for after in () if slot == DONE else table.successors(slot):
            if after not in ids:
                ids[after] = len(slots)
                slots.append(after)
                parent.append(nid)
            out.append(ids[after])
        successors.append(out)
    typed = type_table(table, gamma, sig_env)
    edges = 0
    for nid, out in enumerate(successors):
        before = typed[slots[nid]]
        for child in out:
            edges += 1
            after_slot = slots[child]
            after = BOTH_TIERS if after_slot == DONE else typed[after_slot]
            if before and after and min(after) <= min(before):
                continue
            root, depth = nid, 0
            while parent[root] >= 0:
                root, depth = parent[root], depth + 1
            return TierPreservationReport(
                False, edges, True, TierDropViolation(
                    program.thread_ids()[table.roots.index(slots[root])],
                    depth,
                    pretty_command(table.nodes[slots[nid]]),
                    None if after_slot == DONE else pretty_command(table.nodes[after_slot]),
                    tuple(str(t) for t in sorted(before)),
                    tuple(str(t) for t in sorted(after)),
                ),
            )
    return TierPreservationReport(True, edges, True)


# --- growth measurement -------------------------------------------------------------


GROWTH_COLUMNS = ("max_k", "max_t")  # the counts ``fit_polynomial`` can fit


@dataclass(frozen=True)
class GrowthRow:
    n: int
    max_t: int
    max_k: int
    fuel_hit: bool


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple[GrowthRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,max_t,max_k,fuel_hit\n")
        for r in self.rows:
            out.write(f"{r.n},{r.max_t},{r.max_k},{int(r.fuel_hit)}\n")
        return out.getvalue()


def measure_growth(
    program: Program,
    input_gen: Callable[[int], Mapping[str, Word]],
    sizes: Sequence[int],
    scheduler: Scheduler,
    fuel: int = 1_000_000,
) -> GrowthTable:
    """Run the program at each input size and record loop and step counts.

    A fuel-exhausted run is recorded with the counts reached so far and
    ``fuel_hit`` set, so a diverging program still produces a table.
    """
    rows = []
    for n in sizes:
        store = Store(dict(input_gen(n)))
        run = run_with_scheduler(store, program, scheduler, fuel)
        rows.append(GrowthRow(n, run.loops, run.steps, not run.finished))
    return GrowthTable(tuple(rows))


@dataclass(frozen=True)
class FitReport:
    verdict: str  # "polynomial" | "superpolynomial-suspect"
    degree: int | None
    coefficients: tuple[float, ...]
    residual: float
    column: str

    def to_dict(self) -> dict:
        return asdict(self)


def _least_squares(power_sums: Sequence[int], moments: Sequence[int], degree: int) -> list[Fraction]:
    """Exact least-squares coefficients, lowest power first, of the
    degree-``degree`` polynomial through points with power sums
    ``power_sums[k]`` = Σ x^k and moments ``moments[k]`` = Σ y·x^k.

    The normal equations are an integer Hankel system.  Bareiss's
    fraction-free elimination keeps every entry an integer: each
    division by the previous pivot is exact.  With more distinct sizes
    than unknowns the matrix is positive definite, so every pivot (a
    leading principal minor) is positive and no row swaps are needed.
    """
    size = degree + 1
    rows = [[*power_sums[i:i + size], moments[i]] for i in range(size)]
    previous = 1
    for k in range(size - 1):
        pivot = rows[k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, size + 1):
                row[j] = (row[j] * pivot[k] - factor * pivot[j]) // previous
        previous = pivot[k]
    coeffs: list[Fraction] = [Fraction(0)] * size
    for i in reversed(range(size)):
        row = rows[i]
        known = sum(row[j] * coeffs[j] for j in range(i + 1, size))
        coeffs[i] = (row[size] - known) / row[i]
    return coeffs


def fit_polynomial(
    table: GrowthTable,
    max_degree: int = 4,
    column: str = "max_k",
    threshold: float = 0.05,
) -> FitReport:
    """Smallest polynomial degree whose least-squares fit has relative
    RMS error below ``threshold`` on the top half of the rows, ordered
    by size whatever the table's order.

    The top-half restriction makes the check about asymptotics: small
    sizes carry constant overhead that even a correct degree will not
    match.  When no degree up to ``max_degree`` fits, the verdict is
    ``superpolynomial-suspect`` and the best attempt is reported.

    Sizes and counts are integers, so the fit is solved exactly in
    rationals; coefficients and residual become floats only at the end.
    """
    if column not in GROWTH_COLUMNS:
        raise KeyError(column)
    xs = [r.n for r in table.rows]
    ys = [getattr(r, column) for r in table.rows]
    if len(set(xs)) < max_degree + 2:
        raise ValueError(f"need at least {max_degree + 2} distinct sizes to fit degree {max_degree}")
    power_sums = [sum(x**k for x in xs) for k in range(2 * max_degree + 1)]
    moments = [sum(y * x**k for x, y in zip(xs, ys)) for k in range(max_degree + 1)]
    pairs = sorted(zip(xs, ys))
    top = pairs[len(pairs) // 2:]
    best: FitReport | None = None
    for degree in range(1, max_degree + 1):
        coeffs = _least_squares(power_sums, moments, degree)
        squares = Fraction(0)
        for x, y in top:
            predicted = Fraction(0)
            for c in reversed(coeffs):
                predicted = predicted * x + c
            squares += ((predicted - y) / max(abs(y), 1)) ** 2
        residual = math.sqrt(squares / len(top))
        report = FitReport(
            "polynomial", degree, tuple(float(c) for c in reversed(coeffs)), residual, column
        )
        if residual < threshold:
            return report
        if best is None or residual < best.residual:
            best = report
    assert best is not None
    return FitReport("superpolynomial-suspect", None, best.coefficients, best.residual, column)
