"""Job lists, generated inputs and known-answer oracles for the four workloads.

Every job is one CLI subcommand called in-process through
``tierlang.cli.main``, or one library harness call where the CLI has no
subcommand for it.  Each job carries an oracle that decides, from what
the job returned, whether the answer is right.  Expected answers are
written here by hand from the fixture comments and the README, or come
from a reference that does not share the code path under test (closed
forms, Python integer arithmetic, ``simulate_tm`` for machine output).

Library calls go through module attributes (``scheduling.explore``,
not a name imported once), so the tracer in ``tracing.py`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tierlang import analysis, cli, ops, parser, scheduling, semantics, tm, typecheck
from tierlang.lang import Store

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "tierlang" / "fixtures"

SAFE = ("add", "mul", "intro_sync", "intro_zero", "zrange", "zrange2", "shuffle",
        "binary_add", "spin")
TERMINATING_SAFE = ("add", "mul", "zrange", "zrange2", "shuffle", "binary_add")
DIVERGING_SAFE = ("intro_sync", "intro_zero", "spin")
NI_EXPLORE_SAFE = ("add", "mul", "intro_sync", "intro_zero", "binary_add", "spin")
SCHEDULERS = ("round-robin", "first-alive", "random")

# Variables each fixture's ``vars`` block names; exp and badd have none.
FIXTURE_VARS = {
    "add": ("x", "y"),
    "mul": ("u", "x", "y", "z"),
    "intro_sync": ("x", "y"),
    "intro_zero": ("x", "z"),
    "zrange": ("x", "y", "z"),
    "zrange2": ("x", "y", "z"),
    "shuffle": ("x", "y", "z"),
    "binary_add": ("c", "r", "x", "y", "z"),
    "spin": ("x",),
    "unsafe_loop": ("out", "secret"),
    "unsafe_subword": ("x",),
}


@dataclass
class Outcome:
    """What a job returned: a CLI exit code and stdout, or report fields."""

    code: int | None = None
    stdout: str = ""
    counts: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        body = json.dumps([self.code, self.stdout, self.counts], sort_keys=True, default=str)
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Job:
    name: str
    spec: str  # everything that determines the job's input
    call: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    tag: str = ""  # "tm" marks machine verification for the tracer
    seeded: bool = False  # the spec must change with the benchmark seed


@dataclass
class Workload:
    jobs: list[Job]
    files: dict[str, str]  # generated inputs: path in the work directory -> text


# --- helpers -------------------------------------------------------------------


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(argv: list[str]) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return Outcome(code=code, stdout=out.getvalue())


def cli_job(name: str, argv: list[str], code: int, check_doc=None, *, spec_extra: str = "",
            tag: str = "", seeded: bool = False) -> Job:
    """A CLI job whose exit code must be ``code``; ``check_doc`` then
    judges the parsed ``--json`` document."""

    def check(out: Outcome) -> str | None:
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        if check_doc is None:
            return None
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return "stdout is not one JSON document"
        return check_doc(doc)

    spec = " ".join(argv) + spec_extra
    return Job(name, spec, lambda: run_cli(argv), check, tag, seeded)


def require(ok: bool, message: str) -> str | None:
    return None if ok else message


def words(rng: random.Random, n: int, letters: str = "01") -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def sub_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# --- independent references ------------------------------------------------------


def digits(word: str) -> str:
    """Letters as ``concat`` stores them: truth words become binary digits."""
    return word.replace("T", "1").replace("F", "0")


def is_interleaving(z: str, x: str, y: str) -> bool:
    if len(z) != len(x) + len(y):
        return False
    reach = [[False] * (len(y) + 1) for _ in range(len(x) + 1)]
    reach[0][0] = True
    for i in range(len(x) + 1):
        for j in range(len(y) + 1):
            if i and reach[i - 1][j] and x[i - 1] == z[i + j - 1]:
                reach[i][j] = True
            if j and reach[i][j - 1] and y[j - 1] == z[i + j - 1]:
                reach[i][j] = True
    return reach[len(x)][len(y)]


def lsb_value(word: str) -> int:
    return int(word[::-1], 2) if word else 0


def binary_inc_tape(word: str) -> str:
    """``binary_inc.tm``: LSB-first increment, blanks never stripped."""
    for i, letter in enumerate(word):
        if letter == "0":
            return "0" * i + "1" + word[i + 1:]
    return "0" * len(word) + "1"


def final_store_problem(program: str, initial: dict, final: dict) -> str | None:
    """Known answers for a terminated run of a safe fixture, from its comment."""
    x0, y0 = initial.get("x", ""), initial.get("y", "")
    x, y, z = final.get("x", ""), final.get("y", ""), final.get("z", "")
    if program == "add":
        return require(x == "" and y == "1" * len(x0) + y0, f"add gave x={x!r} y={y!r}")
    if program == "mul":
        return require(x == "" and y == y0 and z == "1" * (len(x0) * len(y0)),
                       f"mul gave |z|={len(z)} for |x|={len(x0)} |y|={len(y0)}")
    if program == "zrange":
        return require(x == "" and y == "" and set(z) <= {"1"} and len(z) <= len(x0),
                       f"zrange gave |z|={len(z)} outside [0, {len(x0)}]")
    if program == "zrange2":
        top = len(x0) * (len(x0) + 1) // 2
        # The drain thread may finish first; y then keeps the last copy.
        return require(x == "" and x0.endswith(y) and set(z) <= {"1"} and len(z) <= top,
                       f"zrange2 gave |z|={len(z)} outside [0, {top}] or y={y!r}")
    if program == "shuffle":
        return require(x == "" and y == "" and is_interleaving(z[::-1], digits(x0), digits(y0)),
                       f"shuffle gave z={z!r}, not an interleaving of x and y")
    if program == "binary_add":
        value = int(z, 2) if z else 0
        want = lsb_value(x0) + lsb_value(y0)
        return require(value == want, f"binary_add gave {value}, expected {want}")
    raise KeyError(program)


# --- generated programs ------------------------------------------------------------

HEADER = "".join(
    f"op {name} arity {arity} class {klass};\n"
    for name, arity, klass in (
        ("sub1", 1, "neutral"), ("pred", 1, "neutral"), ("head", 1, "neutral"),
        ("zero", 1, "neutral"), ("gt0", 1, "neutral"), ("add1", 1, "positive"),
        ("concat", 2, "positive"),
    )
)
SHRINK_OPS = ("sub1", "pred", "head", "zero")


class ProgramGen:
    """Seeded programs that are safe by construction.

    Tier-1 variables ``a*`` only receive neutral operators of tier-1
    values and steer every loop; tier-0 variables ``b*`` grow through
    positive operators and steer only tier-0 conditionals.
    """

    def __init__(self, rng: random.Random, width: int = 4):
        self.rng = rng
        self.ones = [f"a{i}" for i in range(width)]
        self.zeros = [f"b{i}" for i in range(width)]

    def vars_block(self) -> str:
        lines = [f"  {v} : 1;" for v in self.ones] + [f"  {v} : 0;" for v in self.zeros]
        return "vars {\n" + "\n".join(lines) + "\n}\n"

    def source(self, threads: list[tuple[str, str]], annotated: bool = True) -> str:
        body = "".join(f"thread {tid} {{\n  {cmd}\n}}\n" for tid, cmd in threads)
        return HEADER + (self.vars_block() if annotated else "") + body

    def shrink(self) -> str:
        r = self.rng
        return f"{r.choice(self.ones)} := {r.choice(SHRINK_OPS)}({r.choice(self.ones)})"

    def grow(self) -> str:
        r = self.rng
        target = r.choice(self.zeros)
        pick = r.random()
        if pick < 0.4:
            return f"{target} := add1({r.choice(self.zeros)})"
        if pick < 0.8:
            return f"{target} := concat({r.choice(self.ones + self.zeros)}, {target})"
        return f"{target} := {r.choice(self.ones)}"

    def statement(self) -> str:
        return self.shrink() if self.rng.random() < 0.5 else self.grow()

    def straight(self, n: int) -> str:
        return ";\n  ".join(self.statement() for _ in range(n))

    def loop(self, body_len: int) -> str:
        guard = self.rng.choice(self.ones)
        body = "; ".join([f"{guard} := sub1({guard})"] + [self.grow() for _ in range(body_len)])
        return f"while (gt0({guard})) {{ {body} }}"

    def nested(self, depth: int) -> str:
        inner = self.shrink()
        for level in range(depth):
            guard = self.rng.choice(self.ones)
            if level % 3 == 0:
                inner = f"while (gt0({guard})) {{ {guard} := sub1({guard}); {self.grow()}; {inner} }}"
            elif level % 3 == 1:
                inner = (f"if (gt0({guard})) {{ {self.shrink()}; {inner} }} "
                         f"else {{ {self.shrink()}; {self.grow()} }}")
            else:
                low = self.rng.choice(self.zeros)
                inner = (f"{self.grow()}; if (gt0({low})) {{ {self.grow()} }} else {{ skip }}; "
                         f"{inner}")
        return inner

    def deep_expr(self, depth: int) -> str:
        expr = self.rng.choice(self.ones)
        for _ in range(depth):
            expr = f"{self.rng.choice(SHRINK_OPS)}({expr})"
        return f"{self.rng.choice(self.ones)} := {expr}"

    def deep_if(self, depth: int) -> str:
        inner = self.shrink()
        for _ in range(depth):
            inner = f"if (gt0({self.rng.choice(self.ones)})) {{ {inner} }} else {{ skip }}"
        return inner


def malformed_variants(rng: random.Random) -> list[tuple[str, str]]:
    """Inputs that must end in exit code 2, each broken a different way."""
    gen = ProgramGen(rng)
    statements = [gen.statement() for _ in range(12)]
    good = gen.source([("t", ";\n  ".join(statements))])
    head, body_start = good.split("thread t {\n", 1)
    body = body_start.rsplit("}", 1)[0]

    def with_body(text: str) -> str:
        return head + "thread t {\n" + text + "}\n"

    cut = rng.randrange(1, len(body) - 1)
    semis = [i for i, c in enumerate(body) if c == ";"]
    stray = rng.choice(semis)
    dropped = rng.choice(semis)
    b0, b1 = rng.sample(gen.zeros, 2)
    return [
        ("truncated", head + "thread t {\n" + body[:cut]),
        ("stray_char", with_body(body[: stray + 1] + " @" + body[stray + 1:])),
        ("missing_semicolon", with_body(body[:dropped] + body[dropped + 1:])),
        ("undeclared_op", with_body(body.rstrip() + f";\n  {b0} := frob({b1})\n")),
        ("wrong_arity", with_body(body.rstrip() + f";\n  {b0} := concat({b1})\n")),
        ("bad_literal", with_body(body.rstrip() + f';\n  {b0} := "0Z{rng.randrange(10)}"\n')),
        ("if_without_else", with_body(body.rstrip() + f";\n  if (gt0({gen.ones[0]})) {{ skip }}\n")),
        ("bad_tier", good.replace(f"  {gen.ones[0]} : 1;", f"  {gen.ones[0]} : 2;")),
        ("unknown_header", "thred x { skip }\n" + good),
    ]


# --- check -----------------------------------------------------------------------


def _check_safe(doc: dict) -> str | None:
    return require(doc.get("mode") == "check" and doc.get("safe") is True, "expected safe")


def _check_rejected(doc: dict) -> str | None:
    return require(doc.get("mode") == "check" and doc.get("safe") is False, "expected rejected")


def _infer_ok(names: tuple[str, ...]):
    def check(doc: dict) -> str | None:
        gamma = doc.get("gamma") or {}
        return require(doc.get("mode") == "infer" and doc.get("ok") is True
                       and tuple(sorted(gamma)) == tuple(sorted(names)),
                       f"expected inferred tiers for {names}")
    return check


def _infer_rejected(doc: dict) -> str | None:
    return require(doc.get("mode") == "infer" and doc.get("ok") is False and doc.get("core"),
                   "expected rejection with a conflict core")


def _lying_sig_refused(doc: dict) -> str | None:
    """A signature that lies is refused before any tier is tried."""
    return require(doc.get("mode") == "infer" and doc.get("ok") is False,
                   "expected the lying signature to be refused")


def check_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"check:{seed}")
    jobs: list[Job] = []
    files: dict[str, str] = {}

    def check_file(name: str, text: str, code: int, check=None, seeded: bool = True) -> None:
        path = str(workdir / f"{name.replace('/', '_')}.tier")
        files[path] = text
        jobs.append(cli_job(name, ["check", path, "--json"], code, check, spec_extra=text,
                            seeded=seeded))

    # The 13 fixtures, with verdicts from their comments.
    expected = {name: (0, _check_safe) for name in SAFE}
    expected["unsafe_loop"] = (1, _check_rejected)
    expected["unsafe_subword"] = (1, _check_rejected)
    expected["exp"] = (1, _infer_rejected)
    expected["badd"] = (1, _infer_rejected)
    for name in sorted(expected):
        code, check = expected[name]
        jobs.append(cli_job(f"fixture/{name}", ["check", fixture(f"{name}.tier"), "--json"],
                            code, check))

    # Fixtures with their vars block removed: inference must find tiers.
    # Without annotations unsafe_loop's secret may take tier 1, so it is
    # safe; unsafe_subword's lying signature is wrong under any tiers.
    for name, names in sorted(FIXTURE_VARS.items()):
        text = (FIXTURES / f"{name}.tier").read_text()
        start = text.index("vars {")
        stripped = text[:start] + text[text.index("}", start) + 1:]
        if name == "unsafe_subword":
            check_file(f"novars/{name}", stripped, 1, _lying_sig_refused, seeded=False)
        else:
            check_file(f"novars/{name}", stripped, 0, _infer_ok(names), seeded=False)

    # Machine specs, compiled and pretty-printed; the output must type-check.
    for name in ("binary_inc", "identity", "busy"):
        jobs.append(cli_job(
            f"tm/{name}", ["tm-compile", fixture(f"{name}.tm"), "--json"], 0,
            lambda d: require(d.get("safe") is True
                              and "thread machine {" in (d.get("program") or ""),
                              "expected a safe compiled program"),
        ))

    # Seeded ladder of generated programs, safe by construction unless
    # a tier-1 variable is made to grow.
    for n in (20, 50, 100, 150, 250):
        gen = ProgramGen(rng)
        check_file(f"ladder/straight_{n}", gen.source([("t", gen.straight(n))]), 0, _check_safe)
    for n in (40, 160):
        gen = ProgramGen(rng)
        lines = [gen.statement() for _ in range(n)]
        victim = rng.choice(gen.ones)
        lines.insert(rng.randrange(n), f"{victim} := add1({victim})")
        check_file(f"ladder/grows_tier1_{n}", gen.source([("t", ";\n  ".join(lines))]), 1,
                   _check_rejected)
    for count in (4, 8, 16, 32, 64):
        gen = ProgramGen(rng)
        threads = [(f"w{i}", f"{gen.loop(2)}; {gen.straight(4)}") for i in range(count)]
        check_file(f"ladder/threads_{count}", gen.source(threads), 0, _check_safe)
    for depth in (10, 20, 40, 60):
        gen = ProgramGen(rng)
        check_file(f"ladder/nested_{depth}", gen.source([("t", gen.nested(depth))]), 0,
                   _check_safe)
    for depth in (6, 12):
        gen = ProgramGen(rng, width=3)
        body = gen.nested(depth)
        # Whole names only: "b1" also occurs inside "sub1".
        used = tuple(v for v in gen.ones + gen.zeros if re.search(rf"\b{v}\b", body))
        check_file(f"ladder/infer_nested_{depth}", gen.source([("t", body)], annotated=False),
                   0, _infer_ok(used))

    # Malformed inputs end in exit code 2, never a traceback.
    for kind, text in malformed_variants(rng):
        check_file(f"malformed/{kind}", text, 2)
    jobs.append(cli_job("malformed/missing_file",
                        ["check", str(workdir / "missing_file.tier"), "--json"], 2))

    # Deep inputs are safe; today they raise RecursionError.
    for depth in (800, 1000):
        gen = ProgramGen(rng)
        check_file(f"deep/expr_{depth}", gen.source([("t", gen.deep_expr(depth))]), 0,
                   _check_safe)
    for depth in (600, 700):
        gen = ProgramGen(rng)
        check_file(f"deep/if_{depth}", gen.source([("t", gen.deep_if(depth))]), 0, _check_safe)
    return Workload(jobs, files)


# --- run -----------------------------------------------------------------------------


def _ni_passed(trials: int):
    def check(doc: dict) -> str | None:
        return require(doc.get("passed") is True and doc.get("trials") == trials,
                       f"expected no interference in {trials} trials, got {doc.get('failure')}")
    return check


def _measure_check(verdict: str, degree: int | None, loops: Callable[[int], int]):
    def check(doc: dict) -> str | None:
        fit = doc.get("fit") or {}
        if fit.get("verdict") != verdict or fit.get("degree") != degree:
            return f"fit {fit.get('verdict')} degree {fit.get('degree')}, expected {verdict} {degree}"
        for row in doc.get("rows", []):
            if row["fuel_hit"] or row["max_t"] != loops(row["n"]):
                return f"at n={row['n']}: {row['max_t']} loop iterations, expected {loops(row['n'])}"
        return None
    return check


def _load(name: str):
    return parser.parse((FIXTURES / f"{name}.tier").read_text())


def subword_job(name: str, inputs: dict) -> Job:
    source = _load(name)
    program, gamma = source.program(), source.annotations()

    def call() -> Outcome:
        start = Store(inputs)
        run = scheduling.run_with_scheduler(start, program, scheduling.RoundRobin(),
                                            fuel=100_000, keep_trace=True)
        report = analysis.subword_invariant(
            start, [(0, start)] + analysis.scheduled_run_stores(run), gamma)
        counts = {"steps": run.steps, "loops": run.loops, "finished": run.finished,
                  "store": dict(run.store.items()), "passed": report.passed,
                  "checked": report.steps_checked,
                  "violation": None if report.violation is None
                  else [report.violation.step, report.violation.var]}
        return Outcome(counts=counts)

    def check(out: Outcome) -> str | None:
        c = out.counts
        if name == "unsafe_subword":
            # The fixture comment: x escapes the invariant on the first step.
            return require(not c["passed"] and c["violation"] == [1, "x"],
                           f"expected a violation at step 1 on x, got {c['violation']}")
        if not (c["finished"] and c["passed"]):
            return f"finished={c['finished']} subword invariant passed={c['passed']}"
        return final_store_problem(name, inputs, c["store"])

    return Job(f"subword/{name}", f"{name} {sorted(inputs.items())}", call, check, seeded=True)


def tm_verify_job(name: str, word: str) -> Job:
    text = (FIXTURES / f"{name}.tm").read_text()

    def call() -> Outcome:
        spec = tm.parse_tm(text)
        compiled = tm.compile_tm(spec)
        thread = compiled.source.program().command("machine")
        run = semantics.run_sequential(Store({compiled.input_var: word}), thread,
                                       fuel=10_000_000, keep_trace=False)
        reference = tm.simulate_tm(spec, word)
        counts = {"steps": run.steps, "finished": run.finished,
                  "tape": run.store.lookup(compiled.output_var), "reference": reference.tape}
        return Outcome(counts=counts)

    def check(out: Outcome) -> str | None:
        c = out.counts
        closed_form = binary_inc_tape(word) if name == "binary_inc" else word
        return require(c["finished"] and c["tape"] == c["reference"] == closed_form,
                       f"compiled tape {c['tape']!r}, simulator {c['reference']!r}, "
                       f"expected {closed_form!r}")

    return Job(f"tm_verify/{name}_{len(word)}", f"{name} {word}", call, check, tag="tm",
               seeded=True)


def sequential_add_job(x: str) -> Job:
    thread = _load("add").program().command("adder")

    def call() -> Outcome:
        run = semantics.run_sequential(Store({"x": x}), thread, fuel=1_000_000,
                                       keep_trace=False)
        counts = {"steps": run.steps, "loops": run.loops, "finished": run.finished,
                  "store": dict(run.store.items())}
        return Outcome(counts=counts)

    def check(out: Outcome) -> str | None:
        c = out.counts
        if not c["finished"] or c["loops"] != len(x):
            return f"expected {len(x)} loop iterations, got {c['loops']}"
        return final_store_problem("add", {"x": x}, c["store"])

    return Job(f"sequential/add_{len(x)}", f"add {x}", call, check, seeded=True)


def run_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"run:{seed}")
    jobs: list[Job] = []
    for name in TERMINATING_SAFE:
        for part in range(2):
            ni_seed = sub_seed(rng)
            argv = ["ni", fixture(f"{name}.tier"), "--scheduler", "round-robin",
                    "--max-len", "12", "--trials", "60", "--seed", str(ni_seed), "--json"]
            jobs.append(cli_job(f"ni/{name}_{part}", argv, 0, _ni_passed(60), seeded=True))
    for part in range(2):
        argv = ["ni", fixture("unsafe_loop.tier"), "--unsafe-ok", "--scheduler", "round-robin",
                "--trials", "25", "--seed", str(sub_seed(rng)), "--json"]
        jobs.append(cli_job(
            f"ni/unsafe_loop_{part}", argv, 1,
            lambda d: require(not d.get("passed") and (d.get("failure") or {}).get("reason")
                              in ("loop-count", "step-count"),
                              "expected the tier-0 loop to show in loop or step counts"),
            seeded=True))

    jobs.append(cli_job(
        "measure/add", ["measure", fixture("add.tier"), "--scale", "x", "--sizes", "4:40:4",
                        "--json"],
        0, _measure_check("polynomial", 1, lambda n: n)))
    jobs.append(cli_job(
        "measure/mul", ["measure", fixture("mul.tier"), "--scale", "x", "--scale", "y",
                        "--sizes", "2:20:2", "--json"],
        0, _measure_check("polynomial", 2, lambda n: n + n * n)))
    jobs.append(cli_job(
        "measure/exp", ["measure", fixture("exp.tier"), "--unsafe-ok", "--scale", "x",
                        "--input", f"y={rng.choice('01')}", "--sizes", "1:11", "--json"],
        1, _measure_check("superpolynomial-suspect", None, lambda n: n + 2**n - 1)))

    jobs.append(sequential_add_job(words(rng, 8_000)))

    for name in ("binary_inc", "identity"):
        jobs.append(cli_job(
            f"tm_compile/{name}", ["tm-compile", fixture(f"{name}.tm"), "--verify-len", "5",
                                   "--json"],
            0, lambda d: require(d.get("safe") is True and d.get("verified_inputs") == 63,
                                 "expected all 63 inputs up to length 5 verified"),
            tag="tm"))
        for length in (48, 96):
            jobs.append(tm_verify_job(name, words(rng, length)))

    sizes = {"add": {"x": 800, "y": 5}, "mul": {"x": 28, "y": 28},
             "zrange": {"x": 500, "y": 500}, "zrange2": {"x": 40},
             "shuffle": {"x": 500, "y": 500}, "binary_add": {"x": 320, "y": 320}}
    for name in TERMINATING_SAFE:
        letters = "01TF" if name == "shuffle" else "01"
        inputs = {var: words(rng, n, letters) for var, n in sizes[name].items()}
        jobs.append(subword_job(name, inputs))
    # 32 letters, so that two seeds giving the same word is out of reach.
    jobs.append(subword_job("unsafe_subword", {"x": words(rng, 32)}))
    return Workload(jobs, {})


# --- diverge ---------------------------------------------------------------------------

DIVERGE_FUEL = 1500
# Long words make an empty tier-1 value (which ends these loops at once)
# rare, so the share of fuel-bound trials is steady from seed to seed.
DIVERGE_MAX_LEN = 24
# Under the random scheduler a trial's length is itself random; three
# trials per job keep the work of a pass steady from seed to seed.
DIVERGE_TRIALS = 3


def quietness_job(name: str, scheduler: str, seed: int) -> Job:
    source = _load(name)
    program, gamma = source.program(), source.annotations()

    def call() -> Outcome:
        sched = scheduling.named_schedulers(seed)[scheduler]
        report = scheduling.quietness_test(sched, program, gamma, trials=1, fuel=DIVERGE_FUEL,
                                           seed=seed, max_len=DIVERGE_MAX_LEN)
        return Outcome(counts=report.to_dict())

    def check(out: Outcome) -> str | None:
        # Every named scheduler ignores the store, so it is quiet.
        return require(out.counts["passed"] is True, f"quietness failed: {out.counts}")

    return Job(f"quiet/{name}_{scheduler}_{seed}", f"{name} {scheduler} {seed}", call, check,
               seeded=True)


def diverge_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"diverge:{seed}")
    jobs: list[Job] = []
    for name in DIVERGING_SAFE:
        for scheduler in SCHEDULERS:
            for part in range(3):
                argv = ["ni", fixture(f"{name}.tier"), "--scheduler", scheduler,
                        "--fuel", str(DIVERGE_FUEL), "--max-len", str(DIVERGE_MAX_LEN),
                        "--trials", str(DIVERGE_TRIALS), "--seed", str(sub_seed(rng)), "--json"]
                jobs.append(cli_job(f"ni/{name}_{scheduler}_{part}", argv, 0,
                                    _ni_passed(DIVERGE_TRIALS),
                                    seeded=True))
    for scheduler in SCHEDULERS:
        for _ in range(2):
            jobs.append(quietness_job("intro_zero", scheduler, sub_seed(rng)))
    return Workload(jobs, {})


# --- explore -----------------------------------------------------------------------------


def _explore_terminates(name: str, inputs: dict):
    def check(doc: dict) -> str | None:
        if not (doc.get("strongly_terminating") and doc.get("complete")
                and doc.get("cycle_found") is False):
            return "expected every schedule to terminate within the bounds"
        for store in doc.get("terminal_stores", []):
            problem = final_store_problem(name, inputs, store)
            if problem:
                return problem
        return require(bool(doc.get("terminal_stores")), "no terminal store")
    return check


def _explore_cycles(doc: dict) -> str | None:
    return require(doc.get("cycle_found") is True and doc.get("strongly_terminating") is False,
                   "expected a non-terminating schedule")


def tier_preservation_job(name: str, inputs: dict) -> Job:
    source = _load(name)
    program, gamma = source.program(), source.annotations()
    sig_env, _ = typecheck.build_sig_env(source, ops.default_registry())

    def call() -> Outcome:
        report = analysis.tier_preservation(Store(inputs), program, gamma, sig_env)
        return Outcome(counts=report.to_dict())

    def check(out: Outcome) -> str | None:
        # Stepping never breaks typing (README), and these walks close.
        return require(out.counts["passed"] is True and out.counts["complete"] is True,
                       f"tier preservation: {out.counts}")

    return Job(f"tier_preservation/{name}_{sum(map(len, inputs.values()))}",
               f"{name} {sorted(inputs.items())}", call, check)


def explore_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"explore:{seed}")
    jobs: list[Job] = []

    def explore_job(name: str, inputs: dict, code: int, check) -> None:
        argv = ["explore", fixture(f"{name}.tier")]
        for var, value in sorted(inputs.items()):
            argv += ["--input", f"{var}={value}"]
        size = "_".join(str(len(v)) for _, v in sorted(inputs.items()))
        jobs.append(cli_job(f"explore/{name}_{size}", argv + ["--json"], code, check))

    # Letter choice does not change the state graph of zrange and
    # zrange2; for shuffle x holds only 0/F and y only 1/T, so every
    # schedule writes a distinct z and the graph size is fixed too.
    for n in (3, 5, 7):
        inputs = {"x": words(rng, n), "y": words(rng, n)}
        explore_job("zrange", inputs, 0, _explore_terminates("zrange", inputs))
    for n in (3, 5, 8):
        inputs = {"x": words(rng, n)}
        explore_job("zrange2", inputs, 0, _explore_terminates("zrange2", inputs))
    for n in (2, 3, 4):
        inputs = {"x": words(rng, n, "0F"), "y": words(rng, n + 1, "1T")}
        explore_job("shuffle", inputs, 0, _explore_terminates("shuffle", inputs))
    for n in (2, 4):
        explore_job("spin", {"x": words(rng, n)}, 1, _explore_cycles)
        explore_job("intro_zero", {"x": words(rng, n), "z": words(rng, n + 1)}, 1,
                    _explore_cycles)

    inputs_for = {
        "add": lambda n: {"x": words(rng, n)},
        "mul": lambda n: {"x": words(rng, n), "y": words(rng, n)},
        "intro_sync": lambda n: {"x": words(rng, n), "y": words(rng, n)},
        "intro_zero": lambda n: {"x": words(rng, n), "z": words(rng, n)},
        "zrange": lambda n: {"x": words(rng, n), "y": words(rng, n)},
        "zrange2": lambda n: {"x": words(rng, n)},
        "shuffle": lambda n: {"x": words(rng, n, "0F"), "y": words(rng, n, "1T")},
        "binary_add": lambda n: {"x": words(rng, n), "y": words(rng, n)},
        "spin": lambda n: {"x": words(rng, n)},
    }
    for name in SAFE:
        for n in (2, 3):
            jobs.append(tier_preservation_job(name, inputs_for[name](n)))

    # Non-interference over every interleaving, on the safe fixtures whose
    # state graphs stay small.  On zrange, zrange2 and shuffle one long
    # random word makes a job many times dearer, so the work of a pass
    # would swing with the seed; the explore jobs above walk their graphs
    # at fixed sizes instead.
    for name in NI_EXPLORE_SAFE:
        argv = ["ni", fixture(f"{name}.tier"), "--mode", "explore", "--max-len", "4",
                "--trials", "4", "--seed", str(sub_seed(rng)), "--json"]
        jobs.append(cli_job(f"ni_explore/{name}", argv, 0, _ni_passed(4), seeded=True))
    argv = ["ni", fixture("unsafe_loop.tier"), "--unsafe-ok", "--mode", "explore",
            "--max-len", "4", "--trials", "25", "--seed", str(sub_seed(rng)), "--json"]
    jobs.append(cli_job(
        "ni_explore/unsafe_loop", argv, 1,
        lambda d: require(not d.get("passed")
                          and (d.get("failure") or {}).get("reason") == "loop-count",
                          "expected the secret to show in worst-case loop counts"),
        seeded=True))
    return Workload(jobs, {})


JOB_LISTS = {
    "check": check_workload,
    "run": run_workload,
    "diverge": diverge_workload,
    "explore": explore_workload,
}


# --- probes for the traced run -----------------------------------------------------------


def probe_jobs() -> list[Job]:
    """The baseline figures the ROADMAP quotes, plus one small call into
    every traced entry point, so each per-layer figure is measured in
    every traced run."""
    mul, add, zrange2 = _load("mul").program(), _load("add"), _load("zrange2").program()
    binary_add_text = (FIXTURES / "binary_add.tier").read_text()
    badd_text = (FIXTURES / "badd.tier").read_text()

    def mul_60() -> Outcome:
        run = scheduling.run_with_scheduler(Store({"x": "1" * 60, "y": "1" * 60}), mul,
                                            scheduling.RoundRobin(), fuel=1_000_000)
        return Outcome(counts={"finished": run.finished, "store": dict(run.store.items())})

    def add_20000() -> Outcome:
        run = semantics.run_sequential(Store({"x": "1" * 20_000}),
                                       add.program().command("adder"), fuel=1_000_000,
                                       keep_trace=False)
        return Outcome(counts={"finished": run.finished, "store": dict(run.store.items())})

    def zrange2_6() -> Outcome:
        report = scheduling.explore(Store({"x": "1" * 6}), zrange2)
        return Outcome(counts=report.to_dict())

    def binary_add() -> Outcome:
        source = parser.parse(binary_add_text)
        report = typecheck.check_program(source)
        return Outcome(counts={"safe": report.safe, "pretty": parser.pretty(source)})

    def badd() -> Outcome:
        report = typecheck.infer_tiers(parser.parse(badd_text))
        return Outcome(counts={"ok": report.ok})

    def run_ok(name: str, inputs: dict):
        def check(out: Outcome) -> str | None:
            if not out.counts["finished"]:
                return "run did not finish"
            return final_store_problem(name, inputs, out.counts["store"])
        return check

    def explore_ok(out: Outcome) -> str | None:
        return _explore_terminates("zrange2", {"x": "1" * 6})(out.counts)

    return [
        Job("probe/mul_60", "mul 60", mul_60, run_ok("mul", {"x": "1" * 60, "y": "1" * 60})),
        Job("probe/add_20000", "add 20000", add_20000, run_ok("add", {"x": "1" * 20_000})),
        Job("probe/zrange2_6", "zrange2 6", zrange2_6, explore_ok),
        Job("probe/binary_add", "binary_add", binary_add,
            lambda out: require(out.counts["safe"], "binary_add should check")),
        Job("probe/badd", "badd", badd,
            lambda out: require(not out.counts["ok"], "badd should have no tiers")),
        cli_job("probe/cli_check", ["check", fixture("binary_add.tier"), "--json"], 0,
                _check_safe),
        cli_job("probe/ni", ["ni", fixture("add.tier"), "--trials", "5", "--json"], 0,
                _ni_passed(5)),
        cli_job("probe/measure", ["measure", fixture("add.tier"), "--scale", "x",
                                  "--sizes", "1:8", "--json"],
                0, _measure_check("polynomial", 1, lambda n: n)),
        subword_job("mul", {"x": "101", "y": "11"}),
        tier_preservation_job("zrange", {"x": "01", "y": "1"}),
        tm_verify_job("binary_inc", "0110"),
    ]
