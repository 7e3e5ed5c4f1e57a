"""Tier type system: checking, diagnostics, and inference.

A variable environment assigns each variable a tier; a signature
environment assigns each operator a set of signatures ``args -> result``.
An expression or command may type at several tiers, so the checker works
with the full set of derivable tiers.  The rules are syntax-directed, so
one post-order pass with an explicit stack computes every node's tier
set exactly; a failure diagnostic is then read off those sets, and no
sequence length or nesting depth costs Python recursion.

Safe signature sets keep growth under control: a signature's result must
sit at or below every argument tier, and operators that can actually
lengthen a word (positive but not neutral) must land in tier ZERO.
Under such a set, any loop guard that types at tier ONE can only read
tier-ONE data through neutral operators, which is what the
non-interference and polynomial-bound harnesses in :mod:`.analysis`
exercise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .lang import (
    Assign,
    Command,
    Expr,
    If,
    OpCall,
    Seq,
    Skip,
    Span,
    Tier,
    Var,
    While,
    free_vars,
    walk,
)
from .ops import OPERATORS, OperatorDef, Registry, UnknownOperatorError
from .parser import OpDecl, Sig, SourceFile, pretty_expr, render_sig

TierEnv = Mapping[str, Tier]
SigEnv = Mapping[str, frozenset[Sig]]
TierTable = dict[int, frozenset[Tier]]  # tier sets keyed by id(node)

BOTH_TIERS = frozenset((Tier.ZERO, Tier.ONE))
NO_TIERS: frozenset[Tier] = frozenset()
_ONLY = {tier: frozenset((tier,)) for tier in Tier}


class UnboundVariableError(KeyError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    """A single typing failure: the violated rule, where, and why."""

    rule: str
    message: str
    span: Span | None = None
    variables: tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        who = f" [variables: {', '.join(self.variables)}]" if self.variables else ""
        return f"{self.rule}{where}: {self.message}{who}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "span": str(self.span) if self.span else None,
            "variables": list(self.variables),
        }


# --- signatures -------------------------------------------------------------


def sig_is_safe(sig: Sig, op: OperatorDef) -> bool:
    args, result = sig
    return result.leq(min(args, default=Tier.ONE)) and (op.is_neutral or result == Tier.ZERO)


def maximal_safe_sigs(op: OperatorDef) -> frozenset[Sig]:
    """Every signature of the operator's arity that a safe environment
    may contain."""
    out = set()
    for combo in itertools.product((Tier.ZERO, Tier.ONE), repeat=op.arity):
        for result in (Tier.ZERO, Tier.ONE):
            sig = (combo, result)
            if sig_is_safe(sig, op):
                out.add(sig)
    return frozenset(out)


def check_safe_sigs(sig_env: SigEnv) -> tuple[Diagnostic, ...]:
    """All violations of the safety conditions in a signature environment."""
    out: list[Diagnostic] = []
    for name in sorted(sig_env):
        op = OPERATORS.resolve(name)
        for sig in sorted(sig_env[name]):
            if sig_is_safe(sig, op):
                continue
            args, result = sig
            floor = min(args, default=Tier.ONE)
            if not result.leq(floor):
                why = f"returns tier {result} above an argument of tier {floor}"
            else:
                why = "must land in tier 0: the operator can lengthen its input"
            out.append(Diagnostic("signature", f"signature {render_sig(sig)} of {name!r} {why}"))
    return tuple(out)


def interpret(decl: OpDecl, registry: Registry) -> OperatorDef | Diagnostic:
    """The registry's operator for a declaration, or the ``operator``
    diagnostic when the registry lacks its name or arity; a program with
    such a declaration cannot run."""
    try:
        op = registry.resolve(decl.name)
    except UnknownOperatorError:
        why = "has no interpretation in the registry"
    else:
        if op.arity == decl.arity:
            return op
        why = f"declared with arity {decl.arity} but interpreted with arity {op.arity}"
    return Diagnostic("operator", f"operator {decl.name!r} {why}", decl.span)


def build_sig_env(
    source: SourceFile, registry: Registry
) -> tuple[dict[str, frozenset[Sig]], tuple[Diagnostic, ...]]:
    """Signature environment from a source file's op headers.

    Declarations without a ``sig`` clause get the maximal safe set for
    the operator.  Mismatches against the registry (unknown name, wrong
    arity, wrong class) come back as diagnostics.
    """
    env: dict[str, frozenset[Sig]] = {}
    diags: list[Diagnostic] = []
    for decl in source.op_decls:
        op = interpret(decl, registry)
        if isinstance(op, Diagnostic):
            diags.append(op)
            continue
        if (decl.klass == "neutral") != op.is_neutral:
            actual = "neutral" if op.is_neutral else "positive"
            why = f"declared {decl.klass} but its interpretation is {actual}"
            diags.append(Diagnostic("operator", f"operator {decl.name!r} {why}", decl.span))
            continue
        env[decl.name] = frozenset(decl.sigs) if decl.sigs is not None else maximal_safe_sigs(op)
    return env, tuple(diags)


def _declared_sigs(source: SourceFile) -> dict[str, frozenset[Sig]]:
    """The ``sig`` clauses a source file declares.  Only these need a
    safety check: ``maximal_safe_sigs`` builds the others safe."""
    return {d.name: frozenset(d.sigs) for d in source.op_decls if d.sigs is not None}


def _literal_sigs(name: str) -> frozenset[Sig] | None:
    if name.startswith('"') or name in ("tt", "ff"):
        return maximal_safe_sigs(OPERATORS.resolve(name))
    return None


# --- the typing pass ------------------------------------------------------------


def _op_sigs(call: OpCall, sig_env: SigEnv) -> frozenset[Sig]:
    sigs = sig_env.get(call.op)
    if sigs is None:
        sigs = _literal_sigs(call.op)
    if sigs is None:
        raise UnknownOperatorError(call.op)
    return sigs


def _tier_table(
    gamma: TierEnv, sig_env: SigEnv, root: Expr | Command, tiers: TierTable | None = None
) -> TierTable:
    """The tier set of every expression and command node under ``root``.

    One post-order pass with an explicit stack combines each node's set
    once from its children's, left to right; an assignment's target and an
    operator's signatures are looked up on the way down, so errors raise
    in reading order.  An exit entry is a ``(node, signatures)`` pair, with
    ``None`` for a command.  Given a table, the pass extends it and skips
    the nodes it already holds; its keys are ids, so the caller keeps
    those nodes alive.
    """
    if tiers is None:
        tiers = {}
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node, sigs = node
            if sigs is not None:
                combos = set(itertools.product(*[tiers[id(a)] for a in node.args]))
                tiers[id(node)] = frozenset([result for sig, result in sigs if sig in combos])
            elif isinstance(node, Assign):
                target = gamma[node.var]
                fits = any(target.leq(t) for t in tiers[id(node.expr)])
                tiers[id(node)] = _ONLY[target] if fits else NO_TIERS
            elif isinstance(node, Seq):
                tiers[id(node)] = frozenset(a.join(b) for a in tiers[id(node.first)]
                                            for b in tiers[id(node.second)])
            elif isinstance(node, If):
                tiers[id(node)] = (tiers[id(node.guard)] & tiers[id(node.then_branch)]
                                   & tiers[id(node.else_branch)])
            else:
                fits = Tier.ONE in tiers[id(node.guard)] and tiers[id(node.body)]
                tiers[id(node)] = _ONLY[Tier.ONE] if fits else NO_TIERS
            continue
        key = id(node)
        if key in tiers:
            continue  # a subtree shared within the tree
        if isinstance(node, Var):
            if node.name not in gamma:
                raise UnboundVariableError(node.name)
            tiers[key] = _ONLY[gamma[node.name]]
        elif isinstance(node, OpCall):
            stack.append((node, _op_sigs(node, sig_env)))
            stack.extend(reversed(node.args))
        elif isinstance(node, Skip):
            tiers[key] = BOTH_TIERS
        elif isinstance(node, Assign):
            if node.var not in gamma:
                raise UnboundVariableError(node.var)
            stack += ((node, None), node.expr)
        elif isinstance(node, Seq):
            stack += ((node, None), node.second, node.first)
        elif isinstance(node, If):
            stack += ((node, None), node.else_branch, node.then_branch, node.guard)
        elif isinstance(node, While):
            stack += ((node, None), node.body, node.guard)
        else:
            raise TypeError(f"not an AST node: {node!r}")
    return tiers


def expr_tiers(gamma: TierEnv, sig_env: SigEnv, expr: Expr) -> frozenset[Tier]:
    """The set of tiers the expression types at."""
    return _tier_table(gamma, sig_env, expr)[id(expr)]


def command_tiers(gamma: TierEnv, sig_env: SigEnv, cmd: Command) -> frozenset[Tier]:
    """The set of tiers the command types at.

    A command that fails every rule has the empty set; the invariant
    driving the harnesses is that this set can only shrink toward lower
    tiers as the command runs, never empty out.
    """
    return _tier_table(gamma, sig_env, cmd)[id(cmd)]


# --- failure explanation --------------------------------------------------------


def _tier_names(tiers: frozenset[Tier]) -> str:
    if not tiers:
        return "no tier"
    return ", ".join(str(t) for t in sorted(tiers))


def _explain(tiers: TierTable, gamma: TierEnv, cmd: Command) -> Diagnostic:
    """The first blocking constraint of an untypable command, found by
    following the first untypable child down a tier table."""
    while True:
        if isinstance(cmd, Assign):
            rhs = tiers[id(cmd.expr)]
            if not rhs:
                expr = cmd.expr
                break
            target = gamma[cmd.var]
            return Diagnostic(
                "assign",
                f"variable {cmd.var!r} has tier {target} but {pretty_expr(cmd.expr)} only "
                f"types at tier {_tier_names(rhs)}",
                cmd.span,
                (cmd.var,),
            )
        if isinstance(cmd, Seq):
            cmd = cmd.second if tiers[id(cmd.first)] else cmd.first
        elif isinstance(cmd, If):
            guard = tiers[id(cmd.guard)]
            then_t, else_t = tiers[id(cmd.then_branch)], tiers[id(cmd.else_branch)]
            if not guard:
                expr = cmd.guard
                break
            if not then_t or not else_t:
                cmd = cmd.else_branch if then_t else cmd.then_branch
                continue
            return Diagnostic(
                "if",
                f"guard and branches share no tier (guard: {_tier_names(guard)}, "
                f"then: {_tier_names(then_t)}, else: {_tier_names(else_t)})",
                cmd.span,
                tuple(sorted(free_vars(cmd.guard))),
            )
        elif isinstance(cmd, While):
            if not tiers[id(cmd.body)]:
                cmd = cmd.body
                continue
            return Diagnostic(
                "while",
                f"loop guard {pretty_expr(cmd.guard)} must type at tier 1 but only "
                f"types at {_tier_names(tiers[id(cmd.guard)])}",
                cmd.span,
                tuple(sorted(free_vars(cmd.guard))),
            )
        else:
            raise AssertionError(f"typable command reached _explain: {cmd!r}")
    # The innermost operator application with an empty tier set.
    while True:
        assert isinstance(expr, OpCall), "variables always type at their tier"
        blocked = next((arg for arg in expr.args if not tiers[id(arg)]), None)
        if blocked is None:
            break
        expr = blocked
    shown = ", ".join(_tier_names(tiers[id(a)]) for a in expr.args) or "none"
    return Diagnostic(
        "op",
        f"no declared signature of {expr.op!r} applies (argument tiers: {shown})",
        expr.span,
        tuple(sorted(free_vars(expr))),
    )


# --- whole-program checking -------------------------------------------------------


@dataclass(frozen=True)
class ThreadReport:
    tid: str
    tiers: frozenset[Tier]
    diagnostic: Diagnostic | None

    @property
    def ok(self) -> bool:
        return bool(self.tiers)

    def to_dict(self) -> dict:
        return {
            "thread": self.tid,
            "tiers": sorted(int(t) for t in self.tiers),
            "diagnostic": self.diagnostic.to_dict() if self.diagnostic else None,
        }


@dataclass(frozen=True)
class CheckReport:
    safe: bool
    gamma: tuple[tuple[str, Tier], ...]
    diagnostics: tuple[Diagnostic, ...]
    threads: tuple[ThreadReport, ...]

    def to_dict(self) -> dict:
        return {
            "safe": self.safe,
            "gamma": {name: int(t) for name, t in self.gamma},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "threads": [t.to_dict() for t in self.threads],
        }


def check_program(source: SourceFile) -> CheckReport:
    """Full safety check: complete annotations, safe signatures, and a
    nonempty tier set for every thread.

    A thread that types at no tier gets the diagnostic of its first
    blocking constraint.
    """
    gamma = source.annotations()
    program = source.program()
    missing = sorted(free_vars(program) - set(gamma))
    if missing:
        diag = Diagnostic(
            "annotations",
            "no tier annotation for: " + ", ".join(missing),
            None,
            tuple(missing),
        )
        return CheckReport(False, tuple(sorted(gamma.items())), (diag,), ())
    sig_env, env_diags = build_sig_env(source, OPERATORS)
    if env_diags:
        return CheckReport(False, tuple(sorted(gamma.items())), env_diags, ())
    violations = check_safe_sigs(_declared_sigs(source))
    if violations:
        return CheckReport(False, tuple(sorted(gamma.items())), violations, ())
    threads = []
    for tid, cmd in source.threads:
        table = _tier_table(gamma, sig_env, cmd)
        tiers = table[id(cmd)]
        diagnostic = None if tiers else _explain(table, gamma, cmd)
        threads.append(ThreadReport(tid, tiers, diagnostic))
    safe = all(t.ok for t in threads)
    return CheckReport(safe, tuple(sorted(gamma.items())), (), tuple(threads))


# --- tier inference ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Constraint:
    """A necessary condition read off the program text: an assignment's or
    a loop guard's, or a whole thread's typability."""

    kind: str  # "assign" | "guard" | "thread"
    variables: tuple[str, ...]
    span: Span | None
    description: str
    holds: Callable[[TierEnv], bool]

    def __repr__(self) -> str:
        return f"Constraint({self.kind!r}, {self.description!r})"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variables": list(self.variables),
            "span": str(self.span) if self.span else None,
            "description": self.description,
        }


@dataclass(frozen=True)
class InferenceReport:
    """The inferred tier of every variable, or ``None`` with a conflicting
    constraint set or a note on what stopped inference."""

    gamma: tuple[tuple[str, Tier], ...] | None
    core: tuple[Constraint, ...] = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.gamma is not None

    def core_variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for c in self.core for v in c.variables}))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "gamma": None if self.gamma is None else {name: int(t) for name, t in self.gamma},
            "core": [c.to_dict() for c in self.core],
            "core_variables": list(self.core_variables()),
            "note": self.note,
        }


def _constraints(
    source: SourceFile, sig_env: SigEnv
) -> tuple[list[str], list[Constraint], list[Constraint]]:
    """The program's variables in order of first occurrence, each
    assignment's and loop guard's constraint in reading order, and one
    constraint per thread."""
    names: dict[str, None] = {}
    atomic: list[Constraint] = []
    for _, cmd in source.threads:
        for node in walk(cmd):
            if isinstance(node, Var):
                names.setdefault(node.name)
            elif isinstance(node, Assign):
                names.setdefault(node.var)
                atomic.append(Constraint(
                    "assign",
                    tuple(sorted({node.var} | free_vars(node.expr))),
                    node.span,
                    f"assignment {node.var} := {pretty_expr(node.expr)} must store at or "
                    "below the expression tier",
                    lambda env, a=node: any(
                        env[a.var].leq(t) for t in expr_tiers(env, sig_env, a.expr)),
                ))
            elif isinstance(node, While):
                atomic.append(Constraint(
                    "guard",
                    tuple(sorted(free_vars(node.guard))),
                    node.guard.span,
                    f"loop guard {pretty_expr(node.guard)} must type at tier 1",
                    lambda env, g=node.guard: Tier.ONE in expr_tiers(env, sig_env, g),
                ))
    threads = [
        Constraint(
            "thread",
            tuple(sorted(free_vars(cmd))),
            None,
            f"thread {tid!r} must type at some tier",
            lambda env, c=cmd: bool(command_tiers(env, sig_env, c)),
        )
        for tid, cmd in source.threads
    ]
    return list(names), atomic, threads


_ENUM_CAP = 16


def _solve(
    constraints: list[Constraint],
    unknowns: list[str],
    fixed: Mapping[str, Tier],
    forced: set[str],
) -> dict[str, Tier] | None:
    """The first tier environment, or ``None``, that extends ``fixed`` and
    satisfies every constraint.

    Backtracking over ``unknowns`` in order, with an explicit stack of the
    next tier each decided variable tries: tier 0 before tier 1, except
    that a variable in ``forced`` only tries tier 1.  A constraint is
    tested once per assignment of its unknowns, when the last of them (in
    ``unknowns`` order) is decided; one without unknowns is tested first.
    """
    last = {v: depth for depth, v in enumerate(unknowns, 1)}
    due: list[list[Constraint]] = [[] for _ in range(len(unknowns) + 1)]
    for c in constraints:
        due[max((last.get(v, 0) for v in c.variables), default=0)].append(c)
    env = dict(fixed)
    if not all(c.holds(env) for c in due[0]):
        return None
    tried = [0] * len(unknowns)
    depth = 0
    while depth < len(unknowns):
        var = unknowns[depth]
        order = (Tier.ONE,) if var in forced else (Tier.ZERO, Tier.ONE)
        if tried[depth] == len(order):
            if depth == 0:
                return None
            tried[depth] = 0
            depth -= 1
            continue
        env[var] = order[tried[depth]]
        tried[depth] += 1
        if all(c.holds(env) for c in due[depth + 1]):
            depth += 1
    return env


def infer_tiers(source: SourceFile) -> InferenceReport:
    """Complete missing tier annotations, or explain why none work.

    The constraints are each assignment's and loop guard's, plus one per
    thread that it types at some tier.  ``_solve`` assigns the unannotated
    variables in order of first occurrence, pinning the variables a loop
    guard reads to tier 1.  A solution needs no second check: its thread
    constraints already type every thread.  It keeps the annotated
    variables, used or not, as ``check`` does.  On failure the report carries
    a conflicting set, minimized greedily: the atomic constraints, plus
    the thread constraints if the atomic ones alone are satisfiable, each
    dropped in turn if the rest stay unsatisfiable.  With more than
    ``_ENUM_CAP`` unknowns the atomic constraints come back unminimized,
    with a note.
    """
    sig_env, env_diags = build_sig_env(source, OPERATORS)
    if env_diags:
        return InferenceReport(None, note="; ".join(str(d) for d in env_diags))
    violations = check_safe_sigs(_declared_sigs(source))
    if violations:
        return InferenceReport(None, note="; ".join(str(d) for d in violations))

    annotated = source.annotations()
    names, constraints, threads = _constraints(source, sig_env)
    unknowns = [v for v in names if v not in annotated]
    # Safe signatures force every variable read by a loop guard to tier 1.
    forced = {v for c in constraints if c.kind == "guard" for v in c.variables}
    solution = _solve(constraints + threads, unknowns, annotated, forced)
    if solution is not None:
        return InferenceReport(tuple(sorted(solution.items())))

    # No assignment works: minimize a conflicting constraint set.  A
    # dropped guard constraint no longer forces its variables.
    if len(unknowns) > _ENUM_CAP:
        return InferenceReport(None, tuple(constraints),
                               "too many variables to minimize the conflict set")
    core = list(constraints)
    if _solve(core, unknowns, annotated, set()) is not None:
        # The atomic conditions alone are satisfiable; the conflict
        # needs whole-thread typability.
        core += threads
    for candidate in list(core):
        rest = [c for c in core if c is not candidate]
        if _solve(rest, unknowns, annotated, set()) is None:
            core = rest
    return InferenceReport(None, tuple(core))
