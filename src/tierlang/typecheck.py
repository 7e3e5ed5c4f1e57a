"""Tier type system: checking, derivations, diagnostics, and inference.

A variable environment assigns each variable a tier; a signature
environment assigns each operator a set of signatures ``args -> result``.
An expression or command may type at several tiers, so the checker works
with the full set of derivable tiers and reports a canonical derivation
at the largest one.

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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .lang import (
    Assign,
    Command,
    Expr,
    If,
    OpCall,
    Program,
    Seq,
    Skip,
    Span,
    Tier,
    Var,
    While,
    free_vars,
)
from .ops import OperatorDef, Registry, UnknownOperatorError, default_registry
from .parser import Sig, SourceFile, pretty_expr

TierEnv = Mapping[str, Tier]
SigEnv = Mapping[str, frozenset[Sig]]

BOTH_TIERS = frozenset((Tier.ZERO, Tier.ONE))
NO_TIERS: frozenset[Tier] = frozenset()


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
    floor = Tier.ONE
    for tier in args:
        floor = floor.meet(tier)
    if not result.leq(floor):
        return False
    if not op.is_neutral and result != Tier.ZERO:
        return False
    return True


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


def render_sig(sig: Sig) -> str:
    args, result = sig
    return "->".join(str(t) for t in list(args) + [result])


def check_safe_sigs(sig_env: SigEnv, registry: Registry) -> tuple[Diagnostic, ...]:
    """All violations of the safety conditions in a signature environment."""
    out: list[Diagnostic] = []
    for name in sorted(sig_env):
        op = registry.resolve(name)
        for sig in sorted(sig_env[name]):
            args, result = sig
            floor = Tier.ONE
            for tier in args:
                floor = floor.meet(tier)
            if not result.leq(floor):
                out.append(
                    Diagnostic(
                        "signature",
                        f"signature {render_sig(sig)} of {name!r} returns tier {result} "
                        f"above an argument of tier {floor}",
                    )
                )
            elif not op.is_neutral and result != Tier.ZERO:
                out.append(
                    Diagnostic(
                        "signature",
                        f"signature {render_sig(sig)} of {name!r} must land in tier 0: "
                        f"the operator can lengthen its input",
                    )
                )
    return tuple(out)


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
        try:
            op = registry.resolve(decl.name)
        except UnknownOperatorError:
            diags.append(
                Diagnostic(
                    "operator",
                    f"operator {decl.name!r} has no interpretation in the registry",
                    decl.span,
                )
            )
            continue
        if op.arity != decl.arity:
            diags.append(
                Diagnostic(
                    "operator",
                    f"operator {decl.name!r} declared with arity {decl.arity} but "
                    f"interpreted with arity {op.arity}",
                    decl.span,
                )
            )
            continue
        declared_neutral = decl.klass == "neutral"
        if declared_neutral != op.is_neutral:
            actual = "neutral" if op.is_neutral else "positive"
            diags.append(
                Diagnostic(
                    "operator",
                    f"operator {decl.name!r} declared {decl.klass} but its "
                    f"interpretation is {actual}",
                    decl.span,
                )
            )
            continue
        env[decl.name] = frozenset(decl.sigs) if decl.sigs is not None else maximal_safe_sigs(op)
    return env, tuple(diags)


def _literal_sigs(name: str, registry: Registry) -> frozenset[Sig] | None:
    if name.startswith('"') or name in ("tt", "ff"):
        return maximal_safe_sigs(registry.resolve(name))
    return None


def maximal_sig_env(names: Iterator[str] | list[str], registry: Registry) -> dict[str, frozenset[Sig]]:
    """Convenience environment giving each named operator its maximal
    safe signature set."""
    return {name: maximal_safe_sigs(registry.resolve(name)) for name in names}


# --- derivations -------------------------------------------------------------


@dataclass(frozen=True)
class ExprDeriv:
    rule: str
    tier: Tier
    expr: Expr
    sig: Sig | None = None
    children: tuple["ExprDeriv", ...] = ()


@dataclass(frozen=True)
class CmdDeriv:
    rule: str
    tier: Tier
    cmd: Command
    guard: ExprDeriv | None = None
    children: tuple["CmdDeriv", ...] = ()


def render_derivation(deriv: ExprDeriv | CmdDeriv, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(deriv, ExprDeriv):
        head = f"{pad}[{deriv.rule}] {pretty_expr(deriv.expr)} : {deriv.tier}"
        if deriv.sig is not None:
            head += f"  via {render_sig(deriv.sig)}"
        parts = [head]
        parts += [render_derivation(child, indent + 1) for child in deriv.children]
        return "\n".join(parts)
    label = type(deriv.cmd).__name__.lower()
    parts = [f"{pad}[{deriv.rule}] {label} : {deriv.tier}"]
    if deriv.guard is not None:
        parts.append(render_derivation(deriv.guard, indent + 1))
    parts += [render_derivation(child, indent + 1) for child in deriv.children]
    return "\n".join(parts)


# --- expression typing --------------------------------------------------------


def _op_sigs(call: OpCall, sig_env: SigEnv, registry: Registry) -> frozenset[Sig]:
    sigs = sig_env.get(call.op)
    if sigs is None:
        sigs = _literal_sigs(call.op, registry)
    if sigs is None:
        raise UnknownOperatorError(call.op)
    return sigs


def expr_tiers(gamma: TierEnv, sig_env: SigEnv, registry: Registry, expr: Expr) -> frozenset[Tier]:
    """The set of tiers the expression types at."""
    if isinstance(expr, Var):
        if expr.name not in gamma:
            raise UnboundVariableError(expr.name)
        return frozenset((gamma[expr.name],))
    if isinstance(expr, OpCall):
        sigs = _op_sigs(expr, sig_env, registry)
        arg_tiers = [expr_tiers(gamma, sig_env, registry, a) for a in expr.args]
        out = set()
        for args, result in sigs:
            if all(t in arg_tiers[i] for i, t in enumerate(args)):
                out.add(result)
        return frozenset(out)
    raise TypeError(f"not an expression: {expr!r}")


def expr_derivation(
    gamma: TierEnv, sig_env: SigEnv, registry: Registry, expr: Expr, tier: Tier
) -> ExprDeriv | None:
    """A derivation of ``expr : tier``, or ``None`` if there is none."""
    if isinstance(expr, Var):
        if gamma.get(expr.name) == tier:
            return ExprDeriv("var", tier, expr)
        return None
    if isinstance(expr, OpCall):
        sigs = _op_sigs(expr, sig_env, registry)
        for args, result in sorted(sigs, reverse=True):
            if result != tier:
                continue
            children = []
            for i, arg_tier in enumerate(args):
                child = expr_derivation(gamma, sig_env, registry, expr.args[i], arg_tier)
                if child is None:
                    break
                children.append(child)
            else:
                return ExprDeriv("op", tier, expr, (args, result), tuple(children))
        return None
    raise TypeError(f"not an expression: {expr!r}")


@dataclass(frozen=True)
class ExprTyping:
    tiers: frozenset[Tier]
    derivation: ExprDeriv | None


def type_expr(gamma: TierEnv, sig_env: SigEnv, registry: Registry, expr: Expr) -> ExprTyping:
    tiers = expr_tiers(gamma, sig_env, registry, expr)
    deriv = None
    if tiers:
        deriv = expr_derivation(gamma, sig_env, registry, expr, max(tiers))
    return ExprTyping(tiers, deriv)


# --- command typing ------------------------------------------------------------


def seq_tiers(first: frozenset[Tier], second: frozenset[Tier]) -> frozenset[Tier]:
    """The tiers of ``first; second`` given the tiers of each half."""
    return frozenset(a.join(b) for a in first for b in second)


def command_tiers(gamma: TierEnv, sig_env: SigEnv, registry: Registry, cmd: Command) -> frozenset[Tier]:
    """The set of tiers the command types at.

    A command that fails every rule has the empty set; the invariant
    driving the harnesses is that this set can only shrink toward lower
    tiers as the command runs, never empty out.
    """
    if isinstance(cmd, Skip):
        return BOTH_TIERS
    if isinstance(cmd, Assign):
        if cmd.var not in gamma:
            raise UnboundVariableError(cmd.var)
        target = gamma[cmd.var]
        rhs = expr_tiers(gamma, sig_env, registry, cmd.expr)
        if any(target.leq(t) for t in rhs):
            return frozenset((target,))
        return NO_TIERS
    if isinstance(cmd, Seq):
        # Walk the right spine in a loop, so a long sequence costs no
        # recursion depth; the halves are visited in the same order.
        firsts = []
        while isinstance(cmd, Seq):
            firsts.append(command_tiers(gamma, sig_env, registry, cmd.first))
            cmd = cmd.second
        tiers = command_tiers(gamma, sig_env, registry, cmd)
        for first in reversed(firsts):
            tiers = seq_tiers(first, tiers)
        return tiers
    if isinstance(cmd, If):
        guard = expr_tiers(gamma, sig_env, registry, cmd.guard)
        then_t = command_tiers(gamma, sig_env, registry, cmd.then_branch)
        else_t = command_tiers(gamma, sig_env, registry, cmd.else_branch)
        return guard & then_t & else_t
    if isinstance(cmd, While):
        guard = expr_tiers(gamma, sig_env, registry, cmd.guard)
        body = command_tiers(gamma, sig_env, registry, cmd.body)
        if Tier.ONE in guard and body:
            return frozenset((Tier.ONE,))
        return NO_TIERS
    raise TypeError(f"not a command: {cmd!r}")


def command_derivation(
    gamma: TierEnv, sig_env: SigEnv, registry: Registry, cmd: Command, tier: Tier
) -> CmdDeriv | None:
    """A derivation of ``cmd : tier``, or ``None`` if there is none."""
    if isinstance(cmd, Skip):
        return CmdDeriv("skip", tier, cmd)
    if isinstance(cmd, Assign):
        if tier not in command_tiers(gamma, sig_env, registry, cmd):
            return None
        rhs = expr_tiers(gamma, sig_env, registry, cmd.expr)
        expr_tier = min(t for t in rhs if tier.leq(t))
        sub = expr_derivation(gamma, sig_env, registry, cmd.expr, expr_tier)
        return CmdDeriv("assign", tier, cmd, sub)
    if isinstance(cmd, Seq):
        first_t = command_tiers(gamma, sig_env, registry, cmd.first)
        second_t = command_tiers(gamma, sig_env, registry, cmd.second)
        for a in sorted(first_t, reverse=True):
            for b in sorted(second_t, reverse=True):
                if a.join(b) == tier:
                    left = command_derivation(gamma, sig_env, registry, cmd.first, a)
                    right = command_derivation(gamma, sig_env, registry, cmd.second, b)
                    if left and right:
                        return CmdDeriv("seq", tier, cmd, None, (left, right))
        return None
    if isinstance(cmd, If):
        guard = expr_derivation(gamma, sig_env, registry, cmd.guard, tier)
        then_d = command_derivation(gamma, sig_env, registry, cmd.then_branch, tier)
        else_d = command_derivation(gamma, sig_env, registry, cmd.else_branch, tier)
        if guard and then_d and else_d:
            return CmdDeriv("if", tier, cmd, guard, (then_d, else_d))
        return None
    if isinstance(cmd, While):
        if tier != Tier.ONE:
            return None
        guard = expr_derivation(gamma, sig_env, registry, cmd.guard, Tier.ONE)
        if guard is None:
            return None
        body_t = command_tiers(gamma, sig_env, registry, cmd.body)
        for b in sorted(body_t, reverse=True):
            body = command_derivation(gamma, sig_env, registry, cmd.body, b)
            if body:
                return CmdDeriv("while", Tier.ONE, cmd, guard, (body,))
        return None
    raise TypeError(f"not a command: {cmd!r}")


@dataclass(frozen=True)
class CommandTyping:
    tiers: frozenset[Tier]
    derivation: CmdDeriv | None


def type_command(gamma: TierEnv, sig_env: SigEnv, registry: Registry, cmd: Command) -> CommandTyping:
    tiers = command_tiers(gamma, sig_env, registry, cmd)
    deriv = None
    if tiers:
        deriv = command_derivation(gamma, sig_env, registry, cmd, max(tiers))
    return CommandTyping(tiers, deriv)


# --- failure explanation --------------------------------------------------------


def _tier_names(tiers: frozenset[Tier]) -> str:
    if not tiers:
        return "no tier"
    return ", ".join(str(t) for t in sorted(tiers))


def _explain_expr(gamma: TierEnv, sig_env: SigEnv, registry: Registry, expr: Expr) -> Diagnostic:
    """Innermost operator application with an empty tier set."""
    assert isinstance(expr, OpCall), "variables always type at their tier"
    for arg in expr.args:
        if not expr_tiers(gamma, sig_env, registry, arg):
            return _explain_expr(gamma, sig_env, registry, arg)
    arg_tiers = [expr_tiers(gamma, sig_env, registry, a) for a in expr.args]
    shown = ", ".join(_tier_names(t) for t in arg_tiers) or "none"
    return Diagnostic(
        "op",
        f"no declared signature of {expr.op!r} applies (argument tiers: {shown})",
        expr.span,
        tuple(sorted(free_vars(expr))),
    )


def explain_failure(gamma: TierEnv, sig_env: SigEnv, registry: Registry, cmd: Command) -> Diagnostic:
    """The first blocking constraint of an untypable command."""
    if isinstance(cmd, Assign):
        rhs = expr_tiers(gamma, sig_env, registry, cmd.expr)
        if not rhs:
            return _explain_expr(gamma, sig_env, registry, cmd.expr)
        target = gamma[cmd.var]
        return Diagnostic(
            "assign",
            f"variable {cmd.var!r} has tier {target} but {pretty_expr(cmd.expr)} only "
            f"types at tier {_tier_names(rhs)}",
            cmd.span,
            (cmd.var,),
        )
    if isinstance(cmd, Seq):
        if not command_tiers(gamma, sig_env, registry, cmd.first):
            return explain_failure(gamma, sig_env, registry, cmd.first)
        return explain_failure(gamma, sig_env, registry, cmd.second)
    if isinstance(cmd, If):
        guard = expr_tiers(gamma, sig_env, registry, cmd.guard)
        if not guard:
            return _explain_expr(gamma, sig_env, registry, cmd.guard)
        for branch in (cmd.then_branch, cmd.else_branch):
            if not command_tiers(gamma, sig_env, registry, branch):
                return explain_failure(gamma, sig_env, registry, branch)
        then_t = command_tiers(gamma, sig_env, registry, cmd.then_branch)
        else_t = command_tiers(gamma, sig_env, registry, cmd.else_branch)
        return Diagnostic(
            "if",
            f"guard and branches share no tier (guard: {_tier_names(guard)}, "
            f"then: {_tier_names(then_t)}, else: {_tier_names(else_t)})",
            cmd.span,
            tuple(sorted(free_vars(cmd.guard))),
        )
    if isinstance(cmd, While):
        if not command_tiers(gamma, sig_env, registry, cmd.body):
            return explain_failure(gamma, sig_env, registry, cmd.body)
        guard = expr_tiers(gamma, sig_env, registry, cmd.guard)
        return Diagnostic(
            "while",
            f"loop guard {pretty_expr(cmd.guard)} must type at tier 1 but only "
            f"types at {_tier_names(guard)}",
            cmd.span,
            tuple(sorted(free_vars(cmd.guard))),
        )
    raise AssertionError(f"typable command reached explain_failure: {cmd!r}")


# --- whole-program checking -------------------------------------------------------


@dataclass(frozen=True)
class ThreadReport:
    tid: str
    tiers: frozenset[Tier]
    derivation: CmdDeriv | None
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

    def gamma_env(self) -> dict[str, Tier]:
        return dict(self.gamma)

    def to_dict(self) -> dict:
        return {
            "safe": self.safe,
            "gamma": {name: int(t) for name, t in self.gamma},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "threads": [t.to_dict() for t in self.threads],
        }


def check_program(source: SourceFile, registry: Registry | None = None) -> CheckReport:
    """Full safety check: complete annotations, safe signatures, and a
    typing derivation for every thread."""
    registry = registry or default_registry()
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
    sig_env, env_diags = build_sig_env(source, registry)
    if env_diags:
        return CheckReport(False, tuple(sorted(gamma.items())), env_diags, ())
    violations = check_safe_sigs(sig_env, registry)
    if violations:
        return CheckReport(False, tuple(sorted(gamma.items())), violations, ())
    threads = []
    for tid, cmd in source.threads:
        tiers = command_tiers(gamma, sig_env, registry, cmd)
        if tiers:
            deriv = command_derivation(gamma, sig_env, registry, cmd, max(tiers))
            threads.append(ThreadReport(tid, tiers, deriv, None))
        else:
            threads.append(ThreadReport(tid, tiers, None, explain_failure(gamma, sig_env, registry, cmd)))
    safe = all(t.ok for t in threads)
    return CheckReport(safe, tuple(sorted(gamma.items())), (), tuple(threads))


# --- tier inference ------------------------------------------------------------


class Constraint:
    """An atomic necessary condition extracted from the program text."""

    def __init__(
        self,
        kind: str,
        variables: tuple[str, ...],
        span: Span | None,
        description: str,
        holds: Callable[[TierEnv], bool],
    ):
        self.kind = kind
        self.variables = variables
        self.span = span
        self.description = description
        self.holds = holds

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
    ok: bool
    gamma: tuple[tuple[str, Tier], ...] | None
    check: CheckReport | None
    core: tuple[Constraint, ...] = ()
    note: str = ""

    def gamma_env(self) -> dict[str, Tier]:
        return dict(self.gamma or ())

    def core_variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for c in self.core for v in c.variables}))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "gamma": {name: int(t) for name, t in self.gamma} if self.gamma else None,
            "core": [c.to_dict() for c in self.core],
            "core_variables": list(self.core_variables()),
            "note": self.note,
        }


def _occurrence_order(source: SourceFile) -> list[str]:
    seen: list[str] = []

    def visit_expr(expr: Expr) -> None:
        if isinstance(expr, Var):
            if expr.name not in seen:
                seen.append(expr.name)
        elif isinstance(expr, OpCall):
            for arg in expr.args:
                visit_expr(arg)

    def visit(cmd: Command) -> None:
        if isinstance(cmd, Assign):
            if cmd.var not in seen:
                seen.append(cmd.var)
            visit_expr(cmd.expr)
        elif isinstance(cmd, Seq):
            visit(cmd.first)
            visit(cmd.second)
        elif isinstance(cmd, If):
            visit_expr(cmd.guard)
            visit(cmd.then_branch)
            visit(cmd.else_branch)
        elif isinstance(cmd, While):
            visit_expr(cmd.guard)
            visit(cmd.body)

    for _, cmd in source.threads:
        visit(cmd)
    return seen


def _collect_constraints(
    source: SourceFile, sig_env: SigEnv, registry: Registry
) -> list[Constraint]:
    out: list[Constraint] = []

    def guard_constraint(guard: Expr) -> Constraint:
        names = tuple(sorted(free_vars(guard)))
        text = pretty_expr(guard)
        return Constraint(
            "guard",
            names,
            _span(guard),
            f"loop guard {text} must type at tier 1",
            lambda env, g=guard: Tier.ONE in expr_tiers(env, sig_env, registry, g),
        )

    def assign_constraint(cmd: Assign) -> Constraint:
        names = tuple(sorted({cmd.var} | free_vars(cmd.expr)))
        text = f"{cmd.var} := {pretty_expr(cmd.expr)}"

        def holds(env: TierEnv, a=cmd) -> bool:
            rhs = expr_tiers(env, sig_env, registry, a.expr)
            return any(env[a.var].leq(t) for t in rhs)

        return Constraint(
            "assign",
            names,
            cmd.span,
            f"assignment {text} must store at or below the expression tier",
            holds,
        )

    def visit(cmd: Command) -> None:
        if isinstance(cmd, Assign):
            out.append(assign_constraint(cmd))
        elif isinstance(cmd, Seq):
            visit(cmd.first)
            visit(cmd.second)
        elif isinstance(cmd, If):
            visit(cmd.then_branch)
            visit(cmd.else_branch)
        elif isinstance(cmd, While):
            out.append(guard_constraint(cmd.guard))
            visit(cmd.body)

    for _, cmd in source.threads:
        visit(cmd)
    return out


def _span(expr: Expr) -> Span | None:
    return getattr(expr, "span", None)


def _guard_vars(source: SourceFile) -> set[str]:
    forced: set[str] = set()

    def visit(cmd: Command) -> None:
        if isinstance(cmd, Seq):
            visit(cmd.first)
            visit(cmd.second)
        elif isinstance(cmd, If):
            visit(cmd.then_branch)
            visit(cmd.else_branch)
        elif isinstance(cmd, While):
            forced.update(free_vars(cmd.guard))
            visit(cmd.body)

    for _, cmd in source.threads:
        visit(cmd)
    return forced


_ENUM_CAP = 16


def _satisfiable(
    constraints: list[Constraint], unknowns: list[str], fixed: dict[str, Tier]
) -> bool:
    if len(unknowns) > _ENUM_CAP:
        raise OverflowError("too many unknowns for exhaustive satisfiability")
    for combo in itertools.product((Tier.ZERO, Tier.ONE), repeat=len(unknowns)):
        env = dict(fixed)
        env.update(zip(unknowns, combo))
        if all(c.holds(env) for c in constraints):
            return True
    return False


def infer_tiers(source: SourceFile, registry: Registry | None = None) -> InferenceReport:
    """Complete missing tier annotations, or explain why none work.

    The search assigns unannotated variables in order of first occurrence.
    Variables read inside some loop guard are pinned to tier 1 up front
    (safe signatures force every guard variable to tier 1); the rest try
    tier 0 before tier 1.  On failure the report carries a minimized set
    of conflicting constraints, shrunk greedily by re-testing
    satisfiability with each constraint dropped.
    """
    registry = registry or default_registry()
    sig_env, env_diags = build_sig_env(source, registry)
    if env_diags:
        return InferenceReport(False, None, None, (), "; ".join(str(d) for d in env_diags))
    violations = check_safe_sigs(sig_env, registry)
    if violations:
        return InferenceReport(False, None, None, (), "; ".join(str(d) for d in violations))

    annotated = source.annotations()
    program = source.program()
    names = [v for v in _occurrence_order(source) if v in free_vars(program)]
    unknowns = [v for v in names if v not in annotated]
    forced = _guard_vars(source)

    def full_check(env: dict[str, Tier]) -> bool:
        return all(
            bool(command_tiers(env, sig_env, registry, cmd)) for _, cmd in source.threads
        )

    constraints = _collect_constraints(source, sig_env, registry)

    def search(idx: int, env: dict[str, Tier]) -> dict[str, Tier] | None:
        if idx == len(unknowns):
            return dict(env) if full_check(env) else None
        var = unknowns[idx]
        order = (Tier.ONE,) if var in forced else (Tier.ZERO, Tier.ONE)
        for tier in order:
            env[var] = tier
            decided = set(env)
            fine = all(
                c.holds(env) for c in constraints if set(c.variables) <= decided
            )
            if fine:
                found = search(idx + 1, env)
                if found is not None:
                    return found
            del env[var]
        return None

    solution = search(0, dict(annotated))
    if solution is not None:
        gamma = {v: solution[v] for v in free_vars(program)}
        checked = check_program(source.with_annotations(gamma), registry)
        return InferenceReport(True, tuple(sorted(gamma.items())), checked)

    # No assignment works: minimize a conflicting constraint set.
    note = ""
    try:
        core = list(constraints)
        if _satisfiable(core, unknowns, dict(annotated)):
            # The atomic conditions alone are satisfiable; the conflict
            # needs whole-thread typability, so add it per thread.
            for tid, cmd in source.threads:
                core.append(
                    Constraint(
                        "thread",
                        tuple(sorted(free_vars(cmd))),
                        None,
                        f"thread {tid!r} must type at some tier",
                        lambda env, c=cmd: bool(command_tiers(env, sig_env, registry, c)),
                    )
                )
        for candidate in list(core):
            rest = [c for c in core if c is not candidate]
            if not _satisfiable(rest, unknowns, dict(annotated)):
                core = rest
    except OverflowError:
        core = constraints
        note = "too many variables to minimize the conflict set"
    return InferenceReport(False, None, None, tuple(core), note)
