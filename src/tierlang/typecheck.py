"""Tier type system: checking, diagnostics, and inference.

A variable environment assigns each variable a tier; a signature
environment assigns each operator a set of signatures ``args -> result``.
An expression or command may type at several tiers, so the checker works
with the full set of derivable tiers.  The rules are syntax-directed, so
one pass over a control table, which numbers expressions and commands
in one id space, children first, types each distinct node exactly into
one list (a ``Typing``) indexed by node id; a diagnostic is read off
those sets and the thread's own tree, and no size or depth costs Python
recursion.

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
from typing import Callable, Iterable, Mapping

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
from .semantics import ControlTable

TierEnv = Mapping[str, Tier]
SigEnv = Mapping[str, frozenset[Sig]]
Typing = list[frozenset[Tier]]  # by node id of a control table

BOTH_TIERS = frozenset((Tier.ZERO, Tier.ONE))
NO_TIERS: frozenset[Tier] = frozenset()
_ONLY = {tier: frozenset((tier,)) for tier in Tier}
# Every tier set a typing holds is one of these four objects.
_SHARED = {tiers: tiers for tiers in (NO_TIERS, BOTH_TIERS, *_ONLY.values())}


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
    return result <= min(args, default=Tier.ONE) and (op.is_neutral or result == Tier.ZERO)


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
            if result > floor:
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


def _checked_sig_env(source: SourceFile) -> tuple[dict[str, frozenset[Sig]], tuple]:
    """``build_sig_env`` on the library; its diagnostics, else unsafe ``sig`` clauses'."""
    sig_env, diags = build_sig_env(source, OPERATORS)
    declared = {d.name: frozenset(d.sigs) for d in source.op_decls if d.sigs is not None}
    return sig_env, diags or check_safe_sigs(declared)


# --- the typing pass ------------------------------------------------------------


def _op_sigs(op: str, sig_env: SigEnv) -> frozenset[Sig]:
    sigs = sig_env.get(op)
    if sigs is None and (op.startswith('"') or op in ("tt", "ff")):
        sigs = maximal_safe_sigs(OPERATORS.resolve(op))  # a literal
    if sigs is None:
        raise UnknownOperatorError(op)
    return sigs


def type_table(table: ControlTable, gamma: TierEnv, sig_env: SigEnv, typing: Typing | None = None,
               entries: Iterable[int] = ()) -> Typing:
    """The tier set of every node id of a control table, expression or command.

    The rules are syntax-directed, so a node's set follows from its key's
    kind and its children's sets, which the table numbers first: one pass
    in id order types each distinct node once.  Given an earlier typing
    of the table, the pass types just the ids in ``entries``, whose
    children's sets are current.
    """
    keys = table.keys
    if typing is None:
        for name in table.variables:
            if name not in gamma:
                raise UnboundVariableError(name)
        typing = [NO_TIERS] * len(keys)
        entries = range(len(keys))
    for i in entries:
        key = keys[i]
        if key.__class__ is str:
            tiers = _ONLY[gamma[key]]
        elif key[0] is Seq:
            tiers = frozenset([max(a, b) for a in typing[key[1]] for b in typing[key[2]]])
        elif key[0] is If:
            tiers = typing[key[1]] & typing[key[2]] & typing[key[3]]
        elif key[0] is While:
            fits = Tier.ONE in typing[key[1]] and typing[key[2]]
            tiers = _ONLY[Tier.ONE] if fits else NO_TIERS
        elif key[0] is Assign:
            target = gamma[key[2]]
            fits = any(target <= t for t in typing[key[1]])
            tiers = _ONLY[target] if fits else NO_TIERS
        elif key[0] is Skip:
            tiers = BOTH_TIERS
        else:  # an operator application
            combos = set(itertools.product(*[typing[a] for a in key[1:]]))
            tiers = frozenset([r for sig, r in _op_sigs(key[0], sig_env) if sig in combos])
        typing[i] = _SHARED[tiers]
    return typing


def command_tiers(gamma: TierEnv, sig_env: SigEnv, cmd: Command) -> frozenset[Tier]:
    """The set of tiers the command types at.

    A command that fails every rule has the empty set; the invariant
    driving the harnesses is that this set can only shrink toward lower
    tiers as the command runs, never empty out.  An unbound variable or
    an unknown operator raises at its first occurrence in reading order.
    """
    for node in walk(cmd):
        name = node.name if node.__class__ is Var else getattr(node, "var", None)
        if node.__class__ is OpCall:
            _op_sigs(node.op, sig_env)
        elif name is not None and name not in gamma:
            raise UnboundVariableError(name)
    table = ControlTable((cmd,))
    return type_table(table, gamma, sig_env)[table.roots[0]]


# --- failure explanation --------------------------------------------------------


def _tier_names(tiers: frozenset[Tier]) -> str:
    if not tiers:
        return "no tier"
    return ", ".join(str(t) for t in sorted(tiers))


def _explain(typing: Typing, table: ControlTable, gamma: TierEnv, node: Command | Expr,
             i: int) -> Diagnostic:
    """The first blocking constraint of an untypable node at id ``i``,
    found by following the first untypable child down the node and the
    table's keys side by side: the keys give the tier sets, and the node
    its own spans and text, which hash-consing does not keep."""
    while True:
        key = table.keys[i]
        if isinstance(node, OpCall):  # down to the innermost one with an empty tier set
            args = key[1:]
            blocked = [n for n, arg in enumerate(args) if not typing[arg]]
            if blocked:
                node, i = node.args[blocked[0]], args[blocked[0]]
                continue
            shown = ", ".join(_tier_names(typing[arg]) for arg in args) or "none"
            return Diagnostic(
                "op",
                f"no declared signature of {node.op!r} applies (argument tiers: {shown})",
                node.span,
                tuple(sorted(free_vars(node))),
            )
        if isinstance(node, Seq):
            node, i = (node.second, key[2]) if typing[key[1]] else (node.first, key[1])
        elif isinstance(node, (Assign, If)) and not typing[key[1]]:
            node, i = (node.expr if isinstance(node, Assign) else node.guard), key[1]
        elif isinstance(node, If) and not (typing[key[2]] and typing[key[3]]):
            node, i = (node.else_branch, key[3]) if typing[key[2]] else (node.then_branch, key[2])
        elif isinstance(node, While) and not typing[key[2]]:
            node, i = node.body, key[2]
        elif isinstance(node, Assign):
            return Diagnostic(
                "assign",
                f"variable {node.var!r} has tier {gamma[node.var]} but {pretty_expr(node.expr)} "
                f"only types at tier {_tier_names(typing[key[1]])}",
                node.span,
                (node.var,),
            )
        elif isinstance(node, If):
            guard, then_t, else_t = (_tier_names(typing[j]) for j in key[1:])
            return Diagnostic(
                "if",
                f"guard and branches share no tier (guard: {guard}, then: {then_t}, "
                f"else: {else_t})",
                node.span,
                tuple(sorted(free_vars(node.guard))),
            )
        elif isinstance(node, While):
            return Diagnostic(
                "while",
                f"loop guard {pretty_expr(node.guard)} must type at tier 1 but only "
                f"types at {_tier_names(typing[key[1]])}",
                node.span,
                tuple(sorted(free_vars(node.guard))),
            )
        else:
            raise AssertionError(f"typable node reached _explain: {node!r}")


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
    table = source.program().table
    missing = tuple(sorted(set(table.variables) - gamma.keys()))
    if missing:  # inference takes over from here
        why = "no tier annotation for: " + ", ".join(missing)
        return CheckReport(False, tuple(sorted(gamma.items())),
                           (Diagnostic("annotations", why, None, missing),), ())
    sig_env, diags = _checked_sig_env(source)
    if diags:
        return CheckReport(False, tuple(sorted(gamma.items())), diags, ())
    typing = type_table(table, gamma, sig_env)
    roots = dict(zip(source.program().thread_ids(), [ids[-1] for ids in table.node_ids]))
    threads = []
    for tid, cmd in source.threads:
        tiers = typing[roots[tid]]
        diagnostic = None if tiers else _explain(typing, table, gamma, cmd, roots[tid])
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
    entry: int  # the node id of the program's table that decides it
    needs: frozenset[Tier]  # the entry must type at one of these tiers

    def __repr__(self) -> str:
        return f"Constraint({self.kind!r}, {self.description!r})"

    def holds(self, typing: Typing) -> bool:
        """Whether the constraint holds in a typing of the program's table."""
        return bool(typing[self.entry] & self.needs)

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


def _constraints(source: SourceFile) -> tuple[list[str], list[Constraint], list[Constraint]]:
    """The program's variables in order of first occurrence, each
    assignment's and loop guard's constraint in reading order, and one
    constraint per thread, each on its entry of the program's table."""
    table = source.program().table
    names: dict[str, None] = {}
    atomic: list[Constraint] = []
    threads: list[Constraint] = []
    node_ids = dict(zip(source.program().thread_ids(), table.node_ids))
    for tid, cmd in source.threads:
        for node, i in zip(walk(cmd), reversed(node_ids[tid])):
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
                    i, BOTH_TIERS,
                ))
            elif isinstance(node, While):
                atomic.append(Constraint(
                    "guard",
                    tuple(sorted(free_vars(node.guard))),
                    node.guard.span,
                    f"loop guard {pretty_expr(node.guard)} must type at tier 1",
                    table.keys[i][1], _ONLY[Tier.ONE],
                ))
        threads.append(Constraint("thread", tuple(sorted(free_vars(cmd))), None,
                                  f"thread {tid!r} must type at some tier",
                                  node_ids[tid][-1], BOTH_TIERS))
    return list(names), atomic, threads


_ENUM_CAP = 16


def _solver(table: ControlTable, sig_env: SigEnv, unknowns: list[str], fixed: Mapping[str, Tier]
            ) -> Callable[[list[Constraint], set[str]], dict[str, Tier] | None]:
    """``solve(constraints, forced)``: the first tier environment, or
    ``None``, that extends ``fixed`` and satisfies every constraint.

    Backtracking over ``unknowns`` in order, with an explicit stack of the
    next tier each decided variable tries: tier 0 before tier 1, except
    that a variable in ``forced`` only tries tier 1.  A node id's depth
    is the position in ``unknowns`` of its last unknown, 0 if it has none.
    Deciding the variable at a depth types the ids of that depth and tests
    the constraints whose entry has it, so each is typed and tested once
    per assignment of its unknowns; those without unknowns come first.
    Only thread constraints read ``Seq``/``If``/``While`` slots, so a
    search without one leaves them untyped.
    """
    last = {v: depth for depth, v in enumerate(unknowns, 1)}
    plain: list[list[int]] = [[] for _ in range(len(unknowns) + 1)]  # ids by depth
    compound: dict[int, list[int]] = {}  # ``Seq``/``If``/``While`` ids by depth
    depths: list[int] = []
    for i, key in enumerate(table.keys):
        if key.__class__ is str:
            depth = last.get(key, 0)
        elif key[0] is Assign:
            depth = max(depths[key[1]], last.get(key[2], 0))
        else:  # the deepest child's, 0 for a skip or a constant
            depth = max([depths[a] for a in key[1:]], default=0)
        depths.append(depth)
        if key.__class__ is not str and key[0] in (Seq, If, While):
            compound.setdefault(depth, []).append(i)
        else:
            plain[depth].append(i)
    # Shared by every search: an entry is retyped before it is read.
    typing: Typing = [NO_TIERS] * len(table.keys)

    def solve(constraints: list[Constraint], forced: set[str]) -> dict[str, Tier] | None:
        due: list[list[Constraint]] = [[] for _ in plain]
        for c in constraints:
            due[depths[c.entry]].append(c)
        env = dict(fixed)
        threads = any(c.kind == "thread" for c in constraints)

        def holds(depth: int) -> bool:
            type_table(table, env, sig_env, typing, plain[depth])
            if threads and depth in compound:
                type_table(table, env, sig_env, typing, compound[depth])
            return all(c.holds(typing) for c in due[depth])

        if not holds(0):
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
            if holds(depth + 1):
                depth += 1
        return env

    return solve


def infer_tiers(source: SourceFile) -> InferenceReport:
    """Complete missing tier annotations, or explain why none work.

    The constraints are each assignment's and loop guard's, plus one per
    thread that it types at some tier.  ``_solver`` assigns the unannotated
    variables in order of first occurrence, except that those a loop guard
    reads come first, pinned to tier 1: a conflict on them is found before
    any search over the others, and the first solution is the same.  A
    solution needs no second check: its thread constraints already type
    every thread.  It keeps the annotated variables, used or not, as
    ``check`` does.  On failure the report carries a conflicting set,
    minimized greedily: the atomic constraints, plus the thread
    constraints if the atomic ones alone are satisfiable, each dropped in
    turn if the rest stay unsatisfiable.  With more than ``_ENUM_CAP``
    unknowns the atomic constraints come back unminimized, with a note.
    """
    sig_env, diags = _checked_sig_env(source)
    if diags:
        return InferenceReport(None, note="; ".join(str(d) for d in diags))

    annotated = source.annotations()
    names, constraints, threads = _constraints(source)
    # Safe signatures force every variable read by a loop guard to tier 1.
    forced = {v for c in constraints if c.kind == "guard" for v in c.variables}
    unknowns = sorted((v for v in names if v not in annotated), key=lambda v: v not in forced)
    solve = _solver(source.program().table, sig_env, unknowns, annotated)
    solution = solve(constraints + threads, forced)
    if solution is not None:
        return InferenceReport(tuple(sorted(solution.items())))

    # No assignment works: minimize a conflicting constraint set.  A
    # dropped guard constraint no longer forces its variables.
    if len(unknowns) > _ENUM_CAP:
        return InferenceReport(None, tuple(constraints),
                               "too many variables to minimize the conflict set")
    core = list(constraints)
    if solve(core, set()) is not None:
        # The atomic conditions alone are satisfiable; the conflict
        # needs whole-thread typability.
        core += threads
    for candidate in list(core):
        rest = [c for c in core if c is not candidate]
        if solve(rest, set()) is None:
            core = rest
    return InferenceReport(None, tuple(core))
