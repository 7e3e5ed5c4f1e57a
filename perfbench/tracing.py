"""Spans around the public entry points of each tierlang module.

``Tracer.installed()`` replaces each entry point with a wrapper in every
``tierlang`` module that holds a reference to it (its import sites), so
calls between modules are recorded as well as the benchmark's own.  A
recursive entry point is left alone inside its home module, so only its
outermost calls are spans.  ``step_global`` is called once per explored
edge; it gets a counter instead of a span.

Spans are kept in memory as ``Span`` records and written out when the
benchmark ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tierlang.lang import Assign, If, OpCall, Seq, While

# (module, function, recursive)
ENTRY_POINTS = (
    ("parser", "parse", False),
    ("parser", "pretty", False),
    ("typecheck", "check_program", False),
    ("typecheck", "infer_tiers", False),
    ("typecheck", "command_tiers", True),
    ("semantics", "run_sequential", False),
    ("scheduling", "run_with_scheduler", False),
    ("scheduling", "explore", False),
    ("analysis", "ni_suite", False),
    ("analysis", "subword_invariant", False),
    ("analysis", "tier_preservation", False),
    ("analysis", "measure_growth", False),
    ("analysis", "fit_polynomial", False),
    ("tm", "compile_tm", False),
    ("tm", "simulate_tm", False),
    ("cli", "main", False),
)
COUNTED = ("scheduling", "step_global")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 at top level
    job: str
    end: float = 0.0
    child_s: float = 0.0
    step_calls: int = 0  # step_global calls made directly inside this span
    bytes_in: int = 0
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"name": self.name, "job": self.job, "parent": self.parent, "start": self.start,
                "end": self.end, "self_s": self.self_s, "step_calls": self.step_calls}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = ""
        self.step_calls = 0

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.job)
            if name == "parser.parse":
                span.bytes_in = len(args[0])
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    def _counter_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            self.step_calls += 1
            if stack:
                spans[stack[-1]].step_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tierlang" or n.startswith("tierlang.")]
        patched: list[tuple[object, str, object]] = []
        targets = [(mod, fn, rec, None) for mod, fn, rec in ENTRY_POINTS]
        targets.append((*COUNTED, False, "count"))
        for mod_name, fn_name, recursive, kind in targets:
            home = sys.modules[f"tierlang.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = (self._counter_wrapper(original) if kind == "count"
                       else self._span_wrapper(f"{mod_name}.{fn_name}", original))
            for module in modules:
                if recursive and module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def finish(self, first: int) -> None:
        """Fill in child time for the spans recorded since index ``first``."""
        for span in self.spans[first:]:
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration


def ast_nodes(commands) -> int:
    """Node count of the given command trees, without recursion."""
    stack = list(commands)
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, OpCall):
            stack.extend(node.args)
        elif isinstance(node, Assign):
            stack.append(node.expr)
        elif isinstance(node, Seq):
            stack += (node.first, node.second)
        elif isinstance(node, If):
            stack += (node.guard, node.then_branch, node.else_branch)
        elif isinstance(node, While):
            stack += (node.guard, node.body)
    return count


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(all_spans: list[Span], first: int, step_calls: int,
                  tm_jobs: set[str]) -> dict[str, float]:
    """Per-layer figures for one traced pass: the spans from ``first`` on."""
    spans = all_spans[first:]
    by: dict[str, list[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def get(name: str) -> list[Span]:
        return by.get(name, [])

    def self_s(name: str) -> float:
        return sum(s.self_s for s in get(name))

    def total(name: str) -> float:
        return sum(s.duration for s in get(name))

    def field_sum(name: str, attr: str, keep=lambda s: True) -> int:
        return sum(getattr(s.result, attr) for s in get(name) if s.result is not None and keep(s))

    typing = ("typecheck.check_program", "typecheck.infer_tiers")
    checks = [s for s in get(typing[0]) + get(typing[1])
              if s.parent < 0 or all_spans[s.parent].name not in typing]
    seq_steps = field_sum("semantics.run_sequential", "steps")
    sched_steps = field_sum("scheduling.run_with_scheduler", "steps")
    finished_steps = field_sum("scheduling.run_with_scheduler", "steps", lambda s: s.result.finished)
    states = field_sum("scheduling.explore", "visited_states")
    explore_edges = sum(s.step_calls for s in get("scheduling.explore"))
    explored = [s for s in get("scheduling.explore") if s.result is not None]
    return {
        "parser.parse.calls": len(get("parser.parse")),
        "parser.parse.self_s": self_s("parser.parse"),
        "parser.bytes_per_s": _ratio(sum(s.bytes_in for s in get("parser.parse")),
                                     total("parser.parse")),
        "parser.ast_nodes": sum(ast_nodes(c for _, c in s.result.threads)
                                for s in get("parser.parse") if s.result is not None),
        "parser.pretty.self_s": self_s("parser.pretty"),
        "typecheck.check_program.self_s": self_s("typecheck.check_program"),
        "typecheck.infer_tiers.self_s": self_s("typecheck.infer_tiers"),
        "typecheck.ms_per_check": 1000 * _ratio(sum(s.duration for s in checks), len(checks)),
        "typecheck.command_tiers.calls": len(get("typecheck.command_tiers")),
        "typecheck.command_tiers.self_s": self_s("typecheck.command_tiers"),
        "semantics.run_sequential.self_s": self_s("semantics.run_sequential"),
        "semantics.steps": seq_steps,
        "semantics.steps_per_s": _ratio(seq_steps, total("semantics.run_sequential")),
        "scheduling.run_with_scheduler.self_s": self_s("scheduling.run_with_scheduler"),
        "scheduling.sched_steps": sched_steps,
        "scheduling.sched_steps_per_s": _ratio(sched_steps, total("scheduling.run_with_scheduler")),
        "scheduling.fuel_steps": sched_steps - finished_steps,
        "scheduling.useful_step_ratio": _ratio(finished_steps, sched_steps),
        "scheduling.explore.self_s": self_s("scheduling.explore"),
        "scheduling.explore.states": states,
        "scheduling.states_per_s": _ratio(states, total("scheduling.explore")),
        "scheduling.step_global.calls": step_calls,
        "scheduling.new_state_ratio": _ratio(sum(s.result.visited_states - 1 for s in explored),
                                             explore_edges),
        "scheduling.stuck_states": field_sum("scheduling.explore", "stuck_states"),
        "analysis.ni_suite.self_s": self_s("analysis.ni_suite"),
        "analysis.ni_suite.trials": field_sum("analysis.ni_suite", "trials"),
        "analysis.subword_invariant.self_s": self_s("analysis.subword_invariant"),
        "analysis.tier_preservation.edges": field_sum("analysis.tier_preservation",
                                                      "edges_checked"),
        "analysis.measure_growth.self_s": self_s("analysis.measure_growth"),
        "analysis.fit_polynomial.self_s": self_s("analysis.fit_polynomial"),
        "tm.compile_tm.self_s": self_s("tm.compile_tm"),
        "tm.compiled_nodes": sum(ast_nodes(c for _, c in s.result.source.threads)
                                 for s in get("tm.compile_tm") if s.result is not None),
        "tm.simulate_tm.self_s": self_s("tm.simulate_tm"),
        "tm.verify_steps": field_sum("semantics.run_sequential", "steps",
                                     lambda s: s.job in tm_jobs),
        "cli.main.self_s": self_s("cli.main"),
    }


def probe_metrics(spans: list[Span]) -> dict[str, float]:
    """The named baseline probes, each read off its own job's spans."""

    def one(job: str, name: str) -> Span:
        return next(s for s in spans if s.job == job and s.name == name)

    mul = one("probe/mul_60", "scheduling.run_with_scheduler")
    add = one("probe/add_20000", "semantics.run_sequential")
    zr2 = one("probe/zrange2_6", "scheduling.explore")
    return {
        "probe.mul_60.sched_steps_per_s": mul.result.steps / mul.duration,
        "probe.add_20000.steps_per_s": add.result.steps / add.duration,
        "probe.zrange2_6.states_per_s": zr2.result.visited_states / zr2.duration,
        "probe.binary_add.parse_ms": 1000 * one("probe/binary_add", "parser.parse").duration,
        "probe.binary_add.check_ms": 1000 * one("probe/binary_add",
                                                "typecheck.check_program").duration,
        "probe.badd.infer_ms": 1000 * one("probe/badd", "typecheck.infer_tiers").duration,
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
