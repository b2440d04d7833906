"""Spans and counters for the benchmark's traced run.

Nothing under ``src/`` knows about this module. :meth:`Tracer.install`
swaps the module-level names through which one layer calls another
(``cli -> loops``, ``loops -> maps``, ``maps -> flow``, every layer ->
scipy's ``solve_ivp``, ...) for thin wrappers, and :meth:`Tracer.uninstall`
puts the originals back. Spans nest and carry their parent's id; a span's
self time is its duration minus the time its child spans cover.

Every ``solve_ivp`` result's ``nfev`` is attributed to the innermost open
span, and the right-hand side passed to ``solve_ivp`` is wrapped in a
counting closure, so :meth:`Tracer.consistency` can check that the
per-span attribution adds up to what the integrator really evaluated.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "rhs")

    def __init__(self, sid: int, parent: int, name: str, t0: float):
        self.id, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.rhs = t0, t0, 0


def _median_ms(durations: List[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def percentile_ms(durations: List[float], q: int) -> float:
    """q-th percentile (q in 10..90, step 10) in milliseconds."""
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=10)[q // 10 - 1]


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.ivp_seconds = 0.0
        self.codegen_chars = 0
        # config name -> (system, argument it was built from)
        self.systems: Dict[str, tuple] = {}
        self.config: Optional[str] = None
        self._stack: List[Span] = []
        self._saved: List[tuple] = []

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run(self, name: str, fn: Callable, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, name: str, count: Optional[str] = None):
        def factory(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if count:
                    self.counters[count] += 1
                return self.run(name, orig, *args, **kwargs)
            return wrapper
        return factory

    def _outermost(self, name: Optional[str] = None,
                   measure: Optional[Callable] = None):
        """For recursive functions that call themselves by module name."""
        def factory(orig):
            active = [False]

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if active[0]:
                    return orig(*args, **kwargs)
                active[0] = True
                span = self.open(name) if name else None
                try:
                    out = orig(*args, **kwargs)
                    if measure is not None:
                        measure(out)
                    return out
                finally:
                    active[0] = False
                    if span is not None:
                        self.close(span)
            return wrapper
        return factory

    def _solve_ivp(self, orig):
        c = self.counters

        @functools.wraps(orig)
        def solve_ivp(fun, t_span, y0, *args, **kwargs):
            calls = [0]

            def counted(t, y, *fargs):
                calls[0] += 1
                return fun(t, y, *fargs)

            t0 = perf_counter()
            sol = orig(counted, t_span, y0, *args, **kwargs)
            self.ivp_seconds += perf_counter() - t0
            c["flow.ivp_calls"] += 1
            c["flow.rhs_evals"] += sol.nfev
            c["trace.rhs_calls_counted"] += calls[0]
            c["flow.steps"] += len(sol.t) - 1
            if not kwargs.get("events"):
                c["flow.nudge_ivps"] += 1
            if self._stack:
                self._stack[-1].rhs += sol.nfev
            else:
                c["trace.rhs_outside_spans"] += sol.nfev
            return sol
        return solve_ivp

    def _brentq(self, orig):
        c = self.counters

        @functools.wraps(orig)
        def brentq(f, a, b, *args, **kwargs):
            def counted(x, *fargs):
                c["loops.brentq_evals"] += 1
                return f(x, *fargs)
            c["loops.brentq_calls"] += 1
            return self.run("loops.brentq", orig, counted, a, b,
                            *args, **kwargs)
        return brentq

    def _multiplicity(self, orig):
        from filippov2d.fieldexpr import ScalarField

        @functools.wraps(orig)
        def multiplicity_at(g_field, *args, **kwargs):
            kind = "expr" if isinstance(g_field, ScalarField) else "sheared"
            self.counters[f"tangency.multiplicity_calls_{kind}"] += 1
            return orig(g_field, *args, **kwargs)
        return multiplicity_at

    def _pencil_orbit(self, orig):
        @functools.wraps(orig)
        def integrate_pws(*args, **kwargs):
            in_pencil = bool(self._stack) \
                and self._stack[-1].name == "cli.pencil"
            if in_pencil:
                self.counters["cli.pencil_attempted"] += 1
            try:
                return orig(*args, **kwargs)
            except Exception:
                if in_pencil:
                    self.counters["cli.pencil_dropped"] += 1
                raise
        return integrate_pws

    def _capture(self, orig):
        @functools.wraps(orig)
        def build(arg, *args, **kwargs):
            system = orig(arg, *args, **kwargs)
            self.systems[self.config] = (system, arg)
            return system
        return build

    def _add_chars(self, source: str) -> None:
        self.codegen_chars += len(source)

    def _bindings(self):
        """(module, name, wrapper factory) for every traced layer boundary."""
        from filippov2d import cli, fieldexpr, flow, loops, maps, tangency, \
            unfolding

        span = self._spanned
        out = [(cli, f"scenario_thm{n}", span("cli.scenario"))
               for n in (2, 3, 4, 5)]
        out += [(cli, name, span("cli.artifacts")) for name in
                ("trajectory_to_csv", "write_census_csv",
                 "write_tangent_points_csv")]
        out += [(cli, name, self._capture) for name in
                ("build_unfolded", "build_transition")]
        out += [
            (cli, "find_tangent_points", span("tangency.scan")),
            (cli, "render_portrait", span("cli.portrait")),
            (cli, "_pencil", span("cli.pencil")),
            (cli, "integrate_pws", self._pencil_orbit),
            (cli, "decompose_sigma", span("system.decompose")),
            (tangency, "decompose_sigma", span("system.decompose")),
            (loops, "displacement_sigma",
             span("loops.displacement", "loops.displacement_calls")),
            (loops, "brentq", self._brentq),
            (loops, "integrate_smooth", span("flow.transit")),
            (loops, "_flow_to_section", span("maps.section")),
            (loops, "sliding_arc", span("flow.sliding")),
            # the lower transit every displacement_sigma starts with: the
            # only caller of this binding, so it counts displacements at maps
            (maps, "integrate_smooth",
             span("flow.transit", "maps.displacement_calls")),
            (maps, "_flow_to_section", span("maps.section")),
            (flow, "integrate_smooth", span("flow.transit")),
            (flow, "sliding_arc", span("flow.sliding")),
            (fieldexpr, "differentiate", self._outermost("fieldexpr.derive")),
            (fieldexpr, "compile_expr", span("fieldexpr.compile")),
            (fieldexpr, "_codegen", self._outermost(measure=self._add_chars)),
        ]
        out += [(mod, "multiplicity_at", self._multiplicity)
                for mod in (tangency, loops, maps)]
        out += [(mod, "solve_ivp", self._solve_ivp)
                for mod in (flow, maps, unfolding)]
        return out

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, factory in self._bindings():
            orig = getattr(module, name)
            self._saved.append((module, name, orig))
            setattr(module, name, factory(orig))
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, name, orig = self._saved.pop()
            setattr(module, name, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------
    def _tree(self):
        """Per-span child time and inclusive RHS evaluations."""
        child_time = [0.0] * len(self.spans)
        rhs_incl = [s.rhs for s in self.spans]
        for s in reversed(self.spans):  # children come after their parent
            if s.parent >= 0:
                child_time[s.parent] += s.t1 - s.t0
                rhs_incl[s.parent] += rhs_incl[s.id]
        return child_time, rhs_incl

    def durations(self, name: str, parent: Optional[str] = None):
        return [s.t1 - s.t0 for s in self.spans if s.name == name and (
            parent is None or (s.parent >= 0
                               and self.spans[s.parent].name == parent))]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics that come from spans and counters."""
        c = self.counters
        child_time, rhs_incl = self._tree()
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def total(name):
            return sum(s.t1 - s.t0 for s in by_name[name])

        disp = by_name["loops.displacement"]
        rhs = c["flow.rhs_evals"]
        return {
            "loops.displacement_calls": c["loops.displacement_calls"],
            "maps.displacement_s": total("loops.displacement"),
            "maps.displacement_rhs": sum(rhs_incl[s.id] for s in disp),
            "loops.brentq_calls": c["loops.brentq_calls"],
            "loops.brentq_evals": c["loops.brentq_evals"],
            "flow.transit_calls": len(by_name["flow.transit"]),
            "flow.transit_ms": _median_ms(self.durations("flow.transit")),
            "flow.ivp_calls": c["flow.ivp_calls"],
            "flow.rhs_evals": rhs,
            "flow.steps": c["flow.steps"],
            "flow.rhs_us": 1e6 * self.ivp_seconds / max(rhs, 1),
            "flow.nudge_ivps": c["flow.nudge_ivps"],
            "fieldexpr.derive_s": total("fieldexpr.derive")
            + total("fieldexpr.compile"),
            "fieldexpr.codegen_chars": self.codegen_chars,
            "tangency.scan_ms": _median_ms(self.durations("tangency.scan")),
            "tangency.multiplicity_calls_expr":
                c["tangency.multiplicity_calls_expr"],
            "tangency.multiplicity_calls_sheared":
                c["tangency.multiplicity_calls_sheared"],
            "system.decompose_ms":
                _median_ms(self.durations("system.decompose")),
            "flow.sliding_calls": len(by_name["flow.sliding"]),
            "flow.sliding_s": total("flow.sliding"),
            "cli.pencil_s": total("cli.pencil"),
            "cli.pencil_dropped": c["cli.pencil_dropped"],
            "cli.scenario_s": total("cli.scenario"),
            "cli.tangent_scan_s":
                sum(self.durations("tangency.scan", parent="cli.run")),
            "cli.portrait_s": total("cli.portrait"),
            "cli.artifacts_s": total("cli.artifacts"),
            "loops.self_s": sum(s.t1 - s.t0 - child_time[s.id]
                                for s in by_name["cli.scenario"]),
        }

    def work_counts(self) -> Dict[str, int]:
        """Every counter; equal on reruns of the same inputs and code."""
        counts = dict(self.counters)
        counts["fieldexpr.codegen_chars"] = self.codegen_chars
        counts.update(Counter(s.name for s in self.spans))
        return dict(sorted(counts.items()))

    def consistency(self) -> List[str]:
        """Disagreements between counters that must agree (empty if none)."""
        c = self.counters
        bad = []
        attributed = sum(s.rhs for s in self.spans)
        if not attributed == c["flow.rhs_evals"] \
                == c["trace.rhs_calls_counted"]:
            bad.append(
                f"RHS evaluations: {attributed} attributed to spans, "
                f"{c['flow.rhs_evals']} summed from nfev, "
                f"{c['trace.rhs_calls_counted']} counted at the RHS")
        if c["loops.displacement_calls"] != c["maps.displacement_calls"]:
            bad.append(
                f"displacements: {c['loops.displacement_calls']} at the "
                f"loops binding, {c['maps.displacement_calls']} at maps")
        if self._stack:
            bad.append(f"{len(self._stack)} spans still open")
        return bad
