"""Span tracing from outside the program, by wrapping the names callers resolve.

The benchmark patches module attributes and class methods of ``compapprox``
at the layer boundaries, so that nothing in the package changes. Each call
opens a span (name, start, end, parent = the span below it on the stack);
when it closes, its duration less the time of its child spans is added to the
span name's self time. Spans are folded into per-name totals as they close:
the hot diagnostic loops make hundreds of thousands of calls per pass, and
keeping every span would cost more memory than the program itself.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from compapprox import consistency, epca, geometry, inner, model, outer
from compapprox.errors import NonconvergenceError
from compapprox.harness import runner

# span name -> workloads on which it must fire at least once
EXPECTED_SPANS = {
    "bench.instance": ("fixtures", "solver_scaled", "network_scaled"),
    "config.load": ("fixtures", "solver_scaled", "network_scaled"),
    "families.build_stages": ("fixtures", "solver_scaled", "network_scaled"),
    "runner.run": ("fixtures", "solver_scaled", "network_scaled"),
    "runner.verify": ("fixtures", "solver_scaled", "network_scaled"),
    "epca.run": ("fixtures", "solver_scaled", "network_scaled"),
    "epca.subproblem.smooth": ("fixtures", "solver_scaled", "network_scaled"),
    "epca.subproblem.splitting": ("fixtures", "solver_scaled"),
    "model.residual": ("fixtures", "solver_scaled", "network_scaled"),
    "model.eval_phi": ("fixtures", "solver_scaled", "network_scaled"),
    "inner.eval": ("fixtures", "solver_scaled", "network_scaled"),
    "inner.jacobian": ("fixtures", "solver_scaled", "network_scaled"),
    "outer.value": ("fixtures", "solver_scaled", "network_scaled"),
    "outer.grad": ("fixtures", "solver_scaled", "network_scaled"),
    "outer.prox": ("fixtures", "solver_scaled"),
    "outer.subdiff": ("fixtures", "solver_scaled", "network_scaled"),
    "geometry.project": ("fixtures", "solver_scaled", "network_scaled"),
    "geometry.normal_cone": ("fixtures", "solver_scaled", "network_scaled"),
    "consistency.uniform_outer_gap": ("fixtures", "solver_scaled"),
    "consistency.graph_excess": ("fixtures", "solver_scaled"),
    "consistency.estimate_eta": ("fixtures", "network_scaled"),
    "consistency.epi_probe": ("fixtures",),
    "consistency.transfer": ("fixtures",),
    "consistency.halton": ("fixtures", "solver_scaled", "network_scaled"),
}


def _subclasses(cls):
    """cls and all its subclasses, each once."""
    out = {cls: None}
    for sub in cls.__subclasses__():
        out.update(dict.fromkeys(_subclasses(sub)))
    return list(out)


class Tracer:
    """Per-name self time, inclusive time and call counts of closed spans."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()      # layer counters read off return values
        self._stack = []             # open spans: [name, start, child seconds]
        self._patched = []

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span; ``name`` may be a callable of fn's arguments.

        ``observe(args, result, error)`` sees each call's outcome, to count
        work done (iterations, certified stages) where the layer reports it.
        """
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            frame = [span, perf_counter(), 0.0]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except NonconvergenceError as exc:
                error = exc
                raise
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                self_s[span] += duration - frame[2]
                total_s[span] += duration
                calls[span] += 1
                if stack:
                    stack[-1][2] += duration
                if observe is not None and (result is not None or error is not None):
                    observe(args, result, error)
        return traced

    def patch(self, owner, attr, name, observe=None):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the layer boundaries --------------------------------------------------
    def install(self):
        """Wrap every layer boundary at the name its callers resolve."""
        self.patch(runner, "build_stages", "families.build_stages")
        self.patch(runner, "run_epca", "epca.run", self._observe_epca)
        self.patch(epca, "solve_subproblem", _subproblem_span, self._observe_subproblem)
        for owner in (epca, runner, consistency):
            self.patch(owner, "stationarity_residual", "model.residual")
        self.patch(runner, "eval_phi", "model.eval_phi")
        for owner in (epca, model):
            self.patch(owner, "normal_cone_residual", "geometry.normal_cone")
        for cls in _subclasses(geometry.ClosedSet):
            if "project" in cls.__dict__:
                self.patch(cls, "project", "geometry.project")
        for cls in _subclasses(inner.InnerMapping):
            for attr in ("eval", "jacobian"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, f"inner.{attr}")
        for cls in _subclasses(outer.OuterFunction):
            for attr, span in (("value", "outer.value"), ("grad", "outer.grad"),
                               ("prox", "outer.prox"),
                               ("subdiff_distance", "outer.subdiff")):
                if attr in cls.__dict__:
                    self.patch(cls, attr, span)
        for attr, span in (("uniform_outer_gap", "consistency.uniform_outer_gap"),
                           ("graph_excess_separable", "consistency.graph_excess"),
                           ("homotopy_graph_excess", "consistency.graph_excess"),
                           ("estimate_eta", "consistency.estimate_eta"),
                           ("epi_probe", "consistency.epi_probe"),
                           ("near_solution_transfer", "consistency.transfer"),
                           ("_ball_samples", "consistency.halton"),
                           ("low_discrepancy_points", "consistency.halton")):
            self.patch(consistency, attr, span)

    def _observe_epca(self, args, trace, error):
        stages = list(args[0])
        if error is not None:
            trace = getattr(error, "partial_trace", None)
            self.counts["epca.run_failed"] += 1
        entries = trace.entries if trace is not None else []
        self.counts["epca.stages_attempted"] += len(stages)
        self.counts["epca.stages_certified"] += len(entries)
        self.counts["epca.inner_iters"] += sum(e.inner_iterations for e in entries)

    def _observe_subproblem(self, args, result, error):
        branch = _subproblem_span(*args).rsplit(".", 1)[1]
        if error is not None:
            self.counts["epca.subproblem_failed"] += 1
        else:
            self.counts[f"epca.subproblem_iters.{branch}"] += result.iterations


def _subproblem_span(X, h, *rest):
    # the branch solve_subproblem takes: projected gradient iff h is smooth
    return "epca.subproblem.smooth" if h.smooth else "epca.subproblem.splitting"
