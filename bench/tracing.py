"""Spans around the calls into each ``wdrc`` layer, recorded from outside.

The tracer replaces each layer function, wherever a ``wdrc`` module or class
holds it, with a wrapper that records a span: name, parent span, start, end,
whether it raised, and the task it belongs to. Spans stay in memory until the
run ends. Some wrappers also add counts read from the return value.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

# Span name -> the functions it wraps, as (module, attribute path).
SPANS = {
    "design.tune_lambda": [("wdrc.design", "tune_lambda")],
    "design.evaluate_lambda_grid": [("wdrc.design", "evaluate_lambda_grid")],
    "design.design_wdrc": [("wdrc.design", "design_wdrc")],
    "design.design_lqg": [("wdrc.design", "design_lqg")],
    "riccati.solve_are": [("wdrc.riccati", "solve_are")],
    "riccati.steady_state_policy_params": [("wdrc.riccati", "steady_state_policy_params")],
    "ambiguity.worst_case_cov_steady": [("wdrc.ambiguity", "worst_case_cov_steady")],
    "ambiguity.filter_fixpoint": [("wdrc.ambiguity", "_filter_fixpoint")],
    "linalg.dlyap": [("wdrc._linalg", "dlyap")],
    "ambiguity.solve_filter_are": [("wdrc.ambiguity", "solve_filter_are")],
    "estimator.filter_step": [("wdrc.estimator", "filter_step")],
    "sim.out_of_sample_curve": [("wdrc.sim", "out_of_sample_curve")],
    "sim.monte_carlo_summary": [("wdrc.sim", "monte_carlo_summary")],
    "sim.run_closed_loop": [("wdrc.sim", "run_closed_loop")],
    "sim.penalized_average_cost": [("wdrc.sim", "penalized_average_cost")],
    "model.sample": [("wdrc.model", "Gaussian.sample"), ("wdrc.model", "UniformBox.sample")],
    "serialize.dumps_json": [("wdrc.serialize", "dumps_json")],
}

# Calls that raised, as counts and as time, for the spans where rejections happen.
FAILURE_METRICS = (
    "riccati.solve_are.failed", "riccati.solve_are.failed_s",
    "design.design_wdrc.failed", "design.design_wdrc.failed_s",
    "ambiguity.worst_case_cov_steady.failed",
)

COUNTS = ("design.rows", "design.rejected", "ambiguity.wc_iterations", "sim.steps",
          "serialize.bytes")


def _count_grid_rows(counts, call, rows):
    counts["design.rows"] += len(rows)
    counts["design.rejected"] += sum(r["status"] != "ok" for r in rows)


def _count_wc_iterations(counts, call, result):
    counts["ambiguity.wc_iterations"] += result.iterations


def _count_trace_steps(counts, call, trace):
    counts["sim.steps"] += trace.horizon


def _count_penalized_steps(counts, call, value):
    counts["sim.steps"] += int(call.arguments["runs"]) * int(call.arguments["horizon"])


def _count_bytes(counts, call, text):
    counts["serialize.bytes"] += len(text.encode())


ON_RETURN = {
    "design.evaluate_lambda_grid": _count_grid_rows,
    "ambiguity.worst_case_cov_steady": _count_wc_iterations,
    "sim.run_closed_loop": _count_trace_steps,
    "sim.penalized_average_cost": _count_penalized_steps,
    "serialize.dumps_json": _count_bytes,
}


def _lookup(module_name, path):
    """(owner, attribute, value) for a dotted attribute path, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, inspect.getattr_static(owner, attr)


def _replace_everywhere(owner, attr, original, replacement):
    """Point every wdrc module attribute (and ``owner.attr``) holding
    ``original`` at ``replacement``; returns the undo list."""
    undo = [(owner, attr, original)]
    setattr(owner, attr, replacement)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "wdrc" or mod_name.startswith("wdrc.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                undo.append((module, name, original))
                setattr(module, name, replacement)
    return undo


def _restore(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


@contextlib.contextmanager
def capture_returns(module_name, path, sink):
    """Pass every return value of the named function to ``sink`` while active."""
    found = _lookup(module_name, path)
    if found is None:
        yield
        return
    owner, attr, original = found

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink(result)
        return result

    undo = _replace_everywhere(owner, attr, original, wrapper)
    try:
        yield
    finally:
        _restore(undo)


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, raised, task)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing_wraps = []
        self.task = -1
        self._stack = []

    def _wrap(self, name, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        on_return = ON_RETURN.get(name)
        signature = inspect.signature(original) if on_return else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (name, parent, start, clock(), True, self.task)
                raise
            finally:
                stack.pop()
            spans[index] = (name, parent, start, clock(), False, self.task)
            if on_return is not None:
                on_return(counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, task):
        """Wrap every layer function for the duration of one task."""
        self.task = task
        self.missing_wraps = []
        undo = []
        try:
            for name, targets in SPANS.items():
                for module_name, path in targets:
                    found = _lookup(module_name, path)
                    if found is None:
                        self.missing_wraps.append("%s:%s" % (module_name, path))
                        continue
                    owner, attr, original = found
                    undo += _replace_everywhere(owner, attr, original, self._wrap(name, original))
            yield self
        finally:
            _restore(undo)

    def totals(self):
        """Per span name: calls, total s, self s, failed calls, failed s."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, raised, task in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: dict(calls=0, s=0.0, self_s=0.0, failed=0, failed_s=0.0) for name in SPANS}
        for index, (name, parent, start, end, raised, task) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
            if raised:
                row["failed"] += 1
                row["failed_s"] += end - start
        return out

    def write_tsv(self, path, task):
        """Write the spans of one task as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("id\tparent\ttask\tname\tstart_s\tend_s\traised\n")
            for index, (name, parent, start, end, raised, t) in enumerate(self.spans):
                if t == task:
                    fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                             % (index, parent, t, name, start, end, raised))
