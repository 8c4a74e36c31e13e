"""Span tracing of the qmwrt layers, installed from outside the package.

`install()` replaces every public function of each qmwrt module, and the
arithmetic methods of `CycloNumber`, with a wrapper that records a span:
``[id, parent_id, name, job, start, end, extra]``.  Every binding of a
wrapped function is patched, not only the module attribute: names imported
by value into other modules (``from .wrt import tau_seifert_closed`` in
``harness``), the package re-exports in ``qmwrt/__init__``, and the class
aliases ``__rmul__``/``__radd__``.  `uninstall()` restores the originals,
so untraced passes run the unmodified program.

Spans are kept in memory; `dump` writes them out at the end.  Self
time of a span is its duration minus the durations of its direct children
(spans are strictly nested: the benchmark runs one job at a time on one
thread).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time

MODULES = ("cli", "cyclotomic", "false_theta", "gauss_sums", "harness",
           "intmatrix", "number_theory", "seifert", "wrt")

# CycloNumber methods traced, with the layer operation they are counted as;
# reflected operators count as their forward operation.
NUMBER_METHODS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__truediv__": "div", "__pow__": "pow",
    "conjugate": "conjugate", "is_zero": "is_zero", "is_integral": "is_integral",
    "to_power_basis": "to_power_basis", "invert": "invert",
    "eval_complex": "eval_complex",
}


def _support(x) -> int:
    """Stored terms of a cyclotomic number (1 for a rational scalar)."""
    c = getattr(x, "c", None)
    return len(c) if c is not None else 1


def _mul_extra(args, out):
    return (_support(args[0]) * _support(args[1]), out.D, _support(out))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, self.job,
                   clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = clock()
            if extra is not None:
                rec[6] = extra(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every qmwrt module and rebind every
        reference to them across the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qmwrt  # noqa: F401  (loads the package and its modules)

        replace: dict[int, object] = {}   # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"qmwrt.{short}"]
            number = getattr(mod, "CycloNumber", None)
            if number is not None and number.__module__ == mod.__name__:
                wrapped: dict[int, object] = {}
                for attr, op in NUMBER_METHODS.items():
                    fn = number.__dict__.get(attr)
                    if fn is None:
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrapper(
                            fn, f"{short}.{op}", _mul_extra if op == "mul" else None)
                    self._patch(number, attr, wrapped[id(fn)])
            methods = set(NUMBER_METHODS.values()) if number is not None else set()
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (fn is None or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                if attr in methods:
                    # a module alias of a traced method: its span would
                    # count the same call twice
                    continue
                replace[id(fn)] = self._wrapper(fn, f"{short}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name != "qmwrt" and not name.startswith("qmwrt."):
                continue
            for attr, value in list(vars(mod).items()):
                w = replace.get(id(value))
                if w is not None:
                    self._patch(mod, attr, w)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self_s, and for products the summed operand
        support products, the largest conductor and the largest output."""
        stats: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for sid, parent, _name, _job, t0, t1, _extra in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for sid, _parent, name, _job, t0, t1, extra in self.spans:
            st = stats.get(name)
            if st is None:
                st = stats[name] = {"calls": 0, "self_s": 0.0}
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[sid]
            if extra is not None:
                pairs, conductor, terms_out = extra
                st["term_pairs"] = st.get("term_pairs", 0) + pairs
                st["max_conductor"] = max(st.get("max_conductor", 0), conductor)
                st["max_terms_out"] = max(st.get("max_terms_out", 0), terms_out)
        return stats


def dump(path, passes: list[list[list]], meta: dict) -> None:
    """Write the spans of every traced pass as gzipped JSON lines
    ``[pass, id, parent_id, name, job, start, end, extra]``, after one
    header line holding `meta`."""
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(meta) + "\n")
        for k, spans in enumerate(passes):
            for rec in spans:
                fh.write(json.dumps([k, *rec]) + "\n")


# -- per-layer metrics ---------------------------------------------------------

COUNT_KEYS = ("calls", "term_pairs", "max_conductor", "max_terms_out")


def layer_metrics(per_pass: list[dict[str, dict]], names: list[str],
                  untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Map traced passes to the BENCHMARK.json per-layer metric names.

    ``<module>.<function>.<stat>`` reads one span name; ``<module>.self_s``
    sums self time over every span of that module; ``false_theta.s_matrix``
    sums the ``s_matrix_*`` functions.  Counts come from the first pass
    (the caller checks they repeat); times are medians over passes.
    """
    def value(stats: dict[str, dict], metric: str):
        span, _, stat = metric.rpartition(".")
        if "." not in span:      # module total
            return sum(st["self_s"] for n, st in stats.items()
                       if n.startswith(span + "."))
        if span == "false_theta.s_matrix":
            return sum(st.get(stat, 0) for n, st in stats.items()
                       if n.startswith("false_theta.s_matrix_"))
        st = stats.get(span, {})
        return st.get(stat, 0.0 if stat == "self_s" else 0)

    out = {}
    for metric in names:
        if metric == "trace.overhead_frac":
            out[metric] = (statistics.median(traced_walls)
                           / statistics.median(untraced_walls) - 1)
        elif metric.rpartition(".")[2] in COUNT_KEYS:
            out[metric] = value(per_pass[0], metric)
        else:
            out[metric] = statistics.median(value(st, metric) for st in per_pass)
    return out


def counts_signature(stats: dict[str, dict]) -> dict:
    return {name: {k: st[k] for k in COUNT_KEYS if k in st}
            for name, st in sorted(stats.items())}
