"""Spans and call counters around qcoh's public functions, installed from
outside the package.

A function is wrapped under every name a caller can look it up by: its
defining module, every qcoh module that imported it (for example both
`qcoh.sections.solve_fundamental` and `qcoh.cli.solve_fundamental`), and
the package namespace.  Methods are wrapped on their class.  Spans are
kept in memory with name, start, end, parent and request id; a span's
self time is its duration minus the time its child spans cover.

The scalar operations of `qcoh.algebra` get counters only: they run
millions of times, and a timing wrapper would distort what it measures.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from math import comb

# metric prefix -> (module, attribute path)
SPANS = (
    ("cli.main", "qcoh.cli", "main"),
    ("model.resolve_model", "qcoh.model", "resolve_model"),
    ("model.ModelSpec.cup", "qcoh.model", "ModelSpec.cup"),
    ("series.GaugeSeries.theta", "qcoh.series", "GaugeSeries.theta"),
    ("operators.load_operators", "qcoh.operators", "load_operators"),
    ("operators.load_relations", "qcoh.operators", "load_relations"),
    ("operators.apply_gauge", "qcoh.operators", "apply_gauge"),
    ("operators.apply_constq", "qcoh.operators", "apply_constq"),
    ("operators.apply_classical", "qcoh.operators", "apply_classical"),
    ("quantum.QElem.mul", "qcoh.quantum", "QElem.__mul__"),
    ("quantum.check_flatness", "qcoh.quantum", "check_flatness"),
    ("quantum.check_associativity", "qcoh.quantum", "check_associativity"),
    ("quantum.eval_relation", "qcoh.quantum", "eval_relation"),
    ("quantum.exp_quantum", "qcoh.quantum", "exp_quantum"),
    ("sections.solve_fundamental", "qcoh.sections", "solve_fundamental"),
    ("sections.extract_descendents", "qcoh.sections", "extract_descendents"),
    ("sections.closed_form", "qcoh.sections", "closed_form"),
    ("sections.verify_annihilated", "qcoh.sections", "verify_annihilated"),
    ("sections.build_H_from_J", "qcoh.sections", "build_H_from_J"),
    ("sections.q_factorize", "qcoh.sections", "q_factorize"),
    ("sections.asymptotic_H", "qcoh.sections", "asymptotic_H"),
)

# Root spans opened by the benchmark itself; their self time is the layer
# "bench" (the client, plus qcoh code outside every wrapped function).
ROOTS = ("setup", "request")

# metric prefix -> (module, class, methods sharing the counter)
COUNTERS = (
    ("algebra.HLaurent.mul", "qcoh.algebra", "HLaurent", ("__mul__", "__rmul__")),
    ("algebra.HLaurent.add", "qcoh.algebra", "HLaurent", ("__add__", "__radd__")),
    ("algebra.NovikovSeries.mul", "qcoh.algebra", "NovikovSeries", ("__mul__", "__rmul__")),
    ("algebra.TPoly.mul", "qcoh.algebra", "TPoly", ("mul",)),
)

# Counts read from return values and outputs.
VALUE_COUNTS = (
    "cli.output_bytes",
    "algebra.max_denominator_digits",
    "series.output_terms",
    "sections.degrees_solved",
    "sections.check_failures",
)

LAYERS = ("cli", "model", "series", "operators", "quantum", "sections", "bench")


def _series_terms(series):
    return sum(sum(1 for x in cls.coords if x) for cls in series.c.values())


def _hmatrix_terms(hm):
    return sum(_series_terms(row) for row in hm.rows)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS] + list(ROOTS)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.origin = time.perf_counter()
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.stack = []
        self.child_time = []
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.request_id = 0
        self.counters = {name: [0] for name, _, _, _ in COUNTERS}
        self.values = dict.fromkeys(VALUE_COUNTS, 0)
        self._seen_failures = set()
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def begin(self, idx):
        self.stack.append(len(self.start))
        self.child_time.append(0.0)
        self.parent.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.name.append(idx)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def finish(self):
        now = time.perf_counter()
        span = self.stack.pop()
        children = self.child_time.pop()
        self.end[span] = now
        duration = now - self.start[span]
        idx = self.name[span]
        self.calls[idx] += 1
        self.total[idx] += duration
        self.self_time[idx] += duration - children
        if self.child_time:
            self.child_time[-1] += duration

    def root(self, name, request_id):
        """Context manager for a span opened by the benchmark itself."""
        return _Root(self, self.index[name], request_id)

    def failure(self, exc):
        if id(exc) not in self._seen_failures:
            self._seen_failures.add(id(exc))
            self.values["sections.check_failures"] += 1

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every span and counter target; `uninstall` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        from qcoh.sections import CheckFailure

        observers = {
            "sections.solve_fundamental": self._observe_solve,
            "sections.closed_form": self._observe_series,
            "sections.build_H_from_J": self._observe_hmatrix,
        }
        for name, module, path in SPANS:
            wrapper = functools.partial(
                _span_wrapper, self, self.index[name], observers.get(name), CheckFailure
            )
            self._replace(module, path, wrapper)
        for name, module, cls_name, methods in COUNTERS:
            cls = getattr(sys.modules[module], cls_name)
            cell = self.counters[name]
            for meth in methods:
                orig = cls.__dict__[meth]
                setattr(cls, meth, _counting(cell, orig))
                self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _replace(self, module, path, make):
        mod = sys.modules[module]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, path)
        wrapped = make(orig)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if other_name != "qcoh" and not other_name.startswith("qcoh."):
                continue
            for attr, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, attr, wrapped)
                    self._undo.append((other, attr, orig))

    # -- counts from return values -------------------------------------------

    def _observe_solve(self, result):
        self.values["sections.degrees_solved"] += (
            comb(result.order + result.model.rank, result.model.rank) - 1
        )
        self.values["series.output_terms"] += _hmatrix_terms(result)

    def _observe_series(self, result):
        self.values["series.output_terms"] += _series_terms(result)

    def _observe_hmatrix(self, result):
        self.values["series.output_terms"] += _hmatrix_terms(result)

    # -- results ----------------------------------------------------------------

    def counts(self):
        """Every count metric: exact, and equal across runs of one seed."""
        out = {}
        for i, name in enumerate(self.names[: len(SPANS)]):
            out[name + ".calls"] = self.calls[i]
        for name, cell in self.counters.items():
            out[name + ".calls"] = cell[0]
        out.update(self.values)
        return out

    def timings(self):
        out = {}
        for i, name in enumerate(self.names[: len(SPANS)]):
            out[name + ".total_s"] = self.total[i]
            out[name + ".self_s"] = self.self_time[i]
        return out

    def layer_shares(self):
        """Self time of each layer as a share of the time in root spans."""
        wall = sum(self.total[self.index[r]] for r in ROOTS)
        shares = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            layer = "bench" if name in ROOTS else name.split(".")[0]
            shares[layer] += self.self_time[i]
        return {layer: (t / wall if wall else 0.0) for layer, t in shares.items()}

    def write(self, path):
        """Write every span as one JSON line: name, start and end in seconds
        from the tracer's creation, parent span index (-1 for none) and
        request id (0 is set-up)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            round(self.start[i] - self.origin, 7),
                            round(self.end[i] - self.origin, 7),
                            self.parent[i],
                            self.request[i],
                        ]
                    )
                    + "\n"
                )
        return len(self.start)


class _Root:
    def __init__(self, tracer, idx, request_id):
        self.tracer = tracer
        self.idx = idx
        self.request_id = request_id

    def __enter__(self):
        self.tracer.request_id = self.request_id
        self.tracer.begin(self.idx)

    def __exit__(self, *exc):
        self.tracer.finish()


def _span_wrapper(tracer, idx, observe, failure_type, fn):
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(idx)
        try:
            result = fn(*args, **kwargs)
        except failure_type as exc:
            finish()
            tracer.failure(exc)
            raise
        except BaseException:
            finish()
            raise
        finish()
        if observe is not None:
            observe(result)
        return result

    return wrapper


def _counting(cell, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper
