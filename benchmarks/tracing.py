"""Outside-in span tracing of tensoropt's layers.

The tracer wraps public functions and methods of each tensoropt module at run
time and restores them afterwards; the library itself carries no
instrumentation. Each wrapped call records one span (name, start, end,
parent) in flat in-memory arrays. A layer's self time is the duration of its
spans minus the time covered by their direct children.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from tensoropt import accel, harness, linalg, methods, model, policies, problems, subsolvers
from tensoropt.subsolvers import SubsolverStall

LAYERS = ("problems", "linalg", "model", "subsolvers", "policies", "methods", "accel", "harness")


def _fgm_returned(tracer, res):
    tracer.stats["inner_iters"] += res.inner_iterations


def _fgm_raised(tracer, exc):
    # a cap hit (SubsolverStall) or the benchmark's budget cutting the loop
    tracer.stats["stalls"] += 1
    if isinstance(exc, SubsolverStall):
        tracer.stats["inner_iters"] += exc.best.inner_iterations


def _delta_returned(tracer, delta):
    tracer.stats["delta_min"] = min(tracer.stats["delta_min"], delta)


def targets():
    """(span name, owner, attribute, on_return, on_raise) for every wrapped callable.

    The span name's prefix is the layer. Oracle classes of every problem
    family share one span name per operation.
    """
    out = []
    for cls in (problems.QuadraticOracle, problems.LogisticOracle,
                problems.LogSumExpOracle, problems.PoweredChainOracle):
        for attr, span in (("value", "value"), ("gradient", "grad"),
                           ("hessian_vec", "hvp"), ("hessian", "hessian")):
            out.append((f"problems.{span}", cls, attr, None, None))
    for fn in ("generate_shifted_logsumexp", "synthetic_logistic",
               "powered_chain_oracle", "logistic_oracle"):
        out.append(("problems.build", problems, fn, None, None))
    for attr, span in (("apply", "apply"), ("solve", "solve"), ("primal", "norm"),
                       ("dual", "norm"), ("inv_sqrt_apply", "inv_sqrt"),
                       ("dense", "factor"), ("gram", "factor")):
        out.append((f"linalg.{span}", linalg.NormOperator, attr, None, None))
    out.append(("linalg.eig", linalg, "sym_eig", None, None))
    for attr, span in (("__init__", "build"), ("value", "value"), ("gradient", "grad")):
        out.append((f"model.{span}", model.TensorModel, attr, None, None))
    out += [
        ("subsolvers.fgm", subsolvers, "fgm_step", _fgm_returned, _fgm_raised),
        ("subsolvers.exact", subsolvers, "exact_cubic_step", None, None),
        ("subsolvers.closed_form", subsolvers, "gradient_step", None, None),
        ("subsolvers.solve_model", subsolvers, "solve_model", None, None),
        ("subsolvers.monotone_step", subsolvers, "monotone_step", None, None),
        ("policies.delta", policies.AccuracyPolicy, "delta", _delta_returned, None),
        ("methods.run", methods, "monotone1", None, None),
        ("methods.run", methods, "monotone2", None, None),
        ("methods.run", methods, "averaging", None, None),
        ("accel.run", accel, "accelerated", None, None),
        ("accel.build", accel, "build_subproblem", None, None),
        ("accel.cert", accel, "subproblem_certificate", None, None),
    ]
    for attr in ("value", "gradient", "hessian_vec", "hessian"):
        out.append(("accel.contracted", accel.ContractedOracle, attr, None, None))
    for attr in ("value", "gradient"):
        out.append(("accel.composite", accel.ScaledComposite, attr, None, None))
    for fn, span in (("build_problem", "build_problem"), ("starting_point", "build_problem"),
                     ("solver_config", "config"), ("write_trace_csv", "write"),
                     ("write_json", "write"), ("summarize", "summarize"),
                     ("reference_fstar", "reference")):
        out.append((f"harness.{span}", harness, fn, None, None))
    return out


class Tracer:
    """In-memory span recorder; one segment (a set-up or a pass) at a time."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.stats: dict = {}
        self.begin()

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def begin(self) -> None:
        """Start a new segment; the arrays are cleared in place (wrappers hold them)."""
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.current = -1
        self.stats = {"inner_iters": 0, "stalls": 0, "delta_min": math.inf}

    def heal(self) -> None:
        """Repair the arrays after an asynchronous exception cut a wrapper short.

        The budget signal can land between a wrapper's appends or before it
        stores its end time: drop the half-recorded span, close spans left
        open at the current time, and return to the top level.
        """
        n = len(self.starts)
        for arr in (self.name_ids, self.parents, self.ends):
            del arr[n:]
        ends = np.frombuffer(self.ends, dtype=np.float64)
        ends[np.isnan(ends)] = time.perf_counter()
        del ends  # release the buffer so the array can be resized again
        self.current = -1

    def snapshot(self) -> dict:
        """The current segment's spans as numpy arrays, plus the hook counters."""
        self.heal()
        return {
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "stats": dict(self.stats),
        }

    def wrap(self, fn, span: str, on_return=None, on_raise=None):
        nid = self.span_id(span)
        names, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter
        tracer = self
        nan = math.nan

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            names.append(nid)
            parents.append(parent)
            ends.append(nan)
            starts.append(clock())
            tracer.current = idx
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if on_return is not None:
                on_return(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        undo = []
        try:
            for span, owner, attr, on_return, on_raise in targets():
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(raw.__func__, span, on_return, on_raise))
                    else:
                        new = self.wrap(raw, span, on_return, on_raise)
                    setattr(owner, attr, new)
                    undo.append((setattr, owner, attr, raw))
                    continue
                orig = getattr(owner, attr)
                new = self.wrap(orig, span, on_return, on_raise)
                # rebind every module-level reference, e.g. names imported by
                # other tensoropt modules, and the harness's method table
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "tensoropt" or mod_name.startswith("tensoropt."):
                        for name, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, name, new)
                                undo.append((setattr, mod, name, orig))
                for key, val in list(harness.METHOD_TABLE.items()):
                    if val is orig:
                        harness.METHOD_TABLE[key] = new
                        undo.append((dict.__setitem__, harness.METHOD_TABLE, key, orig))
            yield self
        finally:
            for restore, owner, key, orig in reversed(undo):
                restore(owner, key, orig)


def self_times(parents, starts, ends) -> np.ndarray:
    """Span duration minus the summed duration of its direct children."""
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def aggregate(segment: dict, span_names: list[str]) -> dict:
    """Per span name: call count, self seconds and inclusive seconds."""
    ids = segment["name_ids"]
    k = len(span_names)
    dur = segment["ends"] - segment["starts"]
    own = self_times(segment["parents"], segment["starts"], segment["ends"])
    calls = np.bincount(ids, minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    incl_s = np.bincount(ids, weights=dur, minlength=k)
    return {name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, name in enumerate(span_names)}


def layer_self_s(agg: dict) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s, _) in agg.items():
        out[name.split(".", 1)[0]] += self_s
    return out
