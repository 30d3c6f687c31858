"""In-memory span tracing of lentparticle's layers, from outside the package.

`install` replaces every public function of the traced modules, in the
namespace where its callers look it up (so `ensemble.sample_mark` and
`prm.sample_mark` are both wrapped and both record `measures.sample_mark`),
plus a few methods on their classes.  Each call records one span
(name, start, end, parent).  `Tracer.restore` puts every original back.

Wrappers record only in the process that installed them: pool workers
forked from it call straight through, so a traced run at several workers
yields parent-side spans only.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import pickle
import time
import types

MODULES = ("rng", "measures", "prm", "bottom", "sde", "lent", "ensemble",
           "ibp", "diagnostics", "scenarios", "report", "cli")

# private names that mark a layer boundary, with the span they record
PRIVATE = {("cli", "_fan_out"): "cli.fan_out",
           ("cli", "_simple_chunk"): "cli.chunk",
           ("cli", "_traj_chunk"): "cli.chunk"}

# (module, class, method) wrapped on the class
METHODS = (("rng", "RngStream", "generator"),
           ("bottom", "WienerOUBottom", "evolve"),
           ("report", "RunReport", "dump"))

COUNT_SPAN = "trace.count"


def _count_sample_mark_sets(c, args, out):
    c["ensemble.sample_mark_sets.paths"] += args["n_paths"]
    c["ensemble.marks"] += len(out[1])


def _count_nested(c, args, out):
    c["prm.nested_brownian.steps"] += out.shape[0]


def _count_evolve(c, args, out):
    c["bottom.evolve.nested_steps"] += args["incs"].shape[0]


def _count_integrate(c, args, out):
    order = args["order"]
    if order is None:
        order = args["scenario"].jet_order
    events = len(out.times) - 1
    c["sde.integrate.events"] += events
    c["sde.integrate.jumps"] += len(out.jumps)
    if order == 2:
        c["sde.integrate.order2_events"] += events


def _count_gradients(c, args, out):
    c["lent.gradient_samples.replicas"] += args["n_replicas"]


def _count_weight(c, args, out):
    c["ibp.weight.accepted"] += int(out.accepted.sum())
    c["ibp.weight.paths"] += len(out.values)


def _count_fan_out(c, args, out):
    c["cli.fan_out.chunks"] += len(out)
    c["cli.fan_out.result_bytes"] += len(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))


def _count_written(c, args, out):
    c["report.bytes_written"] += os.path.getsize(args["dest"])


COUNTERS = {
    "ensemble.sample_mark_sets": _count_sample_mark_sets,
    "prm.nested_brownian": _count_nested,
    "bottom.evolve": _count_evolve,
    "sde.integrate": _count_integrate,
    "lent.gradient_samples": _count_gradients,
    "ibp.weight": _count_weight,
    "cli.fan_out": _count_fan_out,
    "report.write_csv": _count_written,
    "report.svg_line_chart": _count_written,
    "report.dump": _count_written,
}


class Tracer:
    """Spans and counters of one traced run, plus the patches that feed them."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = collections.Counter()
        self.patches = []        # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def span_open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def span_close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            idx = tracer.span_open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_close(idx)
            if counter is not None:
                # counting is tracer work: give it its own span so that it
                # is not charged to the caller's self time
                cidx = tracer.span_open(COUNT_SPAN)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(tracer.counts, bound.arguments, out)
                finally:
                    tracer.span_close(cidx)
            return out

        traced.__bench_traced__ = True
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self):
        """Wrap the layer functions; returns self for `with`-less use."""
        for mod_name in MODULES:
            mod = importlib.import_module(f"lentparticle.{mod_name}")
            for attr, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType):
                    continue
                if not val.__module__.startswith("lentparticle."):
                    continue
                name = PRIVATE.get((mod_name, attr))
                if name is None:
                    if attr.startswith("_"):
                        continue
                    name = f"{val.__module__.rsplit('.', 1)[1]}.{val.__name__}"
                self._patch(mod, attr, name)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"lentparticle.{mod_name}"), cls_name)
            self._patch(cls, meth, f"{mod_name}.{meth}")
        return self

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- aggregation ---------------------------------------------------------

    def table(self):
        """name -> {"calls", "wall_s", "self_s"}; self time excludes children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["wall_s"] += end - start
            row["self_s"] += (end - start) - inner
        return out


def leftover_wrappers():
    """Attributes of the traced modules and classes still holding a wrapper."""
    found = []
    for mod_name in MODULES:
        mod = importlib.import_module(f"lentparticle.{mod_name}")
        for attr, val in vars(mod).items():
            if getattr(val, "__bench_traced__", False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(val, type):
                for cattr, cval in vars(val).items():
                    if getattr(cval, "__bench_traced__", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
