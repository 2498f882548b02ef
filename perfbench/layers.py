"""Per-layer tracing of repairbound from outside the package.

Each layer function is replaced, by identity, in every ``repairbound.*``
module namespace that holds it (``prover``, ``certificate`` and ``cli``
bind with ``from .x import y``, so patching the defining module alone would
miss their calls).  Methods are replaced on their class.  A wrapped call
records a span ``(id, name, start, end, parent id, op id)`` in memory; a
layer's self time is its duration minus the time its direct child layers
cover, their wrappers included, so a parent is not charged for tracing.
The two hot ``Universe`` methods are aggregated without spans: they run
hundreds of thousands of times per workload.

Deterministic counters (calls, sizes, bit lengths, depths) are kept apart
from timings, so two traced runs can be compared for identical counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
from fractions import Fraction
from time import perf_counter

# (layer name, module, attribute path, hot)
LAYERS = (
    ("ratlp.solve", "repairbound.ratlp", "solve", False),
    ("ratlp.check_duals", "repairbound.ratlp", "check_duals", False),
    ("ratlp.incremental.init", "repairbound.ratlp", "IncrementalDualSolver.__init__", False),
    ("ratlp.incremental.add_rows", "repairbound.ratlp", "IncrementalDualSolver.add_rows", False),
    ("ratlp.incremental.solve", "repairbound.ratlp", "IncrementalDualSolver.solve", False),
    ("instance.enumerate_rows", "repairbound.instance", "enumerate_rows", False),
    ("certificate.load", "repairbound.certificate", "load", False),
    ("certificate.verify", "repairbound.certificate", "verify", False),
    ("certificate.check_row", "repairbound.certificate", "check_row", False),
    ("universe.canon_mask", "repairbound.universe", "Universe.canon_mask", True),
    ("universe.closure_mask", "repairbound.universe", "Universe.closure_mask", True),
    ("prover.default_family", "repairbound.prover", "default_family", False),
    ("prover.prove", "repairbound.prover", "prove", False),
    ("region.from_halfplanes", "repairbound.region", "from_halfplanes", False),
    ("cutset.facets", "repairbound.cutset", "facets", False),
    ("cli.main", "repairbound.cli", "main", False),
)

class LayerMissing(RuntimeError):
    """A layer named in LAYERS no longer exists in the package."""


def _bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.op = None  # id of the CLI op being run, stamped on each span
        self.spans = []
        self.calls = {name: 0 for name, *_ in LAYERS}
        self.self_s = {name: 0.0 for name, *_ in LAYERS}
        self.counters = {
            "ratlp.solve.rows_max": 0,
            "ratlp.solve.cols_max": 0,
            "ratlp.solve.rows_sum": 0,
            "ratlp.solve.bits_max": 0,
            "ratlp.incremental.rows_added": 0,
            "instance.enumerate_rows.rows_out": 0,
            "certificate.rows_at_depth.1": 0,
            "certificate.rows_at_depth.2": 0,
            "certificate.lp_calls_in_rows": 0,
            "prover.default_family.classes": 0,
            "prover.prove.cert_rows": 0,
        }
        self.first_canon_s = 0.0
        self._fresh_universes = set()
        self._stack = []  # [span id or None, layer name, child seconds]
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer; raise LayerMissing if one is gone."""
        for name, modname, attr, hot in LAYERS:
            mod = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, fname, None) if holder is not None else None
            if fn is None:
                raise LayerMissing(f"layer {name}: {modname}.{attr} does not exist")
            wrapped = self._wrap(name, fn, hot)
            if owner:
                setattr(holder, fname, wrapped)
                continue
            for other_name, other in list(sys.modules.items()):
                if other_name == "repairbound" or other_name.startswith("repairbound."):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
        universe = importlib.import_module("repairbound.universe").Universe
        init = universe.__init__

        def tracked_init(u, *args, **kwargs):
            init(u, *args, **kwargs)
            self._fresh_universes.add(id(u))

        universe.__init__ = tracked_init

    def _wrap(self, name, fn, hot):
        if hot:
            return self._wrap_hot(name, fn)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = perf_counter()
            span = self._next_id
            self._next_id += 1
            frame = [span, name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[2]
                self.spans.append((span, name, t0, t1, parent, self.op))
            if after is not None:
                after(args, result)
            if stack:
                # the wrapper's own time is tracing overhead: keep it out of
                # the parent's self time
                stack[-1][2] += perf_counter() - entry
            return result

        return traced

    def _wrap_hot(self, name, fn):
        """Aggregate-only wrapper (no span) for methods called per mask."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        fresh = self._fresh_universes if name == "universe.canon_mask" else set()

        @functools.wraps(fn)
        def traced(u, *args):
            entry = perf_counter()
            first = id(u) in fresh
            frame = [None, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(u, *args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[2]
            if first:
                fresh.discard(id(u))
                self.first_canon_s += dur
            if stack:
                stack[-1][2] += perf_counter() - entry
            return result

        return traced

    # -- counters gathered from arguments and results ----------------------

    def _inside(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)

    def _after_ratlp_solve(self, args, sol):
        c = self.counters
        lp = args[0]
        c["ratlp.solve.rows_max"] = max(c["ratlp.solve.rows_max"], len(lp.rows))
        c["ratlp.solve.cols_max"] = max(c["ratlp.solve.cols_max"], len(lp.columns))
        c["ratlp.solve.rows_sum"] += len(lp.rows)
        values = [v for v in (sol.value, *sol.primal.values(), *sol.duals) if v is not None]
        if values:
            c["ratlp.solve.bits_max"] = max(c["ratlp.solve.bits_max"], *map(_bits, values))
        if self._inside("certificate.check_row"):
            c["certificate.lp_calls_in_rows"] += 1

    def _after_ratlp_incremental_solve(self, args, sol):
        if self._inside("certificate.check_row"):
            self.counters["certificate.lp_calls_in_rows"] += 1

    def _after_ratlp_incremental_add_rows(self, args, result):
        self.counters["ratlp.incremental.rows_added"] += len(args[1])

    def _after_instance_enumerate_rows(self, args, rows):
        self.counters["instance.enumerate_rows.rows_out"] += len(rows)

    def _after_certificate_check_row(self, args, rc):
        key = f"certificate.rows_at_depth.{rc.depth}"
        if rc.status == "valid" and key in self.counters:
            self.counters[key] += 1

    def _after_prover_default_family(self, args, fam):
        self.counters["prover.default_family.classes"] += len(fam)

    def _after_prover_prove(self, args, proved):
        self.counters["prover.prove.cert_rows"] += len(proved.certificate.rows)

    # -- results -----------------------------------------------------------

    def deterministic(self) -> dict:
        """Counters that must repeat exactly on identical inputs."""
        c = self.counters
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(c)
        rows = c["certificate.rows_at_depth.1"] + c["certificate.rows_at_depth.2"]
        out["certificate.lp_calls_per_row"] = (
            c["certificate.lp_calls_in_rows"] / rows if rows else 0.0
        )
        return out

    def metrics(self) -> dict:
        """The counters plus ``<layer>.self_s`` of every layer and
        ``universe.first_canon_s``; ``trace.overhead_s`` needs an untraced
        run to compare with and is added by the caller."""
        out = self.deterministic()
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        out["ratlp.incremental.init_s"] = out.pop("ratlp.incremental.init.self_s")
        out["universe.first_canon_s"] = self.first_canon_s
        return out
