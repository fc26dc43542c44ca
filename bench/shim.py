"""Run one wallcross CLI invocation with spans around the calls into its layers.

Usage: python bench/shim.py SPANS_FILE CLI_ARG...

The package is imported from PYTHONPATH exactly as ``python -m
wallcross.cli`` would import it.  Before ``wallcross.cli.main`` runs, each
function named in ``TARGETS`` is replaced by a timing wrapper at every
module of the package that binds it (``stable`` imports ``mat_inverse``,
``solve_rational`` and ``restrictions`` by name, so rebinding only the
defining module would miss those calls).  Each span records its name,
start, end and parent span; spans stay in memory and are written to
SPANS_FILE as JSON when main returns, together with the counters taken at
the same boundaries.  Nothing is written to stdout, so the invocation's
output is byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter_ns

# (span name, defining module, attribute path).  A "{site}" in the span name
# is replaced by the short name of the module that binds the function, so
# each caller's share is a span of its own.
TARGETS = [
    ("stable.seed_slope0", "wallcross.stable", "seed_slope0"),
    ("stable.cross_wall", "wallcross.stable", "cross_wall"),
    ("stable.is_wall", "wallcross.stable", "is_wall"),
    ("stable.transition_matrix", "wallcross.stable", "transition_matrix"),
    ("symfunc.restrictions", "wallcross.symfunc", "restrictions"),
    ("symfunc.SymFunc.to_basis", "wallcross.symfunc", "SymFunc.to_basis"),
    ("scalars.laurent_gcd", "wallcross.scalars", "laurent_gcd"),
    ("scalars.laurent_reduce", "wallcross.scalars", "laurent_reduce"),
    ("linalg.mat_inverse.{site}", "wallcross.linalg", "mat_inverse"),
    ("linalg.solve_rational", "wallcross.linalg", "solve_rational"),
    ("linalg.RankAccumulator.add", "wallcross.linalg", "RankAccumulator.add"),
    ("fock.bar_matrix", "wallcross.fock", "bar_matrix"),
    ("verify.conjecture_check", "wallcross.verify", "conjecture_check"),
    ("cache.load", "wallcross.cache", "load"),
    ("cache.store", "wallcross.cache", "store"),
    ("cli.main", "wallcross.cli", "main"),
]


class Recorder:
    """Spans as parallel lists, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.walls: set = set()

    def wrap(self, fn, span_name: str, hook=None):
        if span_name not in self.name_ids:
            self.name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self.name_ids[span_name]
        stack, name, parent, start, end = (
            self.stack, self.name, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- hooks: counters read where the work happens ----------------------

    def on_cross_wall(self, args, result):
        table, w = args
        self.walls.add((table.n, str(w)))

    def on_stable_solve(self, args, result):
        A, _b = args
        self.peak("stable.solve.equations_max", len(A))
        self.peak("stable.solve.unknowns_max", len(A[0]) if A else 0)
        if result[1]:
            self.add("stable.solve.nullity_nonzero")

    def on_gcd(self, args, result):
        p, q = args
        self.peak("scalars.laurent_gcd.max_terms", max(len(p), len(q)))
        if len(result) > 1:
            self.add("scalars.laurent_gcd.nontrivial")

    def on_load(self, args, result):
        self.add("cache.load.hits" if result is not None else "cache.load.misses")

    def on_store(self, args, result):
        self.add("cache.store.bytes", os.path.getsize(result))

    def hook_for(self, span_name: str, site: str):
        if span_name == "stable.cross_wall":
            return self.on_cross_wall
        if span_name == "linalg.solve_rational" and site == "stable":
            return self.on_stable_solve
        if span_name == "scalars.laurent_gcd":
            return self.on_gcd
        if span_name == "cache.load":
            return self.on_load
        if span_name == "cache.store":
            return self.on_store
        return None

    def document(self) -> dict:
        counts = dict(self.counts)
        counts["stable.cross_wall.distinct"] = len(self.walls)
        return {"names": self.names, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": counts}


def install(rec: Recorder) -> None:
    """Wrap every target at every wallcross module that binds it."""
    importlib.import_module("wallcross.cli")  # loads every layer it uses
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "wallcross" or name.startswith("wallcross.")}
    for span_name, home, path in TARGETS:
        owner = importlib.import_module(home)
        if "." in path:  # a method: one binding, on its class
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, rec.wrap(getattr(cls, meth), span_name))
            continue
        fn = getattr(owner, path)
        sites = [(mod_name, mod, attr)
                 for mod_name, mod in modules.items()
                 for attr, value in vars(mod).items() if value is fn]
        for mod_name, mod, attr in sites:
            site = mod_name.rsplit(".", 1)[-1]
            name = span_name.format(site=site)
            setattr(mod, attr, rec.wrap(fn, name, rec.hook_for(name, site)))


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    cli = sys.modules["wallcross.cli"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(rec.document(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
