"""The wallcross benchmark: CLI workloads in fresh processes, end to end and per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run it from anywhere; it measures the checkout it sits in, importing
``wallcross`` from ``<checkout>/src`` (never an installed copy).

Workloads (closed loop: one invocation in flight at a time, each in a fresh
interpreter, so in-process caches start empty as they do for a user):

- ``sweep-n4``: ``conjecture-check --n 4 --jobs 1``.  The paper's headline
  check; it replays the chamber once per slope, so ``seed_slope0`` and
  ``cross_wall`` run many times over.
- ``chamber-n5``: ``stable --n 5 --slope 19/20 --side +``.  One seed and
  one ordered pass over all 45 candidate walls, no replay and no Fock
  work; writes one disk-cache entry.
- ``fock-n8``: ``fock-bar --n 8 --b k`` for k = 2..6 into one fresh cache
  directory, then the same five again, so the disk cache's write and read
  paths both run.  The seed permutes the order within each half.

A pass is the workload's invocations once, with fresh cache directories.
A run makes at least one pass and more while they fit in ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` and
``cpu_s`` (median over passes of the pass total; CPU is user + system of
each child, from ``os.wait4``), ``setup_s`` (median time for a fresh
interpreter to ``import wallcross.cli``) and ``peak_rss_mb`` (largest
child peak RSS).

Times are given at a reference CPU speed.  A shared host's CPU slows while
its neighbours are busy, by up to half again, for seconds to minutes, which
would swamp any change in the program.  So every run pins itself and its
children to one CPU and starts ``bench/probe.py`` there, which times a
fixed slice of interpreter work every 10 ms.  Each invocation's wall and
CPU time is multiplied by ``REF_SLICE_S`` over the mean slice time during
it (during the second around it, for one shorter than that).  The
times as measured (``raw_wall_s``, ``raw_cpu_s``, ``setup_raw_s``) and each
factor (``scale``) are in the record line.

With ``--trace 1`` it makes one untraced pass and one
pass through ``bench/shim.py``, which records spans around each layer's
public functions, and reports the per-layer metrics
``<module>.<function>.<stat>`` and the tracing overhead (traced over
untraced wall time).

Every invocation's stdout is checked against ``bench/golden.json``: its
sha256, the ``conjecture-check`` wall list and all-``match`` verdicts, a
cache hit equal to its miss, and traced output equal to untraced.  A
failed check is counted in ``failed`` and ``fail_frac`` and the run exits
1.  A traced run exits 1 without a result when a layer the workload must
exercise records zero calls (a wrapper at the wrong binding site).  The
last stdout line is the result object; the line before it is the full
record (environment, every invocation, every per-layer number).

``--self-test`` runs small versions of the three shapes traced twice,
requires identical counts, and checks that a wrong digest is caught.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "shim.py"
PROBE = BENCH / "probe.py"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170  # every run must end well inside 180 s
SETUP_STARTS = 6  # before the passes and again after them

# The probe slice's duration on a quiet 2 GHz Xeon: times are scaled to the
# CPU speed at which the slice takes this long.
REF_SLICE_S = 0.0004
TRIM = 0.1  # share of the fastest and of the slowest slices left out of a mean
MIN_WINDOW_NS = 1_000_000_000  # a shorter invocation is judged by the second around it

# Commands that go through the disk cache get a fresh --cache-dir per pass.
CACHEABLE = {"stable", "fock-bar"}


@dataclass(frozen=True)
class Workload:
    """A list of CLI invocations, plus the per-layer counts tracing must see nonzero."""

    invocations: Callable[[random.Random], list]  # -> argument lists, in order
    must_run: tuple


def _fock_passes(n: int, bs: range):
    def make(rng: random.Random) -> list:
        first, again = list(bs), list(bs)
        rng.shuffle(first)
        rng.shuffle(again)
        return [["fock-bar", "--n", str(n), "--b", str(b)] for b in first + again]
    return make


SWEEP_LAYERS = (
    "stable.seed_slope0.calls", "stable.cross_wall.calls", "stable.is_wall.calls",
    "stable.transition_matrix.calls", "symfunc.restrictions.calls",
    "symfunc.SymFunc.to_basis.calls", "scalars.laurent_gcd.calls",
    "scalars.laurent_reduce.calls", "linalg.mat_inverse.stable.calls",
    "linalg.mat_inverse.fock.calls", "linalg.solve_rational.calls",
    "linalg.RankAccumulator.add.calls", "fock.bar_matrix.calls",
    "verify.conjecture_check.calls", "cli.main.calls",
)
CHAMBER_LAYERS = (
    "stable.seed_slope0.calls", "stable.cross_wall.calls",
    "symfunc.restrictions.calls", "symfunc.SymFunc.to_basis.calls",
    "scalars.laurent_gcd.calls", "scalars.laurent_reduce.calls",
    "linalg.solve_rational.calls", "cache.load.misses", "cache.store.calls",
    "cli.main.calls",
)
FOCK_LAYERS = (
    "fock.bar_matrix.calls", "linalg.RankAccumulator.add.calls",
    "linalg.mat_inverse.fock.calls", "scalars.laurent_gcd.calls",
    "cache.load.hits", "cache.load.misses", "cache.store.calls", "cli.main.calls",
)

WORKLOADS = {
    "sweep-n4": Workload(
        lambda rng: [["conjecture-check", "--n", "4", "--jobs", "1"]], SWEEP_LAYERS),
    "chamber-n5": Workload(
        lambda rng: [["stable", "--n", "5", "--slope", "19/20", "--side", "+"]],
        CHAMBER_LAYERS),
    "fock-n8": Workload(_fock_passes(8, range(2, 7)), FOCK_LAYERS),
}

# Small versions of the three shapes, run by --self-test.
SMALL_WORKLOADS = {
    "sweep-n3": Workload(
        lambda rng: [["conjecture-check", "--n", "3", "--jobs", "1"]], SWEEP_LAYERS),
    "chamber-n3": Workload(
        lambda rng: [["stable", "--n", "3", "--slope", "5/6", "--side", "+"]],
        CHAMBER_LAYERS),
    "fock-n4": Workload(_fock_passes(4, range(2, 4)), FOCK_LAYERS),
}

# Per-layer names: spans (each gives .calls and .s) and shim counters.
SPANS = (
    "stable.seed_slope0", "stable.cross_wall", "stable.is_wall",
    "stable.transition_matrix", "symfunc.restrictions", "symfunc.SymFunc.to_basis",
    "scalars.laurent_gcd", "scalars.laurent_reduce", "linalg.mat_inverse.stable",
    "linalg.mat_inverse.fock", "linalg.mat_inverse.symfunc", "linalg.solve_rational",
    "linalg.RankAccumulator.add", "fock.bar_matrix", "verify.conjecture_check",
    "cache.load", "cache.store", "cli.main",
)
SUMMED = ("stable.solve.nullity_nonzero", "scalars.laurent_gcd.nontrivial",
          "cache.load.hits", "cache.load.misses", "cache.store.bytes",
          "stable.cross_wall.distinct")
PEAKS = ("stable.solve.equations_max", "stable.solve.unknowns_max",
         "scalars.laurent_gcd.max_terms")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    start_ns: int  # time.monotonic_ns(), the clock the probe's samples use
    end_ns: int


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WALLCROSS_CACHE"] = str(work / "default-cache")  # never ~/.cache
    return env


def spawn(argv: list, env: dict, work: Path, timeout: float) -> Child:
    """Run argv to completion; time it and take its rusage from os.wait4.

    Output goes to files, not pipes, so the parent can block in wait4
    without reading.  A child still running at the timeout is killed.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.1), os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return Child(proc.returncode, (end_ns - start_ns) / 1e9, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes(),
                 start_ns, end_ns)


# ---------------------------------------------------------------------------
# CPU speed
# ---------------------------------------------------------------------------


class SpeedProbe:
    """``bench/probe.py`` on the one CPU the run's children are pinned to.

    A shared host's CPU runs slower while its neighbours are busy, by up to
    half again on the machine this benchmark was written on, and for spans of
    seconds to minutes.  The probe times a fixed slice of interpreter work
    every few hundredths of a second on the same CPU as the invocations;
    ``scale`` turns that into the factor which takes a time measured over an
    interval to the reference speed (the slice taking ``REF_SLICE_S``).
    """

    def __init__(self, work: Path):
        self.samples_file = work / "probe.json"
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.cpus)})  # children inherit it
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(PROBE), str(self.samples_file)],
                stdin=subprocess.DEVNULL, cwd=ROOT)
        except OSError:
            os.sched_setaffinity(0, self.cpus)
            raise
        self.ends: list = []
        self.durations: list = []

    def stop(self) -> None:
        """Stop the probe, wait for it and read its samples."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        os.sched_setaffinity(0, self.cpus)
        if self.samples_file.is_file():
            doc = json.loads(self.samples_file.read_text(encoding="utf-8"))
            self.ends, self.durations = doc["end_ns"], doc["duration_ns"]

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Reference slice time over the mean slice time during [start, end].

        A CPU shared in turns stretches some slices by a whole pause and
        leaves the rest alone, so the mean, not the median, follows the share
        of time lost; the extreme tenths are left out as outliers.
        """
        pad = max(0, MIN_WINDOW_NS - (end_ns - start_ns)) // 2
        inside = sorted(d for t, d in zip(self.ends, self.durations)
                        if start_ns - pad <= t <= end_ns + pad)
        if not inside:
            raise SystemExit("bench: the speed probe recorded no samples around an invocation")
        cut = int(len(inside) * TRIM)
        return REF_SLICE_S / (statistics.fmean(inside[cut:len(inside) - cut]) / 1e9)


# ---------------------------------------------------------------------------
# passes and output checks
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)  # one dict per invocation
    stdout: dict = field(default_factory=dict)  # key -> first stdout seen
    spans: list = field(default_factory=list)  # shim documents, traced only

    @property
    def wall_s(self) -> float:
        """Wall seconds at the reference speed (``scaled`` must have run)."""
        return sum(o["raw_wall_s"] * o["scale"] for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o["raw_cpu_s"] * o["scale"] for o in self.outcomes)

    def scaled(self, probe: SpeedProbe) -> None:
        for o in self.outcomes:
            o["scale"] = probe.scale(o["start_ns"], o["end_ns"]) if o["end_ns"] else 1.0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o["error"])


def check_output(key: str, args: list, child: Child, golden: dict,
                 earlier: bytes | None, reference: bytes | None) -> str:
    """The reason the invocation failed, or "" when its output is right."""
    if child.code != 0:
        tail = child.stderr.decode("utf-8", "replace").strip()[-300:]
        return f"exit {child.code}: {tail}"
    digest = hashlib.sha256(child.stdout).hexdigest()
    want = golden["stdout_sha256"].get(key)
    if digest != want:
        return f"stdout sha256 {digest} != recorded {want}"
    if earlier is not None and child.stdout != earlier:
        return "cache hit differs from its miss"
    if reference is not None and child.stdout != reference:
        return "traced stdout differs from untraced"
    if args[0] == "conjecture-check":
        reports = json.loads(child.stdout)["reports"]
        walls = [r["params"]["m"] for r in reports]
        if walls != golden["walls"][key]:
            return f"walls {walls} != recorded {golden['walls'][key]}"
        bad = [r["params"]["m"] for r in reports if r["status"] != "match"]
        if bad:
            return f"not match at {bad}"
    return ""


def run_pass(invocations: list, golden: dict, work: Path, deadline: float,
             traced: bool = False, reference: dict | None = None) -> Pass:
    """Run one pass of invocations, checking each output as it finishes."""
    result = Pass()
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    env = _child_env(work)
    spans_file = work / "spans.json"
    for args in invocations:
        key = " ".join(args)
        argv = list(args)
        if args[0] in CACHEABLE:
            argv += ["--cache-dir", str(cache_dir)]
        if traced:
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(SHIM), str(spans_file)] + argv
        else:
            argv = [sys.executable, "-m", "wallcross.cli"] + argv
        left = deadline - time.monotonic()
        if left <= 0:
            result.outcomes.append({"key": key, "raw_wall_s": 0.0, "raw_cpu_s": 0.0,
                                    "rss_mb": 0.0, "start_ns": 0, "end_ns": 0,
                                    "error": "not run: out of time"})
            continue
        child = spawn(argv, env, work, left)
        error = check_output(key, args, child, golden, result.stdout.get(key),
                             (reference or {}).get(key))
        result.stdout.setdefault(key, child.stdout)
        result.outcomes.append({
            "key": key, "raw_wall_s": child.wall_s, "raw_cpu_s": child.cpu_s,
            "rss_mb": child.rss_mb, "stdout_bytes": len(child.stdout),
            "start_ns": child.start_ns, "end_ns": child.end_ns, "error": error,
        })
        if traced and child.code == 0:
            result.spans.append(json.loads(spans_file.read_text(encoding="utf-8")))
    return result


# ---------------------------------------------------------------------------
# set-up time and environment
# ---------------------------------------------------------------------------


def imported_from(work: Path) -> str:
    code = "import sys, wallcross; sys.stdout.write(wallcross.__file__)"
    child = spawn([sys.executable, "-c", code], _child_env(work), work, 60)
    if child.code != 0:
        raise SystemExit(f"bench: cannot import wallcross from {SRC}")
    path = Path(child.stdout.decode()).resolve()
    if SRC not in path.parents:
        raise SystemExit(f"bench: wallcross imported from {path}, not from {SRC}")
    return str(path)


def setup_starts(work: Path) -> list:
    """Fresh interpreters importing the CLI (bytecode already warm)."""
    env = _child_env(work)
    argv = [sys.executable, "-c", "import wallcross.cli"]
    starts = []
    for _ in range(SETUP_STARTS):
        child = spawn(argv, env, work, 60)
        if child.code != 0:
            raise SystemExit("bench: import wallcross.cli failed")
        starts.append(child)
    return starts


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, wallcross_path: str) -> dict:
    status = _git("status", "--porcelain")
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "seed": seed,
        "wallcross": wallcross_path,
    }


# ---------------------------------------------------------------------------
# per-layer numbers from the shim's spans
# ---------------------------------------------------------------------------


def layer_metrics(docs: list) -> dict:
    """Calls and self time per span name, plus the shim's counters, over docs.

    Self time is a span's duration minus the time its child spans cover.
    """
    calls, self_ns, counts = Counter(), Counter(), Counter()
    for doc in docs:
        names, parent = doc["names"], doc["parent"]
        dur = [e - s for s, e in zip(doc["start"], doc["end"])]
        covered = [0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += dur[i]
        for i, name_id in enumerate(doc["name"]):
            calls[names[name_id]] += 1
            self_ns[names[name_id]] += dur[i] - covered[i]
        for key, value in doc["counts"].items():
            counts[key] = max(counts[key], value) if key in PEAKS else counts[key] + value
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.s"] = self_ns[span] / 1e9
    for key in SUMMED + PEAKS:
        out[key] = counts[key]
    out["stable.cross_wall.useful_ratio"] = (
        counts["stable.cross_wall.distinct"] / calls["stable.cross_wall"]
        if calls["stable.cross_wall"] else 0.0)
    out["scalars.laurent_gcd.nontrivial_ratio"] = (
        counts["scalars.laurent_gcd.nontrivial"] / calls["scalars.laurent_gcd"]
        if calls["scalars.laurent_gcd"] else 0.0)
    return out


def is_count(name: str) -> bool:
    """Per-layer numbers that must repeat exactly: all but times."""
    return not name.endswith(".s") and name != "trace_overhead"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK))


def _units(names_units: dict, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names_units.items()}


def measure(name: str, workload: Workload, seed: int, seconds: int, trace: bool,
            golden: dict, work: Path, metric_units: dict) -> tuple:
    """One benchmark run: (record, result).  Metric units come from BENCHMARK.json."""
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    wallcross_path = imported_from(work)  # also warms the bytecode cache
    rng = random.Random(seed)
    record = {"environment": environment(seed, wallcross_path)}
    passes, setup = [], []
    probe = SpeedProbe(work)
    try:
        if not trace:
            setup += setup_starts(work)
            measured_from = time.monotonic()
            while True:
                passes.append(run_pass(workload.invocations(rng), golden, work, deadline))
                spent = time.monotonic() - measured_from
                if spent + spent / len(passes) > min(seconds, deadline - measured_from):
                    break
            setup += setup_starts(work)
        else:
            invocations = workload.invocations(rng)
            plain = run_pass(invocations, golden, work, deadline)
            traced = run_pass(invocations, golden, work, deadline, traced=True,
                              reference=plain.stdout)
            passes = [plain, traced]
    finally:
        probe.stop()
    for p in passes:
        p.scaled(probe)
    record["probe_slices"] = len(probe.durations)
    if not trace:
        record["setup_raw_s"] = [c.wall_s for c in setup]
        record["setup_s"] = [c.wall_s * probe.scale(c.start_ns, c.end_ns) for c in setup]
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": max(o["rss_mb"] for p in passes for o in p.outcomes),
        }
    else:
        values = layer_metrics(traced.spans)
        values["cli.stdout_bytes"] = sum(o.get("stdout_bytes", 0) for o in traced.outcomes)
        values["trace_overhead"] = traced.wall_s / plain.wall_s if plain.wall_s else 0.0
        record["counts_changed"] = {
            metric: [want, values[metric]]
            for metric, want in golden["trace_counts"].get(name, {}).items()
            if values.get(metric) != want
        }
        if not any(p.failed for p in passes):
            silent = [metric for metric in workload.must_run if not values[metric]]
            if silent:
                raise SystemExit("bench: coverage guard: the traced run recorded 0 for "
                                 + ", ".join(silent))
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "raw_wall_s": sum(o["raw_wall_s"] for o in p.outcomes),
                    "raw_cpu_s": sum(o["raw_cpu_s"] for o in p.outcomes),
                    "invocations": p.outcomes} for p in passes],
        "fail_frac": failed / attempted,
        "metrics": values,
        "elapsed_s": time.monotonic() - t_start,
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _units(metric_units, values)}
    return record, result


def load_benchmark() -> tuple:
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return golden, spec


def self_test() -> int:
    """Small shapes, traced twice, plus a wrong digest that must be caught.

    Each traced run also makes an untraced pass, so both paths are checked.
    """
    golden, spec = load_benchmark()
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    work = _work_dir()
    try:
        for name, workload in SMALL_WORKLOADS.items():
            counts = []
            for _ in range(2):
                record, result = measure(name, workload, 0, 1, True, golden, work,
                                         layer_units)
                if result["failed"]:
                    problems.append(f"{name}: {result['failed']} invocations failed")
                counts.append({k: v for k, v in record["metrics"].items() if is_count(k)})
            if counts[0] != counts[1]:
                problems.append(f"{name}: traced counts differ between two runs")
            print(f"bench: self-test {name}: {len(counts[0])} counts repeat", flush=True)
        key = "conjecture-check --n 3 --jobs 1"
        wrong = {**golden, "stdout_sha256": {**golden["stdout_sha256"], key: "0" * 64}}
        record, result = measure("sweep-n3", SMALL_WORKLOADS["sweep-n3"], 0, 1, False,
                                 wrong, work, {})
        if not record["fail_frac"] > 0:
            problems.append(f"fault injection: wrong digest for {key!r} not caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"bench: self-test FAILED: {p}", file=sys.stderr)
    print("bench: self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "wallcross" / "cli.py").is_file():
        print(f"bench: no wallcross sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    golden, spec = load_benchmark()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    work = _work_dir()
    try:
        record, result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                                 args.seconds,
                                 bool(args.trace), golden, work, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "trace": args.trace, **record}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
