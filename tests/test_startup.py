"""Start-up contract: `import wallcross.cli` loads what the benchmarked
commands run, and nothing that only other commands need.

Every command runs in a fresh interpreter, so start-up is most of a small
run.  The report layer (wallcross.reports) and csv are imported only by the
handlers and formats that use them, and hashlib only where the disk cache
computes a digest.  bench/shim.py wraps the layer functions of the modules
that are loaded right after `import wallcross.cli`, so each module that
defines a traced function must be among them.

A child interpreter imports the package, runs cli.main in-process for
conjecture-check (uncached), stable and fock-bar (each a cache miss, then a
hit), and reports what sys.modules holds after each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

TRACED_LAYERS = ["cache", "cli", "fock", "linalg", "scalars", "stable", "symfunc", "verify"]

CHILD = r"""
import contextlib, io, json, sys

import wallcross.cli as cli

eager = sorted(m for m in sys.modules if m.startswith("wallcross."))
watched = ("wallcross.reports", "csv", "hashlib")
loaded, codes = {}, {}
for argv in (["conjecture-check", "--n", "3"],
             ["stable", "--n", "3", "--slope", "5/6"],
             ["fock-bar", "--n", "4", "--b", "2"]):
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.setdefault(argv[0], []).append(cli.main([*argv, "--cache-dir", sys.argv[1]]))
    loaded[argv[0]] = [m for m in watched if m in sys.modules]
print(json.dumps({"eager": eager, "loaded": loaded, "codes": codes}))
"""


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WALLCROSS_CACHE", None)
    cache_dir = tmp_path_factory.mktemp("cache")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cache_dir)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # the cached commands wrote an entry on the miss and read it on the hit
    assert len(list(cache_dir.iterdir())) == 2
    assert doc["codes"] == {"conjecture-check": [0, 0], "stable": [0, 0], "fock-bar": [0, 0]}
    return doc


def test_traced_layers_are_loaded_by_the_cli_import(startup):
    eager = startup["eager"]
    assert [m for m in TRACED_LAYERS if f"wallcross.{m}" not in eager] == []


def test_benchmarked_commands_load_neither_reports_nor_csv(startup):
    for command, loaded in startup["loaded"].items():
        assert "wallcross.reports" not in loaded, command
        assert "csv" not in loaded, command


def test_uncached_command_does_not_load_hashlib(startup):
    assert startup["loaded"]["conjecture-check"] == []
