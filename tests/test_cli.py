"""Command line: formats, exit codes, cache behavior, determinism.

Everything runs through subprocess so the tests see exactly what a user
sees, including stderr diagnostics and exit codes.
"""

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wallcross import cache, cli


def run_cli(*args, cache_dir=None, env_cache=None, check=True):
    env = dict(os.environ)
    env.pop("WALLCROSS_CACHE", None)
    if env_cache is not None:
        env["WALLCROSS_CACHE"] = str(env_cache)
    argv = [sys.executable, "-m", "wallcross.cli", *args]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_wallcross_latex_is_the_tabulated_half_matrix(tmp_path):
    p = run_cli("wallcross", "--n", "2", "--slope", "1/2", "--format", "latex",
                cache_dir=tmp_path)
    assert p.stdout == (
        "\\begin{pmatrix}\n"
        "1 & 0 \\\\\n"
        "q_2 - q_1^{-1} & 1\n"
        "\\end{pmatrix}\n"
    )


def test_fock_bar_json_schema(tmp_path):
    p = run_cli("fock-bar", "--n", "2", "--b", "2", cache_dir=tmp_path)
    doc = json.loads(p.stdout)
    assert doc["n"] == 2 and doc["b"] == 2
    assert doc["order"] == [[2], [1, 1]]
    assert doc["entries"]["[1, 1]|[2]"] == "1*q^(1)*t^(0) - 1*q^(-1)*t^(0)"
    assert doc["entries"]["[2]|[2]"] == "1*q^(0)*t^(0)"
    assert "[2]|[1, 1]" not in doc["entries"]  # zeros are omitted


def test_canonical_plus_latex(tmp_path):
    p = run_cli("canonical", "--n", "2", "--b", "2", "--format", "latex",
                cache_dir=tmp_path)
    assert p.stdout == "\\begin{pmatrix}\n1 & 0 \\\\\nq & 1\n\\end{pmatrix}\n"


def test_stable_json_carries_slope_and_gamma(tmp_path):
    p = run_cli("stable", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    doc = json.loads(p.stdout)
    assert doc["slope"] == {"num": 1, "den": 2, "side": "+"}
    assert doc["order"] == [[2], [1, 1]]
    assert "[1, 1]|[2]" not in doc["gamma"]  # lower-triangular rows only
    assert "[2]|[1, 1]" in doc["gamma"]


def test_macdonald_csv(tmp_path):
    p = run_cli("macdonald", "--n", "2", "--format", "csv", cache_dir=tmp_path)
    lines = p.stdout.splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 5  # four nonzero entries in degree 2
    assert '[2],"[1, 1]",1*q^(1)*t^(1)' in lines


def test_characters_json(tmp_path):
    p = run_cli("characters", "--slope", "3/2", cache_dir=tmp_path)
    doc = json.loads(p.stdout)
    assert doc["finite_normalized"] == {
        "[2]": "1*q^(1)*t^(1) + 1*q^(1)*t^(-1)",
        "[1, 1]": "1*q^(0)*t^(0)",
    }
    assert "verma" not in doc


def test_conjecture_check_exit_zero(tmp_path):
    p = run_cli("conjecture-check", "--n", "2", cache_dir=tmp_path)
    doc = json.loads(p.stdout)
    assert [r["status"] for r in doc["reports"]] == ["match"]
    assert "millis" not in doc["reports"][0]  # reports carry no timing


def test_conjecture_check_times_each_wall_on_stderr(tmp_path):
    # the reports carry no timing; the command line times each check it runs
    p = run_cli("conjecture-check", "--n", "3", cache_dir=tmp_path)
    lines = p.stderr.splitlines()
    walls = [m.group(1) for m in (
        re.fullmatch(r"wallcross: conjecture n=3 m=(\d+/\d+): match \(\d+ms\)", line)
        for line in lines) if m]
    assert walls == ["1/3", "1/2", "2/3"]
    assert "millis" not in p.stdout


@pytest.mark.parametrize("n, budget_s", [(6, 30),
                                         pytest.param(7, 60, marks=pytest.mark.slow),
                                         pytest.param(8, 20, marks=pytest.mark.slow),
                                         pytest.param(9, 60, marks=pytest.mark.slow)])
def test_conjecture_check_within_budget(n, budget_s):
    # a fresh process without a cache; about 0.4-0.8, 1.1, 4.2 and 12 s on
    # 2 vCPU (n = 8 took 28 s when every crossing system went through
    # Gauss-Jordan, and n = 9 took 28-29 s when HHL walked the 9! standard
    # fillings)
    golden = json.loads(Path(__file__).with_name("walls_golden.json").read_text())
    start = time.perf_counter()
    p = run_cli("conjecture-check", "--n", str(n), "--no-cache")
    elapsed = time.perf_counter() - start
    reports = json.loads(p.stdout)["reports"]
    assert [r["params"]["m"] for r in reports] == [w["wall"] for w in golden[str(n)]]
    assert [r["status"] for r in reports] == [w["verdict"] for w in golden[str(n)]]
    assert elapsed < budget_s, f"conjecture-check --n {n} took {elapsed:.1f} s"


def test_macdonald_n8_within_budget():
    # a fresh process without a cache; about 0.6-0.8 s on 2 vCPU, where the
    # command took 32-41 s through m and p.  The digest is that route's output.
    start = time.perf_counter()
    p = run_cli("macdonald", "--n", "8", "--no-cache")
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        "d811260d0f488c51aa5eae6f033847b5be5b54a691f5e7f75c526872f538e98c"
    assert elapsed < 20, f"macdonald --n 8 took {elapsed:.1f} s"


@pytest.mark.slow
def test_macdonald_n9_within_budget():
    # a fresh process without a cache; about 2.3-2.5 s on 2 vCPU, where the
    # walk over the 9! standard fillings took 17-22 s.  The digest is the
    # walk's output.
    start = time.perf_counter()
    p = run_cli("macdonald", "--n", "9", "--no-cache")
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        "0a7cb8d30b6886e21a5c30dea9c4df4ebf30d97ca44b537262ec16c6e2713fc3"
    assert elapsed < 10, f"macdonald --n 9 took {elapsed:.1f} s"


@pytest.mark.slow
def test_positivity_n7_within_budget():
    # a fresh process without a cache; 2.7-3.4 s on 2 vCPU, where the command
    # took 4.7-5.5 s with a gcd for each addition of printed coefficients
    start = time.perf_counter()
    p = run_cli("positivity", "--n", "7", "--slope", "8/7", "--no-cache")
    elapsed = time.perf_counter() - start
    assert json.loads(p.stdout) == {
        "check": "positivity",
        "params": {"m": "8/7", "n": 7, "order": 8, "side": 1},
        "status": "match",
    }
    assert elapsed < 15, f"positivity --n 7 --slope 8/7 took {elapsed:.1f} s"


def test_conjecture_check_help_names_the_exit_code():
    # beyond the tabulated range a mismatch exits 0: scripts read each status
    p = run_cli("conjecture-check", "--help")
    assert "exits 1 only for n <= 3" in " ".join(p.stdout.split())
    assert "status" in p.stdout


def test_appendix_check_exit_zero(tmp_path):
    p = run_cli("appendix-check", cache_dir=tmp_path)
    assert json.loads(p.stdout)["status"] == "match"


def test_positivity_exit_zero(tmp_path):
    p = run_cli("positivity", "--n", "2", "--slope", "1/2", "--order", "6",
                cache_dir=tmp_path)
    assert json.loads(p.stdout)["status"] == "match"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("wallcross", "--n", "2", "--slope", "bogus",
                   cache_dir=tmp_path, check=False).returncode == 2
    assert run_cli("fock-bar", "--n", "2", cache_dir=tmp_path,
                   check=False).returncode == 2  # missing --b
    assert run_cli("nope", cache_dir=tmp_path, check=False).returncode == 2
    p = run_cli("conjecture-check", "--n", "2", "--format", "latex",
                cache_dir=tmp_path, check=False)
    assert p.returncode == 2
    assert "wallcross conjecture-check: error:" in p.stderr


@pytest.mark.parametrize("argv", [
    ("stable", "--n", "-1", "--slope", "1/2"),
    ("conjecture-check", "--n", "-2"),
    ("fock-bar", "--n", "2", "--b", "0"),
    ("fock-bar", "--n", "2", "--b", "-2"),
    ("positivity", "--n", "2", "--slope", "1/2", "--order", "-3"),
    ("fock-bar", "--n", "2", "--b", "2", "--jobs", "0"),
    ("fock-bar", "--n", "3", "--b", "1"),
    ("canonical", "--n", "3", "--b", "1"),
    ("positivity", "--n", "0", "--slope", "1/2"),
    ("conjecture-check", "--n", "3", "--slope", "2"),
])
def test_out_of_range_arguments_exit_two(tmp_path, argv):
    p = run_cli(*argv, cache_dir=tmp_path, check=False)
    assert p.returncode == 2
    assert "must be at least" in p.stderr and "Traceback" not in p.stderr
    assert f"wallcross {argv[0]}: error:" in p.stderr


def test_jobs_above_cpu_count_same_stdout(tmp_path):
    a = run_cli("conjecture-check", "--n", "2", "--jobs", "100000", cache_dir=tmp_path)
    b = run_cli("conjecture-check", "--n", "2", cache_dir=tmp_path)
    assert a.stdout == b.stdout


def assert_same_under_optimized_mode(*args):
    argv = ["-m", "wallcross.cli", *args, "--no-cache"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True,
                               text=True)
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_invariants_survive_optimized_mode():
    # the mathematical guards are explicit errors, not asserts that -O strips
    assert_same_under_optimized_mode("conjecture-check", "--n", "3")


def test_int_coefficients_survive_optimized_mode():
    # the int/Fraction coefficient normal form is kept by code, not asserts
    assert_same_under_optimized_mode("fock-bar", "--n", "4", "--b", "2")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check must raise instead
    package = Path(cli.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_computation_errors_exit_one(tmp_path):
    for slope in (["--slope=-1/2"], ["--slope", "-1/2"]):
        p = run_cli("wallcross", "--n", "2", *slope, cache_dir=tmp_path, check=False)
        assert p.returncode == 1
        assert "positive slope" in p.stderr


def test_negative_slope_parses_after_a_space():
    spaced = run_cli("stable", "--n", "3", "--slope", "-10/3", "--side", "-", "--no-cache")
    joined = run_cli("stable", "--n", "3", "--slope=-10/3", "--side", "-", "--no-cache")
    assert spaced.stdout == joined.stdout


# ---------------------------------------------------------------------------
# determinism and cache
# ---------------------------------------------------------------------------


def test_byte_identical_across_runs_and_jobs(tmp_path):
    a = run_cli("conjecture-check", "--n", "2", "--jobs", "1",
                cache_dir=tmp_path)
    b = run_cli("conjecture-check", "--n", "2", "--jobs", "2",
                cache_dir=tmp_path)
    assert a.stdout == b.stdout


# stdout pinned byte for byte: the symmetric-function layer (Htilde -> s, and
# Verma characters p -> s), and every output shape the command layer emits
STDOUT_SHA256 = {
    ("macdonald", "--n", "4"):
        "7a7858e52cdd827286683bd4cffd4cd4c84c12442ca6524f0409dc4821ec4ec7",
    ("characters", "--slope", "3/2", "--verma", "2,1"):
        "c3fab9a0525626c40a5e4c00d69e6cd21bd0521621d33190c6d64daac3b3c959",
    ("characters", "--slope", "5/3", "--verma", "2,1", "--format", "latex"):
        "468cc16a67dd2238976124c3a3a68e2e8b2c72f285b46596073556ff8d638117",
    ("characters", "--slope", "5/3", "--verma", "2,1", "--format", "csv"):
        "8ebfc8f3ccb51ba4d80faafad36e88007916c994961ca74c629d77f7defc8d3b",
    ("characters", "--slope", "7/6"):
        "0b7b0dd63864515beb371957be783e9ade41e34d77a569c5cd97704700bcb7cc",
    ("stable", "--n", "3", "--slope", "1/2", "--format", "csv"):
        "3adc705c2bb4453c94541090dd8c8522cf38422d4346858abed513739c470506",
    ("stable", "--n", "3", "--slope", "1/2", "--format", "latex"):
        "89b9a5ec9d114d37bf9e8ddc08c4a686e9813d55e5441fa2815fdef01063e57c",
    ("fock-bar", "--n", "4", "--b", "3", "--format", "csv"):
        "a1326823275033516c797b5eca47cd137d4a4a43933ea970f56a9b9a4597fddc",
    ("wallcross", "--n", "3", "--slope", "2", "--format", "csv"):
        "2d18fbb66a6949141c92cb0fe44abd18a60e2324b6cefad60020181861cfe11b",
    ("conjecture-check", "--n", "3", "--format", "csv"):
        "71f7b636f605d6fa5ad4cabb4416e175cea7e77f45e7c08a63c5e35882056880",
    ("appendix-check", "--format", "csv"):
        "34b57c13e8011eedb9830fb706caeeb390fc08c7d546c2e29f6a5647b2244b75",
    ("positivity", "--n", "2", "--slope", "1/2", "--format", "csv"):
        "3599528eb6386048530ac43648dce12c36f9ed422c4c5edb276422309ee2a5cf",
    # outputs that read monomial keys through sort orders and minima
    ("canonical", "--n", "6", "--b", "3", "--side", "-"):
        "17df34e4c64013d787664361178dc851fa6dce43d8a3dbc5449627558068594b",
    ("positivity", "--n", "4", "--slope", "2/3"):
        "d9d27648a4de463267ddd4b7265cbe2daf10d4ed4d9377433b1beab2e16f17d9",
    ("macdonald", "--n", "4", "--format", "latex"):
        "e3121dcb29a371a9fd78364f8c8a8649bed9b98e3069b72a681b4ff83c776a7f",
    # Htilde in s from HHL's m-coefficients and inverse Kostka rows, pinned to
    # the output of the route through m and p that it replaced
    ("macdonald", "--n", "6"):
        "b87f3be7ffff8c8faedab0a328d194a4d250e5eabdc0d0d288b521525a097067",
    ("macdonald", "--n", "5", "--format", "csv"):
        "03a9d626f4890d647d8ad377fc3bf27a08c60b08e8582c088ccf3b49c2752b2e",
    ("macdonald", "--n", "5", "--format", "latex"):
        "493e414c1a8f0fcc39aa9a34deab6609508bcd9fb5781d1226cd7f375d0ef6bd",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_symfunc_commands_stdout_pinned(argv):
    p = run_cli(*argv, "--no-cache")
    digest = hashlib.sha256(p.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[argv]


# the benchmark's full-size invocations of all three workloads, against the
# digests in bench/golden.json that the benchmark checks their stdout with
BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.mark.parametrize("command", ["stable --n 5 --slope 19/20 --side +",
                                     "conjecture-check --n 4 --jobs 1"]
                         + [f"fock-bar --n 8 --b {b}" for b in range(2, 7)])
def test_benchmark_workloads_stdout_pinned(command):
    want = json.loads(BENCH_GOLDEN.read_text())["stdout_sha256"][command]
    p = run_cli(*command.split(), "--no-cache")
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == want


def test_cache_round_trip(tmp_path):
    a = run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    b = run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    assert a.stdout == b.stdout


def test_no_cache_bypasses_store(tmp_path):
    run_cli("wallcross", "--n", "2", "--slope", "1/2", "--no-cache",
            cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_corrupt_entry_recomputes_with_warning(tmp_path):
    a = run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    entry = next(tmp_path.iterdir())
    entry.write_text(entry.read_text().replace("q^(1)", "q^(7)", 1))
    b = run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    assert "recomputing" in b.stderr
    assert a.stdout == b.stdout


def test_stale_schema_silently_recomputed(tmp_path):
    run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    entry = next(tmp_path.iterdir())
    doc = json.loads(entry.read_text())
    doc["schema"] = cache.SCHEMA_VERSION + 1
    entry.write_text(json.dumps(doc))
    b = run_cli("wallcross", "--n", "2", "--slope", "1/2", cache_dir=tmp_path)
    assert "recomputing" not in b.stderr  # stale is not corrupt: no warning


def test_entry_from_other_code_is_a_miss(tmp_path):
    args = cli.build_parser().parse_args(["fock-bar", "--n", "2", "--b", "2"])
    key = cli._cache_key(args)
    assert key["source"] and key["version"]
    cache.store(str(tmp_path), dict(key, source="0" * 64), {"text": "old\n", "code": 0})
    p = run_cli("fock-bar", "--n", "2", "--b", "2", cache_dir=tmp_path)
    assert json.loads(p.stdout)["b"] == 2
    # the same entry under this code's own key is served
    cache.store(str(tmp_path), key, {"text": "old\n", "code": 0})
    assert run_cli("fock-bar", "--n", "2", "--b", "2", cache_dir=tmp_path).stdout == "old\n"


# one invocation of each cached command, every parameter given a value
CACHED_INVOCATIONS = {
    "macdonald": ["--n", "3"],
    "fock-bar": ["--n", "3", "--b", "2"],
    "canonical": ["--n", "3", "--b", "2", "--side", "-"],
    "stable": ["--n", "3", "--slope", "1/2", "--side", "-"],
    "wallcross": ["--n", "3", "--slope", "1/2"],
}


def test_cache_key_names_each_parameter_of_a_cached_command():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name for name, sp in sub.choices.items() if sp.get_default("cached")} \
        == set(CACHED_INVOCATIONS)
    common = {"command", "format", "cache_dir", "no_cache", "jobs", "run", "cached"}
    for name, argv in CACHED_INVOCATIONS.items():
        args = parser.parse_args([name, *argv])
        own = set(vars(args)) - common
        params = cli._cache_key(args)["params"]
        assert set(params) == own, name
        for p in own:
            v = getattr(args, p)
            assert params[p] == ([v.numerator, v.denominator] if p == "slope" else v), (name, p)


def test_unusable_cache_dir_warns_after_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    p = run_cli("fock-bar", "--n", "2", "--b", "2", cache_dir=blocker / "sub")
    ref = run_cli("fock-bar", "--n", "2", "--b", "2", "--no-cache")
    assert p.stdout == ref.stdout
    assert "could not write the cache entry" in p.stderr
    assert "unreadable cache entry" not in p.stderr


def test_env_var_sets_default_cache_dir(tmp_path):
    run_cli("fock-bar", "--n", "2", "--b", "2", env_cache=tmp_path)
    assert len(list(tmp_path.iterdir())) == 1


def test_store_load_identical_payload(tmp_path):
    key = {"command": "x", "params": {"n": 2}}
    payload = {"text": "exact \u00e9 content\n", "code": 0}
    cache.store(str(tmp_path), key, payload)
    assert cache.load(str(tmp_path), key) == payload
    assert cache.load(str(tmp_path), {"command": "y", "params": {}}) is None
