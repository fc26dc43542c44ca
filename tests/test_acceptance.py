"""Acceptance gate: every primary criterion, one visible line each.

Each criterion prints `ACCEPTANCE <k> <name>: PASS/FAIL (elapsed)` straight
to the terminal (bypassing capture) so a `pytest -v` run shows the verdicts
inline.  Stated runtime budgets are asserted, not just reported.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F2

from wallcross import cache, fock, stable, verify
from wallcross.linalg import mat_mul
from wallcross.partitions import b_core, chi, content_sum, enumerate_partitions
from wallcross.scalars import monomial, one, q1, q2, zero
from wallcross.symfunc import s_

import test_symfunc as sym_helpers
from api_oracles import (
    Ht_,
    apply_B,
    apply_e,
    change_coordinates,
    euler_form,
    inner_mod,
    inner_plain,
    integral_form,
    nabla,
    strict_part,
)


class criterion:
    """Context manager: times the body, prints the verdict line, asserts budget."""

    def __init__(self, capsys, label, budget=None):
        self.capsys, self.label, self.budget = capsys, label, budget
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        budget = f" < {self.budget:.0f}s budget" if self.budget else ""
        with self.capsys.disabled():
            print(f"\nACCEPTANCE {self.label}: {verdict} ({elapsed:.1f}s{budget})")
            for note in self.notes:
                print(f"  {note}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.label}: {elapsed:.1f}s over the {self.budget:.0f}s budget"
            )
        return False


def qq(k):
    return monomial(1, k, 0)


def detected_walls(n):
    return [w for w in stable.candidate_walls(n, 0, 1) if stable.is_wall(n, w)]


# ---------------------------------------------------------------------------
# 1: tabulated matrices, exact
# ---------------------------------------------------------------------------


def test_criterion_1_tabulated_matrices_exact(capsys):
    with criterion(capsys, "1 tabulated matrices, exact", budget=5) as c:
        r = verify.appendix_check()
        assert r["status"] == "match", r.get("witness")
        c.note(f"{r['params']['checks']} byte-exact comparisons")


# ---------------------------------------------------------------------------
# 2: Fock golden values
# ---------------------------------------------------------------------------


def test_criterion_2_fock_goldens(capsys):
    with criterion(capsys, "2 Fock goldens", budget=1):
        A = fock.bar_matrix(2, 2)
        assert A == [[one(), zero()], [qq(1) - qq(-1), one()]]
        D = fock.canonical_basis(2, 2, "+")
        assert D == [[one(), zero()], [qq(1), one()]]
        w = fock.apply_f(1, fock.apply_f(0, fock.vacuum(), 2), 2)
        assert w == {(2,): one(), (1, 1): qq(1)}
        v = fock.apply_V(1, fock.vacuum(), 2)
        assert v == {(2,): one(), (1, 1): -qq(-1)}


# ---------------------------------------------------------------------------
# 3: the main conjecture at reduced scale
# ---------------------------------------------------------------------------


def test_criterion_3_conjecture_n_le_4(capsys):
    with criterion(capsys, "3 conjecture n<=4", budget=60) as c:
        findings = []
        for n in range(1, 5):
            walls = detected_walls(n)
            reports = [verify.conjecture_check(n, w) for w in walls]
            for r in reports:
                if r["status"] != "match":
                    if n <= 3:
                        raise AssertionError(f"hard failure: {r}")
                    findings.append(r)
            c.note(
                f"n={n}: walls {[str(w) for w in walls]} all "
                + ("match" if not any(r['status'] != 'match' for r in reports)
                   else "NOT matching")
            )
        assert detected_walls(2) == [F2(1, 2)]
        assert detected_walls(3) == [F2(1, 3), F2(1, 2), F2(2, 3)]
        # findings (n = 4) are reported, not failed on
        for r in findings:
            c.note(f"FINDING: {r}")


def test_criterion_3_slow_tier_n5(capsys):
    with criterion(capsys, "3s conjecture n=5", budget=120) as c:
        walls = detected_walls(5)
        c.note(f"walls: {[str(w) for w in walls]}")
        findings = [r for r in (verify.conjecture_check(5, w) for w in walls)
                    if r["status"] != "match"]
        c.note(f"findings: {len(findings)}")
        for r in findings:
            c.note(f"FINDING: {r}")


# ---------------------------------------------------------------------------
# 4: property suites
# ---------------------------------------------------------------------------


def test_criterion_4a_bar_matrix_properties(capsys):
    with criterion(capsys, "4a bar matrix structure n<=6 b<=4", budget=120):
        for n in range(0, 7):
            for b in (2, 3, 4):
                A = fock.bar_matrix(n, b)
                assert fock.lt_property_check(A, n, b) == [], (n, b)
                Abar = [[c.bar() for c in row] for row in A]
                P = mat_mul(A, Abar)
                for i in range(len(P)):
                    for j in range(len(P)):
                        assert P[i][j] == (one() if i == j else zero()), (n, b)


def test_criterion_4b_commutation(capsys):
    with criterion(capsys, "4b Heisenberg/Chevalley commutation", budget=120) as c:
        for n in range(0, 9):
            for b in (2, 3, 4):
                for la in enumerate_partitions(n):
                    v = {la: one()}
                    for k in (1, 2):
                        Vv = fock.apply_V(k, v, b)
                        for i in range(b):
                            for op in (apply_e, fock.apply_f):
                                lhs = op(i, Vv, b)
                                rhs = fock.apply_V(k, op(i, v, b), b)
                                diff = dict(lhs)
                                for mu, cc in rhs.items():
                                    fock._add_term(diff, mu, -cc)
                                assert not diff, (n, b, la, k, i, op.__name__)
        # [B_1, B_-1] = [b]_q Id on graded pieces; the action realizes the
        # quantum integer at q^-2, i.e. sum of q^(-2j), j < b
        for n in range(0, 7):
            for b in (2, 3, 4):
                eig = sum((qq(-2 * j) for j in range(b)), zero())
                for la in enumerate_partitions(n):
                    v = {la: one()}
                    comm = dict(apply_B(1, apply_B(-1, v, b), b))
                    for mu, cc in apply_B(-1, apply_B(1, v, b), b).items():
                        fock._add_term(comm, mu, -cc)
                    for mu, cc in {la: eig}.items():
                        fock._add_term(comm, mu, -cc)
                    assert not comm, (n, b, la)
        c.note("B-commutator checked concretely on graded pieces "
               "(eigenvalue sum of q^(-2j))")


def test_criterion_4c_macdonald_stack(capsys):
    with criterion(capsys, "4c Macdonald pairings + positivity n<=5",
                   budget=300):
        import random

        for n in range(1, 6):
            for la in enumerate_partitions(n):
                J = integral_form(la)
                assert inner_plain(J, J) == sym_helpers.integral_pair_formula(la)
                H = Ht_(la)
                assert inner_mod(H, H) == sym_helpers.mod_pair_formula(la)
                for mu, cc in H.to_basis("s").coeffs.items():
                    d = change_coordinates(cc, "qt_to_q1q2")
                    assert d.is_laurent(), (la, mu)
                    for m, coef in d.num.terms().items():
                        assert coef > 0 and coef.denominator == 1, (la, mu)
                        assert m[0] >= 0 and m[1] >= 0, (la, mu)
        rng = random.Random(20260822)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                f = sym_helpers.random_symfunc(n, rng)
                g = sym_helpers.random_symfunc(n, rng)
                assert inner_mod(f, g) == euler_form(nabla(f), g)


def test_criterion_4d_stable_stack(capsys):
    with criterion(capsys, "4d stable stack n<=4", budget=600) as c:
        # seed diagonals + window gate (seed_slope0 runs the gate internally)
        for n in range(1, 5):
            tbl = stable.seed_slope0(n)
            for i, la in enumerate(enumerate_partitions(n)):
                assert tbl.gamma[i][i] == stable.diagonal_value(la)
        # nabla-periodicity of wall factors
        for n in (2, 3):
            order = enumerate_partitions(n)
            for w in detected_walls(n):
                M = stable.transition_matrix(n, (w, -1), (w, 1))
                Mup = stable.transition_matrix(n, (w + 1, -1), (w + 1, 1))
                for i, nu in enumerate(order):
                    for j, la in enumerate(order):
                        assert Mup[i][j] == M[i][j] * chi(nu) / chi(la), (n, w)
        # path independence: shift-then-cross equals the chamber walk
        for n in (2, 3, 4):
            m = F2(1, 2)
            direct = stable.stable_basis(n, (m + 1, 1))
            tbl = stable.nabla_shift(stable.seed_slope0(n), 1)
            for wall in stable.candidate_walls(n, 1, 2):
                if wall < m + 1 or wall == m + 1:
                    tbl, _ = stable.cross_wall(tbl, wall)
            assert tbl.gamma == direct.gamma, n
        # block structure at every computed wall
        pairs = blocks = refined = 0
        for n in (2, 3, 4):
            for w in detected_walls(n):
                tbl = stable.stable_basis(n, (w, -1))
                _, factor = stable.cross_wall(tbl, w)
                for la, row in strict_part(n, factor).items():
                    for mu in row:
                        pairs += 1
                        dc = content_sum(la) - content_sum(mu)
                        assert (w * dc).denominator == 1, (n, w, la, mu)
                        blocks += 1
                        if b_core(la, w.denominator) == b_core(mu, w.denominator):
                            refined += 1
        c.note(f"wall support pairs: {pairs}, all block-integral; "
               f"b-core refinement holds on {refined}/{blocks}")


# ---------------------------------------------------------------------------
# 5: characters
# ---------------------------------------------------------------------------


def test_criterion_5_characters(capsys):
    with criterion(capsys, "5 finite-dimensional characters", budget=1):
        _, l_half = verify.finite_dimensional_class(1, 2)
        assert l_half == s_((2,))
        _, l_three_halves = verify.finite_dimensional_class(3, 2)
        assert l_three_halves == s_((2,)).scale(q1(1) + q2(1)) + s_((1, 1))


# ---------------------------------------------------------------------------
# 6: determinism
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(capsys, tmp_path):
    with criterion(capsys, "6 determinism + cache round-trip") as c:
        def run(*args):
            p = subprocess.run(
                [sys.executable, "-m", "wallcross.cli", *args,
                 "--cache-dir", str(tmp_path / "cc")],
                capture_output=True, text=True,
            )
            assert p.returncode == 0, p.stderr
            return p.stdout

        for args in (
            ("wallcross", "--n", "2", "--slope", "1/2", "--no-cache"),
            ("fock-bar", "--n", "3", "--b", "2"),
            ("characters", "--slope", "3/2"),
        ):
            assert run(*args) == run(*args), args
        a = run("conjecture-check", "--n", "2", "--jobs", "1")
        b = run("conjecture-check", "--n", "2", "--jobs", "2")
        assert a == b
        payload = {"text": json.dumps({"x": [1, 2]}), "code": 0}
        key = {"command": "t", "params": {"n": 1}}
        cache.store(str(tmp_path / "rt"), key, payload)
        assert cache.load(str(tmp_path / "rt"), key) == payload
        c.note("byte-identical across runs and --jobs; cache lossless")
