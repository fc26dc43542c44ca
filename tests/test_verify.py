"""Reports: conjecture runs, golden-table comparison, positivity, characters."""

import json
from fractions import Fraction as F2

import pytest

from wallcross import cli, fock, reports, stable, verify
from wallcross.partitions import content_sum, enumerate_partitions
from wallcross.scalars import monomial, one, q1, q2, rational
from wallcross.symfunc import SymFunc, s_, scale_powersums

from api_oracles import p_


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_shape():
    r = verify.conjecture_check(2, F2(1, 2))
    assert set(r) == {"check", "params", "status"}
    assert r["status"] == "match"
    assert r["params"] == {"n": 2, "m": "1/2", "b": 2}


def test_mismatch_must_carry_witness():
    with pytest.raises(AssertionError):
        verify._report("x", {}, "mismatch", None)


# ---------------------------------------------------------------------------
# conjecture reports
# ---------------------------------------------------------------------------


def test_conjecture_small_walls_match():
    for n, w in [(2, F2(1, 2)), (2, F2(3, 2)), (3, F2(1, 2))]:
        assert verify.conjecture_check(n, w)["status"] == "match", (n, w)


def test_conjecture_same_b_all_numerators():
    # the renormalized crossing should depend on the wall only through b
    r1 = verify.conjecture_check(3, F2(1, 3))
    r2 = verify.conjecture_check(3, F2(2, 3))
    assert r1["status"] == r2["status"] == "match"


def test_conjecture_check_builds_each_bar_matrix_once(monkeypatch):
    # the 9 walls of n = 5 in (0, 1) have the denominators 2..5
    walls = [w for w in stable.candidate_walls(5, 0, 1) if stable.is_wall(5, w)]
    assert len(walls) == 9
    built = []
    real = fock.bar_matrix
    monkeypatch.setattr(fock, "bar_matrix", lambda n, b: built.append((n, b)) or real(n, b))
    verify._bar_matrix.cache_clear()
    for w in walls:
        assert verify.conjecture_check(5, w)["status"] == "match", w
    assert sorted(built) == [(5, b) for b in range(2, 6)]


def test_conjecture_check_all_n3(capsys):
    assert cli.main(["conjecture-check", "--n", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["params"]["m"] for r in reports] == ["1/3", "1/2", "2/3"]
    assert all(r["status"] == "match" for r in reports)


# ---------------------------------------------------------------------------
# tabulated matrices
# ---------------------------------------------------------------------------


def test_appendix_check_matches():
    r = reports.appendix_check()
    assert r["status"] == "match", r.get("witness")
    assert r["params"]["checks"] == 14


def test_golden_tables_are_selfconsistent():
    # the embedded 3/2 matrix equals the 1/2 matrix plus the extra summand
    g = reports._golden_tables()
    extra = g["n2 matrix 3/2"][1][0] - g["n2 matrix 1/2"][1][0]
    assert extra == q2(2) * q1(-1) - q2(1) * q1(-2)


# ---------------------------------------------------------------------------
# series expansion / positivity
# ---------------------------------------------------------------------------


def test_series_geometric():
    val = one() / (one() - q2(1))
    got = reports._series_coefficients(val, 5)
    assert got == {(0, k): F2(1) for k in range(6)}


def test_series_detects_negative():
    val = (one() - q1(1)) / (one() - q2(1))
    got = reports._series_coefficients(val, 3)
    assert got[(1, 0)] == F2(-1)
    assert got[(0, 2)] == F2(1)


def test_series_no_dominant_corner():
    with pytest.raises(ValueError):
        reports._series_coefficients(one() / (q1(1) - q2(1)), 4)


def test_series_laurent_prefactor():
    # q1^-1/(1 - q2) expands with the monomial carried along
    val = q1(-1) / (one() - q2(1))
    got = reports._series_coefficients(val, 3)
    assert got == {(-1, k): F2(1) for k in range(4)}


def test_series_matches_sympy():
    # q1 = s*x, q2 = s*y, so total degree in (q1, q2) is the order in s
    import sympy

    s, x, y = sympy.symbols("s x y")
    val = (one() + q1(1)) / (one() - q1(1) - q2(2))
    got = reports._series_coefficients(val, 6)
    ref = sympy.series((1 + s * x) / (1 - s * x - s**2 * y**2), s, 0, 7).removeO()
    mine = sum(
        sympy.Rational(c.numerator, c.denominator) * (s * x) ** a * (s * y) ** b
        for (a, b), c in got.items()
    )
    assert sympy.expand(mine - ref) == 0


def test_positivity_small_slopes():
    for n, m in [(2, F2(1, 2)), (2, F2(3, 2)), (3, F2(1, 3))]:
        r = reports.positivity_report(n, (m, 1), 6)
        assert r["status"] == "match", r


def test_positivity_witness_is_first_in_partition_order(monkeypatch):
    # two negative coefficients, inserted in reverse partition order
    neg = -one()
    f = SymFunc("s", {(1, 1): neg, (2,): neg})
    assert list(f.coeffs) == [(1, 1), (2,)]
    monkeypatch.setattr(reports, "printed_basis",
                        lambda n, slope: {(2,): f, (1, 1): s_((1, 1))})
    r = reports.positivity_report(2, (F2(1, 2), 1), 4)
    assert r["status"] == "mismatch"
    assert r["witness"]["la"] == [2] and r["witness"]["mu"] == [2]


def built_in_order(*parts):
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def positivity_of(monkeypatch, coef):
    f = SymFunc("s", {(2,): coef})
    monkeypatch.setattr(reports, "printed_basis",
                        lambda n, slope: {(2,): f, (1, 1): s_((1, 1))})
    return reports.positivity_report(2, (F2(1, 2), 1), 4)


def test_positivity_witness_is_lowest_degree_then_lowest_q1(monkeypatch):
    # -(q1^2 + q1 + q2)/(1 - q2): negative terms at q1^2, q1 and q2^k; the
    # witness is the lowest total degree, then the lowest q1-degree, q2
    den = one() - q2(1)
    parts = [-q1(2), -q1(1), -q2(1)]
    forward = built_in_order(*parts) / den
    backward = built_in_order(*reversed(parts)) / den
    assert forward == backward
    assert list(forward.num.terms()) != list(backward.num.terms())
    witnesses = []
    for coef in (forward, backward):
        series = reports._series_coefficients(coef, 4)
        assert sum(v < 0 for v in series.values()) >= 2
        r = positivity_of(monkeypatch, coef)
        assert r["status"] == "mismatch"
        witnesses.append(r["witness"])
    assert witnesses[0] == witnesses[1]
    assert witnesses[0]["monomial"] == "q1^0 q2^1"
    assert witnesses[0]["coefficient"] == "-1"


def test_series_terms_ordered_by_total_then_q1_degree():
    val = built_in_order(q1(3), q2(1), q1(1) * q2(1), q1(1)) / (one() - q1(1))
    keys = list(reports._series_coefficients(val, 5))
    assert keys == sorted(keys, key=lambda ab: (ab[0] + ab[1], ab[0]))


def test_positivity_skips_half_integral_exponent(monkeypatch):
    # q^(1/2) t^(3/2) = q1^1 q2^(-1/2): a is integral and b is not
    r = positivity_of(monkeypatch, monomial(1, F2(1, 2), F2(3, 2)))
    assert r["status"] == "skipped"
    assert r["witness"] == {"reason": "fractional exponent", "la": [2], "mu": [2]}
    r = positivity_of(monkeypatch, one() / (q1(1) - q2(1)))
    assert r["witness"]["reason"] == "denominator has no dominant corner"


def test_positivity_rejects_nonpositive_slope():
    r = reports.positivity_report(2, (F2(0), 1), 4)
    assert r["status"] == "skipped"
    assert "witness" in r


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_verma_single_box():
    assert reports.verma_character(F2(1, 2), (1,)) == p_((1,))


def test_verma_row_two():
    # t^(-m) (1-t) s_2[X/(1-t)] in the power sum basis
    t = monomial(1, 0, 1)
    got = reports.verma_character(F2(1, 2), (2,)).to_basis("p")
    pref = monomial(1, 0, F2(-1, 2))
    half = rational(F2(1, 2))
    want = {
        (1, 1): pref * half / (one() - t),
        (2,): pref * half * (one() - t) / (one() - monomial(1, 0, 2)),
    }
    assert got.coeffs == want


def verma_by_powersums(m, la):
    """verma_character before its Schur coefficients were put over (t; t)_n:
    the prefactor times s_la[X/(1-t)] in p, then p -> s over Q(q, t)."""
    m = F2(m)
    la = tuple(la)
    t = monomial(1, 0, 1)
    f = scale_powersums(s_(la), lambda k: one() / (one() - monomial(1, 0, k)))
    pref = monomial(1, 0, -m * content_sum(la)) * (one() - t)
    return f.scale(pref).to_basis("s")


@pytest.mark.parametrize("m", [F2(3, 2), F2(8, 7)])
def test_verma_character_matches_the_powersum_route(m):
    for n in range(1, 7):
        for la in enumerate_partitions(n):
            got, want = reports.verma_character(m, la), verma_by_powersums(m, la)
            assert got.basis == want.basis == "s"
            assert got.coeffs == want.coeffs, (m, la)


def test_finite_class_b2_goldens():
    raw, norm = reports.finite_dimensional_class(1, 2)
    assert norm == s_((2,))
    top = raw.coeffs[(2,)]
    assert top.is_laurent() and top.num.is_term()  # raw differs by one overall monomial

    raw, norm = reports.finite_dimensional_class(3, 2)
    assert norm == s_((2,)).scale(q1(1) + q2(1)) + s_((1, 1))


def test_normalize_top_refuses_a_non_laurent_top_coefficient():
    # the classes have Laurent coefficients; anything else is an error
    f = s_((2,)).scale(one() / (one() - q1(1))) + s_((1, 1))
    with pytest.raises(ArithmeticError, match="not Laurent"):
        reports._normalize_top(f)
    assert reports._normalize_top(s_((2,)).scale(q1(1) + q2(1))) == s_((2,)).scale(q1(1) + q2(1))


def test_finite_class_b3_positive():
    # report-only invariant: the class is a Schur-positive polynomial
    for a in (1, 2, 4):
        _, norm = reports.finite_dimensional_class(a, 3)
        for la, c in norm.to_basis("s").coeffs.items():
            assert c.is_laurent(), (a, la)
            for coef in c.num.terms().values():
                assert coef > 0 and coef.denominator == 1, (a, la)


def test_finite_class_b3_slope_one_third():
    _, norm = reports.finite_dimensional_class(1, 3)
    assert norm == s_((3,))


def test_characters_bundle_keys(capsys):
    for extra, keys in [((), {"slope", "finite_raw", "finite_normalized"}),
                        (("--verma", "1"), {"slope", "finite_raw",
                                            "finite_normalized", "verma"})]:
        assert cli.main(["characters", "--slope", "3/2", "--no-cache", *extra]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys


def test_finite_class_needs_positive_slope():
    with pytest.raises(ValueError):
        reports.finite_dimensional_class(-1, 2)
