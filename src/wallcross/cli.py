"""Command line entry point.

One binary, subcommand style.  Everything written to stdout is a
deterministic artifact (canonical Scalar serialization, sorted JSON
keys, fixed orders); timings and cache diagnostics go to stderr so that
repeated runs are byte-identical.  Reports carry no timing of their own:
the command line times each check it runs and logs the time on stderr.

Formats: json (documents as described in the module docstrings), csv
(flattened entries, one row per matrix entry), latex (pmatrix in the
layout the tabulated matrices use, entries written in q1, q2 where the
exponents permit).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__, cache, fock, stable, verify
from .partitions import enumerate_partitions
from .scalars import Scalar, q1q2_exponents, zero
from .symfunc import Htilde_in_s


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _slope_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"slope must be a/b, got {text!r}")


def _wall_arg(text: str) -> Fraction:
    m = _slope_arg(text)
    if m.denominator == 1:
        raise argparse.ArgumentTypeError("the slope's denominator must be at least 2, got 1")
    return m


def _side_arg(text: str) -> str:
    if text in ("+", "-"):
        return text
    raise argparse.ArgumentTypeError("side must be + or -")


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _partition_arg(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"partition must look like 3,1,1: {text!r}")
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wallcross", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, cached=False, formats=("json", "csv", "latex")):
        sp = sub.add_parser(name, help=help)
        # a slope such as -10/3 is a value, not an option
        sp._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--no-cache", action="store_true")
        sp.add_argument("--jobs", type=_at_least(1), default=1)  # no effect: one process
        sp.set_defaults(run=run, cached=cached)
        return sp

    sp = command("macdonald", cmd_macdonald, cached=True,
                 help="modified Macdonald basis in Schur coordinates")
    sp.add_argument("--n", type=_at_least(0), required=True)

    sp = command("fock-bar", cmd_fock_bar, cached=True,
                 help="bar involution matrix on the degree-n piece")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--b", type=_at_least(2), required=True)

    sp = command("canonical", cmd_canonical, cached=True,
                 help="canonical basis transition matrix")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--b", type=_at_least(2), required=True)
    sp.add_argument("--side", type=_side_arg, default="+")

    sp = command("stable", cmd_stable, cached=True,
                 help="stable basis table at a slope")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--slope", type=_slope_arg, required=True)
    sp.add_argument("--side", type=_side_arg, default="+")

    sp = command("wallcross", cmd_wallcross, cached=True,
                 help="transition matrix from slope 0 to just past --slope")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--slope", type=_slope_arg, required=True)

    report = ("json", "csv")
    sp = command("conjecture-check", cmd_conjecture_check, formats=report,
                 help="renormalized crossings against bar matrices")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--slope", type=_wall_arg, default=None,
                    help="check one wall instead of all detected walls")
    sp.epilog = ("A mismatch exits 1 only for n <= 3, the tabulated range; beyond it the "
                 "run exits 0, so a script must read each report's status.")

    command("appendix-check", cmd_appendix_check, formats=report,
            help="byte-exact comparison against the tabulated matrices")

    sp = command("positivity", cmd_positivity, formats=report,
                 help="series positivity of Schur coefficients")
    sp.add_argument("--n", type=_at_least(1), required=True)
    sp.add_argument("--slope", type=_slope_arg, required=True)
    sp.add_argument("--side", type=_side_arg, default="+")
    sp.add_argument("--order", type=_at_least(0), default=8)

    sp = command("characters", cmd_characters,
                 help="graded characters at slope a/b")
    sp.add_argument("--slope", type=_slope_arg, required=True)
    sp.add_argument("--verma", type=_partition_arg, default=None,
                    help="also emit the standard character for this partition")

    return p


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _plabel(la) -> str:
    return str(list(la))


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_csv_flat(doc: dict) -> str:
    """Fallback CSV: depth-first flatten to (path, value) rows."""
    rows = []

    def walk(prefix, node):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(f"{prefix}.{k}" if prefix else str(k), node[k])
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, node))

    walk("", doc)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["field", "value"])
    w.writerows(rows)
    return out.getvalue()


def _latex_monomial(m) -> str:
    a, b = q1q2_exponents(m)
    if a.denominator == 1 and b.denominator == 1:
        pairs = [("q_1", int(a)), ("q_2", int(b))]
    else:
        pairs = [("q", m[0]), ("t", m[1])]
    body = " ".join(
        var if e == 1 else f"{var}^{{{e}}}" for var, e in pairs if e
    )
    return body


def _latex_scalar(v: Scalar) -> str:
    def poly(L):
        parts = []
        for mono, c in sorted(L.terms().items(), reverse=True):
            body = _latex_monomial(mono)
            mag = abs(c)
            if mag.denominator != 1:
                coef = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            elif mag == 1 and body:
                coef = ""
            else:
                coef = str(mag)
            piece = coef + (" " if coef and body else "") + body
            parts.append(("-" if c < 0 else "+", piece or "1"))
        if not parts:
            return "0"
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    if v.den.is_one():
        return poly(v.num)
    return f"\\frac{{{poly(v.num)}}}{{{poly(v.den)}}}"


def _latex_sym(coeffs: dict) -> str:
    keys = sorted(coeffs, key=lambda la: (len(la), tuple(-p for p in la)))
    parts = []
    for la in keys:
        sub = "".join(str(p) for p in la)
        c = _latex_scalar(coeffs[la])
        if c == "1":
            parts.append(f"s_{{{sub}}}")
        elif any(op in c for op in (" + ", " - ")) or c.startswith("\\frac"):
            parts.append(f"\\left({c}\\right) s_{{{sub}}}")
        else:
            parts.append(f"{c} \\, s_{{{sub}}}")
    return " + ".join(parts) if parts else "0"


def _emit(doc: dict, args) -> str:
    return _emit_json(doc) if args.format == "json" else _emit_csv_flat(doc)


def _emit_matrix(args, header: dict, order, M, key="entries") -> str:
    """M as a pmatrix, as one CSV row per nonzero entry, or as the JSON
    document header + {"order": ..., key: nonzero entries}."""
    if args.format == "latex":
        rows = (" & ".join(_latex_scalar(v) for v in row) for row in M)
        return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}\n"
    entries = verify.matrix_entries(M, order)
    if args.format == "json":
        return _emit_json({**header, "order": [list(la) for la in order], key: entries})
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["row", "col", "value"])
    w.writerows([*k.split("|"), entries[k]] for k in sorted(entries))
    return out.getvalue()


def _logged(label: str, check, *args) -> dict:
    """Run check(*args), print its status and time to stderr, return its report."""
    t0 = time.monotonic()
    report = check(*args)
    millis = int((time.monotonic() - t0) * 1000)
    print(f"wallcross: {label}: {report['status']} ({millis}ms)", file=sys.stderr)
    return report


# ---------------------------------------------------------------------------
# command handlers: each returns (text, exit_code)
# ---------------------------------------------------------------------------


def _slope_doc(m: Fraction, side: str) -> dict:
    return {"num": m.numerator, "den": m.denominator, "side": side}


def cmd_macdonald(args) -> tuple:
    order = enumerate_partitions(args.n)
    M = [[row.get(la, zero()) for la in order] for row in map(Htilde_in_s, order)]
    return _emit_matrix(args, {"n": args.n, "basis": "Htilde in s"}, order, M), 0


def cmd_fock_bar(args) -> tuple:
    order = enumerate_partitions(args.n)
    M = fock.bar_matrix(args.n, args.b)
    return _emit_matrix(args, {"n": args.n, "b": args.b}, order, M), 0


def cmd_canonical(args) -> tuple:
    order = enumerate_partitions(args.n)
    M = fock.canonical_basis(args.n, args.b, args.side)
    header = {"n": args.n, "b": args.b, "sign": args.side}
    return _emit_matrix(args, header, order, M), 0


def cmd_stable(args) -> tuple:
    side = 1 if args.side == "+" else -1
    tbl = stable.stable_basis(args.n, (args.slope, side))
    order = enumerate_partitions(args.n)
    header = {"n": args.n, "slope": _slope_doc(args.slope, args.side)}
    return _emit_matrix(args, header, order, tbl.gamma, key="gamma"), 0


def cmd_wallcross(args) -> tuple:
    if args.slope <= 0:
        raise ValueError("wallcross needs a positive slope")
    M = stable.transition_matrix(args.n, (Fraction(0), 1), (args.slope, 1))
    order = enumerate_partitions(args.n)
    wall = args.slope.denominator > 1 and stable.is_wall(args.n, args.slope)
    header = {"n": args.n, "slope": _slope_doc(args.slope, "+"), "wall": wall}
    return _emit_matrix(args, header, order, M), 0


def cmd_conjecture_check(args) -> tuple:
    if args.slope is not None:
        walls = [args.slope]
    else:
        walls = [w for w in stable.candidate_walls(args.n, 0, 1)
                 if stable.is_wall(args.n, w)]
    reports = [_logged(f"conjecture n={args.n} m={w.numerator}/{w.denominator}",
                       verify.conjecture_check, args.n, w) for w in walls]
    mismatch = any(r["status"] == "mismatch" for r in reports)
    # within the tabulated range a mismatch is a hard failure; beyond it,
    # a reported finding, and the run still exits 0
    code = 1 if (mismatch and args.n <= 3) else 0
    return _emit({"n": args.n, "reports": reports}, args), code


def cmd_appendix_check(args) -> tuple:
    r = _logged("appendix", verify.appendix_check)
    return _emit(r, args), 0 if r["status"] == "match" else 1


def cmd_positivity(args) -> tuple:
    side = 1 if args.side == "+" else -1
    r = _logged("positivity", verify.positivity_report,
                args.n, (args.slope, side), args.order)
    # conjectural, report-only: a negative coefficient is a finding
    return _emit(r, args), 0


def cmd_characters(args) -> tuple:
    m = args.slope
    if m <= 0:
        raise ValueError("characters need a positive slope a/b")
    raw, normalized = verify.finite_dimensional_class(m.numerator, m.denominator)
    verma = None if args.verma is None else verify.verma_character(m, args.verma)
    if args.format == "latex":
        lines = ["[L] \\propto " + _latex_sym(normalized.coeffs)]
        if verma is not None:
            lines.append("\\mathrm{ch}\\, M = " + _latex_sym(verma.coeffs))
        return "\n".join(lines) + "\n", 0
    doc = {"slope": _slope_doc(m, "+")}
    parts = {"finite_raw": raw, "finite_normalized": normalized, "verma": verma}
    for key, f in parts.items():
        if f is not None:
            doc[key] = {_plabel(la): str(c) for la, c in sorted(f.coeffs.items())}
    return _emit(doc, args), 0


def _source_digest() -> str:
    """sha256 over the package's .py sources, so other code never shares a key."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _cache_key(args) -> dict:
    params = {name: getattr(args, name) for name in ("n", "b", "side") if hasattr(args, name)}
    if hasattr(args, "slope"):
        params["slope"] = [args.slope.numerator, args.slope.denominator]
    return {"command": args.command, "params": params, "format": args.format,
            "version": __version__, "source": _source_digest()}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    use_cache = args.cached and not args.no_cache
    if use_cache:
        root = args.cache_dir or cache.default_dir()
        key = _cache_key(args)
        hit = cache.load(root, key)
        if hit is not None:
            sys.stdout.write(hit["text"])
            return int(hit.get("code", 0))

    try:
        text, code = args.run(args)
    except (ValueError, ArithmeticError) as err:
        print(f"wallcross: error: {err}", file=sys.stderr)
        return 1

    sys.stdout.write(text)
    if use_cache:
        try:
            cache.store(root, key, {"text": text, "code": code})
        except OSError as err:
            print(f"wallcross: could not write the cache entry: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
