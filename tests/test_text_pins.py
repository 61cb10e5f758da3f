"""Printed output pinned byte for byte.

`data/text_pins.json` holds the text of lasso and omega expressions, of
disjunctive forms, of the expressions extracted from automata, of the
saturation verdicts on automata (whose witnesses are shortest words), of
the CLI's answers to ill-formed expressions and usage errors and its note
on an inferred alphabet, and of `enumerate` over the
rational parts of the pinned expressions and the pinned expressions
themselves.  It was recorded before lasso and
omega expressions came to share one tree, so a change to that tree that
moves a byte of output fails here.  Re-record only for an intended change
of output:

    PYTHONPATH=src python tests/test_text_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from helpers import df_to_lexp
from lassokit import Alphabet, read_automaton
from lassokit.cli import main
from lassokit.lassoaut import extract_expr, extract_omega_expr, is_saturated
from lassokit.lassoexp import (
    TailPrefix,
    Terminal,
    TailSum,
    compile_lasso,
    df_to_str,
    disjunctive_form,
    lexp_to_str,
    parse_lexp,
)
from lassokit.omega import h_map, oexp_to_str, parse_oexpr, represent
from lassokit.ratexp import rexp_to_str

DATA = pathlib.Path(__file__).parent / "data"
PINS_PATH = DATA / "text_pins.json"
PIPELINE = json.loads((DATA / "pipeline_automata.json").read_text())

LEXPS = [
    "0",
    "a@",
    "b(a*b@)",
    "b(ab)*(ab*)@",
    "a@+b@",
    "1(a@)",
    "aa(a@)",
    "(ab)*(ab*)@+b@",
    "(a+b)*((ab)@+b((ba)@))",
    "a(b(a@+0))+0",
    "(a+1)(b*a)@+(ab+ba)*(a+b)@",
    "a.b.(a+bb)@",
]
OEXPS = sorted(PIPELINE) + ["0", "a$+b$", "(a+b)*(aab+bba)$", "(ab+ba)*(a+bb)$", "a(b(a$+0))+0"]
FIGS = ["fig1", "fig2", "fig3"]
CLI_CASES = [
    ["member", "--lexp", "(a*)@", "--lasso", ":a"],
    ["member", "--oexp", "(a*)$", "--lasso", ":a"],
    ["member", "--lexp", "a$", "--lasso", ":a"],
    ["member", "--oexp", "a@", "--lasso", ":a"],
    ["member", "--lexp", "ab", "--lasso", ":a"],
    ["member", "--oexp", "a+b$", "--lasso", ":a"],
    ["compile", "--lexp", "a(b*)@"],
    ["convert", "--oexp", "(1+a)$"],
    ["member", "--rexp", "a@", "--word", "a"],
    # usage errors: no expression option, two of them, a missing operand
    ["member"],
    ["member", "--rexp", "a", "--lexp", "a@", "--word", "a"],
    ["compile"],
    ["compile", "--rexp", "a", "--lexp", "a@"],
    ["enumerate"],
    ["enumerate", "--rexp", "a", "--oexp", "a$"],
    ["dot"],
    ["dot", "--rexp", "a", "--lexp", "a@"],
    ["member", "--rexp", "a"],
    ["member", "--lexp", "a@"],
    ["member", "--oexp", "a$"],
    # each kind reads only its own operand and bounds
    ["member", "--rexp", "a", "--word", "a", "--lasso", "A"],
    ["member", "--lexp", "a@", "--lasso", ":a", "--word", "Q"],
    ["enumerate", "--rexp", "a", "--max-loop", "0"],
    ["enumerate", "--lexp", "a@", "--maxlen", "-1"],
    ["enumerate", "--rexp", "a", "--maxlen", "-1"],
    ["enumerate", "--lexp", "a@", "--max-loop", "0"],
    # the inferred alphabet's note on stderr
    ["convert", "--oexp", "b(ab)$"],
    ["root", "--rexp", "ba"],
]


ENUM_BOX = ["--max-spoke", "3", "--max-loop", "3"]


def _rational_parts(rho) -> set[str]:
    """The text of every prefix and terminal body in a tailed expression."""
    match rho:
        case Terminal(r):
            return {rexp_to_str(r)}
        case TailPrefix(t, tail):
            return {rexp_to_str(t)} | _rational_parts(tail)
        case TailSum(l, r):
            return _rational_parts(l) | _rational_parts(r)
    return set()


def _enumerate_cases() -> list[list[str]]:
    """`enumerate` over the rational parts of the pinned expressions (with
    the inferred alphabet and with `ba`, which reverses the order within a
    length) and over the pinned lasso and omega expressions."""
    exprs = [parse_lexp(t) for t in LEXPS] + [parse_oexpr(t) for t in OEXPS]
    rexps = sorted(set().union(*map(_rational_parts, exprs)))
    cases = [["enumerate", "--rexp", t, "--maxlen", "6", *extra] for t in rexps for extra in ([], ["--alphabet", "ba"])]
    cases += [["enumerate", "--lexp", t, *ENUM_BOX] for t in LEXPS]
    return cases + [["enumerate", "--oexp", t, *ENUM_BOX] for t in OEXPS]


def _alphabet(text: str) -> Alphabet:
    return Alphabet(("a", "b")) if "b" in text else Alphabet(("a",))


def _automata() -> dict[str, object]:
    auts = {fig: read_automaton((DATA / f"{fig}.lauto").read_text()) for fig in FIGS}
    auts.update((f"pipeline {text}", read_automaton(out)) for text, out in sorted(PIPELINE.items()))
    auts.update((f"compile {text}", compile_lasso(parse_lexp(text))) for text in LEXPS)
    return auts


def _extract_omega(aut) -> str:
    try:
        return oexp_to_str(extract_omega_expr(aut))
    except ValueError as e:
        return f"ValueError: {e}"


def _verdict(aut) -> str:
    """The last line of the `saturated` command: `yes` or `no ACC REJ`."""
    sat, pair = is_saturated(aut)
    return "yes" if sat else f"no {pair[0]} {pair[1]}"


def _cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def render() -> dict[str, dict[str, object]]:
    """Every pinned text, computed by the library as it is now."""
    auts = _automata()
    return {
        "lexp_to_str": {t: lexp_to_str(parse_lexp(t)) for t in LEXPS},
        "oexp_to_str": {t: oexp_to_str(parse_oexpr(t)) for t in OEXPS},
        "disjunctive_form": {t: df_to_str(disjunctive_form(parse_lexp(t))) for t in LEXPS},
        "df_to_lexp": {t: lexp_to_str(df_to_lexp(disjunctive_form(parse_lexp(t)))) for t in LEXPS},
        "h_map": {t: df_to_str(h_map(parse_oexpr(t))) for t in OEXPS},
        "represent": {t: df_to_str(represent(parse_oexpr(t), _alphabet(t))) for t in sorted(PIPELINE)},
        "extract": {name: lexp_to_str(extract_expr(aut)) for name, aut in auts.items()},
        "extract_omega": {name: _extract_omega(aut) for name, aut in auts.items()},
        "saturated": {name: _verdict(aut) for name, aut in auts.items()},
        "cli": {" ".join(argv): _cli(argv) for argv in CLI_CASES},
        "enumerate": {" ".join(argv): _cli(argv)[:2] for argv in _enumerate_cases()},
    }


PINNED = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


@pytest.fixture(scope="module")
def rendered():
    return render()


@pytest.mark.parametrize("section", sorted(PINNED))
def test_text_pinned_byte_for_byte(rendered, section):
    assert rendered[section] == PINNED[section]


def test_pins_cover_every_section(rendered):
    assert set(PINNED) == set(rendered)


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(render(), indent=1, sort_keys=True) + "\n")
