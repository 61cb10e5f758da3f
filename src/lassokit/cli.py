"""Command-line front end.

Decision subcommands print a human-readable verdict followed by a
machine-readable last line (`yes` or `no`, plus witnesses in word/lasso
literal syntax).  Exit codes: 0 affirmative or success, 1 negative
decision, 2 usage/parse/validation error or resource limit (state cap,
expression nested too deeply), 3 internal error (a failed self-check,
which is a bug).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    AlphabetMismatchError,
    AutomatonFormatError,
    CertificationError,
    NullableLoopError,
    ParseError,
    StateLimitError,
)
from .langops import compile_dfa, dfa_to_dot, dfa_to_expr, root, write_dfa
from .lassoaut import (
    extract_expr,
    extract_omega_expr,
    is_saturated,
    lasso_to_dot,
    read_automaton,
    write_automaton,
)
from .lassoexp import (
    compile_lasso,
    df_to_str,
    lexp_letters,
    lexp_to_str,
    member_lasso_naive,
    parse_lexp,
    spoke_live_naive,
)
from .lassos import enumerate_lassos, gamma_equiv, normal_form, parse_lasso
from .omega import (
    live_spoke_walk,
    oexp_letters,
    oexp_to_str,
    omega_to_omega_automaton,
    parse_oexpr,
    represent,
    up_member,
)
from .ratexp import (
    Alphabet,
    alphabet_of,
    enumerate_language,
    ewp,
    letters_of,
    rexp_to_str,
    split,
    word_deriv,
)
from .syntax import check_letter, check_symbols, parse_rexp


def _word_literal(w: str) -> str:
    return w if w else "''"


# each expression option: its parser and the letters of a parsed expression
_READERS = {
    "rexp": (parse_rexp, letters_of),
    "lexp": (parse_lexp, lexp_letters),
    "oexp": (parse_oexpr, oexp_letters),
}


def _kind(args, options: tuple[str, ...]) -> str:
    """The one expression option of `options` given on the command line."""
    given = [k for k in options if getattr(args, k) is not None]
    if len(given) != 1:
        raise ParseError(f"{args.command} needs exactly one of {'/'.join(f'--{k}' for k in options)}")
    return given[0]


def _expression(args, kind: str, *words: str, warn: bool = False):
    """The parsed `--<kind>` expression and its alphabet.

    With `--alphabet`, the letters of `words` (a `--word`, or a lasso's
    spoke and loop) and of the expression must lie in it.  Without it, the
    alphabet is inferred from those letters, with a note on stderr if
    `warn` is set."""
    parse, letters = _READERS[kind]
    alphabet = None if args.alphabet is None else Alphabet.parse(args.alphabet)
    for c in "".join(words):
        check_letter(c, alphabet)
    expr = parse(getattr(args, kind), alphabet)
    if alphabet is None:
        alphabet = alphabet_of(letters(expr) | set("".join(words)))
        if warn:
            print(
                f"note: alphabet inferred as {''.join(alphabet.letters)!r} "
                "(override with --alphabet)",
                file=sys.stderr,
            )
    return expr, alphabet


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_automaton_file(path: str):
    with open(path) as fh:
        return read_automaton(fh.read())


def cmd_member(args) -> int:
    kind = _kind(args, ("rexp", "lexp", "oexp"))
    operand, unread = ("word", "lasso") if kind == "rexp" else ("lasso", "word")
    if getattr(args, operand) is None:
        raise ParseError(f"--{kind} requires --{operand}")
    if getattr(args, unread) is not None:
        raise ParseError(f"--{kind} takes --{operand}, not --{unread}")
    if kind == "rexp":
        check_symbols(args.word, "word")
        expr, _ = _expression(args, kind, args.word)
        ok = ewp(word_deriv(expr, args.word))
        subject = f"word {_word_literal(args.word)}"
        target = rexp_to_str(expr)
    else:
        lasso = parse_lasso(args.lasso)
        expr, alphabet = _expression(args, kind, lasso.spoke, lasso.loop)
        if kind == "lexp":
            ok, target = member_lasso_naive(expr, lasso), lexp_to_str(expr)
        else:
            ok, target = up_member(expr, lasso, alphabet), oexp_to_str(expr)
        subject = f"lasso {lasso}"
    print(f"{subject} is {'a member' if ok else 'not a member'} of {target}")
    print("yes" if ok else "no")
    return 0 if ok else 1


def cmd_nf(args) -> int:
    nf = normal_form(parse_lasso(args.lasso))
    print(str(nf))
    return 0


def cmd_equiv_lasso(args) -> int:
    l1, l2 = parse_lasso(args.lasso1), parse_lasso(args.lasso2)
    ok = gamma_equiv(l1, l2)
    nf = normal_form(l1)
    if ok:
        print(f"{l1} and {l2} denote the same ultimately periodic word (normal form {nf})")
        print("yes")
        return 0
    print(f"{l1} and {l2} denote different ultimately periodic words")
    print(f"no {nf} {normal_form(l2)}")
    return 1


def cmd_compile(args) -> int:
    kind = _kind(args, ("rexp", "lexp"))
    expr, alphabet = _expression(args, kind)
    if kind == "rexp":
        _emit(write_dfa(compile_dfa(expr, alphabet)), args.output)
    else:
        _emit(write_automaton(compile_lasso(expr, alphabet)), args.output)
    return 0


def cmd_extract(args) -> int:
    aut = _read_automaton_file(args.file)
    print(lexp_to_str(extract_expr(aut)))
    return 0


def cmd_extract_omega(args) -> int:
    aut = _read_automaton_file(args.file)
    print(oexp_to_str(extract_omega_expr(aut)))
    return 0


def cmd_saturated(args) -> int:
    aut = _read_automaton_file(args.file)
    sat, pair = is_saturated(aut)
    if sat:
        print("the automaton is saturated: equivalent lassos are accepted alike")
        print("yes")
        return 0
    acc, rej = pair
    print(
        f"the automaton is not saturated: it accepts {acc} but rejects {rej}, "
        f"although both denote the same ultimately periodic word (normal form {normal_form(acc)})"
    )
    print(f"no {acc} {rej}")
    return 1


def cmd_convert(args) -> int:
    oexpr, alphabet = _expression(args, "oexp", warn=True)
    if args.to == "automaton":
        _emit(write_automaton(omega_to_omega_automaton(oexpr, alphabet)), args.output)
        return 0
    _emit(df_to_str(represent(oexpr, alphabet)) + "\n", args.output)
    return 0


def cmd_split(args) -> int:
    expr, _ = _expression(args, "rexp")
    pairs = split(expr)
    print(f"{len(pairs)} split pairs of {rexp_to_str(expr)}")
    for left, right in pairs:
        print(f"{rexp_to_str(left)} {rexp_to_str(right)}")
    return 0


def cmd_root(args) -> int:
    expr, alphabet = _expression(args, "rexp", warn=True)
    print(rexp_to_str(dfa_to_expr(root(compile_dfa(expr, alphabet)))))
    return 0


def cmd_enumerate(args) -> int:
    kind = _kind(args, ("rexp", "lexp", "oexp"))
    if kind == "rexp" and args.maxlen < 0:
        raise ParseError("--maxlen must be nonnegative")
    if kind != "rexp" and (args.max_spoke < 0 or args.max_loop < 1):
        raise ParseError("--max-spoke must be nonnegative and --max-loop at least 1")
    expr, alphabet = _expression(args, kind)
    if kind == "rexp":
        for w in enumerate_language(expr, args.maxlen, alphabet):
            print(_word_literal(w))
        return 0
    # each spoke is tested once, shortest first, and only a live spoke gets
    # lassos built, which the oracle then decides
    if kind == "lexp":
        live = lambda u: spoke_live_naive(expr, u)
        check = lambda l: member_lasso_naive(expr, l)
    else:
        live = live_spoke_walk(expr, alphabet)
        check = lambda l: up_member(expr, l, alphabet)
    for l in enumerate_lassos(alphabet, args.max_spoke, args.max_loop, live):
        if check(l):
            print(str(l))
    return 0


def cmd_dot(args) -> int:
    if (args.file is not None) + (args.rexp is not None) + (args.lexp is not None) != 1:
        raise ParseError("dot needs exactly one of FILE/--rexp/--lexp")
    if args.file is not None:
        if args.alphabet is not None:
            raise ParseError("dot FILE takes its alphabet from the file; --alphabet goes with --rexp/--lexp")
        _emit(lasso_to_dot(_read_automaton_file(args.file)), args.output)
        return 0
    kind = _kind(args, ("rexp", "lexp"))
    expr, alphabet = _expression(args, kind)
    if kind == "rexp":
        _emit(dfa_to_dot(compile_dfa(expr, alphabet)), args.output)
    else:
        _emit(lasso_to_dot(compile_lasso(expr, alphabet)), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It binds no command
    function: `main` looks up `cmd_<command>` when it is called."""
    parser = argparse.ArgumentParser(
        prog="lassokit",
        description=(
            "Lasso automata, rational lasso expressions and omega expressions. "
            "Expression grammar: constants 0 and 1, letters a-z, postfix * (star), "
            "@ (lasso loop), $ (omega power), juxtaposition or . for concatenation, "
            "+ for union, parentheses; postfix binds tightest, then concatenation, then +. "
            "Lassos are written spoke:loop, e.g. aaa:baa or :b."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, alphabet=True):
        p = sub.add_parser(name, help=help_text)
        if alphabet:  # only the commands that read expressions take an alphabet
            p.add_argument("--alphabet", help="alphabet override, e.g. 'ab' (default: letters in the inputs)")
        return p

    p = add("member", "decide membership of a word or lasso")
    p.add_argument("--rexp", help="rational expression")
    p.add_argument("--lexp", help="lasso expression")
    p.add_argument("--oexp", help="omega expression")
    p.add_argument("--word", help="finite word (for --rexp); may be empty")
    p.add_argument("--lasso", help="lasso literal spoke:loop (for --lexp/--oexp)")

    p = add("nf", "normal form of a lasso", alphabet=False)
    p.add_argument("lasso", help="lasso literal spoke:loop")

    p = add("equiv-lasso", "do two lassos denote the same word?", alphabet=False)
    p.add_argument("lasso1")
    p.add_argument("lasso2")

    p = add("compile", "compile an expression to an automaton file")
    p.add_argument("--rexp", help="rational expression (to DFA)")
    p.add_argument("--lexp", help="lasso expression (to lasso automaton)")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = add("extract", "lasso expression of an automaton file", alphabet=False)
    p.add_argument("file")

    p = add("extract-omega", "omega expression of a saturated automaton file", alphabet=False)
    p.add_argument("file")

    p = add("saturated", "is the automaton saturated?", alphabet=False)
    p.add_argument("file")

    p = add("convert", "convert an omega expression to a lasso form")
    p.add_argument("--oexp", required=True, help="omega expression")
    p.add_argument("--to", choices=["df", "automaton"], default="df")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = add("split", "sequential splits of a rational expression")
    p.add_argument("--rexp", required=True)

    p = add("root", "expression for the root of a rational language")
    p.add_argument("--rexp", required=True)

    p = add("enumerate", "list accepted words or lassos up to a bound")
    p.add_argument("--rexp")
    p.add_argument("--lexp")
    p.add_argument("--oexp")
    p.add_argument("--maxlen", type=int, default=4, help="word length bound (with --rexp)")
    p.add_argument("--max-spoke", type=int, default=3)
    p.add_argument("--max-loop", type=int, default=3)

    p = add("dot", "DOT rendering of an automaton")
    p.add_argument("file", nargs="?", help="lasso automaton file")
    p.add_argument("--rexp")
    p.add_argument("--lexp")
    p.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except (
        ParseError,
        NullableLoopError,
        AutomatonFormatError,
        AlphabetMismatchError,
        StateLimitError,
        OSError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except CertificationError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
