import contextlib
import io
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from lassokit import Alphabet, enumerate_lassos
from lassokit.cli import main

DATA = pathlib.Path(__file__).parent / "data"
FIG1 = str(DATA / "fig1.lauto")
FIG2 = str(DATA / "fig2.lauto")
BIG_UNSATURATED = str(DATA / "big_unsaturated.lauto")
LASSO_BOX = enumerate_lassos(Alphabet(("a", "b")), 3, 3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_line(out: str) -> str:
    return out.strip().splitlines()[-1]


class TestDecisions:
    def test_member_lexp_yes(self, capsys):
        code, out, _ = run(capsys, "member", "--lexp", "b(a*b@)", "--lasso", "ba:b")
        assert code == 0
        assert last_line(out) == "yes"

    def test_member_lexp_no(self, capsys):
        code, out, _ = run(capsys, "member", "--lexp", "b(a*b@)", "--lasso", "b:ab")
        assert code == 1
        assert last_line(out) == "no"

    def test_member_rexp_empty_word(self, capsys):
        code, out, _ = run(capsys, "member", "--rexp", "(ab)*", "--word", "")
        assert code == 0
        assert last_line(out) == "yes"

    def test_member_rexp_long_word(self, capsys):
        # recursion follows the expression, not the word
        code, out, _ = run(capsys, "member", "--rexp", "a*", "--word", "a" * 5000)
        assert (code, last_line(out)) == (0, "yes")
        code, out, _ = run(capsys, "member", "--rexp", "a*", "--word", "a" * 300 + "b")
        assert (code, last_line(out)) == (1, "no")

    def test_member_rexp_is_linear_in_the_word(self, capsys):
        # a word that backtracks under a star and a concatenation: the
        # factorization oracle takes over 30 s on it, the derivative walk is linear
        word = "aba" + "ab" * 2000 + "b"
        code, out, _ = run(capsys, "member", "--rexp", "(ab+aba)*b", "--word", word)
        assert (code, last_line(out)) == (0, "yes")
        code, out, _ = run(capsys, "member", "--rexp", "(ab+aba)*b", "--word", word + "a")
        assert (code, last_line(out)) == (1, "no")

    @given(st.integers(0, 10_000), st.integers(0, 4), st.text("abc", max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_member_rexp_agrees_with_member_naive(self, seed, depth, word):
        from helpers import random_rexp
        from lassokit import member_naive, rexp_to_str

        expr = random_rexp(random.Random(seed), "ab", depth)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["member", "--rexp", rexp_to_str(expr), "--alphabet", "abc", "--word", word])
        expected = member_naive(expr, word)
        assert (code, last_line(out.getvalue())) == ((0, "yes") if expected else (1, "no"))

    def test_member_lexp_is_linear_in_the_lasso(self, capsys):
        # the spoke backtracks under the star and the concatenation, where
        # the factorization oracle is cubic; the derivative fold is linear
        spoke = "aba" + "ab" * 2000 + "b"
        code, out, _ = run(capsys, "member", "--lexp", "(ab+aba)*b(a@)", "--lasso", f"{spoke}:a")
        assert (code, last_line(out)) == (0, "yes")
        code, out, _ = run(capsys, "member", "--lexp", "(ab+aba)*b(a@)", "--lasso", f"{spoke}:b")
        assert (code, last_line(out)) == (1, "no")
        code, out, _ = run(capsys, "member", "--lexp", "(ab+aba)*b(a@)", "--lasso", f"{spoke}a:a")
        assert (code, last_line(out)) == (1, "no")

    @given(st.integers(0, 10_000), st.integers(0, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_member_lexp_agrees_with_member_lasso_naive(self, seed, depth, data):
        # a lasso of the (3, 3) box over ab, an accepted one when there is
        # one and a coin says so, since most of the box is rejected
        from helpers import random_lexp
        from lassokit import lexp_to_str, member_lasso_naive

        expr = random_lexp(random.Random(seed), "ab", depth)
        accepted = [l for l in LASSO_BOX if member_lasso_naive(expr, l)]
        lasso = data.draw(st.sampled_from(accepted if accepted and data.draw(st.booleans()) else LASSO_BOX))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["member", "--lexp", lexp_to_str(expr), "--alphabet", "abc", "--lasso", str(lasso)])
        expected = lasso in accepted
        assert (code, last_line(out.getvalue())) == ((0, "yes") if expected else (1, "no"))

    def test_member_oexp(self, capsys):
        code, out, _ = run(capsys, "member", "--oexp", "(a+b)*a$", "--lasso", ":aa")
        assert code == 0
        assert last_line(out) == "yes"

    def test_saturated_no_with_witness(self, capsys):
        code, out, _ = run(capsys, "saturated", FIG1)
        assert code == 1
        assert last_line(out) == "no :b b:b"

    def test_saturated_yes(self, capsys):
        code, out, _ = run(capsys, "saturated", FIG2)
        assert code == 0
        assert last_line(out) == "yes"

    def test_saturated_answers_past_root_cap(self, capsys):
        # the roots of this automaton's loop languages exceed the state cap;
        # its rotation failure bounds the answer, so no root is needed
        code, out, _ = run(capsys, "saturated", BIG_UNSATURATED)
        assert code == 1
        assert last_line(out) == "no :bb :b"

    def test_equiv_lasso(self, capsys):
        code, out, _ = run(capsys, "equiv-lasso", ":b", "b:b")
        assert code == 0
        assert last_line(out) == "yes"
        code, out, _ = run(capsys, "equiv-lasso", ":a", ":b")
        assert code == 1
        assert last_line(out).startswith("no")


class TestNormalForm:
    def test_diagram_example(self, capsys):
        code, out, _ = run(capsys, "nf", "aba:baba")
        assert code == 0
        assert out.strip() == ":ab"


class TestConversions:
    def test_compile_rexp(self, capsys, tmp_path):
        target = tmp_path / "out.dfa"
        code, out, _ = run(capsys, "compile", "--rexp", "ab*", "-o", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("alphabet: a b")
        assert "d: q0 a q1" in text

    def test_compile_lexp_then_saturated(self, capsys, tmp_path):
        target = tmp_path / "aut.lauto"
        code, _, _ = run(capsys, "compile", "--lexp", "b(a*b@)", "-o", str(target))
        assert code == 0
        code, out, _ = run(capsys, "saturated", str(target))
        assert code == 1  # plain lasso-language acceptor, not saturated

    def test_convert_to_df(self, capsys):
        code, out, _ = run(capsys, "convert", "--oexp", "a$")
        assert code == 0
        assert "(a)@" in out

    def test_convert_to_automaton_is_saturated(self, capsys, tmp_path):
        target = tmp_path / "aut.lauto"
        code, _, _ = run(capsys, "convert", "--oexp", "(a+b)*a$", "--to", "automaton", "-o", str(target))
        assert code == 0
        code, out, _ = run(capsys, "saturated", str(target))
        assert code == 0

    def test_extract_round_trip(self, capsys, tmp_path):
        target = tmp_path / "aut.lauto"
        run(capsys, "compile", "--lexp", "b(ab)*(ab*)@", "-o", str(target))
        code, out, _ = run(capsys, "extract", str(target))
        assert code == 0
        code2, out2, _ = run(capsys, "member", "--lexp", out.strip(), "--lasso", "b:ab")
        assert code2 == 0

    def test_extract_omega(self, capsys):
        code, out, _ = run(capsys, "extract-omega", FIG2)
        assert code == 0
        assert out.strip().endswith("$")

    def test_extract_omega_unsaturated_is_error(self, capsys):
        code, _, err = run(capsys, "extract-omega", FIG1)
        assert code == 2
        assert "not saturated" in err


class TestQueries:
    def test_split(self, capsys):
        code, out, _ = run(capsys, "split", "--rexp", "b(a+b*)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "8 split pairs of b(a+b*)"
        assert len(lines) == 9

    def test_root(self, capsys):
        code, out, _ = run(capsys, "root", "--rexp", "aa", "--alphabet", "a")
        assert code == 0
        code2, out2, _ = run(capsys, "member", "--rexp", out.strip(), "--word", "a")
        assert code2 == 0

    def test_enumerate_rexp(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--rexp", "(ab)*", "--maxlen", "4")
        assert code == 0
        assert out.splitlines() == ["''", "ab", "abab"]

    def test_enumerate_cost_follows_the_answer(self, capsys):
        # one word, whatever the bound: the walk keeps only the prefixes
        # of words of the language, not the 2^61 candidates
        code, out, _ = run(capsys, "enumerate", "--rexp", "ab", "--alphabet", "ab", "--maxlen", "60")
        assert code == 0
        assert out == "ab\n"

    def test_enumerate_lexp(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--lexp", "b(a*b@)", "--max-spoke", "2", "--max-loop", "1")
        assert code == 0
        assert out.splitlines() == ["b:b", "ba:b"]

    def test_dot_file(self, capsys):
        code, out, _ = run(capsys, "dot", FIG1)
        assert code == 0
        assert out.startswith("digraph")
        assert "style=dotted" in out

    def test_dot_rexp(self, capsys):
        code, out, _ = run(capsys, "dot", "--rexp", "ab*")
        assert code == 0
        assert out.startswith("digraph")

    def test_dot_file_escapes_labels(self, capsys, tmp_path):
        # state names may hold any symbol but whitespace, '#' and ':'
        path = tmp_path / "quoted.lauto"
        path.write_text(
            "alphabet: a\nspoke: p\"q\nloop: r\\\ninitial: p\"q\nfinal: r\\\n"
            "d1: p\"q a p\"q\nd2: p\"q a r\\\nd3: r\\ a r\\\n"
        )
        code, out, _ = run(capsys, "dot", str(path))
        assert code == 0
        assert '  s0 [shape=circle, label="p\\"q"];\n' in out
        assert '  l0 [shape=doublecircle, label="r\\\\"];\n' in out


class TestErrors:
    def test_parse_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "member", "--rexp", "a(", "--word", "a")
        assert code == 2
        assert "error:" in err

    def test_nullable_loop_is_exit_2(self, capsys):
        code, _, err = run(capsys, "member", "--lexp", "(a*)@", "--lasso", ":a")
        assert code == 2

    def test_missing_operand(self, capsys):
        code, _, err = run(capsys, "member", "--rexp", "a")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rexp", "a", "--word", "a", "--lasso", "A"], "--rexp takes --word, not --lasso"),
            (["--lexp", "a@", "--lasso", ":a", "--word", "Q"], "--lexp takes --lasso, not --word"),
            (["--oexp", "a$", "--lasso", ":a", "--word", "a"], "--oexp takes --lasso, not --word"),
        ],
    )
    def test_operand_the_kind_does_not_read_is_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "member", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bad_automaton_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.lauto"
        bad.write_text("alphabet: a\nspoke: x\nloop: y\ninitial: x\nfinal: y\nd1: x a x\nd2: x a y\n")
        code, _, err = run(capsys, "saturated", str(bad))
        assert code == 2
        assert "missing d3 row" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rexp", "a", "--word", "c"],
            ["--lexp", "a@", "--lasso", ":c"],
            ["--oexp", "a$", "--lasso", ":c"],
            ["--oexp", "a$", "--lasso", "c:a"],
        ],
    )
    def test_member_letter_outside_alphabet_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "member", *argv, "--alphabet", "ab")
        assert code == 2
        assert out == ""
        assert err == "error: letter 'c' outside alphabet 'ab'\n"

    @pytest.mark.parametrize("alphabet", [[], ["--alphabet", "ab"], ["--alphabet", "A"]])
    def test_word_symbol_outside_a_to_z_is_exit_2(self, capsys, alphabet):
        # checked as a lasso literal is, before the alphabet
        code, out, err = run(capsys, "member", "--rexp", "a", "--word", "A1", *alphabet)
        assert code == 2
        assert out == ""
        assert err == "error: invalid symbol 'A' in word\n"

    @pytest.mark.parametrize(
        "argv", [["member", "--rexp", "a", "--word", "a"], ["split", "--rexp", "a"], ["compile", "--rexp", "a"]]
    )
    def test_empty_alphabet_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--alphabet", "")
        assert code == 2
        assert out == ""
        assert err == "error: alphabet must be nonempty\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["nf", "a:b"],
            ["equiv-lasso", ":b", "b:b"],
            ["saturated", FIG1],
            ["extract", FIG1],
            ["extract-omega", FIG2],
        ],
    )
    def test_alphabet_rejected_where_unread(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alphabet", "xyz"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --alphabet xyz" in out.err

    def test_dot_file_rejects_alphabet(self, capsys):
        # the automaton file carries its own alphabet
        code, out, err = run(capsys, "dot", FIG1, "--alphabet", "xyz")
        assert code == 2
        assert out == ""
        assert err == "error: dot FILE takes its alphabet from the file; --alphabet goes with --rexp/--lexp\n"
        code, out, _ = run(capsys, "dot", "--rexp", "a", "--alphabet", "ab")
        assert code == 0
        assert "->" in out

    def test_deep_nesting_is_exit_2(self, capsys):
        code, _, err = run(capsys, "member", "--rexp", "a" * 2000, "--word", "a")
        assert code == 2
        assert err == "error: expression nested too deeply\n"

    def test_internal_error_is_exit_3(self, capsys, monkeypatch):
        from lassokit import cli
        from lassokit.errors import CertificationError

        def failing(args):
            raise CertificationError("self-check failed")

        monkeypatch.setattr(cli, "cmd_nf", failing)
        code, out, err = run(capsys, "nf", "a:b")
        assert code == 3
        assert out == ""
        assert err == "internal error: self-check failed\n"

    def test_certificate_position_cap_is_exit_2(self, capsys, monkeypatch):
        from lassokit import langops

        # fig1's expressions are checked within the real cap; a cap below
        # their positions stops extraction before any follow mask is built
        assert run(capsys, "extract", FIG1)[0] == 0
        monkeypatch.setattr(langops, "POSITION_CAP", 1)
        code, out, err = run(capsys, "extract", FIG1)
        assert code == 2
        assert out == ""
        assert err == "error: certificate positions exceeded 1\n"

    def test_extract_self_check_is_exit_3(self, capsys, monkeypatch):
        from lassokit import Alphabet, compile_dfa, lassoaut
        from lassokit.syntax import parse_rexp

        # a loop language with the empty word
        nullable = compile_dfa(parse_rexp("1+a"), Alphabet(("a", "b")))
        monkeypatch.setattr(lassoaut, "_loop_lang", lambda aut, x: [nullable])
        code, out, err = run(capsys, "extract", FIG1)
        assert code == 3
        assert out == ""
        assert err == "internal error: loop language contained the empty word\n"


EXPR_OPTIONS = {
    "member": ["--rexp", "--lexp", "--oexp"],
    "compile": ["--rexp", "--lexp"],
    "enumerate": ["--rexp", "--lexp", "--oexp"],
    "dot": ["--rexp", "--lexp"],
}
EXPR_REQUIRED = {"convert": "--oexp", "split": "--rexp", "root": "--rexp"}
# expressions of at most 12 characters, random text or well-formed terms
# (a rational part and an optional loop), so that both the error paths and
# the answers are reached
rexp_terms = st.recursive(
    st.sampled_from("ab01"),
    lambda inner: st.one_of(
        st.builds("({})*".format, inner),
        st.builds("{}{}".format, inner, inner),
        st.builds("({}+{})".format, inner, inner),
    ),
    max_leaves=4,
)
LOOPS = {"--rexp": [""], "--lexp": ["a@", "(ab)@"], "--oexp": ["b$", "(a+b)$"]}


def expr_text(option: str):
    """Random text, or twice as often a term with a loop of the option's
    kind or of any kind."""
    loops = st.one_of(st.sampled_from(LOOPS[option]), st.sampled_from(sum(LOOPS.values(), [])))
    terms = st.builds("{}{}".format, rexp_terms, loops).filter(lambda t: len(t) <= 12)
    return st.one_of(st.text(alphabet="ab()+*.@$01 ", max_size=12), terms, terms)


# words and lassos over `abA:`, well-formed two times in three
ab_words = st.text(alphabet="ab", max_size=3)
word_text = st.one_of(ab_words, ab_words, st.text(alphabet="abA:", max_size=4))
ab_lassos = st.builds("{}:{}".format, ab_words, st.text(alphabet="ab", min_size=1, max_size=3))
lasso_text = st.one_of(ab_lassos, ab_lassos, st.text(alphabet="abA:", max_size=6))


@st.composite
def invocations(draw) -> list[str]:
    """argv of a command that reads an expression, or of `equiv-lasso`:
    none, one or two of its expression options, words and lassos over `abA:`,
    small enumeration bounds and an optional `--alphabet`."""
    command = draw(st.sampled_from([*EXPR_OPTIONS, *EXPR_REQUIRED, "equiv-lasso"]))
    if command == "equiv-lasso":
        return [command, draw(lasso_text), draw(lasso_text)]
    argv = [command]
    if command in EXPR_REQUIRED:
        chosen = [EXPR_REQUIRED[command]]
    else:
        # mostly one option, sometimes none or two
        chosen = draw(st.permutations(EXPR_OPTIONS[command]))[: draw(st.sampled_from([1, 1, 1, 1, 0, 2]))]
    for option in chosen:
        argv += [option, draw(expr_text(option))]
    if command == "member":
        # each operand given three times in four
        for option, text in (("--word", word_text), ("--lasso", lasso_text)):
            if draw(st.sampled_from([True, True, True, False])):
                argv += [option, draw(text)]
    if command == "enumerate":
        for option in ("--maxlen", "--max-spoke", "--max-loop"):
            if draw(st.booleans()):
                argv += [option, str(draw(st.integers(-1, 2)))]
    alphabet = draw(st.one_of(st.none(), st.sampled_from(["", "a", "ab", "ba", "aa", "abc"])))
    return argv if alphabet is None else [*argv, "--alphabet", alphabet]


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(invocations())
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 1, 2, 3}
        if code == 2:
            assert "error: " in err.getvalue()
        if argv[0] in ("member", "equiv-lasso") and code in (0, 1):
            last = last_line(out.getvalue())
            assert (last == "yes") if code == 0 else (last.split()[0] == "no")


class TestGoldenAgainstLibrary:
    """CLI output parsed back must equal the library result."""

    def test_nf_matches_library(self, capsys):
        from lassokit import normal_form, parse_lasso

        _, out, _ = run(capsys, "nf", "aabab:abab")
        assert parse_lasso(out.strip()) == normal_form(parse_lasso("aabab:abab"))

    def test_saturated_witness_is_valid(self, capsys, fig1):
        from lassokit import accepts, gamma_equiv, parse_lasso

        _, out, _ = run(capsys, "saturated", FIG1)
        _, acc_text, rej_text = last_line(out).split()
        acc, rej = parse_lasso(acc_text), parse_lasso(rej_text)
        assert gamma_equiv(acc, rej)
        assert accepts(fig1, acc) and not accepts(fig1, rej)

    def test_split_matches_library(self, capsys):
        from lassokit import split
        from lassokit.syntax import parse_rexp

        _, out, _ = run(capsys, "split", "--rexp", "(a+b)*a")
        lines = out.strip().splitlines()[1:]
        got = {tuple(parse_rexp(part) for part in line.split()) for line in lines}
        assert got == {(l, r) for l, r in split(parse_rexp("(a+b)*a"))}

    def test_convert_df_parses_back(self, capsys):
        from lassokit import (
            Alphabet,
            enumerate_lassos,
            member_lasso_naive,
            parse_lexp,
            parse_oexpr,
            represent,
        )
        from helpers import df_member

        _, out, _ = run(capsys, "convert", "--oexp", "(ab)$")
        back = parse_lexp(out.strip())
        df = represent(parse_oexpr("(ab)$"))
        for l in enumerate_lassos(Alphabet(("a", "b")), 3, 3):
            assert member_lasso_naive(back, l) == df_member(df, l), l

    def test_enumerate_matches_library(self, capsys):
        from lassokit import enumerate_language
        from lassokit.syntax import parse_rexp

        _, out, _ = run(capsys, "enumerate", "--rexp", "a*b", "--maxlen", "3")
        words = ["" if w == "''" else w for w in out.splitlines()]
        assert words == enumerate_language(parse_rexp("a*b"), 3)

    def test_root_matches_library(self, capsys):
        from lassokit import Alphabet, compile_dfa, equivalent_dfa, root
        from lassokit.syntax import parse_rexp

        _, out, _ = run(capsys, "root", "--rexp", "ab", "--alphabet", "ab")
        back = compile_dfa(parse_rexp(out.strip()), Alphabet(("a", "b")))
        direct = root(compile_dfa(parse_rexp("ab"), Alphabet(("a", "b"))))
        assert equivalent_dfa(back, direct)[0]

    def test_negative_bounds_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--rexp", "a", "--maxlen", "-1")
        assert code == 2


class TestEnumerateLassos:
    """`enumerate --lexp/--oexp` walks the spokes level by level and asks
    the oracle only about the lassos of the spokes its walk lists; its
    output is the box filtered by the oracle."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["lexp", "oexp"]),
        st.sampled_from(["ab", "abc"]),
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_is_the_filtered_box(self, seed, kind, letters, depth, max_spoke, max_loop):
        from helpers import random_lexp, random_oexp
        from lassokit import Alphabet, enumerate_lassos, lexp_to_str, member_lasso_naive, up_member

        rng = random.Random(seed)
        alphabet = Alphabet(tuple(letters))
        box = enumerate_lassos(alphabet, max_spoke, max_loop)
        for _ in range(4):  # a quarter of the drawn expressions accept a lasso with a nonempty spoke
            if kind == "lexp":
                expr = random_lexp(rng, letters, depth)
                expected = "".join(f"{l}\n" for l in box if member_lasso_naive(expr, l))
            else:
                expr = random_oexp(rng, letters, depth)
                expected = "".join(f"{l}\n" for l in box if up_member(expr, l, alphabet))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["enumerate", f"--{kind}", lexp_to_str(expr), "--alphabet", letters,
                             "--max-spoke", str(max_spoke), "--max-loop", str(max_loop)])
            assert (code, out.getvalue(), err.getvalue()) == (0, expected, ""), lexp_to_str(expr)

    def test_dead_spokes_reach_no_oracle(self, capsys, monkeypatch):
        from lassokit import cli

        calls = []
        decide = cli.member_lasso_naive
        monkeypatch.setattr(cli, "member_lasso_naive", lambda rho, l: calls.append(l) or decide(rho, l))
        code, out, _ = run(capsys, "enumerate", "--lexp", "a*(b@)", "--alphabet", "ab",
                           "--max-spoke", "12", "--max-loop", "2")
        assert code == 0
        assert out.splitlines() == [f"{'a' * n}:b" for n in range(13)]
        box = (2**13 - 1) * 6
        assert len(calls) < box / 100
        # every printed lasso was decided by the oracle
        assert {str(l) for l in calls} >= set(out.splitlines())

    @pytest.mark.parametrize(
        "argv, built, printed",
        [
            # 13 live spokes a^n of the box's 8 191, times 6 loops
            (("--lexp", "a*(b@)", "--max-spoke", "12", "--max-loop", "2"), 78, 13),
            # 17 live spokes a^n of the box's 131 071, times 2 loops
            (("--oexp", "a$", "--max-spoke", "16", "--max-loop", "1"), 34, 17),
        ],
    )
    def test_dead_spokes_build_no_lasso(self, capsys, monkeypatch, argv, built, printed):
        from lassokit import cli

        lists = []
        listing = cli.enumerate_lassos
        monkeypatch.setattr(cli, "enumerate_lassos", lambda *a: lists.append(listing(*a)) or lists[-1])
        code, out, _ = run(capsys, "enumerate", *argv, "--alphabet", "ab")
        assert code == 0
        assert len(out.splitlines()) == printed
        assert [len(l) for l in lists] == [built]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("split", "--rexp", "(a+b)*ab"),
            ("convert", "--oexp", "(ab)$"),
            ("saturated", FIG1),
            ("extract", FIG1),
        ],
    )
    def test_identical_runs_identical_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


class TestParserReuse:
    def test_parser_built_once(self):
        from lassokit import cli

        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("bad", [("nf",), ("enumerate", "--maxlen", "x")])
    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "ab:ba"),
            ("enumerate", "--rexp", "a*", "--maxlen", "2"),
            ("member", "--rexp", "a", "--word", "c", "--alphabet", "ab"),
        ],
    )
    def test_usage_error_leaves_no_state(self, capsys, bad, argv):
        before = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: lassokit")
        assert run(capsys, *argv) == before
