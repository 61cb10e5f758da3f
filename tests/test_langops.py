import ast
import dataclasses
import random
import re
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from helpers import certify_oracle, equivalent_dfa_oracle, minimize_dfa_oracle, random_lauto, random_rexp
from lassokit import langops
from lassokit import (
    Alphabet,
    AlphabetMismatchError,
    CertificationError,
    ONE,
    StateLimitError,
    ZERO,
    boolean_combine,
    compile_dfa,
    compile_lasso,
    complement,
    concat_dfa,
    dfa_to_dot,
    dfa_to_expr,
    enumerate_language,
    equivalent_dfa,
    equivalent_lasso,
    gamma_map,
    h_map,
    is_empty_dfa,
    left_derivative,
    member_naive,
    minimize_dfa,
    normalize_b,
    parse_lexp,
    parse_oexpr,
    right_quotient,
    root,
    run_dfa,
)
from lassokit.langops import Dfa, class_dfa, explore, quotient
from lassokit.lassoaut import LassoAutomaton, loop_dfa
from lassokit.ratexp import letter_count, rcat, rexp_to_str, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))


def lang(d, maxlen):
    return [w for w in words_up_to(d.alphabet, maxlen) if run_dfa(d, w)]


class TestCompile:
    def test_ab_star(self):
        d = compile_dfa(parse_rexp("ab*"))
        assert d.n_states == 3
        assert set(d.labels) == {"ab*", "b*", "0"}
        assert d.labels[next(iter(d.finals))] == "b*"

    def test_b_ab_star(self):
        d = compile_dfa(parse_rexp("b(ab)*"))
        assert d.n_states == 3
        assert set(d.labels) == {"b(ab)*", "(ab)*", "0"}
        assert d.labels[next(iter(d.finals))] == "(ab)*"

    def test_zero(self):
        d = compile_dfa(ZERO, A)
        assert d.n_states == 1 and not d.finals

    def test_agreement_with_member(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_rexp(rng, "ab", 3)
            d = compile_dfa(t, AB)
            for u in words_up_to(AB, 6):
                assert run_dfa(d, u) == member_naive(t, u), (t, u)


class TestBoolean:
    def test_and(self):
        d = boolean_combine(compile_dfa(parse_rexp("a*"), A), compile_dfa(parse_rexp("(aa)*"), A), "and")
        expected = sorted(
            set(enumerate_language(parse_rexp("a*"), 8, A))
            & set(enumerate_language(parse_rexp("(aa)*"), 8, A))
        )
        assert sorted(lang(d, 8)) == expected

    def test_or_with_empty(self):
        d = compile_dfa(parse_rexp("ab*"))
        combined = boolean_combine(d, compile_dfa(ZERO, AB), "or")
        assert equivalent_dfa(combined, d)[0]

    def test_diff_self(self):
        d = compile_dfa(parse_rexp("(a+b)*ab"))
        assert is_empty_dfa(boolean_combine(d, d, "diff"))[0]

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            boolean_combine(compile_dfa(ZERO, A), compile_dfa(ZERO, AB), "and")

    def test_xor(self):
        d = boolean_combine(compile_dfa(parse_rexp("a(a+b)*"), AB), compile_dfa(parse_rexp("(a+b)*b"), AB), "xor")
        assert lang(d, 2) == ["a", "b", "aa", "bb"]

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op 'nand'"):
            boolean_combine(compile_dfa(ZERO, A), compile_dfa(ZERO, A), "nand")


class TestComplement:
    def test_involution(self):
        d = compile_dfa(parse_rexp("b(ab)*"))
        assert equivalent_dfa(complement(complement(d)), d)[0]

    def test_of_empty_is_universal(self):
        d = complement(compile_dfa(ZERO, AB))
        assert all(run_dfa(d, w) for w in words_up_to(AB, 5))

    def test_of_a_star(self):
        d = complement(compile_dfa(parse_rexp("a*"), AB))
        assert run_dfa(d, "b")
        assert not run_dfa(d, "aa")


class TestEmptinessEquivalence:
    def test_empty(self):
        assert is_empty_dfa(compile_dfa(ZERO, A)) == (True, None)

    def test_witness(self):
        assert is_empty_dfa(compile_dfa(parse_rexp("ab*"))) == (False, "a")

    def test_diff_empty(self):
        d = compile_dfa(parse_rexp("a*"), A)
        assert is_empty_dfa(boolean_combine(d, d, "diff"))[0]

    def test_unit_law(self):
        assert equivalent_dfa(compile_dfa(parse_rexp("1(ab)*")), compile_dfa(parse_rexp("(ab)*")))[0]

    def test_counterexample(self):
        eq, w = equivalent_dfa(compile_dfa(parse_rexp("a"), AB), compile_dfa(parse_rexp("b"), AB))
        assert not eq and w == "a"

    def test_universal(self):
        assert equivalent_dfa(compile_dfa(parse_rexp("(a+b)*")), complement(compile_dfa(ZERO, AB)))[0]


def witness_dfas(rng: random.Random, count: int) -> list[Dfa]:
    """Derivative automata, their products and complements, and the loop
    DFAs of random lasso automata, whose unreachable states (loop states
    the switch never enters) are kept."""
    dfas = []
    for _ in range(count):
        d1, d2 = (compile_dfa(random_rexp(rng, "ab", 3), AB) for _ in range(2))
        dfas += [d1, complement(d1), boolean_combine(d1, d2, rng.choice(["and", "or", "diff", "xor"]))]
        aut = random_lauto(rng, 2, rng.randint(1, 5))
        dfas.append(loop_dfa(aut, rng.randrange(aut.n_spoke)))
    return dfas


def first_word(d: Dfa, maxlen: int, accept) -> str | None:
    """Brute force: the first word of length <= maxlen, in length-lex order, satisfying accept."""
    return next((w for w in words_up_to(d.alphabet, maxlen) if accept(w)), None)


class TestWitnessesAgainstBruteForce:
    """A shortest accepted word has fewer letters than the automaton has
    states, and a shortest distinguishing word fewer than the two have
    together, so enumerating up to those lengths finds the least one."""

    def test_is_empty_dfa(self):
        rng = random.Random(61)
        for d in witness_dfas(rng, 60):
            w = first_word(d, d.n_states, partial(run_dfa, d))
            assert is_empty_dfa(d) == (w is None, w)

    def test_equivalent_dfa(self):
        rng = random.Random(67)
        dfas = witness_dfas(rng, 40)
        rng.shuffle(dfas)
        for d1, d2 in zip(dfas[::2], dfas[1::2]):
            w = first_word(d1, d1.n_states + d2.n_states, lambda w: run_dfa(d1, w) != run_dfa(d2, w))
            assert equivalent_dfa(d1, d2) == (w is None, w)


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equivalent_dfa_equals_xor_product_oracle(self, data):
        # the verdict and the witness of one product closure are those of
        # the xor product and its emptiness check; unreachable states,
        # equal and complementary automata are all drawn
        letters = "abc"[: data.draw(st.integers(1, 3))]
        alphabet = Alphabet(tuple(letters))

        def dfa() -> Dfa:
            n = data.draw(st.integers(1, 7))
            state = st.integers(0, n - 1)
            trans = data.draw(st.lists(st.tuples(*[state] * len(letters)), min_size=n, max_size=n))
            return Dfa(alphabet, tuple(trans), data.draw(state), data.draw(st.frozensets(state)))

        d1 = dfa()
        d2 = data.draw(st.sampled_from([dfa(), d1, complement(d1), minimize_dfa(d1)]))
        assert equivalent_dfa(d1, d2) == equivalent_dfa_oracle(d1, d2)


class TestQuotients:
    def test_left_derivative(self):
        d = left_derivative(compile_dfa(parse_rexp("ab*")), "a")
        assert equivalent_dfa(d, compile_dfa(parse_rexp("b*"), AB))[0]

    def test_left_derivative_empty(self):
        assert is_empty_dfa(left_derivative(compile_dfa(ZERO, A), "a"))[0]

    def test_left_derivative_star(self):
        d = compile_dfa(parse_rexp("a*"), A)
        assert equivalent_dfa(left_derivative(d, "a"), d)[0]

    def test_right_quotient(self):
        d = right_quotient(compile_dfa(parse_rexp("ab*")), "b")
        assert lang(d, 6) == ["a", "ab", "abb", "abbb", "abbbb", "abbbbb"]

    def test_right_quotient_single(self):
        d = right_quotient(compile_dfa(parse_rexp("a"), A), "a")
        assert lang(d, 4) == [""]

    def test_right_quotient_empty(self):
        assert is_empty_dfa(right_quotient(compile_dfa(ZERO, A), "a"))[0]

    def test_quotient_laws(self):
        rng = random.Random(23)
        for _ in range(60):
            t = random_rexp(rng, "ab", 3)
            d = compile_dfa(t, AB)
            for a in "ab":
                ld, rq = left_derivative(d, a), right_quotient(d, a)
                for v in words_up_to(AB, 5):
                    assert run_dfa(ld, v) == run_dfa(d, a + v)
                    assert run_dfa(rq, v) == run_dfa(d, v + a)


class TestRoot:
    def test_of_aa(self):
        # brute force: u with u^k = aa for some k <= 4 gives exactly {a, aa}
        d = root(compile_dfa(parse_rexp("aa"), A))
        assert lang(d, 3) == ["a", "aa"]

    def test_of_empty(self):
        assert is_empty_dfa(root(compile_dfa(ZERO, A)))[0]

    def test_odd_blocks_fixed_point(self):
        # odd * odd stays odd, so the root of (aa)*a is itself
        d = compile_dfa(parse_rexp("(aa)*a"), A)
        assert equivalent_dfa(root(d), d)[0]

    def test_never_accepts_empty_word(self):
        rng = random.Random(31)
        for _ in range(60):
            d = compile_dfa(random_rexp(rng, "ab", 3), AB)
            assert not run_dfa(root(d), "")

    def test_oracle_equivalence(self):
        # u in root(L) iff u^k in L for some k between 1 and the state
        # count (exact bound: the orbit of the initial state repeats there)
        rng = random.Random(37)
        checked = 0
        while checked < 200:
            t = random_rexp(rng, "ab", 3)
            d = compile_dfa(t, AB)
            if d.n_states > 6:
                continue
            checked += 1
            r = root(d)
            for u in words_up_to(AB, 4):
                if not u:
                    continue
                expected = any(run_dfa(d, u * k) for k in range(1, d.n_states + 1))
                assert run_dfa(r, u) == expected, (t, u)


class TestConcat:
    def test_a_then_b_star(self):
        d = concat_dfa(compile_dfa(parse_rexp("a"), AB), compile_dfa(parse_rexp("b*"), AB))
        assert lang(d, 3) == ["a", "ab", "abb"]

    def test_empty_factor(self):
        d = concat_dfa(compile_dfa(parse_rexp("a*"), AB), compile_dfa(ZERO, AB))
        assert is_empty_dfa(d)[0]

    def test_unit_factor(self):
        d = compile_dfa(parse_rexp("(ab+b)*a"), AB)
        assert equivalent_dfa(concat_dfa(compile_dfa(ONE, AB), d), d)[0]
        assert equivalent_dfa(concat_dfa(d, compile_dfa(ONE, AB)), d)[0]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_oracle_compiled_concatenation(self, rng):
        x, y = random_rexp(rng, "ab", 3), random_rexp(rng, "ab", 3)
        d = concat_dfa(compile_dfa(x, AB), compile_dfa(y, AB))
        assert equivalent_dfa(d, compile_dfa(rcat(x, y), AB)) == (True, None)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            concat_dfa(compile_dfa(parse_rexp("a"), A), compile_dfa(parse_rexp("a"), AB))


class TestExplore:
    def test_numbering_order(self):
        # starts first with duplicates folded, then successors breadth-first
        index, rows = explore([2, 0, 2], lambda n: [(n + 1) % 3, 2 * n % 3], "test")
        assert list(index.items()) == [(2, 0), (0, 1), (1, 2)]
        assert rows == [(1, 2), (2, 1), (0, 0)]

    def test_cap_counts_starts(self, monkeypatch):
        monkeypatch.setattr(langops, "STATE_CAP", 2)
        with pytest.raises(StateLimitError, match="^test exceeded 2 states$"):
            explore([0, 1, 2], lambda n: [], "test")


# a counts modulo 3, b is ignored
A_MOD_3 = Dfa(AB, ((1, 0), (2, 1), (0, 2)), 0, frozenset({0}))
# b counts modulo 2, a is ignored
B_MOD_2 = Dfa(AB, ((0, 1), (1, 0)), 0, frozenset({0}))
# a rotates the three states and b swaps the first two: a minimal DFA
# whose transformation monoid is the symmetric group on three points
ROTATE_SWAP = Dfa(AB, ((1, 1), (2, 0), (0, 2)), 0, frozenset({0}))


def spoke_only(d: Dfa) -> LassoAutomaton:
    """Lasso automaton with d's transitions as its spoke part and one loop state."""
    return LassoAutomaton(AB, d.trans, tuple((0, 0) for _ in d.trans), ((0, 0),), d.initial, frozenset({0}))


# the calls that must exceed a cap of 4 states, with the construction each names
CAPPED = {
    "compile_dfa": ("derivative closure", partial(compile_dfa, parse_rexp("(a+b)*a(a+b)(a+b)"), AB)),
    "boolean_combine": ("product automaton", partial(boolean_combine, A_MOD_3, B_MOD_2, "and")),
    "concat_dfa": ("concatenation automaton", partial(concat_dfa, A_MOD_3, B_MOD_2)),
    "root": ("transformation closure", partial(root, ROTATE_SWAP)),
    "compile_lasso": ("spoke closure", partial(compile_lasso, parse_lexp("(a+b)*a(a+b)(a+b)(a@)"), AB)),
    "equivalent_lasso": ("spoke product", partial(equivalent_lasso, spoke_only(A_MOD_3), spoke_only(B_MOD_2))),
    "is_empty_dfa": ("emptiness check", partial(is_empty_dfa, compile_dfa(parse_rexp("(a+b)*a(a+b)(a+b)"), AB))),
    # 4 states, so only the certificate's pairs go beyond the patched cap
    "dfa_to_expr": ("certificate product", partial(dfa_to_expr, minimize_dfa(compile_dfa(parse_rexp("(a+b)*a(a+b)"), AB)))),
    # the first of γ's three shared closures, over all of the call's triples
    "gamma_map": ("gamma derivative closure", partial(gamma_map, h_map(parse_oexpr("(ab+b)$", AB)), AB)),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_state_cap(name, monkeypatch):
    what, call = CAPPED[name]
    call()  # within the real cap
    monkeypatch.setattr(langops, "STATE_CAP", 4)
    with pytest.raises(StateLimitError, match=f"^{what} exceeded 4 states$"):
        call()


class TestToExpr:
    def test_round_trip_simple(self):
        d = compile_dfa(parse_rexp("ab*"))
        assert equivalent_dfa(compile_dfa(dfa_to_expr(d), AB), d)[0]

    def test_empty(self):
        assert dfa_to_expr(compile_dfa(ZERO, A)) == ZERO

    def test_round_trip_b_ab_star(self):
        d = compile_dfa(parse_rexp("b(ab)*"))
        e = dfa_to_expr(d)
        assert equivalent_dfa(compile_dfa(e, AB), d)[0]

    def test_round_trip_random(self):
        # the certificate inside dfa_to_expr re-checks every call
        rng = random.Random(41)
        for _ in range(40):
            dfa_to_expr(compile_dfa(random_rexp(rng, "ab", 3), AB))

    def test_output_normalized(self):
        e = dfa_to_expr(compile_dfa(parse_rexp("a+a"), AB))
        assert normalize_b(e) == e

    def test_least_weight_is_eliminated_first(self):
        # 0 -a-> 1, 0 -b-> 0, 1 -a-> 1, 1 -b-> 2, 2 -a-> 1, 2 -b-> 0, from 0
        # into the final 0.  In-degree x out-degree is 4, 2, 2 and picks
        # state 1 (giving (b+(((aa*)b)((aa*)b)*)b)*); the weights
        # Σ|in|·(out-1) + Σ|out|·(in-1) + |loop|·(in·out-1) are 5, 2 and 1
        # and pick state 2, whose one in-edge is copied once and whose
        # out-edges are not copied at all
        d = Dfa(AB, ((1, 0), (1, 2), (1, 0)), 0, frozenset({0}))
        assert minimize_dfa(d) == d
        assert rexp_to_str(dfa_to_expr(d)) == "(b+(a(a+ba)*)bb)*"

    def test_sizes_kept_beside_edges_match_the_term(self):
        # the elimination's own letter counts order it; the term it returns
        # has as many letter occurrences as its printed text has letters
        rng = random.Random(43)
        for _ in range(60):
            e = dfa_to_expr(compile_dfa(random_rexp(rng, "ab", 4), AB))
            assert letter_count(e) == sum(c.isalpha() for c in rexp_to_str(e))


class TestPositionCap:
    def test_cap_is_on_positions(self, monkeypatch):
        # `aba` has 3 positions and passes a cap of 3; `abab` has 4
        monkeypatch.setattr(langops, "POSITION_CAP", 3)
        assert rexp_to_str(dfa_to_expr(compile_dfa(parse_rexp("aba"), AB))) == "(ab)a"
        with pytest.raises(StateLimitError, match="^certificate positions exceeded 3$"):
            dfa_to_expr(compile_dfa(parse_rexp("abab"), AB))

    def test_raised_before_any_mask(self, monkeypatch):
        monkeypatch.setattr(langops, "POSITION_CAP", 3)
        monkeypatch.setattr(langops, "_positions", lambda e, alphabet: pytest.fail("masks built"))
        with pytest.raises(StateLimitError):
            langops._certify(parse_rexp("abab"), compile_dfa(parse_rexp("abab"), AB))


class TestRun:
    def test_accepting(self):
        assert run_dfa(compile_dfa(parse_rexp("ab*")), "abb")

    def test_rejecting_empty(self):
        assert not run_dfa(compile_dfa(parse_rexp("ab*")), "")

    def test_one(self):
        assert run_dfa(compile_dfa(ONE, A), "")

    def test_bad_symbol(self):
        with pytest.raises(AlphabetMismatchError):
            run_dfa(compile_dfa(ONE, A), "c")


class TestMinimize:
    def test_preserves_language(self):
        rng = random.Random(43)
        for _ in range(60):
            t = random_rexp(rng, "ab", 3)
            d = compile_dfa(t, AB)
            m = minimize_dfa(d)
            assert m.n_states <= d.n_states
            assert equivalent_dfa(m, d)[0]

    def test_canonical(self):
        # minimize_dfa is what keeps root's output, and so dfa_to_expr's
        # text, independent of how its input happened to be numbered
        rng = random.Random(53)
        for _ in range(100):
            d = compile_dfa(random_rexp(rng, "ab", 4), AB)
            m = minimize_dfa(d)
            assert minimize_dfa(renumbered(d, rng)) == m
            assert minimize_dfa(m) == m
            assert m.n_states == residual_count(d)

    def test_minimal_output_returned_unchanged(self):
        rng = random.Random(59)
        for _ in range(60):
            d = compile_dfa(random_rexp(rng, "ab", 4), AB)
            m = minimize_dfa(d)
            assert m.minimal and minimize_dfa(m) is m
            assert root(m).minimal
            # the mark is not part of equality, hash or repr
            by_hand = Dfa(m.alphabet, m.trans, m.initial, m.finals)
            assert not by_hand.minimal
            assert (by_hand, hash(by_hand), repr(by_hand)) == (m, hash(m), repr(m))
            assert minimize_dfa(by_hand) == m and minimize_dfa(by_hand) is not by_hand
            # automata derived from a minimal one are minimized again
            for derived in (
                complement(m),
                left_derivative(m, "a"),
                left_derivative(m, "b"),
                dataclasses.replace(m, initial=m.trans[m.initial][0]),
            ):
                assert not derived.minimal
                assert minimize_dfa(derived) == minimize_dfa_oracle(derived)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_quotient_readout_equals_minimize(self, data):
        # a disjoint union of random DFAs, closed from every state at
        # once: each start's class reads out as its own minimal DFA, and
        # two starts share a class exactly when their languages are equal
        letters = "abc"[: data.draw(st.integers(1, 3))]
        alphabet = Alphabet(tuple(letters))
        dfas = []
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(1, 8))
            state = st.integers(0, n - 1)
            trans = data.draw(st.lists(st.tuples(*[state] * len(letters)), min_size=n, max_size=n))
            dfas.append(Dfa(alphabet, tuple(trans), 0, data.draw(st.frozensets(state))))
        starts = [(i, q) for i, d in enumerate(dfas) for q in range(d.n_states)]
        cls, rows, finals = quotient(
            starts,
            lambda iq: [(iq[0], t) for t in dfas[iq[0]].trans[iq[1]]],
            lambda iq: iq[1] in dfas[iq[0]].finals,
            "disjoint union",
        )
        minimal = [minimize_dfa(Dfa(alphabet, dfas[i].trans, q, dfas[i].finals)) for i, q in starts]
        for c, m in zip(cls, minimal):
            read = class_dfa(alphabet, rows, finals, c)
            assert read == m and read.minimal
        for c1, m1 in zip(cls, minimal):
            for c2, m2 in zip(cls, minimal):
                assert (c1 == c2) == (m1 == m2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle(self, data):
        letters = "abc"[: data.draw(st.integers(1, 3))]
        n = data.draw(st.integers(1, 30))
        state = st.integers(0, n - 1)
        trans = data.draw(st.lists(st.tuples(*[state] * len(letters)), min_size=n, max_size=n))
        # random finals, and the all-final and no-final cases, whose
        # first round starts from one class
        finals = data.draw(st.one_of(st.frozensets(state), st.just(frozenset(range(n))), st.just(frozenset())))
        # states not reachable from the initial one are common at these sizes
        d = Dfa(Alphabet(tuple(letters)), tuple(trans), data.draw(state), finals)
        assert minimize_dfa(d) == minimize_dfa_oracle(d)


def certificate(e, d) -> tuple[bool, str | None]:
    """dfa_to_expr's certificate of e for d: (True, None) if it passes,
    else (False, the word its error names)."""
    try:
        langops._certify(e, d)
    except CertificationError as err:
        found = re.fullmatch(r"state elimination produced a wrong expression \(differs on (.*)\)", str(err))
        return False, ast.literal_eval(found.group(1))
    return True, None


def random_dfa(rng: random.Random, n: int) -> Dfa:
    trans = tuple(tuple(rng.randrange(n) for _ in AB) for _ in range(n))
    return Dfa(AB, trans, rng.randrange(n), frozenset(q for q in range(n) if rng.random() < 0.4))


class TestCertificate:
    def test_agrees_with_derivative_oracle(self):
        rng = random.Random(61)
        verdicts = Counter()
        for _ in range(400):
            e = random_rexp(rng, "ab", 3)
            other = compile_dfa(random_rexp(rng, "ab", 3), AB)
            kind = rng.randrange(7)
            if kind == 0:
                d = compile_dfa(e, AB)
            elif kind == 1:
                d = renumbered(minimize_dfa(compile_dfa(e, AB)), rng)
            elif kind == 2:
                d = complement(compile_dfa(e, AB))
            elif kind == 3:
                d = rng.choice([other, complement(other)])
            elif kind == 4:
                d = boolean_combine(compile_dfa(e, AB), other, rng.choice(["and", "or", "diff", "xor"]))
            elif kind == 5:
                d = random_dfa(rng, rng.randint(1, 6))
            else:
                # the expression of a random DFA against that DFA and a perturbed copy
                d = random_dfa(rng, rng.randint(1, 6))
                e = dfa_to_expr(d)
                if rng.random() < 0.5:
                    d = Dfa(AB, d.trans, d.initial, d.finals ^ {rng.randrange(d.n_states)})
            got = certificate(e, d)
            assert got == certify_oracle(e, d), (e, d)
            verdicts[got[0]] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100

    @pytest.mark.parametrize(
        "wrong, witness", [("a(bb)*", "ab"), ("1+ab*", ""), ("ab*+bb", "bb"), ("0", "a"), ("(a+b)b*", "b")]
    )
    def test_wrong_elimination_is_caught(self, monkeypatch, wrong, witness):
        d = compile_dfa(parse_rexp("ab*"), AB)
        term = normalize_b(parse_rexp(wrong))
        assert certify_oracle(term, d) == (False, witness)
        monkeypatch.setattr(langops, "_eliminate", lambda m: term)
        message = f"state elimination produced a wrong expression (differs on {witness!r})"
        with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
            dfa_to_expr(d)


def renumbered(d: Dfa, rng: random.Random) -> Dfa:
    """d with its states shuffled and one unreachable state added."""
    n = d.n_states
    perm = list(range(n + 1))
    rng.shuffle(perm)
    trans = list(d.trans) + [tuple(rng.randrange(n) for _ in d.alphabet)]
    new_trans = [()] * (n + 1)
    for q, row in enumerate(trans):
        new_trans[perm[q]] = tuple(perm[t] for t in row)
    extra_final = {n} if rng.random() < 0.5 else set()
    finals = frozenset(perm[q] for q in d.finals | extra_final)
    return Dfa(d.alphabet, tuple(new_trans), perm[d.initial], finals)


def residual_count(d: Dfa) -> int:
    """Number of distinct residuals {v : uv in L(d)} over words u, compared
    on words v, both of length up to the number of states: brute force."""
    words = list(words_up_to(d.alphabet, d.n_states))

    def run(q: int, w: str) -> int:
        for a in w:
            q = d.step(q, a)
        return q

    reached = {run(d.initial, u) for u in words}
    return len({tuple(run(q, v) in d.finals for v in words) for q in reached})


def test_dot_output_shape():
    out = dfa_to_dot(compile_dfa(parse_rexp("ab*")))
    assert out.startswith("digraph")
    assert "doublecircle" in out
    assert "->" in out
