import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    d1_general,
    d2_general,
    df_member,
    df_to_lexp,
    listed_spokes,
    loop_live_spoke_states,
    random_lexp,
    random_rexp,
    random_rexp_no_ewp,
    spoke_live_naive,
    spoke_state,
)
from lassokit import (
    Alphabet,
    AlphabetMismatchError,
    Circle,
    DisjunctiveForm,
    LSum,
    LZERO,
    Lasso,
    NullableLoopError,
    ONE,
    OPrefix,
    OZERO,
    OmegaPower,
    ParseError,
    Prefix,
    ZERO,
    accepts,
    compile_dfa,
    compile_lasso,
    d1_df,
    d2_df,
    disjunctive_form,
    enumerate_lassos,
    h_map,
    lexp_spoke_walk,
    lexp_to_str,
    member_lasso_naive,
    member_naive,
    minimize_lasso,
    normalize_b,
    parse_lexp,
    parse_oexpr,
    right_quotient,
    to_nba,
)
from lassokit import lassoexp
from lassokit.ratexp import Concat, Letter, Sum, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))
LASSOS_3 = enumerate_lassos(AB, 3, 3)
LASSOS_4 = enumerate_lassos(AB, 4, 4)


def sem_eq(r1, r2, lassos=LASSOS_3):
    return all(member_lasso_naive(r1, l) == member_lasso_naive(r2, l) for l in lassos)


class TestParse:
    def test_nested_prefixes(self):
        rho = parse_lexp("b(a*b@)")
        assert rho == Prefix(Letter("b"), Prefix(parse_rexp("a*"), Circle(Letter("b"))))

    def test_nullable_loop_rejected(self):
        with pytest.raises(NullableLoopError):
            parse_lexp("(ab)*@")

    def test_zero(self):
        assert parse_lexp("0") == LZERO

    def test_rational_only_rejected(self):
        with pytest.raises(ParseError):
            parse_lexp("ab*")

    def test_print_round_trip(self):
        rng = random.Random(4)
        for _ in range(100):
            rho = random_lexp(rng, "ab", 3)
            assert parse_lexp(lexp_to_str(rho)) == rho


class TestMemberNaive:
    def test_spoke_growth(self):
        rho = parse_lexp("b(a*b@)")
        assert member_lasso_naive(rho, Lasso("ba", "b"))
        assert member_lasso_naive(rho, Lasso("baa", "b"))
        assert not member_lasso_naive(rho, Lasso("b", "ab"))

    def test_zero(self):
        assert not any(member_lasso_naive(LZERO, l) for l in LASSOS_3)

    def test_pairs(self):
        rho = parse_lexp("b(ab)*(ab*)@")
        assert member_lasso_naive(rho, Lasso("b", "ab"))
        assert member_lasso_naive(rho, Lasso("bab", "abb"))

    def test_exact_language(self):
        rho = parse_lexp("b(a*b@)")
        for l in LASSOS_4:
            expected = l.loop == "b" and l.spoke.startswith("b") and set(l.spoke[1:]) <= {"a"}
            assert member_lasso_naive(rho, l) == expected, l


class TestSpokeLive:
    def test_circle_takes_only_the_empty_spoke(self):
        rho = parse_lexp("b(a*b@)")
        spokes = ["", "a", "b", "ab", "ba", "bb", "baa", "bab"]
        assert [u for u in spokes if spoke_live_naive(rho, u)] == ["b", "ba", "baa"]

    def test_empty_body_takes_no_spoke(self):
        rho = parse_lexp("(b0)@+a((0)@)")
        assert not spoke_live_naive(rho, "") and not spoke_live_naive(rho, "a")

    def test_zero(self):
        assert not any(spoke_live_naive(LZERO, l.spoke) for l in LASSOS_3)

    @given(
        st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 3), st.integers(0, 4), st.integers(1, 3)
    )
    @settings(max_examples=40, deadline=None)
    def test_never_dead_on_an_accepted_lasso(self, seed, letters, depth, max_spoke, max_loop):
        rho = random_lexp(random.Random(seed), letters, depth)
        for l in enumerate_lassos(Alphabet(tuple(letters)), max_spoke, max_loop):
            if member_lasso_naive(rho, l):
                assert spoke_live_naive(rho, l.spoke), (rho, l)

    @given(st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_the_compiled_automaton(self, seed, letters, depth):
        # live iff the spoke leads to a spoke state at which some loop of
        # any length is accepted
        rho = random_lexp(random.Random(seed), letters, depth)
        alphabet = Alphabet(tuple(letters))
        aut = compile_lasso(rho, alphabet)
        live = loop_live_spoke_states(aut)
        for u in words_up_to(alphabet, 4):
            assert spoke_live_naive(rho, u) == (spoke_state(aut, u) in live), (rho, u)


class TestLexpSpokeWalk:
    """`lexp_spoke_walk`, the spoke walk of `enumerate --lexp`: the walk
    of `omega.live_spoke_walk`, on disjunctive forms stepped by `d1_df`,
    with `spoke_live_naive` as its reference."""

    def test_liveness_is_not_prefix_closed(self):
        rho = parse_lexp("b(a@)")
        assert listed_spokes(lexp_spoke_walk(rho), AB, 2) == ["b"]
        assert not spoke_live_naive(rho, "") and spoke_live_naive(rho, "b")

    @given(st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_listed_spokes_match_the_oracle(self, seed, letters, depth):
        rho = random_lexp(random.Random(seed), letters, depth)
        alphabet = Alphabet(tuple(letters))
        expected = [u for u in words_up_to(alphabet, 4) if spoke_live_naive(rho, u)]
        assert listed_spokes(lexp_spoke_walk(rho), alphabet, 4) == expected, lexp_to_str(rho)

    def test_five_thousand_levels(self):
        # one live spoke per level, walked without recursion, and the dead
        # forms of the spokes that leave a* are never extended
        lassos = enumerate_lassos(AB, 5000, 1, lexp_spoke_walk(parse_lexp("a*(b@)")))
        assert len(lassos) == 10_002
        assert [l.spoke for l in lassos[::2]] == ["a" * n for n in range(5001)]

    def test_dead_spoke_extends_without_a_step(self, monkeypatch):
        steps = []
        d1 = lassoexp.d1_df
        monkeypatch.setattr(lassoexp, "d1_df", lambda df, a: steps.append(df) or d1(df, a))
        walk = lexp_spoke_walk(parse_lexp("a*(b@)"))
        assert listed_spokes(walk, AB, 6) == ["a" * n for n in range(7)]
        # one step from each live spoke a^0 .. a^5 per letter
        assert len(steps) == 12


class TestDisjunctiveForm:
    def test_single_pair(self):
        df = disjunctive_form(parse_lexp("b(a*b@)"))
        assert df.pairs == ((normalize_b(parse_rexp("ba*")), Letter("b")),)

    def test_zero(self):
        assert disjunctive_form(LZERO).pairs == ()

    def test_sum_of_circles(self):
        df = disjunctive_form(parse_lexp("a@+b@"))
        assert df.pairs == ((ONE, Letter("a")), (ONE, Letter("b")))

    def test_semantics_preserved(self):
        rng = random.Random(17)
        for _ in range(60):
            rho = random_lexp(rng, "ab", 3)
            df = disjunctive_form(rho)
            for l in LASSOS_3:
                assert df_member(df, l) == member_lasso_naive(rho, l), (rho, l)

    def test_zero_pairs_dropped(self):
        df = DisjunctiveForm(((ZERO, Letter("a")), (Letter("a"), Letter("b"))))
        assert df.pairs == ((Letter("a"), Letter("b")),)

    def test_back_to_expression(self):
        rng = random.Random(19)
        for _ in range(40):
            rho = random_lexp(rng, "ab", 3)
            assert sem_eq(df_to_lexp(disjunctive_form(rho)), rho)

    def test_nullable_loop_rejected(self):
        with pytest.raises(NullableLoopError):
            DisjunctiveForm(((ONE, parse_rexp("a*")),))


class TestDerivatives:
    def test_d1_general_spoke_step(self):
        rho = parse_lexp("b(ab)*(ab*)@")
        assert d1_general(rho, "b") == parse_lexp("(ab)*(ab*)@")

    def test_d1_general_circle(self):
        assert d1_general(parse_lexp("b@"), "a") == LZERO
        assert d1_general(LZERO, "a") == LZERO

    def test_d1_df(self):
        df = disjunctive_form(parse_lexp("b(ab)*(ab*)@"))
        stepped = d1_df(df, "b")
        assert stepped.pairs == ((normalize_b(parse_rexp("(ab)*")), parse_rexp("ab*")),)
        assert d1_df(df, "a").pairs == ()  # dead spoke
        assert d1_df(DisjunctiveForm(()), "a").pairs == ()

    def test_d2_df(self):
        live = DisjunctiveForm(((normalize_b(parse_rexp("(ab)*")), parse_rexp("ab*")),))
        assert d2_df(live, "a") == parse_rexp("b*")
        df = disjunctive_form(parse_lexp("b(ab)*(ab*)@"))
        assert d2_df(df, "a") == ZERO
        assert d2_df(DisjunctiveForm(()), "a") == ZERO

    def test_d1_general_agrees_with_d1_df(self):
        rng = random.Random(29)
        for _ in range(80):
            rho = random_lexp(rng, "ab", 3)
            df = disjunctive_form(rho)
            for a in "ab":
                left = disjunctive_form(d1_general(rho, a))
                right = d1_df(df, a)
                for l in LASSOS_3:
                    assert df_member(left, l) == df_member(right, l), (rho, a, l)

    def test_membership_decomposes_along_derivatives(self):
        # spoke case: (a·u, v) is a member iff (u, v) is a member of d1;
        # switch case: (eps, a·w) is a member iff w is in the language of d2
        rng = random.Random(31)
        for _ in range(200):
            rho = random_lexp(rng, "ab", 3)
            df = disjunctive_form(rho)
            for a in "ab":
                d1r = d1_general(rho, a)
                d2r = d2_general(rho, a)
                assert d2r == d2_df(df, a)
                for l in LASSOS_3:
                    assert member_lasso_naive(rho, Lasso(a + l.spoke, l.loop)) == member_lasso_naive(d1r, l)
                for w in ["", "a", "b", "ab", "ba", "aab", "bba"]:
                    assert member_lasso_naive(rho, Lasso("", a + w)) == member_naive(d2r, w)


LA_AXIOMS = {
    "unit-prefix": lambda t, r, p, q, s: (Prefix(ONE, p), p),
    "zero-prefix": lambda t, r, p, q, s: (Prefix(ZERO, p), LZERO),
    "sum-comm": lambda t, r, p, q, s: (LSum(p, q), LSum(q, p)),
    "prefix-dist-left": lambda t, r, p, q, s: (
        Prefix(Sum(t, r), p),
        LSum(Prefix(t, p), Prefix(r, p)),
    ),
    "sum-assoc": lambda t, r, p, q, s: (LSum(LSum(p, q), s), LSum(p, LSum(q, s))),
    "prefix-dist-right": lambda t, r, p, q, s: (
        Prefix(t, LSum(p, q)),
        LSum(Prefix(t, p), Prefix(t, q)),
    ),
    "sum-unit": lambda t, r, p, q, s: (LSum(LZERO, p), p),
    "sum-idem": lambda t, r, p, q, s: (LSum(p, p), p),
    "prefix-assoc": lambda t, r, p, q, s: (Prefix(t, Prefix(r, p)), Prefix(Concat(t, r), p)),
    "prefix-zero": lambda t, r, p, q, s: (Prefix(t, LZERO), LZERO),
    "circle-zero": lambda t, r, p, q, s: (Circle(ZERO), LZERO),
}


class TestAlgebraSoundness:
    @pytest.mark.parametrize("name", sorted(LA_AXIOMS))
    def test_axiom(self, name):
        rng = random.Random(hash(name) % (2**32))
        make = LA_AXIOMS[name]
        for _ in range(50):
            t = random_rexp(rng, "ab", 2)
            r = random_rexp(rng, "ab", 2)
            p = random_lexp(rng, "ab", 2)
            q = random_lexp(rng, "ab", 2)
            s = random_lexp(rng, "ab", 2)
            lhs, rhs = make(t, r, p, q, s)
            assert sem_eq(lhs, rhs), (name, lhs, rhs)

    def test_circle_sum_axiom(self):
        # (t+r)@ = t@ + r@ for loops without the empty word
        rng = random.Random(53)
        for _ in range(50):
            t = random_rexp_no_ewp(rng, "ab", 2)
            r = random_rexp_no_ewp(rng, "ab", 2)
            assert sem_eq(Circle(Sum(t, r)), LSum(Circle(t), Circle(r)))


class TestCompile:
    def test_state_counts(self):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        assert aut.n_spoke == 3
        assert aut.n_loop == 2
        assert aut.n_spoke + aut.n_loop == 5

    def test_zero(self):
        aut = compile_lasso(LZERO)
        assert aut.n_spoke == 1 and aut.n_loop == 1
        assert not aut.finals
        assert not any(accepts(aut, l) for l in enumerate_lassos(Alphabet(("a",)), 3, 3))

    def test_spoke_language(self):
        aut = compile_lasso(parse_lexp("b(a*b@)"), AB)
        for l in enumerate_lassos(AB, 5, 5):
            expected = l.loop == "b" and l.spoke.startswith("b") and set(l.spoke[1:]) <= {"a"}
            assert accepts(aut, l) == expected, l

    def test_agreement_random(self):
        rng = random.Random(59)
        for _ in range(60):
            rho = random_lexp(rng, "ab", 3)
            aut = compile_lasso(rho, AB)
            for l in LASSOS_4:
                assert accepts(aut, l) == member_lasso_naive(rho, l), (rho, l)

    def test_disjunctive_form_compiles_to_minimal_automaton(self):
        # the form's minimal construction is the expression's Brzozowski
        # automaton, minimized: equal automata, with no labels
        rng = random.Random(61)
        for _ in range(60):
            rho = random_lexp(rng, "ab", 3)
            aut = compile_lasso(disjunctive_form(rho), AB)
            assert aut == minimize_lasso(compile_lasso(rho, AB)), rho
            assert aut.spoke_labels is None and aut.loop_labels is None

    def test_unreachable_loop_seed_omitted(self):
        # the loop-part start expression ab* is never a switch image
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        assert "ab*" not in aut.loop_labels
        assert set(aut.loop_labels) == {"0", "b*"}


class TestKinds:
    def test_lasso_and_omega_expressions_stay_apart(self):
        # both kinds share one tree; the terminal and the kind's node classes
        # keep them from comparing equal or being read as the other kind
        r = parse_rexp("ab")
        assert Circle(r) != OmegaPower(r)
        assert LZERO != OZERO
        assert Prefix(r, Circle(r)) != OPrefix(r, Circle(r))
        omega = [parse_oexpr("a(b$)+b$"), OmegaPower(r), OZERO]
        member = lambda T: member_lasso_naive(T, Lasso("", "ab"))
        for T in omega:
            for reject in (disjunctive_form, compile_lasso, lexp_spoke_walk, member):
                with pytest.raises(TypeError):
                    reject(T)
        for rho in [parse_lexp("a(b@)+b@"), Circle(r), LZERO]:
            for reject in (h_map, to_nba):
                with pytest.raises(TypeError):
                    reject(rho)

    def test_foreign_symbol_is_an_alphabet_mismatch(self):
        d = compile_dfa(parse_rexp("ab"), AB)
        aut = compile_lasso(parse_lexp("a(b@)"), AB)
        for bad in (lambda: d.step(d.initial, "c"), lambda: accepts(aut, Lasso("c", "a")),
                    lambda: accepts(aut, Lasso("", "ac")), lambda: right_quotient(d, "c")):
            with pytest.raises(AlphabetMismatchError, match="symbol 'c' not in alphabet 'ab'"):
                bad()
