import dataclasses
import functools
import json
import pathlib
import random
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import is_saturated_oracle, random_lauto, random_rexp, random_rexp_no_ewp, spoke_access_words
from lassokit import lassoaut
from lassokit import (
    Alphabet,
    AutomatonFormatError,
    CertificationError,
    Lasso,
    LassoAutomaton,
    accepts,
    boolean_combine,
    compile_dfa,
    compile_lasso,
    enumerate_lassos,
    equivalent_dfa,
    equivalent_lasso,
    extract_expr,
    extract_omega_expr,
    gamma_equiv,
    is_empty_dfa,
    is_saturated,
    lasso_to_dot,
    loop_dfa,
    member_lasso_naive,
    minimize_dfa,
    minimize_lasso,
    parse_lexp,
    parse_oexpr,
    read_automaton,
    run_dfa,
    spoke_lang_dfa,
    up_member,
    write_automaton,
)
from lassokit.langops import Dfa, explore
from lassokit.lassoexp import LSum, LZERO, Prefix
from lassokit.lassos import up_equal
from lassokit.omega import OPrefix, OSum, OZERO, OmegaPower, oexp_to_str, omega_to_omega_automaton
from lassokit.ratexp import ONE, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))
PIPELINE = json.loads((pathlib.Path(__file__).parent / "data" / "pipeline_automata.json").read_text())


class TestAccepts:
    def test_example_run(self, fig1):
        assert accepts(fig1, Lasso("aaa", "baa"))

    def test_rotated_rejected(self, fig1):
        assert not accepts(fig1, Lasso("b", "b"))

    def test_saturated_language(self, fig2):
        assert accepts(fig2, Lasso("ab", "aa"))

    def test_fig1_exact_language(self, fig1):
        for l in enumerate_lassos(AB, 4, 4):
            expected = set(l.spoke) <= {"a"} and l.loop[0] == "b" and set(l.loop[1:]) <= {"a"}
            assert accepts(fig1, l) == expected, l


class TestLoopDfa:
    def test_live_spoke(self, fig1):
        d = loop_dfa(fig1, 0)
        got = [w for w in words_up_to(AB, 5) if run_dfa(d, w)]
        assert got == ["b", "ba", "baa", "baaa", "baaaa"]

    def test_dead_spoke(self, fig1):
        assert is_empty_dfa(loop_dfa(fig1, 1))[0]

    def test_rejects_empty_word(self, fig1, fig2):
        for aut in (fig1, fig2):
            for x in range(aut.n_spoke):
                assert not run_dfa(loop_dfa(aut, x), "")


class TestSpokeLangDfa:
    def test_initial_cycle(self):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        d = spoke_lang_dfa(aut, 0)
        assert equivalent_dfa(d, compile_dfa(parse_rexp("(ba)*"), AB))[0]

    def test_after_b(self):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        live = aut.spoke_labels.index("(ab)*.(ab*)@")
        d = spoke_lang_dfa(aut, live)
        assert equivalent_dfa(d, compile_dfa(parse_rexp("b(ab)*"), AB))[0]

    def test_contains_empty_word_at_initial(self, fig1):
        assert run_dfa(spoke_lang_dfa(fig1, fig1.initial), "")


class TestExtract:
    def test_round_trip(self):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        again = compile_lasso(extract_expr(aut), AB)
        eq, cex = equivalent_lasso(again, aut)
        assert eq, cex

    def test_no_finals_gives_zero(self, fig1):
        dead = LassoAutomaton(fig1.alphabet, fig1.d1, fig1.d2, fig1.d3, fig1.initial, frozenset())
        assert not any(
            member_lasso_naive(extract_expr(dead), l) for l in enumerate_lassos(AB, 3, 3)
        )

    def test_fig1_language(self, fig1):
        expr = extract_expr(fig1)
        for l in enumerate_lassos(AB, 5, 5):
            assert member_lasso_naive(expr, l) == accepts(fig1, l), l

    def test_fig3_language(self, fig3):
        expr = extract_expr(fig3)
        rho = parse_lexp("b(a*b@)")
        for l in enumerate_lassos(AB, 4, 4):
            assert member_lasso_naive(expr, l) == member_lasso_naive(rho, l), l


class TestExtractSummands:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_one_summand_per_live_spoke_state(self, rng):
        # Σ_x S_x·(P_x)@ over the spoke states x of the minimal automaton
        # with P_x nonempty, in its state order (access-word order); a
        # summand whose S_x is {ε} is a bare circle
        aut = random_lauto(rng, rng.randint(1, 4), rng.randint(1, 6))
        m = minimize_lasso(aut)
        expr = rest = extract_expr(aut)
        summands = []
        while isinstance(rest, LSum):
            summands.append(rest.left)
            rest = rest.right
        if rest != LZERO:
            summands.append(rest)
        live = [x for x in range(m.n_spoke) if not is_empty_dfa(loop_dfa(m, x))[0]]
        assert len(summands) == len(live), (aut, summands)
        for term, x in zip(summands, live):
            head, circle = (term.head, term.tail) if isinstance(term, Prefix) else (ONE, term)
            assert equivalent_dfa(compile_dfa(head, AB), spoke_lang_dfa(m, x))[0], (aut, x)
            assert equivalent_dfa(compile_dfa(circle.body, AB), loop_dfa(m, x))[0], (aut, x)
        assert equivalent_lasso(compile_lasso(expr, AB), aut) == (True, None), aut

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_text_depends_only_on_the_language(self, rng):
        # both extractors read the minimal automaton, so an automaton and
        # its minimal automaton extract to the same expression
        aut = random_lauto(rng, rng.randint(1, 4), rng.randint(1, 6))
        m = minimize_lasso(aut)
        assert extract_expr(aut) == extract_expr(m), aut
        if is_saturated(aut)[0]:
            assert extract_omega_expr(aut) == extract_omega_expr(m), aut


def switch_dfa(aut: LassoAutomaton, x: int, y: int) -> Dfa:
    """The loop words that switch from spoke state x into loop state y."""
    return Dfa(aut.alphabet, aut.d3 + aut.d2, aut.n_loop + x, frozenset({y}))


def loop_lang_oracle(aut: LassoAutomaton, x: int) -> list[Dfa]:
    """The per-pair construction `lassoaut._loop_lang` replaced: one loop
    language per final loop state y, kept if nonempty; P_x is their union."""
    langs = [d for y in sorted(aut.finals) if not is_empty_dfa(d := switch_dfa(aut, x, y))[0]]
    return [functools.reduce(lambda d1, d2: boolean_combine(d1, d2, "or"), langs)] if langs else []


def omega_loop_langs_oracle(aut: LassoAutomaton, x: int) -> list[Dfa]:
    """The per-pair construction `lassoaut._omega_loop_langs` replaced: two
    products and one emptiness search per final loop state y."""
    langs = []
    for y in sorted(aut.finals):
        spoke_return = Dfa(aut.alphabet, aut.d1, x, frozenset({x}))
        loop_return = Dfa(aut.alphabet, aut.d3, y, frozenset({y}))
        d = boolean_combine(boolean_combine(spoke_return, switch_dfa(aut, x, y), "and"), loop_return, "and")
        if not is_empty_dfa(d)[0]:
            langs.append(d)
    return langs


@pytest.mark.parametrize(
    "langs, oracle",
    [(lassoaut._loop_lang, loop_lang_oracle), (lassoaut._omega_loop_langs, omega_loop_langs_oracle)],
)
def test_loop_langs_equal_per_pair_oracle(langs, oracle):
    # the same languages, in the same order
    rng = random.Random(71)
    saturated = 0
    for _ in range(150):
        aut = random_lauto(rng, rng.randint(1, 4), rng.randint(1, 6))
        saturated += is_saturated(aut)[0]
        for x in spoke_access_words(aut):
            new, old = langs(aut, x), oracle(aut, x)
            assert list(map(minimize_dfa, new)) == list(map(minimize_dfa, old)), (aut, x)
    assert 30 <= saturated <= 120


def test_nullable_loop_language_is_certification_error(fig1, monkeypatch):
    # a loop expression with the empty word fails the self-check, also
    # under `python -O`
    monkeypatch.setattr(lassoaut, "_loop_lang", lambda aut, x: [compile_dfa(parse_rexp("1+a"), AB)])
    with pytest.raises(CertificationError, match="^loop language contained the empty word$"):
        extract_expr(fig1)


class TestExtractOmega:
    def test_fig2_expression(self, fig2):
        oe = extract_omega_expr(fig2)
        target = parse_oexpr("(a+b)*a$")
        for l in enumerate_lassos(AB, 4, 4):
            assert up_member(oe, l, AB) == up_member(target, l, AB), l

    def test_empty_saturated(self, fig2):
        dead = LassoAutomaton(fig2.alphabet, fig2.d1, fig2.d2, fig2.d3, fig2.initial, frozenset())
        assert is_saturated(dead)[0]
        assert extract_omega_expr(dead) == OZERO

    def test_pipeline_round_trip(self):
        T = parse_oexpr("a$")
        aut = omega_to_omega_automaton(T)
        oe = extract_omega_expr(aut)
        for l in enumerate_lassos(Alphabet(("a",)), 4, 4):
            assert up_member(oe, l) == up_member(T, l), l

    def test_unsaturated_rejected(self, fig1):
        with pytest.raises(ValueError, match="not saturated"):
            extract_omega_expr(fig1)

    def test_minimizes_once(self, fig2, monkeypatch):
        # the saturation check and the sum read the one minimal automaton
        calls = []
        minimize = lassoaut.minimize_lasso
        expected = extract_omega_expr(fig2)
        monkeypatch.setattr(lassoaut, "minimize_lasso", lambda aut: calls.append(aut) or minimize(aut))
        assert extract_omega_expr(fig2) == expected
        assert calls == [fig2]

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_one_spoke_factor_per_spoke_state(self, seed, pipeline):
        # random lasso automata, and pipeline outputs of t·(r1$ + r2$), about
        # one in eight of which has a spoke state with two omega-power bodies
        rng = random.Random(seed)
        if pipeline:
            body = lambda: OmegaPower(random_rexp_no_ewp(rng, "ab", 2))
            aut = omega_to_omega_automaton(OPrefix(random_rexp(rng, "ab", 2), OSum(body(), body())), AB)
        else:
            aut = random_lauto(rng, rng.randint(1, 4), rng.randint(1, 6))
            assume(is_saturated(aut)[0])
        one_spoke_factor_per_spoke_state(aut)

    @pytest.mark.parametrize("text", sorted(PIPELINE))
    def test_one_spoke_factor_on_pinned_pipeline_automata(self, text):
        one_spoke_factor_per_spoke_state(read_automaton(PIPELINE[text]))

    def test_two_bodies_share_one_spoke_factor(self):
        # the pinned automaton of a(b+ab)$+b(a+bb)$ has spoke states with
        # two omega-power bodies each, and writes each spoke factor once
        m = read_automaton(PIPELINE["a(b+ab)$+b(a+bb)$"])
        assert [len(lassoaut._omega_loop_langs(m, x)) for x in range(m.n_spoke)] == [0, 2, 2, 1, 2, 0]
        expr, factors = extract_omega_expr(m), 1
        while isinstance(expr, OSum):
            expr, factors = expr.right, factors + 1
        assert factors == 4 and oexp_to_str(extract_omega_expr(m)).count("$") == 7


def one_spoke_factor_per_spoke_state(aut: LassoAutomaton) -> None:
    """Σ_x S_x·(P_{x,y1}$ + P_{x,y2}$ + …) over the spoke states x of the
    minimal automaton with nonempty omega-power bodies, in state order:
    each S_x written once, each body once, and only S_0 may be {ε}.  The
    text parses back to the same tree and agrees with the automaton on
    the (4, 4) box."""
    m = minimize_lasso(aut)
    expr = rest = extract_omega_expr(aut)
    bodies = {x: lassoaut._omega_loop_langs(m, x) for x in range(m.n_spoke)}
    live = [x for x in range(m.n_spoke) if bodies[x]]
    terms = []
    while len(terms) < len(live) - 1:
        terms.append(rest.left)
        rest = rest.right
    terms.append(rest)
    if not live:
        assert expr == OZERO
    for term, x in zip(terms, live):
        head, powers = (term.head, term.tail) if isinstance(term, OPrefix) else (ONE, term)
        assert x == 0 or head != ONE, (aut, x)
        assert equivalent_dfa(compile_dfa(head, m.alphabet), spoke_lang_dfa(m, x))[0], (aut, x)
        loops = []
        while isinstance(powers, OSum):
            loops.append(powers.left)
            powers = powers.right
        loops.append(powers)
        assert all(isinstance(power, OmegaPower) for power in loops), (aut, x)
        assert [minimize_dfa(compile_dfa(power.body, m.alphabet)) for power in loops] == list(map(minimize_dfa, bodies[x]))
    assert parse_oexpr(oexp_to_str(expr), m.alphabet) == expr
    for l in enumerate_lassos(m.alphabet, 4, 4):
        assert up_member(expr, l, m.alphabet) == accepts(aut, l), (aut, l)


class TestEquivalentLasso:
    def test_reflexive(self, fig1):
        assert equivalent_lasso(fig1, fig1) == (True, None)

    def test_compile_round_trip(self):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        again = compile_lasso(extract_expr(aut), AB)
        assert equivalent_lasso(aut, again)[0]

    def test_counterexample(self, fig1, fig2):
        eq, cex = equivalent_lasso(fig1, fig2)
        assert not eq
        assert accepts(fig1, cex) != accepts(fig2, cex)

    def test_counterexample_minimal(self, fig1, fig2):
        _, cex = equivalent_lasso(fig1, fig2)
        size = len(cex.spoke) + len(cex.loop)
        for l in enumerate_lassos(AB, size, size):
            if len(l.spoke) + len(l.loop) < size:
                assert accepts(fig1, l) == accepts(fig2, l), l

    def test_counterexample_minimal_random(self):
        rng = random.Random(61)
        for _ in range(40):
            a1, a2 = random_lauto(rng), random_lauto(rng)
            eq, cex = equivalent_lasso(a1, a2)
            if eq:
                for l in enumerate_lassos(AB, 4, 4):
                    assert accepts(a1, l) == accepts(a2, l), l
            else:
                assert accepts(a1, cex) != accepts(a2, cex)
                size = len(cex.spoke) + len(cex.loop)
                if size >= 2:
                    for l in enumerate_lassos(AB, size - 1, size - 1):
                        if len(l.spoke) + len(l.loop) < size:
                            assert accepts(a1, l) == accepts(a2, l), (cex, l)


def brute_force_saturation_violations(aut, bound=5):
    """All pairs of equivalent lassos (within the bound) accepted differently."""
    buckets = defaultdict(list)
    for l in enumerate_lassos(aut.alphabet, bound, bound):
        buckets[str(__import__("lassokit").normal_form(l))].append(l)
    violations = []
    for group in buckets.values():
        marks = {accepts(aut, l) for l in group}
        if len(marks) > 1:
            violations.append(group)
    return violations


class TestSaturation:
    def test_fig1_not_saturated(self, fig1):
        sat, pair = is_saturated(fig1)
        assert not sat
        assert pair == (Lasso("", "b"), Lasso("b", "b"))

    def test_fig1_pair_valid(self, fig1):
        _, (acc, rej) = is_saturated(fig1)
        assert gamma_equiv(acc, rej)
        assert accepts(fig1, acc) and not accepts(fig1, rej)

    def test_fig2_saturated(self, fig2):
        assert is_saturated(fig2)[0]

    def test_fig2_brute_force_agrees(self, fig2):
        assert brute_force_saturation_violations(fig2, 5) == []

    def test_fig1_brute_force_agrees(self, fig1):
        assert brute_force_saturation_violations(fig1, 5) != []

    def test_fig3_not_saturated(self, fig3):
        # a lasso-language acceptor need not be saturated: (ba, b) is
        # accepted but its rotation (bab, b) is not
        sat, (acc, rej) = is_saturated(fig3)
        assert not sat
        assert gamma_equiv(acc, rej)
        assert accepts(fig3, acc) and not accepts(fig3, rej)

    def test_pipeline_output_saturated(self):
        aut = omega_to_omega_automaton(parse_oexpr("a$"))
        assert is_saturated(aut)[0]

    def test_cross_check_random(self):
        # exact decision vs bounded brute force: the exact "no" pair must be
        # a real violation; an exact "yes" admits no bounded violation
        rng = random.Random(67)
        for _ in range(30):
            aut = random_lauto(rng)
            sat, pair = is_saturated(aut)
            if sat:
                assert brute_force_saturation_violations(aut, 4) == []
            else:
                acc, rej = pair
                assert gamma_equiv(acc, rej)
                assert accepts(aut, acc) and not accepts(aut, rej)

    @given(st.randoms(use_true_random=False), st.sampled_from([("ab", 6), ("abc", 5)]))
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle(self, rng, letters_and_max_loop):
        # With n loop states a root explores at most |letters| * (n^n + 1) + 1
        # transformations (a word's first letter and the rest's action on the
        # loop states decide its action), under the state cap at these sizes;
        # a capped oracle would fail the test, not skip it.
        letters, max_loop = letters_and_max_loop
        aut = random_lauto(rng, rng.randint(1, 4), rng.randint(1, max_loop), letters)
        assert is_saturated(aut) == is_saturated_oracle(aut, bounded=False)

    @given(st.randoms(use_true_random=False), st.sampled_from(["ab", "abc"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_unminimized_scan(self, rng, letters):
        # the scan on the minimal automaton and the scan on the automaton
        # as given return the same verdict and the same pair
        aut = random_lauto(rng, rng.randint(1, 6), rng.randint(1, 9), letters)
        assert is_saturated(aut) == is_saturated_oracle(aut)

    # unreachable spoke state 0 switches into b(a+b)*, which fails the
    # rotation check; the reachable part accepts every lasso
    UNREACHABLE = LassoAutomaton(
        AB, d1=((0, 0), (1, 1)), d2=((1, 0), (0, 0)), d3=((0, 0), (1, 1)), initial=1, finals=frozenset({0})
    )
    # spoke states 4 (access word a) and 3 (b) are equivalent; the least
    # pair is a rotation pair at 4, and 3 has one of the same size
    SAME_LENGTH = LassoAutomaton(
        AB,
        d1=((4, 3), (0, 5), (0, 1), (1, 0), (1, 0), (3, 4)),
        d2=((0, 1), (2, 2), (2, 0), (1, 0), (1, 0), (2, 1)),
        d3=((0, 0), (1, 1), (2, 1)),
        initial=0,
        finals=frozenset({0, 1}),
    )
    # spoke state 5 (access word b) merges into the class of 0 (a); its
    # rotation pair (b:a, ba:a) ties the least pair, found at the initial
    # state 1 first in scan order
    MERGED_TIE = LassoAutomaton(
        AB,
        d1=((4, 5), (0, 5), (3, 5), (5, 2), (0, 4), (4, 5)),
        d2=((0, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1)),
        d3=((0, 1), (0, 1)),
        initial=1,
        finals=frozenset({0}),
    )

    # three pairs of size 7 tie: rotation pairs at the spoke states
    # reached by b and by aa, and a power pair at ba; breadth-first order
    # scans b first, a depth-first order would scan aa first
    BREADTH_FIRST = LassoAutomaton(
        AB,
        d1=((4, 4), (2, 3), (4, 4), (5, 4), (2, 5), (5, 0)),
        d2=((2, 1), (3, 3), (2, 3), (2, 2), (0, 0), (3, 1)),
        d3=((0, 0), (1, 2), (2, 2), (3, 3)),
        initial=1,
        finals=frozenset({1}),
    )

    @pytest.mark.parametrize(
        "aut, n_spoke, expected",
        [
            (UNREACHABLE, 1, (True, None)),
            (SAME_LENGTH, 4, (False, (Lasso("a", "a"), Lasso("aa", "a")))),
            (MERGED_TIE, 3, (False, (Lasso("a", "ba"), Lasso("", "ab")))),
            (BREADTH_FIRST, 6, (False, (Lasso("ba", "ba"), Lasso("b", "ab")))),
        ],
        ids=["unreachable", "same_length", "merged_tie", "breadth_first"],
    )
    def test_merged_states_keep_the_pair(self, aut, n_spoke, expected):
        assert minimize_lasso(aut).n_spoke == n_spoke
        assert is_saturated(aut) == is_saturated_oracle(aut) == expected

    def test_unreachable_state_would_fail(self):
        # started from the unreachable state, the automaton is not saturated
        assert not is_saturated(dataclasses.replace(self.UNREACHABLE, initial=0))[0]

    def test_orbit_pair_ties_rotation_pair(self):
        # the power pair (a:b, a:bb) at the second spoke state in scan order
        # has size 5, as has the smallest rotation pair (bb:b, b:b) at the
        # third: the bounded search must reach the tie, which scan order wins
        aut = LassoAutomaton(
            AB,
            d1=((0, 1), (3, 1), (0, 1), (2, 0)),
            d2=((0, 7), (5, 3), (0, 3), (2, 6)),
            d3=((4, 2), (0, 5), (4, 7), (2, 2), (1, 7), (5, 3), (2, 2), (4, 4)),
            initial=3,
            finals=frozenset({3, 5}),
        )
        expected = (False, (Lasso("a", "b"), Lasso("a", "bb")))
        assert is_saturated(aut) == is_saturated_oracle(aut, bounded=False) == expected

    def test_rotation_failure_builds_no_root(self, monkeypatch):
        # automata the size of the benchmark's check-only items; on 8 of
        # these 10 the roots exceed the state cap.  A rotation failure bounds
        # the answer, so the check must answer without building a root.
        def no_root(d):
            raise AssertionError("root built")

        monkeypatch.setattr(lassoaut, "root", no_root)
        rng = random.Random(73)
        for _ in range(10):
            aut = random_lauto(rng, rng.randint(2, 4), rng.randint(20, 24))
            sat, pair = is_saturated(aut)
            assert not sat
            acc, rej = pair
            assert accepts(aut, acc) and not accepts(aut, rej)
            assert gamma_equiv(acc, rej) and up_equal(acc, rej)


def _random_lauto(rng: random.Random) -> LassoAutomaton:
    return random_lauto(rng, rng.randint(1, 4), rng.randint(1, 5), rng.choice(["ab", "abc"]))


def _permuted(aut: LassoAutomaton, rng: random.Random) -> LassoAutomaton:
    """The same automaton with its spoke and loop states renumbered at random."""
    spoke = rng.sample(range(aut.n_spoke), aut.n_spoke)  # old state x becomes spoke[x]
    loop = rng.sample(range(aut.n_loop), aut.n_loop)
    d1, d2, d3 = [None] * aut.n_spoke, [None] * aut.n_spoke, [None] * aut.n_loop
    for x in range(aut.n_spoke):
        d1[spoke[x]] = tuple(spoke[t] for t in aut.d1[x])
        d2[spoke[x]] = tuple(loop[t] for t in aut.d2[x])
    for y in range(aut.n_loop):
        d3[loop[y]] = tuple(loop[t] for t in aut.d3[y])
    finals = frozenset(loop[y] for y in aut.finals)
    return LassoAutomaton(aut.alphabet, tuple(d1), tuple(d2), tuple(d3), spoke[aut.initial], finals)


class TestMinimizeLasso:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_same_language(self, rng):
        aut = _random_lauto(rng)
        assert equivalent_lasso(minimize_lasso(aut), aut) == (True, None)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_every_state_reachable(self, rng):
        m = minimize_lasso(_random_lauto(rng))
        spokes, _ = explore([m.initial], m.d1.__getitem__, "spoke part")
        loops, _ = explore([y for row in m.d2 for y in row], m.d3.__getitem__, "loop part")
        assert len(spokes) == m.n_spoke and len(loops) == m.n_loop

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_no_two_states_equivalent(self, rng):
        m = minimize_lasso(_random_lauto(rng))
        for y in range(m.n_loop):
            for y2 in range(y):
                loop_lang = Dfa(m.alphabet, m.d3, y, m.finals)
                assert not equivalent_dfa(loop_lang, Dfa(m.alphabet, m.d3, y2, m.finals))[0], (m, y, y2)
        for x in range(m.n_spoke):
            for x2 in range(x):
                from_x = dataclasses.replace(m, initial=x)
                assert not equivalent_lasso(from_x, dataclasses.replace(m, initial=x2))[0], (m, x, x2)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_canonical_numbering(self, rng):
        aut = _random_lauto(rng)
        m = minimize_lasso(aut)
        assert minimize_lasso(_permuted(aut, rng)) == m
        assert minimize_lasso(m) == m

    def test_fig1_dead_loop_states_merge(self, fig1):
        # y3 (reached by b from x1) and y4 never reach the final y2
        m = minimize_lasso(fig1)
        assert (m.n_spoke, m.n_loop) == (2, 2)
        assert m.spoke_labels is None and m.loop_labels is None
        assert equivalent_lasso(m, fig1) == (True, None)


class TestFileFormat:
    def test_round_trip_fig1(self, fig1):
        assert read_automaton(write_automaton(fig1)) == fig1

    def test_write_is_normal_form(self, fig1):
        text = write_automaton(fig1)
        assert write_automaton(read_automaton(text)) == text

    def test_round_trip_random(self):
        rng = random.Random(71)
        for _ in range(30):
            aut = random_lauto(rng)
            assert read_automaton(write_automaton(aut)) == aut

    def test_missing_row_names_state_and_symbol(self, fig1):
        text = "\n".join(
            line for line in write_automaton(fig1).splitlines() if line != "d3: y2 a y2"
        )
        with pytest.raises(AutomatonFormatError, match=r"missing d3 row for \(y2, a\)"):
            read_automaton(text)

    def test_duplicate_row_line_number(self, fig1):
        text = write_automaton(fig1) + "d1: x0 a x0\n"
        with pytest.raises(AutomatonFormatError, match="duplicate d1 row"):
            read_automaton(text)

    def test_overlapping_names(self):
        text = "alphabet: a\nspoke: s\nloop: s\ninitial: s\nfinal: s\nd1: s a s\nd2: s a s\nd3: s a s\n"
        with pytest.raises(AutomatonFormatError, match="both spoke and loop"):
            read_automaton(text)

    def test_unknown_symbol_has_line_number(self, fig2):
        text = write_automaton(fig2) + "d1: x0 c x0\n"
        with pytest.raises(AutomatonFormatError, match="line .*unknown symbol 'c'"):
            read_automaton(text)

    def test_initial_must_be_spoke(self):
        text = "alphabet: a\nspoke: x\nloop: y\ninitial: y\nfinal: y\nd1: x a x\nd2: x a y\nd3: y a y\n"
        with pytest.raises(AutomatonFormatError, match="not a spoke state"):
            read_automaton(text)

    def test_comments_ignored(self, fig2):
        text = "# heading\n" + write_automaton(fig2).replace("d1: x0 a x0", "d1: x0 a x0  # self loop")
        assert read_automaton(text) == fig2


class TestDot:
    def test_edge_styles(self, fig1):
        out = lasso_to_dot(fig1)
        assert "style=solid" in out
        assert "style=dotted" in out
        assert "style=dashed" in out
        assert "doublecircle" in out
