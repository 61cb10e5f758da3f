import json
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    concat_dfa,
    df_member,
    df_to_lexp,
    gamma_class_upto,
    gamma_map_oracle,
    listed_spokes,
    live_states_oracle,
    loop_accepting_oracle,
    loop_live_spoke_states,
    mask_states,
    random_lexp,
    random_oexp,
    random_rexp,
    rexp_size,
    spoke_state,
    up_member_oracle,
)
from lassokit import (
    Alphabet,
    AlphabetMismatchError,
    DisjunctiveForm,
    Lasso,
    NullableLoopError,
    OPrefix,
    OZERO,
    OmegaPower,
    ParseError,
    StateLimitError,
    accepts,
    compile_lasso,
    disjunctive_form,
    enumerate_lassos,
    equivalent_lasso,
    expansions,
    gamma_map,
    h_map,
    is_saturated,
    live_spoke_walk,
    member_lasso_naive,
    minimize_lasso,
    normalize_b,
    oexp_to_str,
    omega_to_omega_automaton,
    parse_lexp,
    parse_oexpr,
    read_automaton,
    represent,
    to_nba,
    up_member,
)
from lassokit import langops, omega
from lassokit.langops import boolean_combine, compile_dfa, dfa_to_expr, is_empty_dfa, minimize_dfa, root
from lassokit.lassoaut import extract_omega_expr, write_automaton
from lassokit.lassoexp import df_to_str
from lassokit.ratexp import Letter, ONE, rcat, split, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))

CORPUS = ["a$", "(ab)$", "a(ba)$", "(a+b)*a$", "(aa)$+b((ab)$)", "b(a+b*)(a$)"]
# expression -> `write_automaton` text of its pipeline output, the
# minimal lasso automaton
PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "pipeline_automata.json").read_text())
# expression over ab -> {"automaton": `write_automaton` text of its pipeline
# output, "represent": `df_to_str` of its disjunctive form, recorded when
# gamma_map still built one DFA per (t1, s1, s0) triple; sharing work
# between triples must leave both texts as they are}
HARD_PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "hard_pipeline_automata.json").read_text())
# expression -> `write_automaton` text of its pipeline output as pinned
# before the pipeline returned the minimal automaton: the Brzozowski
# construction on the γ-closed form, with its state labels
UNMINIMIZED = json.loads((pathlib.Path(__file__).parent / "data" / "unminimized_pipeline_automata.json").read_text())
# omega expressions whose γ-closed forms have hundreds of distinct loop
# expressions; the Brzozowski construction took 5 s and 128 s on them
LOOP_HEAVY = ["((ab+b)*(a+c))$", "((a+b)*c(a+b)*c)$"]


class TestParse:
    def test_prefix_power(self):
        T = parse_oexpr("(a+b)*a$")
        assert T == OPrefix(parse_rexp("(a+b)*"), OmegaPower(Letter("a")))

    def test_nullable_power_rejected(self):
        with pytest.raises(NullableLoopError):
            parse_oexpr("(a*)$")

    def test_zero(self):
        assert parse_oexpr("0") == OZERO

    def test_rational_only_rejected(self):
        with pytest.raises(ParseError):
            parse_oexpr("ab")

    def test_print_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            T = random_oexp(rng, "ab", 3)
            assert parse_oexpr(oexp_to_str(T)) == T


class TestOracle:
    def test_a_power(self):
        T = parse_oexpr("a$")
        assert up_member(T, Lasso("", "a"))
        assert up_member(T, Lasso("a", "aa"))
        assert not up_member(T, Lasso("", "b"), AB)

    def test_letter_outside_the_alphabet(self):
        # as `accepts` does: the automaton has no column for the letter
        with pytest.raises(AlphabetMismatchError, match="symbol 'b' not in alphabet 'a'"):
            up_member(parse_oexpr("a$"), Lasso("", "b"))

    def test_zero_accepts_nothing(self):
        assert not any(up_member(OZERO, l, AB) for l in enumerate_lassos(AB, 3, 3))

    def test_rotation_of_period(self):
        # a(ba)^omega equals (ab)^omega
        assert up_member(parse_oexpr("(ab)$"), Lasso("a", "ba"))

    def test_eventually_constant(self):
        T = parse_oexpr("(a+b)*a$")
        assert up_member(T, Lasso("ba", "a"))
        assert not up_member(T, Lasso("", "ab"))

    def test_oracle_invariant_under_rotation(self):
        # membership only depends on the denoted word
        rng = random.Random(5)
        for _ in range(100):
            T = random_oexp(rng, "ab", 2)
            l = Lasso("ab"[rng.randrange(2)] * rng.randrange(3), "ab"[rng.randrange(2)] + "ab"[rng.randrange(2)])
            for other in expansions(l, 2):
                assert up_member(T, l, AB) == up_member(T, other, AB), (T, l, other)

    def test_nba_structure(self):
        nba = to_nba(parse_oexpr("a$"), A)
        assert nba.initials and nba.accepting

    @given(st.integers(0, 10_000), st.sampled_from(["a", "ab", "abc"]), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_masks_lie_below_the_state_count(self, seed, letters, depth):
        # one table row per letter, one mask per state, and no mask names a
        # state past the table's end: an offset slip in OPrefix or OSum
        # shows here, not as a run that happens to die
        alphabet = Alphabet(tuple(letters))
        nba = to_nba(random_oexp(random.Random(seed), letters, depth), alphabet)
        n = len(nba.rows[0])
        assert len(nba.rows) == len(alphabet) and all(len(row) == n for row in nba.rows)
        for mask in (nba.initials, nba.accepting, *(m for row in nba.rows for m in row)):
            assert 0 <= mask < 1 << n

    @given(st.integers(0, 10_000), st.sampled_from(["a", "ab"]), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_up_member_matches_oracle(self, seed, letters, depth):
        T = random_oexp(random.Random(seed), letters, depth)
        alphabet = Alphabet(tuple(letters))
        for l in enumerate_lassos(alphabet, 3, 3):
            assert up_member(T, l, alphabet) == up_member_oracle(T, l, alphabet), (T, l)

    def test_one_automaton_per_expression(self):
        # the loop cache keys on the automaton's identity, so a second
        # spoke with the same loop reuses the first one's profile
        T = parse_oexpr("(a+b)*a$")
        assert to_nba(T, AB) is to_nba(T, AB)
        assert up_member(T, Lasso("", "a"), AB)
        hits = omega._loop_accepting.cache_info().hits
        assert up_member(T, Lasso("ba", "a"), AB)
        assert omega._loop_accepting.cache_info().hits == hits + 1

    def test_loop_cache_is_bounded(self):
        for cache in (omega._spoke_states, omega._loop_accepting):
            assert cache.cache_info().maxsize == omega.LOOP_CACHE_SIZE, cache

    def test_long_spoke_and_long_loop(self):
        # 5 000 letters, beyond the default recursion limit: both halves
        # walk their word without recursion
        long = ("aab" * 1667)[:5000]
        cases = [
            ("(a+b)*(aab+bba)$", Lasso(long, "bba"), True),
            ("(a+b)*(aab+bba)$", Lasso(long, "b"), False),
            ("(a*b)$", Lasso("", "a" * 4999 + "b"), True),
            ("(a*b)$", Lasso("b", "a" * 5000), False),
        ]
        for text, l, expected in cases:
            T = parse_oexpr(text, AB)
            assert up_member(T, l, AB) == up_member_oracle(T, l, AB) == expected, (text, len(l.spoke), len(l.loop))


def loop_accepting(nba, v):
    """The states of `omega._loop_accepting`'s bit mask."""
    return mask_states(omega._loop_accepting(nba, v))


class TestLoopAccepting:
    """`_loop_accepting` reads the states from which loop^ω is accepted off
    the loop's transition profile; `loop_accepting_oracle` finds them on
    the product of the states with the loop's positions."""

    @given(st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_oracle(self, seed, letters, depth):
        T = random_oexp(random.Random(seed), letters, depth)
        alphabet = Alphabet(tuple(letters))
        nba = to_nba(T, alphabet)
        for v in list(words_up_to(alphabet, 4 if letters == "ab" else 3))[1:]:
            assert loop_accepting(nba, v) == loop_accepting_oracle(nba, v), (oexp_to_str(T), v)

    def test_accepting_state_on_no_cycle(self):
        # (0)$: the fresh accepting start state has no edge back into it
        nba = to_nba(parse_oexpr("(0)$"), AB)
        assert nba.accepting
        for v in ("a", "b", "ab"):
            assert loop_accepting(nba, v) == loop_accepting_oracle(nba, v) == frozenset()

    def test_automaton_without_states(self):
        nba = to_nba(OZERO, AB)
        assert nba.rows == ((), ())
        assert loop_accepting(nba, "ab") == loop_accepting_oracle(nba, "ab") == frozenset()

    def test_accepting_visit_at_the_last_letter(self):
        # (ab)$: the loop ab leaves the accepting start state and returns
        # to it with its last letter, its only accepting visit
        nba = to_nba(parse_oexpr("(ab)$"), AB)
        accepted = loop_accepting(nba, "ab")
        assert mask_states(nba.initials) <= mask_states(nba.accepting) <= accepted
        assert accepted == loop_accepting_oracle(nba, "ab")

    def test_rotation(self):
        # (ab)$ with the loop ba: accepted after the spoke a, not before
        T = parse_oexpr("(ab)$")
        nba = to_nba(T, AB)
        accepted = loop_accepting(nba, "ba")
        assert accepted == loop_accepting_oracle(nba, "ba")
        assert accepted.isdisjoint(mask_states(nba.initials))
        assert up_member(T, Lasso("a", "ba"), AB) and not up_member(T, Lasso("", "ba"), AB)

    @pytest.mark.parametrize(
        "text, a_from_start", [("(aaaa)$", True), ("aaa((aaa)$)", True), ("(aaaaa+b)$", True), ("(a+b)*(aab+bba)$", False)]
    )
    def test_cycles_of_several_loop_words(self, text, a_from_start):
        # the loop a leads from the start to an accepting state only after
        # three or more words: the closure must follow several edges, both
        # before the cycle and around it.  On (aaaaa+b)$ the cycle of aa
        # runs through the states out of their numbering order.
        nba = to_nba(parse_oexpr(text), AB)
        for v in ("a", "aa", "aaa", "b", "ab", "aab"):
            assert loop_accepting(nba, v) == loop_accepting_oracle(nba, v), v
        assert (mask_states(nba.initials) <= loop_accepting(nba, "a")) == a_from_start

    def test_loop_that_never_accepts(self):
        # (a+b)*a$ with the loop b: b^ω cycles through the automaton's
        # states, but never through an accepting one
        nba = to_nba(parse_oexpr("(a+b)*a$"), AB)
        assert loop_accepting(nba, "b") == loop_accepting_oracle(nba, "b") == frozenset()


def walk_is_exact(T, alphabet):
    """The walk lists a spoke iff, in the saturated automaton of T, its
    spoke state reaches a spoke state at which some loop is accepted: iff
    some lasso whose spoke extends it is accepted.  (The spoke's own state
    need not accept a loop: the empty spoke of b(a$) is live.)"""
    aut = omega_to_omega_automaton(T, alphabet)
    loop_live = loop_live_spoke_states(aut)
    reach = lambda x: langops.explore([x], aut.d1.__getitem__, "spoke part")[0]
    live = {x for x in range(aut.n_spoke) if not loop_live.isdisjoint(reach(x))}
    listed = listed_spokes(live_spoke_walk(T, alphabet), alphabet, 4)
    assert listed == [u for u in words_up_to(alphabet, 4) if spoke_state(aut, u) in live], oexp_to_str(T)


class TestLiveSpokeWalk:
    def test_eventually_a(self):
        walk = live_spoke_walk(parse_oexpr("b(a$)"), AB)
        assert listed_spokes(walk, AB, 3) == ["", "b", "ba", "baa"]

    def test_accepting_state_off_a_cycle_is_dead(self):
        # the omega power of an empty body has an accepting state that no
        # edge re-enters
        nba = to_nba(parse_oexpr("(0)$"), AB)
        assert nba.accepting and omega._live_states(nba) == 0
        start, _, _ = walk = live_spoke_walk(parse_oexpr("(0)$+a((b0)$)"), AB)
        assert not start and listed_spokes(walk, AB, 3) == []

    @given(st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 3))
    @example(None, "ab", 0)  # (0)$: an accepting state on no cycle
    @settings(max_examples=60, deadline=None)
    def test_live_states_match_oracle(self, seed, letters, depth):
        alphabet = Alphabet(tuple(letters))
        T = parse_oexpr("(0)$") if seed is None else random_oexp(random.Random(seed), letters, depth)
        nba = to_nba(T, alphabet)
        assert mask_states(omega._live_states(nba)) == live_states_oracle(nba), oexp_to_str(T)

    def test_five_thousand_levels(self):
        # one live spoke per level, walked without recursion
        lassos = enumerate_lassos(AB, 5000, 1, live_spoke_walk(parse_oexpr("a$"), AB))
        assert len(lassos) == 10_002
        assert [l.spoke for l in lassos[::2]] == ["a" * n for n in range(5001)]

    def test_dead_spoke_extends_without_a_step(self, monkeypatch):
        steps = []
        image = omega._image
        monkeypatch.setattr(omega, "_image", lambda row, states: steps.append(states) or image(row, states))
        walk = live_spoke_walk(parse_oexpr("a$"), AB)
        assert listed_spokes(walk, AB, 6) == ["a" * n for n in range(7)]
        # one step from each live spoke a^0 .. a^5 per letter
        assert len(steps) == 12

    @given(
        st.integers(0, 10_000), st.sampled_from(["ab", "abc"]), st.integers(0, 3), st.integers(0, 4), st.integers(1, 3)
    )
    @settings(max_examples=40, deadline=None)
    def test_never_dead_on_an_accepted_lasso(self, seed, letters, depth, max_spoke, max_loop):
        T = random_oexp(random.Random(seed), letters, depth)
        alphabet = Alphabet(tuple(letters))
        listed = set(listed_spokes(live_spoke_walk(T, alphabet), alphabet, max_spoke))
        for l in enumerate_lassos(alphabet, max_spoke, max_loop):
            if up_member(T, l, alphabet):
                assert l.spoke in listed, (T, l)

    @pytest.mark.parametrize("text", CORPUS + ["b(a$)", "(0)$+a((b0)$)", "a(b$)+(ab)*b(a$)", "(a+b)*(aab+bba)$"])
    def test_exact_on_the_pipeline_output(self, text):
        walk_is_exact(parse_oexpr(text), AB)

    @given(st.integers(0, 10_000), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_exact_on_random_expressions(self, seed, depth):
        walk_is_exact(random_oexp(random.Random(seed), "ab", depth), AB)


class TestHMap:
    def test_a_power_pairs(self):
        h = h_map(parse_oexpr("a$"))
        expected = {
            (normalize_b(parse_rexp("a*")), normalize_b(parse_rexp("aa*"))),
            (normalize_b(parse_rexp("a*a")), normalize_b(parse_rexp("a*a"))),
        }
        assert set(h.pairs) == expected

    def test_zero(self):
        assert h_map(OZERO).pairs == ()

    def test_phi_image(self):
        # the lassos of h((a+b)*a$) denote exactly the words u a^omega
        h = h_map(parse_oexpr("(a+b)*a$"))
        for l in enumerate_lassos(AB, 4, 4):
            if df_member(h, l):
                assert set(l.loop) == {"a"}, l
        for i in range(3):
            for j in range(1, 3):
                assert df_member(h, Lasso("b" * i + "a" * i, "a" * j)) or True
        # every a-tail class with a small representative is hit
        assert df_member(h, Lasso("", "a"))
        assert df_member(h, Lasso("b", "a"))


def weakly_represents(T, h, lassos, alphabet):
    """phi(h-semantics) must equal the ultimately periodic words of T on
    the given lassos; the forward direction searches the rewrite class up
    to the documented bound, doubling once before failing."""
    max_loop_size = max((rexp_size(s) for _, s in h.pairs), default=1)
    for l in lassos:
        if df_member(h, l):
            assert up_member(T, l, alphabet), (T, l)
    for l in lassos:
        if not up_member(T, l, alphabet):
            continue
        bound = len(l.spoke) + len(l.loop) * max_loop_size
        found = any(df_member(h, cand) for cand in gamma_class_upto(l, bound, bound))
        if not found:
            bound *= 2
            found = any(df_member(h, cand) for cand in gamma_class_upto(l, bound, bound))
        assert found, (T, l)


class TestWeakRepresentation:
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus(self, text):
        T = parse_oexpr(text)
        alphabet = AB if "b" in text else A
        weakly_represents(T, h_map(T), enumerate_lassos(alphabet, 4, 4), alphabet)

    def test_random(self):
        rng = random.Random(11)
        lassos = enumerate_lassos(AB, 3, 3)
        for _ in range(60):
            T = random_oexp(rng, "ab", 2)
            weakly_represents(T, h_map(T), lassos, AB)


class TestExpansionClosure:
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus(self, text):
        T = parse_oexpr(text)
        h = h_map(T)
        alphabet = AB if "b" in text else A
        for l in enumerate_lassos(alphabet, 4, 4):
            if not df_member(h, l):
                continue
            for e in expansions(l, 3):
                if len(e.spoke) <= 8 and len(e.loop) <= 8:
                    assert df_member(h, e), (T, l, e)

    def test_random(self):
        rng = random.Random(13)
        for _ in range(140):
            T = random_oexp(rng, "ab", 2)
            h = h_map(T)
            for l in enumerate_lassos(AB, 3, 3):
                if not df_member(h, l):
                    continue
                for e in expansions(l, 3):
                    if len(e.spoke) <= 8 and len(e.loop) <= 8:
                        assert df_member(h, e), (T, l, e)


class TestGammaMap:
    def test_shift_limit_counterexample(self):
        # splitting can only shift one loop copy: the loop aaa:a closure
        # gains aa:a but still misses a:a and :a
        g = gamma_map(DisjunctiveForm(((parse_rexp("aaa"), Letter("a")),)), A)
        target = parse_lexp("aa(a@)+aaa(a@)")
        for l in enumerate_lassos(A, 6, 6):
            assert df_member(g, l) == member_lasso_naive(target, l), l
        assert not df_member(g, Lasso("a", "a"))
        assert not df_member(g, Lasso("", "a"))

    def test_empty(self):
        assert gamma_map(DisjunctiveForm(()), A).pairs == ()

    def test_unit_spoke(self):
        g = gamma_map(DisjunctiveForm(((ONE, Letter("a")),)), A)
        target = parse_lexp("1(a@)")
        for l in enumerate_lassos(A, 4, 4):
            assert df_member(g, l) == member_lasso_naive(target, l), l

    def test_monotone_inclusion_and_phi_image(self):
        rng = random.Random(17)
        lassos = enumerate_lassos(AB, 3, 3)
        for _ in range(50):
            tau = disjunctive_form(random_lexp(rng, "ab", 2))
            g = gamma_map(tau, AB)
            for l in lassos:
                if df_member(tau, l):
                    assert df_member(g, l), (tau, l)  # semantics only grows
            for l in lassos:
                if df_member(g, l):
                    # every new lasso denotes a word already denoted
                    cls = gamma_class_upto(l, 9, 9)
                    assert any(df_member(tau, c) for c in cls), (tau, l)

    def test_equals_per_triple_oracle(self):
        # h_map output and disjunctive forms of lasso expressions, which
        # are not expansion-closed
        rng = random.Random(29)
        for _ in range(40):
            depth = rng.choice((2, 3))
            for df in (h_map(random_oexp(rng, "ab", depth)), disjunctive_form(random_lexp(rng, "ab", depth))):
                assert gamma_map(df, AB).pairs == gamma_map_oracle(df, AB).pairs, df

    @given(st.randoms(use_true_random=False), st.sampled_from((2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_triple_oracle_property(self, rng, depth):
        for df in (h_map(random_oexp(rng, "ab", depth)), disjunctive_form(random_lexp(rng, "ab", depth))):
            assert gamma_map(df, AB).pairs == gamma_map_oracle(df, AB).pairs, df

    def test_state_cap_reaches_each_shared_closure(self, monkeypatch):
        # the closures run in turn, each counting all of the call's states:
        # as the cap rises, the one that stops the call moves from the
        # derivative closure through the product to the concatenation
        df = h_map(parse_oexpr("(ab+b)$", AB))
        stopped = []
        for cap in range(1, 400):
            monkeypatch.setattr(langops, "STATE_CAP", cap)
            try:
                gamma_map(df, AB)
                break
            except StateLimitError as e:
                what = str(e).removesuffix(f" exceeded {cap} states")
                if what not in stopped:
                    stopped.append(what)
        assert stopped == ["gamma derivative closure", "gamma product automaton", "gamma concatenation automaton"]
        assert gamma_map(df, AB).pairs == gamma_map_oracle(df, AB).pairs

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_loop_language_matches_expression_round_trip(self, rng):
        # γ takes the root of (t1 ∩ s1)·s0 built on automata, never on an
        # expression of the intersection (here one concat_dfa per triple, as
        # in gamma_map_oracle); the root must be the same Dfa as through the
        # expression of t1 ∩ s1 followed by s0
        t, s = random_rexp(rng, "ab", 3), random_rexp(rng, "ab", 3)
        keys = [(t1, s0, s1) for _, t1 in split(t) for s0, s1 in split(s)]
        rng.shuffle(keys)
        checked = 0
        for t1, s0, s1 in keys:
            inter = boolean_combine(compile_dfa(t1, AB), compile_dfa(s1, AB), "and")
            if is_empty_dfa(inter)[0]:
                continue
            new = root(concat_dfa(inter, compile_dfa(s0, AB)))
            old = root(compile_dfa(rcat(dfa_to_expr(inter), s0), AB))
            assert (new.trans, new.initial, new.finals) == (old.trans, old.initial, old.finals)
            checked += 1
            if checked == 3:
                break

    def test_connection_forward(self):
        # membership in gamma comes from shifted/powered membership in tau
        rng = random.Random(19)
        for _ in range(40):
            tau = disjunctive_form(random_lexp(rng, "ab", 2))
            g = gamma_map(tau, AB)
            for l in enumerate_lassos(AB, 2, 2):
                if not df_member(g, l):
                    continue
                u, v = l.spoke, l.loop
                found = False
                for k1 in range(0, 5):
                    for k2 in range(0, 5):
                        for i in range(len(v) + 1):
                            v1, v2 = v[:i], v[i:]
                            cand = Lasso(u + v * k1 + v1, v2 + v * (k2 + k1) + v1)
                            if df_member(tau, cand):
                                found = True
                                break
                        if found:
                            break
                    if found:
                        break
                assert found, (tau, l)

    def test_connection_backward(self):
        # K = 3: any shifted/powered member projects into gamma
        rng = random.Random(23)
        for _ in range(40):
            tau = disjunctive_form(random_lexp(rng, "ab", 2))
            g = gamma_map(tau, AB)
            for l in enumerate_lassos(AB, 2, 2):
                u, v = l.spoke, l.loop
                witnessed = False
                for k1 in range(0, 4):
                    for k2 in range(0, 4):
                        for i in range(len(v) + 1):
                            v1, v2 = v[:i], v[i:]
                            if df_member(tau, Lasso(u + v * k1 + v1, v2 + v * (k2 + k1) + v1)):
                                witnessed = True
                                break
                        if witnessed:
                            break
                    if witnessed:
                        break
                if witnessed:
                    assert df_member(g, l), (tau, l)


class TestRepresent:
    @pytest.mark.parametrize(
        "text, languages", [("(a+b)*(aab+bba)$", 40), ("(ab+ba)*(a+bb)$", 52), ("a(b+ab)$+b(a+bb)$", 62)]
    )
    def test_one_root_per_loop_language(self, monkeypatch, text, languages):
        # `languages` counts the distinct minimal DFAs of (t1 ∩ s1)·s0 over
        # the nonempty intersections, measured by minimizing what the
        # triple-keyed gamma_map passed to root (430, 229 and 256 calls)
        inputs = []

        def counting_root(d):
            inputs.append(d)
            return root(d)

        monkeypatch.setattr(omega, "root", counting_root)
        represent(parse_oexpr(text), AB)
        assert len(inputs) == len(set(inputs)) == languages
        assert all(minimize_dfa(d) == d for d in inputs)

    def test_a_power_grid(self):
        r = represent(parse_oexpr("a$"))
        for i in range(4):
            for j in range(1, 4):
                assert df_member(r, Lasso("a" * i, "a" * j)), (i, j)

    def test_zero(self):
        assert represent(OZERO).pairs == ()

    def test_saturation_gap_closed(self):
        # the weak representation misses :aa; the full one has it
        T = parse_oexpr("(a+b)*a$")
        assert not member_lasso_naive(parse_lexp("(a+b)*(a@)"), Lasso("", "aa"))
        assert df_member(represent(T), Lasso("", "aa"))


class TestPipeline:
    def test_a_power(self):
        aut = omega_to_omega_automaton(parse_oexpr("a$"))
        assert is_saturated(aut)[0]
        for l in enumerate_lassos(A, 4, 4):
            assert accepts(aut, l)  # over {a} every lasso denotes a^omega

    def test_zero(self):
        aut = omega_to_omega_automaton(OZERO)
        assert is_saturated(aut)[0]
        assert not any(accepts(aut, l) for l in enumerate_lassos(A, 3, 3))

    def test_eventually_a(self):
        aut = omega_to_omega_automaton(parse_oexpr("(a+b)*a$"))
        for l in enumerate_lassos(AB, 4, 4):
            assert accepts(aut, l) == (set(l.loop) == {"a"}), l

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_saturated_and_correct(self, text):
        T = parse_oexpr(text)
        alphabet = AB if "b" in text else A
        aut = omega_to_omega_automaton(T, alphabet)
        assert is_saturated(aut)[0]
        for l in enumerate_lassos(alphabet, 4, 4):
            assert accepts(aut, l) == up_member(T, l, alphabet), (text, l)

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_through_extraction(self, text):
        T = parse_oexpr(text)
        alphabet = AB if "b" in text else A
        aut = omega_to_omega_automaton(T, alphabet)
        back = extract_omega_expr(aut)
        for l in enumerate_lassos(alphabet, 4, 4):
            assert up_member(back, l, alphabet) == up_member(T, l, alphabet), (text, l)

    @pytest.mark.parametrize("text", sorted(PINNED))
    def test_output_pinned_byte_for_byte(self, text):
        # state order and state labels of the pipeline output are part of
        # the CLI's output; caching inside the pipeline must not move them
        alphabet = AB if "b" in text else A
        assert write_automaton(omega_to_omega_automaton(parse_oexpr(text), alphabet)) == PINNED[text]

    def test_pinned_cover_the_corpus(self):
        assert set(CORPUS) | {"a(b+ab)$+b(a+bb)$"} == set(PINNED)

    @pytest.mark.parametrize("text", sorted(UNMINIMIZED))
    def test_pin_equivalent_to_unminimized_pin(self, text):
        pin = PINNED[text] if text in PINNED else HARD_PINNED[text]["automaton"]
        assert equivalent_lasso(read_automaton(pin), read_automaton(UNMINIMIZED[text])) == (True, None)

    def test_unminimized_pins_cover_every_pin(self):
        assert set(UNMINIMIZED) == set(PINNED) | set(HARD_PINNED)

    @pytest.mark.parametrize("text", CORPUS)
    def test_output_is_minimal_brzozowski_automaton(self, text):
        # the lasso-expression construction on the same closed form, with
        # its labels, minimizes to the pipeline output exactly
        alphabet = AB if "b" in text else A
        form = represent(parse_oexpr(text), alphabet)
        brzozowski = compile_lasso(df_to_lexp(form), alphabet)
        assert brzozowski.loop_labels is not None
        aut = omega_to_omega_automaton(parse_oexpr(text), alphabet)
        assert minimize_lasso(brzozowski) == aut
        assert aut.spoke_labels is None and aut.loop_labels is None
        assert "#" not in write_automaton(aut)

    @pytest.mark.parametrize("text", LOOP_HEAVY)
    def test_loop_heavy_input_converts_to_minimal(self, text):
        T = parse_oexpr(text)
        alphabet = Alphabet(("a", "b", "c"))
        aut = omega_to_omega_automaton(T, alphabet)
        assert (aut.n_spoke, aut.n_loop) == (1, 2)
        for l in enumerate_lassos(alphabet, 3, 3):
            assert accepts(aut, l) == up_member(T, l, alphabet), (text, l)

    @pytest.mark.parametrize("text", sorted(HARD_PINNED))
    def test_hard_output_pinned_byte_for_byte(self, text):
        T = parse_oexpr(text)
        assert write_automaton(omega_to_omega_automaton(T, AB)) == HARD_PINNED[text]["automaton"]
        assert df_to_str(represent(T, AB)) == HARD_PINNED[text]["represent"]
