import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_lasso
from lassokit import (
    Alphabet,
    Lasso,
    ParseError,
    enumerate_lassos,
    expansions,
    gamma_equiv,
    normal_form,
    parse_lasso,
    primitive_root,
    reduce_step,
    up_equal,
)
from lassokit.ratexp import words_up_to

AB = Alphabet(("a", "b"))


def all_lassos(max_spoke, max_loop, letters="ab"):
    return enumerate_lassos(Alphabet(tuple(letters)), max_spoke, max_loop)


def single_step_reducts(l: Lasso) -> set[Lasso]:
    """All one-step reducts (rotation, and every loop-power collapse)."""
    out = set()
    if l.spoke and l.spoke[-1] == l.loop[-1]:
        out.add(Lasso(l.spoke[:-1], l.loop[-1] + l.loop[:-1]))
    n = len(l.loop)
    for m in range(1, n):
        if n % m == 0 and l.loop[:m] * (n // m) == l.loop:
            out.add(Lasso(l.spoke, l.loop[:m]))
    return out


class TestLiterals:
    def test_parse(self):
        assert parse_lasso("aaa:baa") == Lasso("aaa", "baa")
        assert parse_lasso(":b") == Lasso("", "b")

    def test_str(self):
        assert str(Lasso("", "ab")) == ":ab"

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_lasso("ab")
        with pytest.raises(ParseError):
            parse_lasso("a:")

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            Lasso("a", "")


class TestReduceStep:
    def test_rotation(self):
        assert reduce_step(Lasso("aba", "baba")) == Lasso("ab", "abab")

    def test_collapse(self):
        assert reduce_step(Lasso("", "abab")) == Lasso("", "ab")

    def test_normal(self):
        assert reduce_step(Lasso("", "ab")) is None

    def test_rotation_has_priority(self):
        assert reduce_step(Lasso("a", "aa")) == Lasso("", "aa")


class TestNormalForm:
    def test_diagram(self):
        assert normal_form(Lasso("aba", "baba")) == Lasso("", "ab")

    def test_spoke_absorbed(self):
        assert normal_form(Lasso("ab", "ab")) == Lasso("", "ab")

    def test_already_normal(self):
        assert normal_form(Lasso("", "a")) == Lasso("", "a")

    def test_characterization(self):
        # normal form: primitive loop, and spoke empty or ending differently
        for l in all_lassos(3, 3):
            nf = normal_form(l)
            assert primitive_root(nf.loop) == nf.loop
            assert not nf.spoke or nf.spoke[-1] != nf.loop[-1]


class TestGammaEquiv:
    def test_rotation_pair(self):
        assert gamma_equiv(Lasso("", "b"), Lasso("b", "b"))

    def test_different_loops(self):
        assert not gamma_equiv(Lasso("", "a"), Lasso("", "b"))

    def test_longer_spoke(self):
        # normal_form(aaa:baa) = a:aab, which differs from :ab
        assert normal_form(Lasso("aaa", "baa")) == Lasso("a", "aab")
        assert not gamma_equiv(Lasso("aaa", "baa"), Lasso("", "ab"))


class TestUpEqual:
    def test_diagram_pair(self):
        assert up_equal(Lasso("aba", "baba"), Lasso("a", "ba"))

    def test_rotated_not_equal(self):
        assert not up_equal(Lasso("", "ab"), Lasso("", "ba"))

    def test_powers_equal(self):
        assert up_equal(Lasso("", "a"), Lasso("", "aa"))


class TestExpansions:
    def test_unit(self):
        assert set(expansions(Lasso("", "ab"), 2)) == {Lasso("a", "ba"), Lasso("", "abab")}

    def test_unfold(self):
        # rotation: loop b = a·v with v empty, so the expansion is (bb, b);
        # power expansions append whole copies of the loop
        assert set(expansions(Lasso("b", "b"), 3)) == {
            Lasso("bb", "b"),
            Lasso("b", "bb"),
            Lasso("b", "bbb"),
        }

    def test_every_expansion_reduces_back(self):
        for l in all_lassos(2, 2):
            for e in expansions(l, 3):
                assert normal_form(e) == normal_form(l)
                # the rotation expansion reduces back in one step
        assert reduce_step(Lasso("bb", "b")) == Lasso("b", "b")

    def test_invariance(self):
        for l in all_lassos(2, 2):
            for e in expansions(l, 3):
                assert gamma_equiv(e, l)


class TestEnumerate:
    def test_singleton(self):
        assert enumerate_lassos(Alphabet(("a",)), 0, 1) == [Lasso("", "a")]

    def test_small_count(self):
        assert len(enumerate_lassos(AB, 1, 1)) == 6

    def test_counts(self):
        assert len(enumerate_lassos(AB, 2, 2)) == 42

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_lassos(AB, 1, 0)
        asked = []
        walk = (("",), lambda state, a: asked.append(a) or (state[0] + a,), lambda state: asked.append(state) or True)
        with pytest.raises(ValueError):
            enumerate_lassos(AB, 1, 0, walk)
        assert asked == []  # raised before any spoke was walked

    @given(
        st.sampled_from(["a", "ab", "abc"]),
        st.integers(0, 4),
        st.integers(1, 3),
        st.sets(st.text("abc", max_size=4)),
    )
    @settings(max_examples=80, deadline=None)
    def test_spoke_test_filters_the_box(self, letters, max_spoke, max_loop, live_spokes):
        # a walk whose state is the spoke in a tuple, truthy at every spoke
        alphabet = Alphabet(tuple(letters))
        asked = []
        live = lambda state: asked.append(state[0]) or state[0] in live_spokes
        walk = (("",), lambda state, a: (state[0] + a,), live)
        lassos = enumerate_lassos(alphabet, max_spoke, max_loop, walk)
        assert lassos == [l for l in enumerate_lassos(alphabet, max_spoke, max_loop) if l.spoke in live_spokes]
        # each spoke asked once, shortest first, in the order spokes are listed
        assert asked == list(words_up_to(alphabet, max_spoke))

    def test_dead_state_is_neither_listed_nor_stepped(self):
        # the falsy state () kills every spoke that holds a b
        stepped = []
        step = lambda state, a: stepped.append(state[0]) or ((state[0] + a,) if a == "a" else ())
        lassos = enumerate_lassos(AB, 3, 1, (("",), step, lambda state: True))
        assert [l.spoke for l in lassos[::2]] == ["", "a", "aa", "aaa"]
        assert stepped == ["", "", "a", "a", "aa", "aa"]


class TestConfluence:
    def test_all_reduction_orders_reach_same_normal_form(self):
        # exhaustive over |spoke| + |loop| <= 8: follow every single-step
        # reduction order and compare endpoints
        for total in range(1, 9):
            for spoke_len in range(0, total):
                loop_len = total - spoke_len
                if loop_len < 1:
                    continue
                for spoke in map("".join, product("ab", repeat=spoke_len)):
                    for loop in map("".join, product("ab", repeat=loop_len)):
                        l = Lasso(spoke, loop)
                        expected = normal_form(l)
                        stack = [l]
                        seen = {l}
                        while stack:
                            cur = stack.pop()
                            reducts = single_step_reducts(cur)
                            if not reducts:
                                assert cur == expected, (l, cur, expected)
                            for r in reducts:
                                if r not in seen:
                                    seen.add(r)
                                    stack.append(r)


class TestEquivalenceMatchesWordOracle:
    def test_exhaustive_small(self):
        lassos = all_lassos(3, 3)
        for l1 in lassos:
            for l2 in lassos:
                assert gamma_equiv(l1, l2) == up_equal(l1, l2), (l1, l2)

    def test_random_at_bound_four(self):
        rng = random.Random(99)
        for _ in range(300):
            l1 = random_lasso(rng, "ab", 4, 4)
            l2 = random_lasso(rng, "ab", 4, 4)
            assert gamma_equiv(l1, l2) == up_equal(l1, l2), (l1, l2)
            # and on a reshuffle of l1 that denotes the same word
            k = rng.randint(1, 2)
            l3 = Lasso(l1.spoke + l1.loop[0], (l1.loop[1:] + l1.loop[0]) * k)
            assert gamma_equiv(l1, l3) and up_equal(l1, l3)


class TestPrimitiveRoot:
    def test_basic(self):
        assert primitive_root("abab") == "ab"
        assert primitive_root("aaa") == "a"
        assert primitive_root("aab") == "aab"
        assert primitive_root("ababa") == "ababa"
