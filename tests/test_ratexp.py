import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import deriv_raw_oracle, ewp_oracle, letter_count_oracle, normal_form_oracle, random_rexp
from lassokit import (
    Alphabet,
    Concat,
    Letter,
    ONE,
    ParseError,
    Star,
    Sum,
    ZERO,
    deriv,
    enumerate_language,
    ewp,
    infer_alphabet,
    member_naive,
    normalize_b,
    rexp_to_str,
    split,
    word_deriv,
)
from lassokit import ratexp
from lassokit.ratexp import One, RatExpr, Zero, letter_count, structural_key, walk_words, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))


class TestParse:
    def test_concat_star(self):
        assert parse_rexp("b(ab)*") == Concat(Letter("b"), Star(Concat(Letter("a"), Letter("b"))))

    def test_constants(self):
        assert parse_rexp("0+1") == Sum(ZERO, ONE)

    def test_postfix_stacks(self):
        assert parse_rexp("a**") == Star(Star(Letter("a")))

    def test_explicit_dot(self):
        assert parse_rexp("a.b") == parse_rexp("ab")

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_rexp("a(")
        assert exc.value.pos == 2

    def test_letter_outside_alphabet(self):
        with pytest.raises(ParseError, match="outside alphabet"):
            parse_rexp("abc", AB)

    def test_circle_rejected(self):
        with pytest.raises(ParseError):
            parse_rexp("a@")

    def test_precedence(self):
        # postfix > concat > sum
        assert parse_rexp("ab*+b") == Sum(Concat(Letter("a"), Star(Letter("b"))), Letter("b"))


class TestEwp:
    def test_one(self):
        assert ewp(ONE)

    def test_star_vs_prefixed(self):
        assert ewp(parse_rexp("(ab)*"))
        assert not ewp(parse_rexp("b(ab)*"))

    def test_zero(self):
        assert not ewp(ZERO)


class TestDeriv:
    def test_prefixed_star(self):
        assert deriv(parse_rexp("b(ab)*"), "b") == normalize_b(parse_rexp("(ab)*"))

    def test_letter_star(self):
        assert deriv(parse_rexp("ab*"), "a") == parse_rexp("b*")

    def test_zero(self):
        assert deriv(ZERO, "a") == ZERO

    def test_word_deriv_cycle(self):
        t = normalize_b(parse_rexp("b(ab)*"))
        assert word_deriv(t, "ba") == t

    def test_word_deriv_empty(self):
        t = normalize_b(parse_rexp("a+b*"))
        assert word_deriv(t, "") == t

    def test_word_deriv_dead(self):
        assert word_deriv(Letter("a"), "ab") == ZERO

    def test_word_deriv_matches_member(self):
        # residual language of the derivative is the suffix language
        rng = random.Random(7)
        t = parse_rexp("b(ab)*")
        d = word_deriv(t, "ba")
        for _ in range(20):
            suffix = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
            assert member_naive(d, suffix) == member_naive(t, "ba" + suffix)


class TestMemberNaive:
    def test_basic(self):
        assert member_naive(parse_rexp("ba*"), "baa")
        assert member_naive(parse_rexp("b(ab)*"), "bab")
        assert not member_naive(parse_rexp("(ab)*"), "aba")

    def test_empty_word(self):
        assert member_naive(ONE, "")
        assert not member_naive(ZERO, "")

    def test_long_words_under_a_star(self):
        # a star searches its factorizations without recursing per factor,
        # beyond the default recursion limit, and backtracks where a
        # shorter factor leads nowhere
        assert member_naive(parse_rexp("a*"), "a" * 5000)
        assert not member_naive(parse_rexp("a*"), "a" * 5000 + "b")
        assert member_naive(parse_rexp("(a+b)*"), "ab" * 2500)
        assert member_naive(parse_rexp("(aa+aaa)*"), "a" * 3001)
        assert not member_naive(parse_rexp("(aa+aaa)*"), "a")
        assert member_naive(parse_rexp("(ab+aba)*b"), "aba" + "ab" * 200 + "b")
        assert not member_naive(parse_rexp("(ab+aba)*"), "aba" + "ab" * 200 + "b")


class TestNormalize:
    def test_left_unit(self):
        assert normalize_b(parse_rexp("1(ab)*")) == normalize_b(parse_rexp("(ab)*"))

    def test_sum_aci(self):
        assert normalize_b(parse_rexp("(a+b)+a")) == normalize_b(parse_rexp("a+b"))

    def test_zero_absorption(self):
        assert normalize_b(parse_rexp("0x+y")) == Letter("y")

    def test_right_unit_and_zero(self):
        assert normalize_b(parse_rexp("a1")) == Letter("a")
        assert normalize_b(parse_rexp("a0")) == ZERO

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_idempotent_and_language_preserving(self, seed):
        rng = random.Random(seed)
        t = random_rexp(rng, "ab", 3)
        n = normalize_b(t)
        assert normalize_b(n) == n
        for u in words_up_to(AB, 4):
            assert member_naive(t, u) == member_naive(n, u)


class TestSplit:
    def test_worked_example(self):
        # the eight factorization pairs of b(a+b*), modulo normalization
        got = {(l, r) for l, r in split(parse_rexp("b(a+b*)"))}
        raw = [
            ("1", "b(a+b*)"),
            ("b", "1(a+b*)"),
            ("b1", "a"),
            ("ba", "1"),
            ("bb*1", "bb*"),
            ("bb*b", "1b*"),
            ("b1", "1"),
            ("bb*b", "1"),
        ]
        expected = {(normalize_b(parse_rexp(l)), normalize_b(parse_rexp(r))) for l, r in raw}
        assert got == expected
        assert len(got) == 8

    def test_zero(self):
        assert split(ZERO) == []

    def test_letter(self):
        assert {(l, r) for l, r in split(Letter("a"))} == {(ONE, Letter("a")), (Letter("a"), ONE)}

    def test_pairs_normalized(self):
        for l, r in split(parse_rexp("(a+b)*a*")):
            assert normalize_b(l) == l and normalize_b(r) == r


class TestAlphabet:
    def test_letter_index_is_not_part_of_identity(self):
        # Alphabet keys the to_nba cache: its letter index must not change
        # equality, hashing, printing or pickling
        ab = Alphabet.parse("ab")
        assert ab == AB and hash(ab) == hash(AB) and {ab: 1}[AB] == 1
        assert repr(ab) == "Alphabet(letters=('a', 'b'))"
        assert pickle.loads(pickle.dumps(ab)) == ab and copy.deepcopy(ab).index("b") == 1
        assert [ab.index(c) for c in "ab"] == [0, 1] and "b" in ab and "c" not in ab

    def test_inferred_alphabet_is_sorted_letters_else_a(self):
        assert infer_alphabet(parse_rexp("b(c+a)*")) == Alphabet.parse("abc")
        assert infer_alphabet(parse_rexp("1+0"), ONE) == infer_alphabet() == Alphabet.parse("a")


class TestEnumerate:
    def test_star(self):
        assert enumerate_language(parse_rexp("(ab)*"), 4) == ["", "ab", "abab"]

    def test_zero(self):
        assert enumerate_language(ZERO, 5, AB) == []

    def test_letter_star(self):
        assert enumerate_language(parse_rexp("a*"), 2) == ["", "a", "aa"]

    @pytest.mark.parametrize("text", ["0", "1", "0*", "1*", "(a*)*", "(a*b*)*", "((ab)*a+b*)*b", "(1+a(b+c)*)*", "c*a"])
    @pytest.mark.parametrize("letters", ["a", "ab", "ba", "abc"])
    def test_matches_member_naive(self, text, letters):
        t, alphabet = parse_rexp(text), Alphabet(tuple(letters))
        for n in range(-1, 8):
            assert enumerate_language(t, n, alphabet) == [u for u in words_up_to(alphabet, n) if member_naive(t, u)]

    @given(st.integers(0, 10_000), st.sampled_from(["a", "b", "ab", "ba", "abc", "cab"]), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_random_matches_member_naive(self, seed, letters, n):
        # the expression's letters may lie outside the alphabet
        t = random_rexp(random.Random(seed), "abc", 4)
        alphabet = Alphabet(tuple(letters))
        assert enumerate_language(t, n, alphabet) == [u for u in words_up_to(alphabet, n) if member_naive(t, u)]

    @pytest.mark.parametrize(
        "text, maxlen, kept, steps",
        [
            # "", a, ab: no other word is a prefix of ab
            ("ab", 60, 3, 6),
            # the words that start with a, and "": 2^8 of the 2^9 - 1
            ("a(a+b)*", 8, 256, 256),
            # the one word lies beyond the bound: nothing is walked
            ("aaaaaaaaaa", 9, 0, 0),
            # c is outside the alphabet and matches nothing: nothing is walked
            ("ac", 5, 0, 0),
            # 2^17 derivatives, none of them built: no word is within 3 letters
            ("(a+b)*a" + "(a+b)" * 16, 3, 0, 0),
        ],
    )
    def test_work_follows_the_kept_words(self, monkeypatch, text, maxlen, kept, steps):
        # at most |alphabet| steps per kept word shorter than maxlen
        walks = []
        walk = ratexp.walk_words

        def counted(letters, max_len, start, step, alive):
            walked, stepped = [], []
            walks.append((walked, stepped))
            for u, q in walk(letters, max_len, start, lambda q, a: stepped.append(a) or step(q, a), alive):
                walked.append(u)
                yield u, q

        monkeypatch.setattr(ratexp, "walk_words", counted)
        t = parse_rexp(text)
        words = enumerate_language(t, maxlen, AB)
        [(walked, stepped)] = walks
        assert (len(walked), len(stepped)) == (kept, steps)
        assert len(stepped) <= len(AB) * sum(len(u) < maxlen for u in walked)
        assert set(words) <= set(walked)
        assert all(member_naive(t, u) for u in words)


class TestWalkWords:
    def test_everything_alive_is_words_up_to(self):
        for letters in ("a", "ab", "ba", "abc"):
            pairs = list(walk_words(letters, 4, "", lambda u, a: u + a, lambda u, left: True))
            assert [u for u, _ in pairs] == list(words_up_to(Alphabet(tuple(letters)), 4))
            # a word's state is one step from its prefix's state
            assert all(u == state for u, state in pairs)

    def test_bounds(self):
        no_step = lambda u, a: pytest.fail("stepped")
        assert list(walk_words("ab", 0, 7, no_step, lambda q, left: True)) == [("", 7)]
        assert list(walk_words("ab", -1, 7, no_step, lambda q, left: pytest.fail("asked"))) == []
        assert list(walk_words("ab", 9, 7, no_step, lambda q, left: False)) == []

    def test_letters_left(self):
        # alive gets the letters that may still follow: here it keeps the
        # prefixes of abab that can still reach it
        seen = []
        alive = lambda u, left: seen.append((u, left)) or ("abab".startswith(u) and len(u) + left >= 4)
        step = lambda u, a: u + a
        assert [u for u, _ in walk_words("ab", 6, "", step, alive)] == ["", "a", "ab", "aba", "abab"]
        assert seen[:3] == [("", 6), ("a", 5), ("b", 5)]
        seen.clear()
        assert list(walk_words("ab", 3, "", step, alive)) == [] and seen == [("", 3)]


class TestPrinter:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_parse_print_round_trip(self, seed):
        t = random_rexp(random.Random(seed), "ab", 4)
        assert parse_rexp(rexp_to_str(t)) == t


def _rewrite_variant(rng, t):
    """Apply a random language-preserving rewrite of the sum/unit laws
    somewhere in t (used to probe congruence compatibility)."""
    ops = [
        lambda x: Concat(ONE, x),
        lambda x: Sum(x, x),
        lambda x: Sum(ZERO, x),
        lambda x: Sum(x, ZERO),
        lambda x: x.left if isinstance(x, Sum) and x.left == x.right else Sum(x.right, x.left) if isinstance(x, Sum) else x,
        lambda x: x.right if isinstance(x, Concat) and x.left == ONE else x,
        lambda x: ZERO if isinstance(x, Concat) and x.left == ZERO else x,
    ]

    def at_random_position(t, depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(ops)(t)
        match t:
            case Concat(l, r):
                return Concat(at_random_position(l, depth - 1), r) if rng.random() < 0.5 else Concat(l, at_random_position(r, depth - 1))
            case Sum(l, r):
                return Sum(at_random_position(l, depth - 1), r) if rng.random() < 0.5 else Sum(l, at_random_position(r, depth - 1))
            case Star(x):
                return Star(at_random_position(x, depth - 1))
            case _:
                return rng.choice(ops)(t)

    return at_random_position(t, 3)


class TestProperties:
    def test_membership_decomposes_along_derivatives(self):
        # membership decomposes along first symbols: u in L(t) iff
        # (u empty and ewp) or (u = a u' and u' in L(deriv(t, a)))
        rng = random.Random(101)
        for _ in range(200):
            t = random_rexp(rng, "ab", 3)
            for u in words_up_to(AB, 6):
                if u == "":
                    assert member_naive(t, u) == ewp(t)
                else:
                    assert member_naive(t, u) == member_naive(deriv(t, u[0]), u[1:])

    def test_congruence_compatible_with_deriv_and_ewp(self):
        rng = random.Random(202)
        for _ in range(200):
            t = random_rexp(rng, "ab", 3)
            t2 = t
            for _ in range(rng.randint(1, 3)):
                t2 = _rewrite_variant(rng, t2)
            assert ewp(t) == ewp(t2)
            for a in "ab":
                assert normalize_b(deriv(t, a)) == normalize_b(deriv(t2, a))

    @given(st.randoms(use_true_random=False), st.sampled_from("ab"))
    @settings(max_examples=300, deadline=None)
    def test_deriv_is_normalized_raw_derivative(self, rng, a):
        # deriv builds its result in normal form; the textbook derivative
        # term, normalized afterwards, must come out the same
        t = random_rexp(rng, "ab", rng.randint(1, 5))
        d = deriv(t, a)
        assert d == normalize_b(deriv_raw_oracle(t, a))
        assert normalize_b(d) is d

    def test_derivative_closure_finite(self):
        # compile_dfa enforces the hard state cap; it must terminate
        from lassokit import compile_dfa

        rng = random.Random(303)
        for _ in range(60):
            t = random_rexp(rng, "ab", 4)
            compile_dfa(t, AB)

    def test_split_soundness(self):
        # every pair's concatenation stays inside the language
        rng = random.Random(404)
        for _ in range(60):
            t = random_rexp(rng, "ab", 3)
            pairs = split(t)
            assert len(pairs) < 10_000
            for l, r in pairs:
                for w in enumerate_language(Concat(l, r), 6, AB):
                    assert member_naive(t, w), (t, l, r, w)

    def test_split_completeness(self):
        # every two-way factorization of a member word is witnessed
        rng = random.Random(505)
        for _ in range(60):
            t = random_rexp(rng, "ab", 3)
            pairs = split(t)
            for w in enumerate_language(t, 6, AB):
                for i in range(len(w) + 1):
                    u, v = w[:i], w[i:]
                    assert any(
                        member_naive(l, u) and member_naive(r, v) for l, r in pairs
                    ), (t, w, i)

    def test_split_transfer(self):
        # resplitting the right component is covered by a single split
        rng = random.Random(606)
        for _ in range(40):
            t = random_rexp(rng, "ab", 2)
            pairs = split(t)
            for t0, t1 in pairs:
                for r0, r1 in split(t1):
                    found = False
                    for s0, s1 in pairs:
                        left_ok = all(
                            member_naive(s0, w)
                            for w in enumerate_language(Concat(t0, r0), 6, AB)
                        )
                        right_ok = all(member_naive(s1, w) for w in enumerate_language(r1, 6, AB))
                        if left_ok and right_ok:
                            found = True
                            break
                    assert found, (t, (t0, t1), (r0, r1))

    def test_structural_key_total_order(self):
        rng = random.Random(707)
        terms = [random_rexp(rng, "ab", 3) for _ in range(50)]
        keys = [structural_key(t) for t in terms]
        assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable without error
        for t, k in zip(terms, keys):
            assert structural_key(t) == k


# Terms built by the constructors, in a Hypothesis-chosen order.
terms = st.recursive(
    st.one_of(st.builds(Zero), st.builds(One), st.builds(Letter, st.sampled_from("ab"))),
    lambda kids: st.one_of(st.builds(Concat, kids, kids), st.builds(Sum, kids, kids), st.builds(Star, kids)),
    max_leaves=16,
)


def reparsed(t):
    """t built again from its printed text, by the parser."""
    return parse_rexp(rexp_to_str(t))


def subterms(t):
    """Subterms of t in post-order (children before their parent)."""
    out = []

    def go(x):
        for name in x.__match_args__:
            child = getattr(x, name)
            if isinstance(child, RatExpr):
                go(child)
        out.append(x)

    go(t)
    return out


class TestInterning:
    """Equal terms are one object, however they are built or copied."""

    @given(terms)
    @settings(max_examples=150, deadline=None)
    def test_parsing_printed_text_twice_gives_one_object(self, t):
        text = rexp_to_str(t)
        assert parse_rexp(text) is parse_rexp(text) is t

    @given(terms)
    @settings(max_examples=150, deadline=None)
    def test_copies_are_the_term_itself(self, t):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_constants_are_interned(self):
        assert Zero() is ZERO
        assert One() is ONE
        assert Letter("a") is Letter("a") is not Letter("b")
        assert Star(Letter("a")) is parse_rexp("a*")

    def test_deep_chain_hashes_and_compares_without_recursion(self):
        # the first hash and `==` of a term used to recurse on its depth
        def chain(n):
            t = ONE
            for _ in range(n):
                t = Concat(Letter("a"), t)
            return t

        deep = chain(100_000)
        again = chain(100_000)
        assert deep is again and deep == again and hash(deep) == hash(again)
        assert deep != Concat(Letter("b"), again.right)
        assert len({deep, again, deep.right}) == 2


class TestTermCaches:
    """Normal forms, sort keys, ewp and letter counts are cached on the
    terms; the cached values must agree with uncached reference functions
    and never travel."""

    @given(terms, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_memoized_normal_form_matches_fresh_copy(self, t, rng):
        # warm the caches of some subterms first, in a random order
        parts = subterms(t)
        rng.shuffle(parts)
        for x in parts[: len(parts) // 2]:
            normalize_b(x)
        nf = normalize_b(t)
        assert normalize_b(t) is nf
        assert nf is normal_form_oracle(t)
        assert normalize_b(nf) is nf
        assert normal_form_oracle(nf) is nf
        assert reparsed(t) is t and reparsed(nf) is nf

    @given(terms, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equal_terms_hash_equal_whatever_order_built(self, t, rng):
        bottom_up, shuffled = reparsed(t), reparsed(t)
        for x in subterms(bottom_up):
            hash(x)
        parts = subterms(shuffled)
        rng.shuffle(parts)
        for x in parts:
            structural_key(x)
            hash(x)
        assert bottom_up is shuffled is t
        assert hash(bottom_up) == hash(shuffled) == hash(t)
        assert structural_key(bottom_up) == structural_key(shuffled) == structural_key(t)

    def test_constructor_is_part_of_identity(self):
        x, y = Letter("a"), Letter("b")
        assert Sum(x, y) != Concat(x, y)
        assert hash(Sum(x, y)) != hash(Concat(x, y))
        assert ZERO != ONE
        assert hash(ZERO) != hash(ONE)

    @given(terms)
    @settings(max_examples=150, deadline=None)
    def test_cached_ewp_matches_fresh_copies(self, t):
        cached = ewp(t)
        assert cached is ewp_oracle(t)
        assert ewp(t) is cached
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)), reparsed(t)):
            assert clone is t

    @given(terms)
    @settings(max_examples=150, deadline=None)
    def test_cached_letter_count_matches_fresh_copies(self, t):
        # the letters of the printed text, a shared subterm counted each time
        count = letter_count(t)
        assert count == letter_count_oracle(t)
        assert letter_count(t) == count
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)), reparsed(t)):
            assert clone is t
        assert letter_count(Concat(t, t)) == letter_count(Sum(t, Star(t))) == 2 * count

    @given(terms)
    @settings(max_examples=150, deadline=None)
    def test_pickle_and_deepcopy_carry_no_cached_values(self, t):
        before = pickle.dumps(t)
        normalize_b(t)
        structural_key(t)
        ewp(t)
        letter_count(t)
        table = {t: "entry"}
        assert pickle.dumps(t) == before
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert clone == t
            assert hash(clone) == hash(reparsed(t)) == hash(t)
            assert table[clone] == "entry"
            assert normalize_b(clone) == normalize_b(t)
            assert repr(clone) == repr(t)
