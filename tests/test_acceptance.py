"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  All expected values are either
worked examples frozen above their tests or recomputed here from
independent oracles (brute-force membership, word comparison, the Buchi
product); nothing is asserted against the code path it checks.
"""

import contextlib
import random
import time
from collections import defaultdict

from helpers import (
    d1_general,
    d2_general,
    df_member,
    gamma_class_upto,
    random_lasso,
    random_lexp,
    random_oexp,
    random_rexp,
    random_rexp_no_ewp,
)
from lassokit import (
    Alphabet,
    Circle,
    DisjunctiveForm,
    LSum,
    LZERO,
    Lasso,
    ONE,
    Prefix,
    ZERO,
    accepts,
    compile_dfa,
    compile_lasso,
    disjunctive_form,
    enumerate_language,
    enumerate_lassos,
    equivalent_lasso,
    ewp,
    expansions,
    extract_expr,
    gamma_equiv,
    gamma_map,
    h_map,
    is_saturated,
    member_lasso_naive,
    member_naive,
    normal_form,
    normalize_b,
    omega_to_omega_automaton,
    parse_lexp,
    parse_oexpr,
    represent,
    root,
    run_dfa,
    split,
    up_equal,
    up_member,
)
from lassokit.ratexp import Concat, Letter, Sum, deriv, words_up_to
from lassokit.syntax import parse_rexp

AB = Alphabet(("a", "b"))
A = Alphabet(("a",))


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [FAIL] {description}")
        raise
    print(f"criterion {number:2d} [PASS] {description}")


def test_criterion_1_fig1_language(fig1):
    with criterion(1, "checked-in first example automaton accepts exactly (a^k, b a^j)"):
        assert accepts(fig1, Lasso("aaa", "baa"))
        mismatches = 0
        for l in enumerate_lassos(AB, 6, 6):
            expected = (
                set(l.spoke) <= {"a"} and l.loop[0] == "b" and set(l.loop[1:]) <= {"a"}
            )
            if accepts(fig1, l) != expected:
                mismatches += 1
        assert mismatches == 0


def test_criterion_2_saturation_decisions(fig1, fig2):
    with criterion(2, "exact saturation: first automaton refuted with witness, second verified"):
        sat, pair = is_saturated(fig1)
        assert not sat
        acc, rej = pair
        assert gamma_equiv(acc, rej)
        assert gamma_equiv(acc, Lasso("", "b"))
        assert accepts(fig1, acc) and not accepts(fig1, rej)

        sat2, _ = is_saturated(fig2)
        assert sat2
        # brute-force cross-check up to |u|,|v| <= 5: no equivalence class
        # may mix accepted and rejected lassos
        buckets = defaultdict(set)
        for l in enumerate_lassos(AB, 5, 5):
            buckets[normal_form(l)].add(accepts(fig2, l))
        assert all(len(marks) == 1 for marks in buckets.values())


def test_criterion_3_spoke_growth_example(fig3):
    with criterion(3, "b(a*b@) membership law and equivalence with the checked-in acceptor"):
        rho = parse_lexp("b(a*b@)")
        for l in enumerate_lassos(AB, 6, 6):
            expected = l.loop == "b" and l.spoke.startswith("b") and set(l.spoke[1:]) <= {"a"}
            assert member_lasso_naive(rho, l) == expected, l
        eq, cex = equivalent_lasso(compile_lasso(rho, AB), fig3)
        assert eq, cex


def test_criterion_4_compiled_state_counts():
    with criterion(4, "compiled acceptor of b(ab)*(ab*)@ has 3+2 states and exact semantics"):
        rho = parse_lexp("b(ab)*(ab*)@")
        aut = compile_lasso(rho)
        assert aut.n_spoke == 3
        assert aut.n_loop == 2
        assert aut.n_spoke + aut.n_loop == 5
        for l in enumerate_lassos(AB, 5, 5):
            assert accepts(aut, l) == member_lasso_naive(rho, l), l


def test_criterion_5_extraction_round_trip():
    with criterion(5, "expression extracted from the compiled acceptor recompiles equivalently"):
        aut = compile_lasso(parse_lexp("b(ab)*(ab*)@"))
        again = compile_lasso(extract_expr(aut), AB)
        eq, cex = equivalent_lasso(again, aut)
        assert eq, cex


def test_criterion_6_split_worked_example():
    with criterion(6, "the eight split pairs of b(a+b*), as sets modulo normalization"):
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


def test_criterion_7_weak_vs_full_representation():
    with criterion(7, "(:aa) separates the weak representation from the full one"):
        T = parse_oexpr("(a+b)*a$")
        weak = parse_lexp("(a+b)*(a@)")
        assert not member_lasso_naive(weak, Lasso("", "aa"))
        assert up_member(T, Lasso("", "aa"), AB)
        assert df_member(represent(T, AB), Lasso("", "aa"))


def test_criterion_8_single_closure_counterexample():
    with criterion(8, "reduction closure of aaa.(a)@ gains one shift and stays open"):
        g = gamma_map(DisjunctiveForm(((parse_rexp("aaa"), Letter("a")),)), A)
        target = LSum(
            Prefix(parse_rexp("aa"), Circle(Letter("a"))),
            Prefix(parse_rexp("aaa"), Circle(Letter("a"))),
        )
        for l in enumerate_lassos(A, 6, 6):
            assert df_member(g, l) == member_lasso_naive(target, l), l
        assert not df_member(g, Lasso("a", "a"))
        assert not df_member(g, Lasso("", "a"))


CORPUS = ["a$", "(ab)$", "a(ba)$", "(a+b)*a$", "(aa)$+b((ab)$)", "b(a+b*)(a$)"]


def test_criterion_9_end_to_end_pipeline():
    with criterion(9, "pipeline output saturated and oracle-exact for the whole corpus"):
        for text in CORPUS:
            started = time.monotonic()
            T = parse_oexpr(text)
            alphabet = AB if "b" in text else A
            aut = omega_to_omega_automaton(T, alphabet)
            sat, _ = is_saturated(aut)
            assert sat, text
            mismatches = sum(
                1
                for l in enumerate_lassos(alphabet, 4, 4)
                if accepts(aut, l) != up_member(T, l, alphabet)
            )
            assert mismatches == 0, text
            elapsed = time.monotonic() - started
            assert elapsed <= 30.0, (text, elapsed)


# --- criterion 10: property suites, each with at least 200 random cases ---


def test_criterion_10a_derivative_decomposition():
    with criterion(10, "words decompose along derivatives (200 random expressions)"):
        rng = random.Random(1001)
        for _ in range(200):
            t = random_rexp(rng, "ab", 3)
            for u in words_up_to(AB, 6):
                if u == "":
                    assert member_naive(t, u) == ewp(t)
                else:
                    assert member_naive(t, u) == member_naive(deriv(t, u[0]), u[1:])


def test_criterion_10b_lasso_derivative_decomposition():
    with criterion(10, "lassos decompose along spoke/switch derivatives (200 random)"):
        rng = random.Random(1002)
        lassos = enumerate_lassos(AB, 3, 3)
        for _ in range(200):
            rho = random_lexp(rng, "ab", 3)
            for a in "ab":
                d1r = d1_general(rho, a)
                d2r = d2_general(rho, a)
                for l in lassos:
                    assert member_lasso_naive(rho, Lasso(a + l.spoke, l.loop)) == member_lasso_naive(d1r, l)
                for w in ["", "a", "b", "ab", "ba", "abb"]:
                    assert member_lasso_naive(rho, Lasso("", a + w)) == member_naive(d2r, w)


def test_criterion_10c_confluence_and_representation():
    with criterion(10, "rewriting is confluent; normal-form equality = word equality (200+200)"):
        rng = random.Random(1003)

        def single_step_reducts(l):
            out = set()
            if l.spoke and l.spoke[-1] == l.loop[-1]:
                out.add(Lasso(l.spoke[:-1], l.loop[-1] + l.loop[:-1]))
            n = len(l.loop)
            for m in range(1, n):
                if n % m == 0 and l.loop[:m] * (n // m) == l.loop:
                    out.add(Lasso(l.spoke, l.loop[:m]))
            return out

        for _ in range(200):
            l = random_lasso(rng, "ab", 4, 4)
            expected = normal_form(l)
            stack, seen = [l], {l}
            while stack:
                cur = stack.pop()
                reducts = single_step_reducts(cur)
                if not reducts:
                    assert cur == expected, (l, cur)
                for r in reducts:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
        for _ in range(200):
            l1 = random_lasso(rng, "ab", 4, 4)
            l2 = random_lasso(rng, "ab", 4, 4)
            assert gamma_equiv(l1, l2) == up_equal(l1, l2)


def test_criterion_10d_splitting_properties():
    with criterion(10, "splits are sound, complete, and transfer (200 random expressions)"):
        rng = random.Random(1004)
        for i in range(200):
            t = random_rexp(rng, "ab", 2)
            pairs = split(t)
            assert len(pairs) < 10_000
            member_words = enumerate_language(t, 5, AB)
            for l, r in pairs:
                for w in enumerate_language(Concat(l, r), 5, AB):
                    assert member_naive(t, w), (t, l, r, w)
            for w in member_words:
                for cut in range(len(w) + 1):
                    u, v = w[:cut], w[cut:]
                    assert any(member_naive(l, u) and member_naive(r, v) for l, r in pairs)
            if i % 5 == 0:  # the quadratic transfer check on a fifth of the cases
                for t0, t1 in pairs:
                    for r0, r1 in split(t1):
                        assert any(
                            all(member_naive(s0, w) for w in enumerate_language(Concat(t0, r0), 5, AB))
                            and all(member_naive(s1, w) for w in enumerate_language(r1, 5, AB))
                            for s0, s1 in pairs
                        ), (t, (t0, t1), (r0, r1))


def test_criterion_10e_algebra_soundness():
    with criterion(10, "lasso algebra laws hold semantically (12 schemas x 50 instances)"):
        rng = random.Random(1005)
        lassos = enumerate_lassos(AB, 3, 3)

        def eq(x, y):
            return all(member_lasso_naive(x, l) == member_lasso_naive(y, l) for l in lassos)

        for _ in range(50):
            t = random_rexp(rng, "ab", 2)
            r = random_rexp(rng, "ab", 2)
            p = random_lexp(rng, "ab", 2)
            q = random_lexp(rng, "ab", 2)
            s = random_lexp(rng, "ab", 2)
            tn = random_rexp_no_ewp(rng, "ab", 2)
            rn = random_rexp_no_ewp(rng, "ab", 2)
            assert eq(Prefix(ONE, p), p)
            assert eq(Prefix(ZERO, p), LZERO)
            assert eq(LSum(p, q), LSum(q, p))
            assert eq(Prefix(Sum(t, r), p), LSum(Prefix(t, p), Prefix(r, p)))
            assert eq(Circle(ZERO), LZERO)
            assert eq(LSum(LSum(p, q), s), LSum(p, LSum(q, s)))
            assert eq(Prefix(t, LSum(p, q)), LSum(Prefix(t, p), Prefix(t, q)))
            assert eq(LSum(LZERO, p), p)
            assert eq(LSum(p, p), p)
            assert eq(Prefix(t, Prefix(r, p)), Prefix(Concat(t, r), p))
            assert eq(Prefix(t, LZERO), LZERO)
            assert eq(Circle(Sum(tn, rn)), LSum(Circle(tn), Circle(rn)))


def test_criterion_10f_root_oracle():
    with criterion(10, "root agrees with the bounded-power oracle (200 random DFAs)"):
        rng = random.Random(1006)
        checked = 0
        while checked < 200:
            t = random_rexp(rng, "ab", 3)
            d = compile_dfa(t, AB)
            if d.n_states > 6:
                continue
            checked += 1
            r = root(d)
            assert not run_dfa(r, "")
            for u in words_up_to(AB, 4):
                if not u:
                    continue
                expected = any(run_dfa(d, u * k) for k in range(1, d.n_states + 1))
                assert run_dfa(r, u) == expected, (t, u)


def test_criterion_10g_h_expansion_closure():
    with criterion(10, "translated omega expressions are expansion closed (200 random)"):
        rng = random.Random(1007)
        lassos = enumerate_lassos(AB, 3, 3)
        for _ in range(200):
            T = random_oexp(rng, "ab", 2)
            h = h_map(T)
            for l in lassos:
                if not df_member(h, l):
                    continue
                for e in expansions(l, 3):
                    if len(e.spoke) <= 8 and len(e.loop) <= 8:
                        assert df_member(h, e), (T, l, e)


def test_criterion_10h_gamma_inclusion_and_image():
    with criterion(10, "reduction closure only grows semantics, same denoted words (200 random)"):
        rng = random.Random(1008)
        lassos = enumerate_lassos(AB, 3, 3)
        for _ in range(200):
            tau = disjunctive_form(random_lexp(rng, "ab", 2))
            g = gamma_map(tau, AB)
            for l in lassos:
                if df_member(tau, l):
                    assert df_member(g, l), (tau, l)
                elif df_member(g, l):
                    cls = gamma_class_upto(l, 9, 9)
                    assert any(df_member(tau, c) for c in cls), (tau, l)
