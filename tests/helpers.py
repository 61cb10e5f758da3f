"""Shared generators and oracles for the test suite.

Random generators take an explicit `random.Random` so every suite runs
on a fixed seed with an exact case count.
"""

from __future__ import annotations

import random

from lassokit.lassoaut import LassoAutomaton
from lassokit.lassoexp import Circle, LSum, LZERO, LassoExpr, Prefix
from lassokit.lassos import Lasso, expansions, normal_form
from lassokit.omega import OPrefix, OSum, OZERO, OmegaExpr, OmegaPower
from lassokit.ratexp import (
    Alphabet,
    Concat,
    Letter,
    ONE,
    One,
    RatExpr,
    Star,
    Sum,
    ZERO,
    Zero,
    ewp,
)


def random_rexp(rng: random.Random, letters: str = "ab", depth: int = 3) -> RatExpr:
    if depth <= 0:
        return rng.choice(
            [ZERO, ONE] + [Letter(c) for c in letters] + [Letter(c) for c in letters]
        )
    kind = rng.choices(
        ["letter", "concat", "sum", "star", "one", "zero"],
        weights=[4, 4, 4, 2, 1, 1],
    )[0]
    if kind == "letter":
        return Letter(rng.choice(letters))
    if kind == "one":
        return ONE
    if kind == "zero":
        return ZERO
    if kind == "star":
        return Star(random_rexp(rng, letters, depth - 1))
    left = random_rexp(rng, letters, depth - 1)
    right = random_rexp(rng, letters, depth - 1)
    return Concat(left, right) if kind == "concat" else Sum(left, right)


def deriv_raw_oracle(t: RatExpr, a: str) -> RatExpr:
    """Textbook Brzozowski derivative as a raw, unnormalized term.

    `ratexp.deriv` builds its result in normal form instead; the two must
    agree after `normalize_b`.
    """
    match t:
        case Zero() | One():
            return ZERO
        case Letter(c):
            return ONE if c == a else ZERO
        case Sum(l, r):
            return Sum(deriv_raw_oracle(l, a), deriv_raw_oracle(r, a))
        case Concat(l, r):
            guard = ONE if ewp(l) else ZERO
            return Sum(Concat(deriv_raw_oracle(l, a), r), Concat(guard, deriv_raw_oracle(r, a)))
        case Star(x):
            return Concat(deriv_raw_oracle(x, a), t)
    raise TypeError(f"not a rational expression: {t!r}")


def random_rexp_no_ewp(rng: random.Random, letters: str = "ab", depth: int = 2) -> RatExpr:
    """Random expression without the empty word property (loop bodies)."""
    for _ in range(50):
        t = random_rexp(rng, letters, depth)
        if not ewp(t):
            return t
    return Letter(rng.choice(letters))


def random_lexp(rng: random.Random, letters: str = "ab", depth: int = 3) -> LassoExpr:
    if depth <= 0:
        return Circle(random_rexp_no_ewp(rng, letters, 1))
    kind = rng.choices(["circle", "prefix", "sum", "zero"], weights=[4, 4, 3, 1])[0]
    if kind == "circle":
        return Circle(random_rexp_no_ewp(rng, letters, depth - 1))
    if kind == "zero":
        return LZERO
    if kind == "prefix":
        return Prefix(random_rexp(rng, letters, depth - 1), random_lexp(rng, letters, depth - 1))
    return LSum(random_lexp(rng, letters, depth - 1), random_lexp(rng, letters, depth - 1))


def random_oexp(rng: random.Random, letters: str = "ab", depth: int = 3) -> OmegaExpr:
    if depth <= 0:
        return OmegaPower(random_rexp_no_ewp(rng, letters, 1))
    kind = rng.choices(["omega", "prefix", "sum", "zero"], weights=[4, 4, 3, 1])[0]
    if kind == "omega":
        return OmegaPower(random_rexp_no_ewp(rng, letters, depth - 1))
    if kind == "zero":
        return OZERO
    if kind == "prefix":
        return OPrefix(random_rexp(rng, letters, depth - 1), random_oexp(rng, letters, depth - 1))
    return OSum(random_oexp(rng, letters, depth - 1), random_oexp(rng, letters, depth - 1))


def random_lauto(rng: random.Random, n_spoke: int = 3, n_loop: int = 3) -> LassoAutomaton:
    letters = ("a", "b")
    d1 = tuple(tuple(rng.randrange(n_spoke) for _ in letters) for _ in range(n_spoke))
    d2 = tuple(tuple(rng.randrange(n_loop) for _ in letters) for _ in range(n_spoke))
    d3 = tuple(tuple(rng.randrange(n_loop) for _ in letters) for _ in range(n_loop))
    finals = frozenset(y for y in range(n_loop) if rng.random() < 0.4)
    return LassoAutomaton(Alphabet(letters), d1, d2, d3, rng.randrange(n_spoke), finals)


def random_lasso(rng: random.Random, letters: str = "ab", max_spoke: int = 4, max_loop: int = 4) -> Lasso:
    spoke = "".join(rng.choice(letters) for _ in range(rng.randint(0, max_spoke)))
    loop = "".join(rng.choice(letters) for _ in range(rng.randint(1, max_loop)))
    return Lasso(spoke, loop)


def gamma_class_upto(l: Lasso, max_spoke: int, max_loop: int) -> set[Lasso]:
    """The full rewrite-equivalence class of l within the given size box.

    Reduction shrinks both components monotonically, so every class member
    inside the box is reachable from the normal form by expansions that
    stay inside the box; BFS over those expansions is exhaustive.
    """
    start = normal_form(l)
    if len(start.spoke) > max_spoke or len(start.loop) > max_loop:
        return set()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: list[Lasso] = []
        for cur in frontier:
            k_max = max_loop // len(cur.loop)
            for cand in expansions(cur, max(k_max, 1)):
                if len(cand.spoke) > max_spoke or len(cand.loop) > max_loop:
                    continue
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def rexp_size(t: RatExpr) -> int:
    from lassokit.ratexp import Concat, Star, Sum

    match t:
        case Concat(l, r) | Sum(l, r):
            return 1 + rexp_size(l) + rexp_size(r)
        case Star(x):
            return 1 + rexp_size(x)
        case _:
            return 1
