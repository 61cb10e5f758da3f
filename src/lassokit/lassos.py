"""Lassos and the rewrite system on them.

A lasso (u, v) with nonempty loop v stands for the ultimately periodic
word u·v·v·v··· .  Two rewrite rules shrink a lasso without changing the
word it denotes: rotating a shared last letter of spoke and loop into
the front of the loop, and collapsing a repeated loop to its primitive
root.  The system is confluent and strongly normalising, so normal
forms decide equality of the denoted words (`gamma_equiv`); `up_equal`
checks the same thing by direct word comparison and serves as the
independent oracle.

`enumerate_lassos` lists the lassos up to a bound, optionally only
those whose spoke a spoke walk lists.  The enumeration of lasso
expressions and of omega expressions each pass their own walk, on
disjunctive forms (`lassoexp.lexp_spoke_walk`) or on the Büchi oracle's
live states (`omega.live_spoke_walk`), and both run on `walk_words`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import lcm
from typing import TypeVar

from .errors import ParseError
from .ratexp import Alphabet, walk_words, words_up_to
from .syntax import check_symbols

S = TypeVar("S")


@dataclass(frozen=True)
class Lasso:
    spoke: str
    loop: str

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def __str__(self) -> str:
        return f"{self.spoke}:{self.loop}"


def parse_lasso(text: str) -> Lasso:
    """Parse the literal `spoke:loop`; the spoke may be empty."""
    if text.count(":") != 1:
        raise ParseError(f"lasso literal must contain exactly one ':', got {text!r}")
    spoke, loop = text.split(":")
    if not loop:
        raise ParseError("lasso loop must be nonempty")
    check_symbols(spoke + loop, "lasso literal")
    return Lasso(spoke, loop)


def primitive_root(v: str) -> str:
    """Shortest w with v = w^k (k >= 1), by the failure-function period."""
    n = len(v)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and v[i] != v[k]:
            k = fail[k - 1]
        if v[i] == v[k]:
            k += 1
        fail[i] = k
    p = n - fail[n - 1]
    return v[:p] if n % p == 0 else v


def reduce_step(l: Lasso) -> Lasso | None:
    """One reduction step, or None if l is in normal form.

    Letter rotation is tried first; loop collapse goes straight to the
    primitive root (equivalent to iterating single collapses, which
    confluence makes sound).
    """
    if l.spoke and l.spoke[-1] == l.loop[-1]:
        return Lasso(l.spoke[:-1], l.loop[-1] + l.loop[:-1])
    root = primitive_root(l.loop)
    if len(root) < len(l.loop):
        return Lasso(l.spoke, root)
    return None


def normal_form(l: Lasso) -> Lasso:
    while (nxt := reduce_step(l)) is not None:
        l = nxt
    return l


def gamma_equiv(l1: Lasso, l2: Lasso) -> bool:
    """Do the two lassos denote the same ultimately periodic word?"""
    return normal_form(l1) == normal_form(l2)


def up_equal(l1: Lasso, l2: Lasso) -> bool:
    """Oracle for gamma_equiv: compare long enough prefixes of the denoted words."""
    length = max(len(l1.spoke), len(l2.spoke)) + lcm(len(l1.loop), len(l2.loop))

    def prefix(l: Lasso) -> str:
        reps = (length - len(l.spoke)) // len(l.loop) + 1
        return (l.spoke + l.loop * reps)[:length]

    return prefix(l1) == prefix(l2)


def expansions(l: Lasso, k_max: int = 2) -> list[Lasso]:
    """All one-step expansions: the unique letter-rotation plus loop powers up to k_max."""
    out = [Lasso(l.spoke + l.loop[0], l.loop[1:] + l.loop[0])]
    out.extend(Lasso(l.spoke, l.loop * k) for k in range(2, k_max + 1))
    return out


# a spoke walk: (state of the empty spoke, step on a letter, is a state's
# spoke listed); a falsy state is dead, and steps only to dead states
SpokeWalk = tuple[S, Callable[[S, str], S], Callable[[S], bool]]
# one truthy state that every letter keeps: every spoke is listed
EVERY_SPOKE: SpokeWalk = (True, lambda state, a: state, bool)


def enumerate_lassos(
    alphabet: Alphabet, max_spoke: int, max_loop: int, walk: SpokeWalk = EVERY_SPOKE
) -> list[Lasso]:
    """The lassos with |spoke| <= max_spoke and 1 <= |loop| <= max_loop
    whose spoke the walk lists, spoke-major in `words_up_to` order.

    The spokes are `walk_words` on the walk: a spoke's state is one step
    from its prefix's state, a spoke with a falsy (dead) state is neither
    extended nor listed, and a spoke is listed iff `live` holds of its
    state.  A dead state steps only to dead states, so pruning its
    extensions drops no listed spoke, and the work follows the spokes
    that stay alive, not |alphabet|^max_spoke.  The default walk lists
    every spoke.
    """
    if max_loop < 1:
        raise ValueError("max_loop must be at least 1")
    start, step, live = walk
    loops = list(words_up_to(alphabet, max_loop))[1:]
    spokes = walk_words(alphabet, max_spoke, start, step, lambda state, left: bool(state))
    return [Lasso(u, v) for u, state in spokes if live(state) for v in loops]
