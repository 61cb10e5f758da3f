"""Input generation for the benchmark workloads.

The generators below are driven by a draw seed (see workloads.py), so
one draw always gives the same expressions and automata.

Everything here works on text and on plain tuples, so the benchmark's
parent process never builds a lassokit term and never warms a lassokit
cache before an item runs.
"""

from __future__ import annotations

import random
from pathlib import Path

LETTERS = "ab"
SATURATED_DIR = Path(__file__).resolve().parent / "saturated"

# The acceptance corpus (tests/test_acceptance.py, criterion 9) and the
# three omega expressions the ROADMAP names as hard for the pipeline.
CORPUS = ["a$", "(ab)$", "a(ba)$", "(a+b)*a$", "(aa)$+b((ab)$)", "b(a+b*)(a$)"]
HARD = ["(a+b)*(aab+bba)$", "(ab+ba)*(a+bb)$", "a(b+ab)$+b(a+bb)$"]
_POSTFIX = {"star": "*", "circle": "@", "omega": "$"}

# A term is a nested tuple: ("0",) ("1",) ("l", c) ("cat", l, r) ("sum", l, r)
# ("star", x), and for lasso and omega expressions ("circle", x) ("omega", x).
# The generators have the shape and weights of the test suite's, so the
# benchmark draws from the distribution the tests cover.


def _rterm(rng: random.Random, depth: int) -> tuple:
    if depth <= 0:
        return rng.choice([("0",), ("1",)] + [("l", c) for c in LETTERS + LETTERS])
    kind = rng.choices(["l", "cat", "sum", "star", "1", "0"], weights=[4, 4, 4, 2, 1, 1])[0]
    if kind == "l":
        return ("l", rng.choice(LETTERS))
    if kind in ("0", "1"):
        return (kind,)
    if kind == "star":
        return ("star", _rterm(rng, depth - 1))
    return (kind, _rterm(rng, depth - 1), _rterm(rng, depth - 1))


def _ewp(t: tuple) -> bool:
    kind = t[0]
    if kind in ("1", "star"):
        return True
    if kind == "sum":
        return _ewp(t[1]) or _ewp(t[2])
    if kind == "cat":
        return _ewp(t[1]) and _ewp(t[2])
    return False


def _rterm_no_ewp(rng: random.Random, depth: int) -> tuple:
    for _ in range(50):
        t = _rterm(rng, depth)
        if not _ewp(t):
            return t
    return ("l", rng.choice(LETTERS))


def _text(t: tuple) -> str:
    """Fully parenthesised text of a tree."""
    kind = t[0]
    if kind in ("0", "1"):
        return kind
    if kind == "l":
        return t[1]
    if kind in _POSTFIX:
        return f"({_text(t[1])}){_POSTFIX[kind]}"
    left, right = _text(t[1]), _text(t[2])
    return f"({left})({right})" if kind == "cat" else f"({left}+{right})"


def random_rexp(rng: random.Random, depth: int) -> str:
    return _text(_rterm(rng, depth))


def _random_tailed(rng: random.Random, depth: int, op: str) -> str:
    """Lasso (op '@') or omega (op '$') expression: sum / prefix / loop / 0."""
    if depth <= 0:
        return f"({_text(_rterm_no_ewp(rng, 1))}){op}"
    kind = rng.choices(["loop", "prefix", "sum", "0"], weights=[4, 4, 3, 1])[0]
    if kind == "loop":
        return f"({_text(_rterm_no_ewp(rng, depth - 1))}){op}"
    if kind == "0":
        return "0"
    if kind == "prefix":
        return f"({_text(_rterm(rng, depth - 1))})({_random_tailed(rng, depth - 1, op)})"
    return f"({_random_tailed(rng, depth - 1, op)}+{_random_tailed(rng, depth - 1, op)})"


def random_lexp(rng: random.Random, depth: int) -> str:
    return _random_tailed(rng, depth, "@")


def random_oexp(rng: random.Random, depth: int) -> str:
    return _random_tailed(rng, depth, "$")


def random_automaton(rng: random.Random, n_spoke: int, n_loop: int) -> str:
    """Lasso automaton text over `ab` with uniform transitions; each loop
    state is final with probability 1/2."""
    lines = [
        "alphabet: a b",
        "spoke: " + " ".join(f"x{i}" for i in range(n_spoke)),
        "loop: " + " ".join(f"y{i}" for i in range(n_loop)),
        "initial: x0",
        "final: " + " ".join(f"y{i}" for i in range(n_loop) if rng.random() < 0.5),
    ]
    for table, n_src, src, dst, n_dst in (
        ("d1", n_spoke, "x", "x", n_spoke),
        ("d2", n_spoke, "x", "y", n_loop),
        ("d3", n_loop, "y", "y", n_loop),
    ):
        for i in range(n_src):
            for a in LETTERS:
                lines.append(f"{table}: {src}{i} {a} {dst}{rng.randrange(n_dst)}")
    return "\n".join(lines) + "\n"


def saturated_inputs() -> list[tuple[str, str]]:
    """The committed saturated automata as (file name, text), in name order."""
    return [(p.name, p.read_text()) for p in sorted(SATURATED_DIR.glob("*.lauto"))]
