"""Shared generators and oracles for the test suite.

Random generators take an explicit `random.Random` so every suite runs
on a fixed seed with an exact case count.
"""

from __future__ import annotations

import random
from collections import deque

from lassokit.langops import (
    Dfa,
    access_words,
    boolean_combine,
    compile_dfa,
    complement,
    concat_dfa,
    dfa_to_expr,
    equivalent_dfa,
    explore,
    is_empty_dfa,
    left_derivative,
    minimize_dfa,
    right_quotient,
    root,
)
from lassokit.lassoaut import LassoAutomaton, _power_witness, _short_orbit_witnesses, accepts, loop_dfa
from lassokit.lassoexp import Circle, DisjunctiveForm, LSum, LZERO, LassoExpr, Prefix
from lassokit.lassos import Lasso, expansions, normal_form
from lassokit.omega import Nba, OPrefix, OSum, OZERO, OmegaExpr, OmegaPower, _live, _oexp_alphabet, to_nba
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
    rexp_to_str,
    split,
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


def ewp_oracle(t: RatExpr) -> bool:
    """`ratexp.ewp` recomputed on every call, reading no cached value."""
    match t:
        case Zero() | Letter(_):
            return False
        case One() | Star(_):
            return True
        case Sum(l, r):
            return ewp_oracle(l) or ewp_oracle(r)
        case Concat(l, r):
            return ewp_oracle(l) and ewp_oracle(r)
    raise TypeError(f"not a rational expression: {t!r}")


def letter_count_oracle(t: RatExpr) -> int:
    """`ratexp.letter_count` read off the printed text: its letters, a
    shared subterm counted each time it is printed."""
    return sum(c.isalpha() for c in rexp_to_str(t))


def _structural_key_oracle(t: RatExpr) -> tuple:
    match t:
        case Zero():
            return (0,)
        case One():
            return (1,)
        case Letter(c):
            return (2, c)
        case Star(x):
            return (3, _structural_key_oracle(x))
        case Concat(l, r):
            return (4, _structural_key_oracle(l), _structural_key_oracle(r))
        case Sum(l, r):
            return (5, _structural_key_oracle(l), _structural_key_oracle(r))
    raise TypeError(f"not a rational expression: {t!r}")


def normal_form_oracle(t: RatExpr) -> RatExpr:
    """`ratexp.normalize_b` recomputed on every call, reading no cached
    value: the summands of a sum normalized, deduplicated, purged of 0,
    sorted by the structural order and nested to the right; 1 and 0
    folded in a concatenation; a star kept around its normal body."""
    match t:
        case Star(x):
            return Star(normal_form_oracle(x))
        case Concat(l, r):
            ln, rn = normal_form_oracle(l), normal_form_oracle(r)
            if ln is ZERO or rn is ZERO:
                return ZERO
            if ln is ONE or rn is ONE:
                return rn if ln is ONE else ln
            return Concat(ln, rn)
        case Sum(l, r):
            summands: set[RatExpr] = set()
            todo = [normal_form_oracle(l), normal_form_oracle(r)]
            while todo:
                x = todo.pop()
                if isinstance(x, Sum):
                    todo += [x.left, x.right]
                elif x is not ZERO:
                    summands.add(x)
            ordered = sorted(summands, key=_structural_key_oracle)
            acc = ordered.pop() if ordered else ZERO
            for x in reversed(ordered):
                acc = Sum(x, acc)
            return acc
    return t


def minimize_dfa_oracle(d: Dfa) -> Dfa:
    """Moore partition refinement with one signature tuple per state, run
    until the class numbering repeats.

    `langops.minimize_dfa` builds the signatures column by column and
    stops when the class count stops growing; the two must return equal
    `Dfa`s, classes numbered by first member in breadth-first order.
    """
    index, rows = explore([d.initial], d.trans.__getitem__, "minimization")
    cls = [1 if q in d.finals else 0 for q in index]
    while True:
        sig: dict[tuple, int] = {}
        new = []
        for q, row in enumerate(rows):
            s = (cls[q],) + tuple(cls[t] for t in row)
            new.append(sig.setdefault(s, len(sig)))
        if new == cls:
            break
        cls = new
    member = {c: q for q, c in enumerate(cls)}
    class_rows = tuple(tuple(cls[t] for t in rows[member[c]]) for c in range(len(member)))
    finals = frozenset(cls[index[q]] for q in d.finals if q in index)
    return Dfa(d.alphabet, class_rows, 0, finals)


def certify_oracle(e: RatExpr, d: Dfa) -> tuple[bool, str | None]:
    """L(e) = L(d) decided on the derivative automaton of e: (True, None),
    or (False, the length-lex least word on which they differ).

    `langops.dfa_to_expr` certifies its result on the position automaton
    of the expression instead, which shares nothing with `compile_dfa`;
    the two must agree on the verdict and on the word.
    """
    return equivalent_dfa(compile_dfa(e, d.alphabet), d)


def equivalent_dfa_oracle(d1: Dfa, d2: Dfa) -> tuple[bool, str | None]:
    """`langops.equivalent_dfa` as two closures: the xor product
    (`boolean_combine`), then its emptiness check (`is_empty_dfa`), which
    numbers the product's states again.  The library reads the same word
    off the product's own numbering."""
    return is_empty_dfa(boolean_combine(d1, d2, "xor"))


def gamma_map_oracle(df: DisjunctiveForm, alphabet: Alphabet) -> DisjunctiveForm:
    """γ one triple at a time: for each split (t0, t1) of t and (s0, s1)
    of s, the loop expression of root(minimal DFA of (t1 ∩ s1)·s0), with
    (t1 ∩ s1) a `boolean_combine` of the compiled DFAs and the
    concatenation a `concat_dfa`; triples with an empty intersection or
    an empty root are dropped.

    `omega.gamma_map` instead builds one derivative, one product and one
    concatenation closure per call and tells the languages apart by
    class number; the two must return equal pairs in the same order.
    Distinct triples and distinct languages are converted once here too,
    so the oracle stays fast enough for property tests.
    """
    dfas: dict[RatExpr, Dfa] = {}
    loop_of: dict[tuple[RatExpr, RatExpr, RatExpr], RatExpr | None] = {}
    loops: dict[Dfa, RatExpr | None] = {}

    def dfa_of(e: RatExpr) -> Dfa:
        if e not in dfas:
            dfas[e] = compile_dfa(e, alphabet)
        return dfas[e]

    def loop(t1: RatExpr, s1: RatExpr, s0: RatExpr) -> RatExpr | None:
        if (t1, s1, s0) not in loop_of:
            inter = boolean_combine(dfa_of(t1), dfa_of(s1), "and")
            if not inter.finals:
                loop_of[t1, s1, s0] = None
            else:
                lang = minimize_dfa(concat_dfa(inter, dfa_of(s0)))
                if lang not in loops:
                    rt = root(lang)
                    loops[lang] = dfa_to_expr(rt) if rt.finals else None
                loop_of[t1, s1, s0] = loops[lang]
        return loop_of[t1, s1, s0]

    pairs = []
    for t, s in df.pairs:
        for t0, t1 in split(t):
            for s0, s1 in split(s):
                e = loop(t1, s1, s0)
                if e is not None:
                    pairs.append((t0, e))
    return DisjunctiveForm(tuple(pairs))


def mask_states(mask: int) -> frozenset[int]:
    """The states of an `Nba` bit mask."""
    return frozenset(q for q in range(mask.bit_length()) if mask >> q & 1)


def up_member_oracle(T: OmegaExpr, l: Lasso, alphabet: Alphabet | None = None) -> bool:
    """Büchi membership on the product of the automaton with the lasso's
    positions: accept iff some accepting product node reachable after the
    spoke lies on a cycle, one search per accepting node.

    `omega.up_member` instead meets the states after the spoke with the
    states from which the loop is accepted, read off the loop's
    transition profile once per loop word; the two must answer alike.
    """
    nba = to_nba(T, _oexp_alphabet(T, alphabet))
    succ: dict[tuple[int, str], frozenset[int]] = {}
    for a, row in zip(nba.alphabet.letters, nba.rows):
        for p, targets in enumerate(row):
            succ[p, a] = mask_states(targets)
    accepting = mask_states(nba.accepting)
    cur = set(mask_states(nba.initials))
    for a in l.spoke:
        cur = {q for p in cur for q in succ.get((p, a), ())}
        if not cur:
            return False
    m = len(l.loop)

    def node_succ(node: tuple[int, int]):
        q, j = node
        return [(q2, (j + 1) % m) for q2 in succ.get((q, l.loop[j]), ())]

    start = {(q, 0) for q in cur}
    seen = set(start)
    queue = deque(start)
    while queue:
        node = queue.popleft()
        for nxt in node_succ(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for node in seen:
        if node[0] not in accepting:
            continue
        # is this accepting node on a (nonempty) cycle?
        visited: set[tuple[int, int]] = set()
        stack = node_succ(node)
        while stack:
            cand = stack.pop()
            if cand == node:
                return True
            if cand in visited:
                continue
            visited.add(cand)
            stack.extend(node_succ(cand))
    return False


def loop_accepting_oracle(nba: Nba, loop: str) -> frozenset[int]:
    """The states of the NBA from which it accepts loop^ω: `_live` on the
    product of the states with the loop's positions, node q·m + j for
    state q at position j, read at position 0.

    `omega._loop_accepting` instead reads them off the loop's transition
    profile, as a bit mask; the two must hold the same states.
    """
    m = len(loop)
    n = len(nba.rows[0])
    rows = [nba.rows[nba.alphabet.index(a)] for a in loop]
    accepting = mask_states(nba.accepting)

    def successors(v: int) -> list[int]:
        q, j = divmod(v, m)
        nxt = (j + 1) % m
        return [p * m + nxt for p in mask_states(rows[j][q])]

    good = _live(range(0, n * m, m), successors, lambda v: v // m in accepting)
    return frozenset(q for q in range(n) if q * m in good)


def live_states_oracle(nba: Nba) -> frozenset[int]:
    """The states from which the NBA accepts some omega word: one forward
    closure per accepting state finds whether it returns to itself, then
    one backward closure from those on a cycle collects the states that
    reach them.

    `omega._live_states` instead finds them in one component pass; the two
    must answer alike.
    """
    succ = [frozenset().union(*map(mask_states, col)) for col in zip(*nba.rows)]
    pred: list[set[int]] = [set() for _ in succ]
    for p, targets in enumerate(succ):
        for q in targets:
            pred[q].add(p)
    accepting = sorted(mask_states(nba.accepting))
    on_cycle = [f for f in accepting if f in explore(succ[f], succ.__getitem__, "Buchi automaton")[0]]
    return frozenset(explore(on_cycle, pred.__getitem__, "Buchi automaton")[0])


def spoke_access_words(aut: LassoAutomaton) -> dict[int, str]:
    """Shortest access word per reachable spoke state of the automaton as
    given, in breadth-first (length-lex) order."""
    index, rows = explore([aut.initial], aut.d1.__getitem__, "spoke part")
    return dict(zip(index, access_words(rows, aut.alphabet.letters)))


def is_saturated_oracle(aut: LassoAutomaton, bounded: bool = True) -> tuple[bool, tuple[Lasso, Lasso] | None]:
    """The saturation scan on the automaton as given: its reachable spoke
    states in breadth-first order, unminimized.

    `lassoaut.is_saturated` runs the scan on `minimize_lasso(aut)`; the
    two must return the same verdict and pair.  When a rotation failure
    bounds the size of the answer, the bounded scan searches the collapse
    and power witnesses only up to that bound, as `is_saturated` does;
    with bounded=False it builds root(P_x) and root(complement(P_x)) at
    every spoke state, whatever the rotation check found.
    """
    access = spoke_access_words(aut)
    loop_dfas = {x: loop_dfa(aut, x) for x in access}

    def size(pair: tuple[Lasso, Lasso]) -> int:
        a, b = pair
        return len(a.spoke) + len(a.loop) + len(b.spoke) + len(b.loop)

    rotations: dict[int, list[tuple[Lasso, Lasso]]] = {}
    for x, u in access.items():
        rotations[x] = []
        for ai, a in enumerate(aut.alphabet.letters):
            x2 = aut.d1[x][ai]
            eq, w = equivalent_dfa(left_derivative(loop_dfas[x], a), right_quotient(loop_dfas[x2], a))
            if not eq:
                reduct = Lasso(u, a + w)
                expanded = Lasso(u + a, w + a)
                if accepts(aut, reduct):
                    rotations[x].append((reduct, expanded))
                else:
                    rotations[x].append((expanded, reduct))
    best_rotation = min((size(p) for pairs in rotations.values() for p in pairs), default=None)
    candidates: list[tuple[Lasso, Lasso]] = []
    for x, u in access.items():
        px = loop_dfas[x]
        candidates += rotations[x]
        if bounded and best_rotation is not None:
            collapse, power = _short_orbit_witnesses(px, (best_rotation - 2 * len(u)) // 3)
        else:
            empty, w = is_empty_dfa(boolean_combine(root(px), px, "diff"))
            collapse = None if empty else (w, _power_witness(px, w, want_final=True))
            empty, w = is_empty_dfa(boolean_combine(px, root(complement(px)), "and"))
            power = None if empty else (w, _power_witness(px, w, want_final=False))
        if collapse is not None:
            w, k = collapse
            candidates.append((Lasso(u, w * k), Lasso(u, w)))
        if power is not None:
            w, k = power
            candidates.append((Lasso(u, w), Lasso(u, w * k)))
    if not candidates:
        return (True, None)
    return (False, min(candidates, key=size))


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


def random_lauto(rng: random.Random, n_spoke: int = 3, n_loop: int = 3, letters: str = "ab") -> LassoAutomaton:
    d1 = tuple(tuple(rng.randrange(n_spoke) for _ in letters) for _ in range(n_spoke))
    d2 = tuple(tuple(rng.randrange(n_loop) for _ in letters) for _ in range(n_spoke))
    d3 = tuple(tuple(rng.randrange(n_loop) for _ in letters) for _ in range(n_loop))
    finals = frozenset(y for y in range(n_loop) if rng.random() < 0.4)
    return LassoAutomaton(Alphabet(tuple(letters)), d1, d2, d3, rng.randrange(n_spoke), finals)


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


def spoke_state(aut: LassoAutomaton, u: str) -> int:
    """The spoke state that the spoke u leads to."""
    x = aut.initial
    for a in u:
        x = aut.d1[x][aut.alphabet.index(a)]
    return x


def loop_live_spoke_states(aut: LassoAutomaton) -> set[int]:
    """The spoke states at which some loop is accepted: those from whose
    switch edges a search of the loop part reaches a final loop state."""
    return {
        x
        for x in range(aut.n_spoke)
        if not aut.finals.isdisjoint(explore(aut.d2[x], aut.d3.__getitem__, "loop part")[0])
    }
