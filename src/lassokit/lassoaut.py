"""Lasso automata: acceptance, equivalence, expression extraction, exact
saturation checking, and the text/DOT formats.

A lasso automaton reads the spoke of a lasso through the spoke
transitions, switches into the loop part on the first loop symbol, and
follows loop transitions for the rest of the loop; the lasso is accepted
if this lands in a final loop state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import AlphabetMismatchError, AutomatonFormatError, CertificationError
from .langops import (
    Dfa,
    access_words,
    boolean_combine,
    complement,
    dfa_to_expr,
    dot_label,
    equivalent_dfa,
    explore,
    is_empty_dfa,
    left_derivative,
    minimize_dfa,
    moore_classes,
    right_quotient,
    root,
)
from .lassoexp import (
    Circle,
    LassoExpr,
    OmegaExpr,
    OmegaPower,
    TailedExpr,
    Terminal,
    tprefix,
    tsum_of,
)
from .lassos import Lasso
from .ratexp import Alphabet, ewp


@dataclass(frozen=True)
class LassoAutomaton:
    alphabet: Alphabet
    d1: tuple[tuple[int, ...], ...]  # spoke -> spoke
    d2: tuple[tuple[int, ...], ...]  # spoke -> loop
    d3: tuple[tuple[int, ...], ...]  # loop -> loop
    initial: int
    finals: frozenset[int]
    # presentation metadata, not part of equality
    spoke_labels: tuple[str, ...] | None = field(default=None, compare=False)
    loop_labels: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def n_spoke(self) -> int:
        return len(self.d1)

    @property
    def n_loop(self) -> int:
        return len(self.d3)


def accepts(aut: LassoAutomaton, l: Lasso) -> bool:
    x = aut.initial
    for a in l.spoke:
        x = aut.d1[x][aut.alphabet.index(a)]
    y = aut.d2[x][aut.alphabet.index(l.loop[0])]
    for a in l.loop[1:]:
        y = aut.d3[y][aut.alphabet.index(a)]
    return y in aut.finals


def loop_dfa(aut: LassoAutomaton, x: int) -> Dfa:
    """DFA for P_x, the nonempty words that, switched from spoke state x,
    end in a final loop state: a view of the tables d3 + d2, so loop state
    y stays state y, and the start n_loop + x (the switch row d2[x]) is not
    final, which keeps the empty word rejected.  No row is copied."""
    return Dfa(aut.alphabet, aut.d3 + aut.d2, aut.n_loop + x, aut.finals)


def spoke_lang_dfa(aut: LassoAutomaton, x: int) -> Dfa:
    """DFA for the words that lead from the initial spoke state to x."""
    return Dfa(aut.alphabet, aut.d1, aut.initial, frozenset({x}))


def _extract(
    m: LassoAutomaton, terminal: type[Terminal], loop_langs: Callable[[LassoAutomaton, int], list[Dfa]]
) -> TailedExpr:
    """Sum, over the spoke states x of a minimal automaton m (numbered in
    access-word order by `minimize_lasso`) with nonempty loop languages
    loop_langs(m, x), of the access language of x prefixed onto the sum of
    terminal(loop language) over those languages: one spoke factor per
    spoke state.  Each loop expression is checked to reject the empty
    word, as a loop must."""
    terms: list[TailedExpr] = []
    for x in range(m.n_spoke):
        r_dfas = loop_langs(m, x)
        if not r_dfas:
            continue
        r_exprs = [dfa_to_expr(r_dfa) for r_dfa in r_dfas]
        if any(map(ewp, r_exprs)):
            raise CertificationError("loop language contained the empty word")
        terms.append(tprefix(dfa_to_expr(spoke_lang_dfa(m, x)), tsum_of(terminal.zero, list(map(terminal, r_exprs)))))
    return tsum_of(terminal.zero, terms)


def _loop_lang(aut: LassoAutomaton, x: int) -> list[Dfa]:
    """[P_x] (`loop_dfa`) if the loop language at x is nonempty, else []."""
    px = loop_dfa(aut, x)
    return [] if is_empty_dfa(px)[0] else [px]


def _omega_loop_langs(aut: LassoAutomaton, x: int) -> list[Dfa]:
    """The nonempty omega-power bodies at spoke state x, one per final loop
    state y in state order: the words that return x to x along the spoke,
    switch from x into y, and return y to y along the loop.

    The first two conditions do not depend on y, so their product is
    built once; only the y whose pair (x, y) it reaches are intersected
    with the third.  Products hold only reachable states, so that
    intersection is empty iff it has no final state.
    """
    switch = loop_dfa(aut, x)
    index, rows = explore(
        [(x, switch.initial)], lambda pq: zip(aut.d1[pq[0]], switch.trans[pq[1]]), "product automaton"
    )
    trans = tuple(rows)
    langs = []
    for y in sorted(aut.finals):
        i = index.get((x, y))
        if i is not None:
            spoke_and_switch = Dfa(aut.alphabet, trans, 0, frozenset({i}))
            lang = boolean_combine(spoke_and_switch, Dfa(aut.alphabet, aut.d3, y, frozenset({y})), "and")
            if lang.finals:
                langs.append(lang)
    return langs


def extract_expr(aut: LassoAutomaton) -> LassoExpr:
    """Lasso expression for the accepted language: Σ_x S_x·(P_x)@ over the
    spoke states x of `minimize_lasso(aut)` with nonempty P_x (`loop_dfa`),
    S_x the access language of x, so the text depends only on the language.
    One term per x suffices: (u, v) is accepted iff v is in P_x for the x
    that u reaches."""
    return _extract(minimize_lasso(aut), Circle, _loop_lang)


def extract_omega_expr(aut: LassoAutomaton) -> OmegaExpr:
    """Omega expression for the omega language of a saturated automaton.

    The saturation check and the sum read one minimal automaton
    (`minimize_lasso`), so the text depends only on the language.  For
    each of its spoke states x and final loop states y the loop component
    P_{x,y} is the intersection of three DFAs: words returning x to x
    along the spoke, words switching from x into y, and words returning y
    to y along the loop (`_omega_loop_langs`, one product of the first
    two per x).  The sum is Σ_x S_x·(P_{x,y1}$ + P_{x,y2}$ + …), S_x the
    access language of x, written once per x: a prefix distributes over
    a sum.  Unlike `extract_expr` it keeps one omega power per pair
    (x, y): the omega power of a union is not the union of the omega
    powers.  Raises if the automaton is not saturated.
    """
    m = minimize_lasso(aut)
    sat, pair = is_saturated(m)
    if not sat:
        raise ValueError(
            f"automaton is not saturated (e.g. {pair[0]} accepted but {pair[1]} rejected); "
            "omega extraction requires saturation"
        )
    return _extract(m, OmegaPower, _omega_loop_langs)


def equivalent_lasso(a1: LassoAutomaton, a2: LassoAutomaton) -> tuple[bool, Lasso | None]:
    """Language equality; on failure a counterexample lasso of minimal
    |spoke| + |loop| (ties broken by spoke then loop text)."""
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatchError("equivalent_lasso requires identical alphabets")
    index, rows = explore([(a1.initial, a2.initial)], lambda x12: zip(a1.d1[x12[0]], a2.d1[x12[1]]), "spoke product")
    counterexamples = []
    for (x1, x2), u in zip(index, access_words(rows, a1.alphabet.letters)):
        eq, w = equivalent_dfa(loop_dfa(a1, x1), loop_dfa(a2, x2))
        if not eq:
            counterexamples.append(Lasso(u, w))
    best = min(counterexamples, key=lambda l: (len(l.spoke) + len(l.loop), l.spoke, l.loop), default=None)
    return (best is None, best)


def minimize_lasso(aut: LassoAutomaton) -> LassoAutomaton:
    """The minimal lasso automaton of the accepted language, numbered
    canonically; without state labels.

    Moore refinement (`moore_classes`) runs on the reachable loop part,
    finals apart from the other states, and then on the reachable spoke
    part, keyed by the loop classes of each spoke state's `d2` row.  Two
    loop states are merged iff they accept the same words, and two spoke
    states iff every word leads them to spoke states with the same loop
    language, so the quotient is the minimal lasso automaton of the
    Myhill-Nerode theorem for lasso languages (Ciancia & Venema,
    "Omega-automata: a coalgebraic perspective on regular omega-languages",
    CALCO 2019).  It accepts the same lassos, so it is saturated iff the
    input is.

    Spoke states are numbered breadth-first from the initial state, loop
    states breadth-first from the switch targets of the spoke states in
    their order, so two automata for the same language minimize to equal
    `LassoAutomaton`s.
    """
    spokes, d1_rows = explore([aut.initial], aut.d1.__getitem__, "spoke part")
    loops, d3_rows = explore([y for x in spokes for y in aut.d2[x]], aut.d3.__getitem__, "loop part")
    loop_cls = moore_classes([y in aut.finals for y in loops], d3_rows)
    switch_rows = [tuple(loop_cls[loops[y]] for y in aut.d2[x]) for x in spokes]
    spoke_cls = moore_classes(switch_rows, d1_rows)
    # one member per class (all members of a class step into the same classes)
    spoke_member = {c: i for i, c in enumerate(spoke_cls)}
    loop_member = {c: i for i, c in enumerate(loop_cls)}
    return LassoAutomaton(
        alphabet=aut.alphabet,
        d1=tuple(tuple(spoke_cls[j] for j in d1_rows[i]) for i in spoke_member.values()),
        d2=tuple(switch_rows[i] for i in spoke_member.values()),
        d3=tuple(tuple(loop_cls[j] for j in d3_rows[i]) for i in loop_member.values()),
        initial=0,
        finals=frozenset(loop_cls[i] for y, i in loops.items() if y in aut.finals),
    )


def _power_witness(d: Dfa, w: str, want_final: bool) -> int | None:
    """Least k >= 2 such that membership of w^k in L(d) matches want_final,
    or None if there is none (the orbit of w repeats within n_states + 1 powers)."""
    q = d.initial
    for k in range(1, d.n_states + 2):
        for a in w:
            q = d.step(q, a)
        if k >= 2 and (q in d.finals) == want_final:
            return k
    return None


def _pair_size(pair: tuple[Lasso, Lasso]) -> int:
    a, b = pair
    return len(a.spoke) + len(a.loop) + len(b.spoke) + len(b.loop)


def _rotation_pairs(aut: LassoAutomaton, x: int, u: str) -> list[tuple[Lasso, Lasso]]:
    """Failures of the letter rotation condition at spoke state x, one
    (accepted, rejected) pair per failing letter, in alphabet order."""
    pairs = []
    for ai, a in enumerate(aut.alphabet.letters):
        eq, w = equivalent_dfa(left_derivative(loop_dfa(aut, x), a), right_quotient(loop_dfa(aut, aut.d1[x][ai]), a))
        if not eq:
            reduct, expanded = Lasso(u, a + w), Lasso(u + a, w + a)
            pairs.append((reduct, expanded) if accepts(aut, reduct) else (expanded, reduct))
    return pairs


def _short_orbit_witnesses(px: Dfa, max_len: int) -> tuple[tuple[str, int] | None, tuple[str, int] | None]:
    """The collapse and the power witness of P_x no longer than max_len, each
    as (length-lex least word w, least k >= 2) or None.

    A collapse witness is a word outside P_x with a power inside, a power
    witness a word inside P_x with a power outside.  Both depend only on
    the transformation a word induces on the minimal DFA of P_x, so the
    transformations are explored breadth-first to depth max_len and only
    the first word of each is tested: the access words come in length-lex
    order, so the first hit is the least witness.
    """
    d = minimize_dfa(px)
    letter_funcs = list(zip(*d.trans))
    depth: dict[tuple[int, ...] | None, int] = {None: 0}

    # state None is the empty word; f followed by letter a acts as x -> a(f(x))
    def successors(f: tuple[int, ...] | None):
        if depth[f] >= max_len:
            return ()
        gs = letter_funcs if f is None else [tuple(g[x] for x in f) for g in letter_funcs]
        for g in gs:
            depth.setdefault(g, depth[f] + 1)
        return gs

    index, rows = explore([None], successors, "transformation closure")
    found: dict[bool, tuple[str, int]] = {}  # keyed by w in P_x: False collapse, True power
    for f, w in zip(index, access_words(rows, d.alphabet.letters)):
        if f is None:
            continue
        inside = f[d.initial] in d.finals
        if inside not in found:
            k = _power_witness(px, w, want_final=not inside)
            if k is not None:
                found[inside] = (w, k)
                if len(found) == 2:
                    break
    return found.get(False), found.get(True)


def is_saturated(aut: LassoAutomaton) -> tuple[bool, tuple[Lasso, Lasso] | None]:
    """Exact saturation check.

    The accepted language is a union of rewrite-equivalence classes iff it
    is closed under single rewrite steps in both directions.  Acceptance of
    (u, v) only depends on x = spoke state after u and on v's membership in
    P_x, the loop language at x.  The single-step closures therefore reduce
    to language conditions on the P_x of reachable spoke states:

    * letter rotation (both directions): for every x and letter a with
      x' the a-successor of x, {v : a·v in P_x} = {v : v·a in P_x'} -- a
      rotation redex (ua, va) / (u, av) is accepted on the left iff
      va in P_x' and on the right iff av in P_x;
    * loop collapse: every v with some power v^k in P_x is itself in P_x,
      i.e. root(P_x) minus P_x is empty;
    * loop power: no v in P_x has a power outside P_x, i.e. P_x
      intersected with root(complement(P_x)) is empty.

    On failure, returns the pair (accepted lasso, rejected lasso) built
    from the shortest failing witness, minimizing total length over all
    failures (ties: first in scan order -- spoke states in BFS order, the
    rotation check per letter, then collapse, then power).

    The scan runs on `minimize_lasso(aut)`, whose classes carry their
    first-reached member's access word.  Witness words come from languages,
    so a merged member gives its class's words with a spoke no shorter,
    later in the scan: the least pair is the one of the automaton as given.

    The rotation condition is checked first at every spoke state.  If it
    fails anywhere, let B be the size of its smallest pair.  A collapse or
    power pair at x built from the word w has size 2|u| + (k+1)|w| with
    k >= 2, at least 2|u| + 3|w|, so only a witness with
    |w| <= (B - 2|u|) // 3 can win or tie, and the search for it stops at
    that length: its first hit is the least witness, the same word the
    root construction finds, and a longer least witness could only give a
    larger pair than B.  So no root is built on an automaton that fails
    the rotation condition; the roots of P_x and of its complement are
    built only when it holds everywhere, which includes every saturated
    automaton.
    """
    m = minimize_lasso(aut)
    access = access_words(m.d1, m.alphabet.letters)
    rotations = [_rotation_pairs(m, x, u) for x, u in enumerate(access)]
    best_rotation = min((_pair_size(p) for pairs in rotations for p in pairs), default=None)
    candidates: list[tuple[Lasso, Lasso]] = []
    for x, u in enumerate(access):
        px = loop_dfa(m, x)
        candidates += rotations[x]
        if best_rotation is not None:
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
    return (False, min(candidates, key=_pair_size))


# ---------------------------------------------------------------------------
# text format and DOT export


def _default_names(aut: LassoAutomaton) -> tuple[tuple[str, ...], tuple[str, ...]]:
    def usable(labels, count):
        if labels is None or len(labels) != count:
            return None
        if len(set(labels)) != count:
            return None
        for lab in labels:
            if not lab or any(c.isspace() for c in lab) or "#" in lab or ":" in lab:
                return None
        return tuple(labels)

    spoke = usable(aut.spoke_labels, aut.n_spoke)
    loop = usable(aut.loop_labels, aut.n_loop)
    if spoke is None or loop is None or set(spoke) & set(loop):
        spoke = tuple(f"x{i}" for i in range(aut.n_spoke))
        loop = tuple(f"y{aut.n_spoke + i}" for i in range(aut.n_loop))
    return spoke, loop


def write_automaton(aut: LassoAutomaton) -> str:
    spoke, loop = _default_names(aut)
    lines = [
        f"alphabet: {' '.join(aut.alphabet.letters)}",
        f"spoke: {' '.join(spoke)}",
        f"loop: {' '.join(loop)}",
        f"initial: {spoke[aut.initial]}",
        f"final: {' '.join(loop[y] for y in sorted(aut.finals))}",
    ]
    if aut.spoke_labels and aut.spoke_labels != spoke:
        for i, lab in enumerate(aut.spoke_labels):
            lines.append(f"# {spoke[i]} = {lab}")
    if aut.loop_labels and aut.loop_labels != loop:
        for i, lab in enumerate(aut.loop_labels):
            lines.append(f"# {loop[i]} = {lab}")
    for x in range(aut.n_spoke):
        for ai, a in enumerate(aut.alphabet.letters):
            lines.append(f"d1: {spoke[x]} {a} {spoke[aut.d1[x][ai]]}")
    for x in range(aut.n_spoke):
        for ai, a in enumerate(aut.alphabet.letters):
            lines.append(f"d2: {spoke[x]} {a} {loop[aut.d2[x][ai]]}")
    for y in range(aut.n_loop):
        for ai, a in enumerate(aut.alphabet.letters):
            lines.append(f"d3: {loop[y]} {a} {loop[aut.d3[y][ai]]}")
    return "\n".join(lines) + "\n"


def read_automaton(text: str) -> LassoAutomaton:
    """Parse the line-oriented automaton format (see `write_automaton`).

    Transition tables must be total: exactly one d1 and d2 row per
    (spoke state, symbol) and one d3 row per (loop state, symbol).
    """
    alphabet: Alphabet | None = None
    spoke_names: list[str] = []
    loop_names: list[str] = []
    initial_name: str | None = None
    final_names: list[str] = []
    rows: list[tuple[int, str, str, str, str]] = []  # (line, kind, src, sym, dst)

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise AutomatonFormatError(f"expected 'key: ...', got {line!r}", lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        parts = rest.split()
        if key == "alphabet":
            if alphabet is not None:
                raise AutomatonFormatError("duplicate alphabet line", lineno)
            try:
                alphabet = Alphabet(tuple(parts))
            except ValueError as e:
                raise AutomatonFormatError(str(e), lineno) from None
        elif key == "spoke":
            spoke_names.extend(parts)
        elif key == "loop":
            loop_names.extend(parts)
        elif key == "initial":
            if len(parts) != 1 or initial_name is not None:
                raise AutomatonFormatError("initial must name exactly one spoke state", lineno)
            initial_name = parts[0]
        elif key == "final":
            final_names.extend(parts)
        elif key in ("d1", "d2", "d3"):
            if len(parts) != 3:
                raise AutomatonFormatError(f"{key} row needs 'src symbol dst', got {rest.strip()!r}", lineno)
            rows.append((lineno, key, parts[0], parts[1], parts[2]))
        else:
            raise AutomatonFormatError(f"unknown directive {key!r}", lineno)

    if alphabet is None:
        raise AutomatonFormatError("missing alphabet line")
    if not spoke_names:
        raise AutomatonFormatError("no spoke states declared")
    if not loop_names:
        raise AutomatonFormatError("no loop states declared")
    if len(set(spoke_names)) != len(spoke_names) or len(set(loop_names)) != len(loop_names):
        raise AutomatonFormatError("duplicate state names")
    overlap = set(spoke_names) & set(loop_names)
    if overlap:
        raise AutomatonFormatError(f"state names used as both spoke and loop: {sorted(overlap)}")
    if initial_name is None:
        raise AutomatonFormatError("missing initial line")
    if initial_name not in spoke_names:
        raise AutomatonFormatError(f"initial state {initial_name!r} is not a spoke state")
    spoke_idx = {n: i for i, n in enumerate(spoke_names)}
    loop_idx = {n: i for i, n in enumerate(loop_names)}
    for name in final_names:
        if name not in loop_idx:
            raise AutomatonFormatError(f"final state {name!r} is not a loop state")

    tables: dict[str, dict[tuple[int, str], int]] = {"d1": {}, "d2": {}, "d3": {}}
    srcs = {"d1": spoke_idx, "d2": spoke_idx, "d3": loop_idx}
    dsts = {"d1": spoke_idx, "d2": loop_idx, "d3": loop_idx}
    for lineno, kind, src, sym, dst in rows:
        if sym not in alphabet:
            raise AutomatonFormatError(f"unknown symbol {sym!r}", lineno)
        if src not in srcs[kind]:
            raise AutomatonFormatError(f"unknown {kind} source state {src!r}", lineno)
        if dst not in dsts[kind]:
            raise AutomatonFormatError(f"unknown {kind} target state {dst!r}", lineno)
        key = (srcs[kind][src], sym)
        if key in tables[kind]:
            raise AutomatonFormatError(f"duplicate {kind} row for ({src}, {sym})", lineno)
        tables[kind][key] = dsts[kind][dst]

    for kind, names in (("d1", spoke_names), ("d2", spoke_names), ("d3", loop_names)):
        for i, name in enumerate(names):
            for a in alphabet:
                if (i, a) not in tables[kind]:
                    raise AutomatonFormatError(f"missing {kind} row for ({name}, {a})")

    d1 = tuple(tuple(tables["d1"][(x, a)] for a in alphabet) for x in range(len(spoke_names)))
    d2 = tuple(tuple(tables["d2"][(x, a)] for a in alphabet) for x in range(len(spoke_names)))
    d3 = tuple(tuple(tables["d3"][(y, a)] for a in alphabet) for y in range(len(loop_names)))
    return LassoAutomaton(
        alphabet=alphabet,
        d1=d1,
        d2=d2,
        d3=d3,
        initial=spoke_idx[initial_name],
        finals=frozenset(loop_idx[n] for n in final_names),
        spoke_labels=tuple(spoke_names),
        loop_labels=tuple(loop_names),
    )


def lasso_to_dot(aut: LassoAutomaton) -> str:
    """DOT rendering: spoke transitions solid, switch dotted, loop dashed."""
    spoke, loop = _default_names(aut)
    lines = ["digraph lasso {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for x in range(aut.n_spoke):
        lines.append(f"  s{x} [shape=circle, label={dot_label(spoke[x])}];")
    for y in range(aut.n_loop):
        shape = "doublecircle" if y in aut.finals else "circle"
        lines.append(f"  l{y} [shape={shape}, label={dot_label(loop[y])}];")
    lines.append(f"  __start -> s{aut.initial};")

    def emit(prefix_src, prefix_dst, table, style):
        grouped: dict[tuple[int, int], list[str]] = {}
        for src in range(len(table)):
            for ai, a in enumerate(aut.alphabet.letters):
                grouped.setdefault((src, table[src][ai]), []).append(a)
        for (src, dst), symbols in sorted(grouped.items()):
            label = dot_label(",".join(symbols))
            lines.append(f"  {prefix_src}{src} -> {prefix_dst}{dst} [label={label}, style={style}];")

    emit("s", "s", aut.d1, "solid")
    emit("s", "l", aut.d2, "dotted")
    emit("l", "l", aut.d3, "dashed")
    lines.append("}")
    return "\n".join(lines) + "\n"
