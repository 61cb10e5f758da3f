"""Rational expressions: syntax, semantics, derivatives, and splitting.

The term algebra is the usual one (0, 1, letters, concatenation, union,
star).  Terms are immutable and hashable, which lets normalized terms
serve directly as automaton states.  `member_naive` is a deliberately
derivative-free membership oracle used to cross-check everything built
on top of `deriv`.  `walk_words` is the one enumeration of words: it
reads a language up to a length off an automaton level by level, for
`enumerate_language` on the derivatives and for
`lassos.enumerate_lassos` on a spoke walk.

Terms are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): a term class's constructor returns the one object
of its structure, so `==` and `hash` are object identity.  Each term
caches four values derived from its fields the first time they are
asked for: its `normalize_b` normal form, its `structural_key`, its
empty word property (`ewp`) and its number of letter occurrences
(`letter_count`).  The invariants:

- equal terms are one object, so they share one cache;
- cached values are never compared, printed or pickled: `repr` sees only
  the fields, and pickle, `copy` and `deepcopy` rebuild a term through
  its constructor, which returns the term itself;
- a normal form is its own normal form: `normalize_b` records its result
  on the input and marks the result as normal.

The term table, `deriv` and `_member` are unbounded and keep every term
they see for the life of the process; `_member` serves only
`member_naive`.  Identity hashes differ from run to run, as `str` hashes
do, so no output may depend on the iteration order of a set of terms.

Derivatives are built directly in normal form (Owens, Reppy & Turon,
"Regular-expression derivatives re-examined", 2009).  `deriv` normalizes
its input, which is free on a normal term, takes the derivatives of the
children through itself and joins them with two smart constructors: a
sum that merges the summand sets of normal terms, and a concatenation
that folds 0 and 1.  The result equals `normalize_b` of the textbook
derivative term, without building that term, and is marked as its own
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import inf
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import AlphabetMismatchError

S = TypeVar("S")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character symbols; the order is fixed
    for a run and drives every tie-break (BFS, witness words, sorting)."""

    letters: tuple[str, ...]
    # letter -> position, derived from `letters`; not part of equality or hash
    _index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        index: dict[str, int] = {}
        for c in self.letters:
            if len(c) != 1 or not ("a" <= c <= "z"):
                raise ValueError(f"alphabet symbols must be single letters a-z, got {c!r}")
            if c in index:
                raise ValueError(f"duplicate alphabet symbol {c!r}")
            index[c] = len(index)
        object.__setattr__(self, "_index", index)

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, c: str) -> bool:
        return c in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, c: str) -> int:
        try:
            return self._index[c]
        except KeyError:
            raise AlphabetMismatchError(f"symbol {c!r} not in alphabet {''.join(self.letters)!r}") from None


def alphabet_of(letters: set[str]) -> Alphabet:
    """The given letters in a-z order.

    A letter-free input (plain 0 or 1) gets the one-letter alphabet `a`,
    so that complement-style constructions stay well-defined.
    """
    return Alphabet(tuple(sorted(letters or {"a"})))


_TERMS: dict[tuple, "RatExpr"] = {}


class _Interned(type):
    """Metaclass of the term classes: the interning constructor of `_term`."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        # setdefault is atomic, so two threads never keep two copies of a term
        return _TERMS.get(key) or _TERMS.setdefault(key, super().__call__(*fields))


class RatExpr(metaclass=_Interned):
    """Base class for rational expression terms."""

    # derived values cached after first use; see the module docstring
    __slots__ = ("_nf", "_key", "_ewp", "_size")

    def __str__(self) -> str:
        return rexp_to_str(self)

    def __reduce__(self):
        # pickle and copy rebuild a term through its constructor, which
        # returns the interned term; no cached value travels
        return (self.__class__, tuple(getattr(self, name) for name in self.__match_args__))


def _term(cls):
    """A frozen, slotted term class whose constructor looks up (class,
    *fields) in the module's term table and builds the instance with the
    dataclass `__init__` only on a miss; equality and hash are identity."""
    return dataclass(frozen=True, slots=True, eq=False)(cls)


@_term
class Zero(RatExpr):
    pass


@_term
class One(RatExpr):
    pass


@_term
class Letter(RatExpr):
    symbol: str


@_term
class Concat(RatExpr):
    left: RatExpr
    right: RatExpr


@_term
class Sum(RatExpr):
    left: RatExpr
    right: RatExpr


@_term
class Star(RatExpr):
    body: RatExpr


ZERO = Zero()
ONE = One()


def structural_key(t: RatExpr):
    """Total order on terms: constructor rank, then children lexicographically.
    Cached on the term."""
    try:
        return t._key
    except AttributeError:
        pass
    match t:
        case Zero():
            key = (0,)
        case One():
            key = (1,)
        case Letter(c):
            key = (2, c)
        case Star(x):
            key = (3, structural_key(x))
        case Concat(l, r):
            key = (4, structural_key(l), structural_key(r))
        case Sum(l, r):
            key = (5, structural_key(l), structural_key(r))
        case _:
            raise TypeError(f"not a rational expression: {t!r}")
    object.__setattr__(t, "_key", key)
    return key


def rcat(l: RatExpr, r: RatExpr) -> RatExpr:
    """Concatenation with unit/zero folding (language-preserving)."""
    if l is ZERO or r is ZERO:
        return ZERO
    if l is ONE:
        return r
    if r is ONE:
        return l
    return Concat(l, r)


def rstar(x: RatExpr) -> RatExpr:
    if x is ZERO or x is ONE:
        return ONE
    if isinstance(x, Star):
        return x
    return Star(x)


def sum_of(terms: Iterable[RatExpr]) -> RatExpr:
    """Right-nested sum of the given terms; ZERO for an empty collection."""
    items = list(terms)
    if not items:
        return ZERO
    acc = items[-1]
    for t in reversed(items[:-1]):
        acc = Sum(t, acc)
    return acc


def ewp(t: RatExpr) -> bool:
    """Empty word property: does the language of t contain the empty word?
    Cached on the term."""
    try:
        return t._ewp
    except AttributeError:
        pass
    match t:
        case Zero() | Letter(_):
            e = False
        case One() | Star(_):
            e = True
        case Sum(l, r):
            e = ewp(l) or ewp(r)
        case Concat(l, r):
            e = ewp(l) and ewp(r)
        case _:
            raise TypeError(f"not a rational expression: {t!r}")
    object.__setattr__(t, "_ewp", e)
    return e


def letter_count(t: RatExpr) -> int:
    """Number of letter occurrences of t, counted on its tree (a subterm
    shared twice counts twice): the positions of its position automaton.
    Cached on the term, so a term built from counted children costs O(1)."""
    n = getattr(t, "_size", None)  # most calls are misses, on fresh terms
    if n is not None:
        return n
    match t:
        case Zero() | One():
            n = 0
        case Letter(_):
            n = 1
        case Star(x):
            n = letter_count(x)
        case Concat(l, r) | Sum(l, r):
            n = letter_count(l) + letter_count(r)
        case _:
            raise TypeError(f"not a rational expression: {t!r}")
    object.__setattr__(t, "_size", n)
    return n


def _flatten_sum(t: RatExpr, acc: list[RatExpr]) -> None:
    if isinstance(t, Sum):
        _flatten_sum(t.left, acc)
        _flatten_sum(t.right, acc)
    else:
        acc.append(t)


def _normal(t: RatExpr) -> RatExpr:
    """Mark t, already in normal form, as its own normal form."""
    object.__setattr__(t, "_nf", None)
    return t


def _normal_sum(flat: list[RatExpr]) -> RatExpr:
    """The normal form of the sum of normal, non-sum terms: deduplicated,
    without 0, sorted by structural_key and nested to the right.  Every
    node of the chain is marked, since each suffix is normal too."""
    acc = ZERO
    for t in sorted(set(flat) - {ZERO}, key=structural_key, reverse=True):
        acc = t if acc is ZERO else _normal(Sum(t, acc))
    return acc


_UNSET = object()


def normalize_b(t: RatExpr) -> RatExpr:
    """Canonical representative of t modulo sum-ACI and unit/zero laws.

    Sums are flattened, deduplicated, purged of 0 and sorted by the
    structural order; concatenations drop 1-units and collapse on 0.
    Idempotent, language-preserving and compatible with `deriv`/`ewp`
    (the property suite checks all three).  The result is cached on t and
    marked as its own normal form; a star or concatenation whose children
    are already normal is returned as it is.
    """
    nf = getattr(t, "_nf", _UNSET)  # most calls are misses, on fresh derivative terms
    if nf is not _UNSET:
        return t if nf is None else nf
    match t:
        case Zero() | One() | Letter(_):
            nf = t
        case Star(x):
            xn = normalize_b(x)
            nf = t if xn is x else Star(xn)
        case Concat(l, r):
            ln = normalize_b(l)
            rn = normalize_b(r)
            if ln is ZERO or rn is ZERO:
                nf = ZERO
            elif ln is ONE:
                nf = rn
            elif rn is ONE:
                nf = ln
            else:
                nf = t if ln is l and rn is r else Concat(ln, rn)
        case Sum(_, _):
            raw: list[RatExpr] = []
            _flatten_sum(t, raw)
            flat: list[RatExpr] = []
            for s in raw:
                # normalizing a summand may surface a nested sum, e.g. 1·(a+b)
                _flatten_sum(normalize_b(s), flat)
            nf = _normal_sum(flat)
        case _:
            raise TypeError(f"not a rational expression: {t!r}")
    # None marks a term as its own normal form without a reference cycle
    object.__setattr__(nf, "_nf", None)
    if nf is not t:
        object.__setattr__(t, "_nf", nf)
    return nf


def _nsum(l: RatExpr, r: RatExpr) -> RatExpr:
    """normalize_b(Sum(l, r)) for normal l and r, from their summands."""
    if l is ZERO:
        return r
    if r is ZERO:
        return l
    flat: list[RatExpr] = []
    _flatten_sum(l, flat)
    _flatten_sum(r, flat)
    return _normal_sum(flat)


@lru_cache(maxsize=None)
def deriv(t: RatExpr, a: str) -> RatExpr:
    """Left derivative of t by the symbol a, in normalize_b normal form."""
    n = normalize_b(t)
    if n is not t:
        return deriv(n, a)
    match n:
        case Zero() | One():
            return ZERO
        case Letter(c):
            return ONE if c == a else ZERO
        case Sum(l, r):
            return _nsum(deriv(l, a), deriv(r, a))
        case Concat(l, r):
            head = _normal(rcat(deriv(l, a), r))
            return _nsum(head, deriv(r, a)) if ewp(l) else head
        case Star(x):
            return _normal(rcat(deriv(x, a), n))
    raise TypeError(f"not a rational expression: {t!r}")


def word_deriv(t: RatExpr, u: str) -> RatExpr:
    """Left derivative by a whole word (left fold of `deriv`)."""
    res = normalize_b(t)
    for a in u:
        res = deriv(res, a)
    return res


@lru_cache(maxsize=None)
def _member(t: RatExpr, u: str) -> bool:
    match t:
        case Zero():
            return False
        case One():
            return u == ""
        case Letter(c):
            return u == c
        case Sum(l, r):
            return _member(l, u) or _member(r, u)
        case Concat(l, r):
            return any(_member(l, u[:i]) and _member(r, u[i:]) for i in range(len(u) + 1))
        case Star(x):
            # depth first over the ends of nonempty factors in x, on a stack
            # of (position, next ends to try): recursion follows the term,
            # not the word, and a position is entered at most once
            n = len(u)
            seen = {0}
            path = [(0, iter(range(1, n + 1)))]
            while path and path[-1][0] != n:
                i, ends = path[-1]
                for j in ends:
                    if j not in seen and _member(x, u[i:j]):
                        seen.add(j)
                        path.append((j, iter(range(j + 1, n + 1))))
                        break
                else:
                    path.pop()
            return bool(path)
    raise TypeError(f"not a rational expression: {t!r}")


def member_naive(t: RatExpr, u: str) -> bool:
    """Membership by structural recursion over all factorizations.

    No derivatives involved; this is the independent oracle.  Memoized on
    (subterm, substring), so repeated queries over a word corpus are cheap.
    A star searches the factorizations of the word on an explicit stack,
    so the recursion depth follows the term, never the word's length.
    """
    return _member(t, u)


class SplitPair(NamedTuple):
    left: RatExpr
    right: RatExpr


def _split_raw(t: RatExpr) -> list[tuple[RatExpr, RatExpr]]:
    match t:
        case Zero():
            return []
        case One():
            return [(ONE, ONE)]
        case Letter(_):
            return [(ONE, t), (t, ONE)]
        case Sum(l, r):
            return _split_raw(l) + _split_raw(r)
        case Concat(l, r):
            return [(l0, Concat(l1, r)) for (l0, l1) in _split_raw(l)] + [
                (Concat(l, r0), r1) for (r0, r1) in _split_raw(r)
            ]
        case Star(x):
            inner = [(Concat(t, x0), Concat(x1, t)) for (x0, x1) in _split_raw(x)]
            return inner + [(ONE, ONE), (Concat(t, x), ONE)]
    raise TypeError(f"not a rational expression: {t!r}")


def split(t: RatExpr) -> list[SplitPair]:
    """All two-way factorizations of the language of t, as expression pairs.

    Every returned pair (l, r) satisfies language(l·r) ⊆ language(t), and
    every factorization u·v of a word of t is witnessed by some pair.
    Pairs are normalize_b-normalized and deduplicated.
    """
    seen = {(normalize_b(l), normalize_b(r)) for l, r in _split_raw(t)}
    ordered = sorted(seen, key=lambda p: (structural_key(p[0]), structural_key(p[1])))
    return [SplitPair(l, r) for l, r in ordered]


def letters_of(t: RatExpr) -> set[str]:
    match t:
        case Letter(c):
            return {c}
        case Concat(l, r) | Sum(l, r):
            return letters_of(l) | letters_of(r)
        case Star(x):
            return letters_of(x)
        case _:
            return set()


def infer_alphabet(*terms: RatExpr) -> Alphabet:
    """Alphabet of all letters occurring in the terms (see `alphabet_of`)."""
    return alphabet_of(set().union(*map(letters_of, terms)))


def words_up_to(alphabet: Alphabet, maxlen: int) -> Iterator[str]:
    """All words of length <= maxlen, shortest first, alphabet order within a length."""
    for n in range(maxlen + 1):
        for tup in product(alphabet.letters, repeat=n):
            yield "".join(tup)


def walk_words(
    letters: Iterable[str], max_len: int, start: S, step: Callable[[S, str], S], alive: Callable[[S, int], bool]
) -> Iterator[tuple[str, S]]:
    """The words of length <= max_len that a walk keeps, each with its
    state, in `words_up_to` order.

    The empty word has state `start`, and a word's state is one `step`
    from its prefix's state.  A word is kept while `alive(state, left)`
    holds, `left` being the letters that may still follow it, and only a
    kept word is extended.  The walk goes level by level from the kept
    words of the level before, without recursion, so its work is |letters|
    steps per kept word shorter than max_len, and no state that fails
    `alive` is ever stepped (Ackerman & Shallit, "Efficient enumeration of
    words in regular languages", 2009).
    """
    letters = tuple(letters)
    left = max_len
    level = [("", start)] if left >= 0 and alive(start, left) else []
    while level:
        yield from level
        left -= 1
        if left < 0:
            break
        level = [(u + a, s) for u, q in level for a in letters if alive(s := step(q, a), left)]


def enumerate_language(t: RatExpr, maxlen: int, alphabet: Alphabet | None = None) -> list[str]:
    """All words of the language of t up to the given length, in
    `words_up_to` order: `walk_words` over the Brzozowski derivatives.

    A word's state is its derivative of t, and the word is kept while that
    derivative has a word of at most `left` letters, so the work is
    |alphabet| steps per kept word shorter than maxlen, not the
    |alphabet|^maxlen candidates, and no derivative is built that no kept
    word reaches.  A kept word is listed when its derivative has the empty
    word.  Letters outside the alphabet match nothing.
    """
    if alphabet is None:
        alphabet = infer_alphabet(t)
    fewest: dict[RatExpr, float] = {}  # term -> letters of its shortest word

    def shortest(t: RatExpr) -> float:
        n = fewest.get(t)
        if n is None:
            match t:
                case Zero():
                    n = inf
                case One() | Star(_):
                    n = 0
                case Letter(c):
                    n = 1 if c in alphabet else inf
                case Sum(l, r):
                    n = min(shortest(l), shortest(r))
                case Concat(l, r):
                    n = shortest(l) + shortest(r)
                case _:
                    raise TypeError(f"not a rational expression: {t!r}")
            fewest[t] = n
        return n

    alive = lambda e, left: shortest(e) <= left
    return [u for u, e in walk_words(alphabet.letters, maxlen, normalize_b(t), deriv, alive) if ewp(e)]


def render_rexp(t: RatExpr, level: int) -> str:
    """Render t assuming the surrounding context binds at `level`
    (0 = sum, 1 = concatenation, 2 = concatenation operand, 3 = postfix operand)."""
    match t:
        case Zero():
            return "0"
        case One():
            return "1"
        case Letter(c):
            return c
        case Star(x):
            return render_rexp(x, 3) + "*"
        case Concat(l, r):
            s = render_rexp(l, 2) + render_rexp(r, 1)
            return f"({s})" if level > 1 else s
        case Sum(l, r):
            s = render_rexp(l, 1) + "+" + render_rexp(r, 0)
            return f"({s})" if level > 0 else s
    raise TypeError(f"not a rational expression: {t!r}")


def rexp_to_str(t: RatExpr) -> str:
    """Printer inverse to the parser: parse(rexp_to_str(t)) reproduces t."""
    return render_rexp(t, 0)
