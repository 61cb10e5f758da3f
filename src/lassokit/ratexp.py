"""Rational expressions: syntax, semantics, derivatives, and splitting.

The term algebra is the usual one (0, 1, letters, concatenation, union,
star).  Terms are immutable and hashable, which lets normalized terms
serve directly as automaton states.  `member_naive` is a deliberately
derivative-free membership oracle used to cross-check everything built
on top of `deriv`.  `enumerate_language` lists a language up to a length
without it, bottom-up over the term, and is cross-checked against it.

Each term caches five values derived from its fields the first time
they are asked for: its hash, its `normalize_b` normal form, its
`structural_key`, its empty word property (`ewp`) and its number of
letter occurrences (`letter_count`).  The invariants:

- cached values are derived from the fields alone, so a term and a fresh
  copy built from the same fields agree on all five;
- they are never compared, printed or pickled: `==` and `repr` see only
  the fields, and pickle, `copy` and `deepcopy` rebuild a term from its
  fields (a hash mixes in per-process `str` hashes and must not travel);
- a normal form is its own normal form: `normalize_b` records its result
  on the input and marks the result as normal.

These caches are freed with their terms.  `deriv` and `_member` are
unbounded module-level `lru_cache`s and keep every term they see;
`_member` serves only `member_naive`.

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
from typing import Iterable, Iterator, NamedTuple

from .errors import AlphabetMismatchError


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


class RatExpr:
    """Base class for rational expression terms."""

    # derived values cached after first use; see the module docstring
    __slots__ = ("_hash", "_nf", "_key", "_ewp", "_size")

    def __str__(self) -> str:
        return rexp_to_str(self)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # the class is part of the hash, so Sum(x, y) and Concat(x, y) differ
            h = hash((self.__class__, *self._fields()))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # pickle and copy rebuild a term from its fields alone, so no cached
        # value travels, whatever a Python version's dataclasses do for
        # frozen slotted classes
        return (self.__class__, self._fields())


def _term(cls):
    """A frozen, slotted term class: fields compared as by the dataclass,
    hashed by RatExpr's cached hash instead of the dataclass's uncached one."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = RatExpr.__hash__
    return cls


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
    if l == ZERO or r == ZERO:
        return ZERO
    if l == ONE:
        return r
    if r == ONE:
        return l
    return Concat(l, r)


def rsum(l: RatExpr, r: RatExpr) -> RatExpr:
    if l == ZERO:
        return r
    if r == ZERO:
        return l
    if l == r:
        return l
    return Sum(l, r)


def rstar(x: RatExpr) -> RatExpr:
    if x == ZERO or x == ONE:
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
            if ln == ZERO or rn == ZERO:
                nf = ZERO
            elif ln == ONE:
                nf = rn
            elif rn == ONE:
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
    if l == ZERO:
        return r
    if r == ZERO:
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


def enumerate_language(t: RatExpr, maxlen: int, alphabet: Alphabet | None = None) -> list[str]:
    """All words of the language of t up to the given length, in
    `words_up_to` order.

    The language is built bottom-up: each subterm keeps one set of words
    per length 0..maxlen.  A concatenation joins length i with length j
    for i + j <= maxlen, and a star is built length by length from its
    nonempty body words, so the work follows the words the subterms have,
    at most (maxlen + 1) times the number of words up to maxlen per
    subterm, not the |alphabet|^maxlen candidates.  Letters outside the
    alphabet match nothing.
    """
    if alphabet is None:
        alphabet = infer_alphabet(t)
    if maxlen < 0:
        return []
    lengths = range(maxlen + 1)
    by_term: dict[RatExpr, list[set[str]]] = {}

    def words(t: RatExpr) -> list[set[str]]:
        if t in by_term:
            return by_term[t]
        out: list[set[str]] = [set() for _ in lengths]
        match t:
            case Zero():
                pass
            case One():
                out[0].add("")
            case Letter(c):
                if c in alphabet and maxlen >= 1:
                    out[1].add(c)
            case Sum(l, r):
                out = [u | v for u, v in zip(words(l), words(r))]
            case Concat(l, r):
                left, right = words(l), words(r)
                for i in lengths:
                    for j in range(maxlen - i + 1):
                        out[i + j].update(u + v for u in left[i] for v in right[j])
            case Star(x):
                body = words(x)
                out[0].add("")
                for n in lengths[1:]:
                    for i in range(1, n + 1):
                        out[n].update(u + v for u in body[i] for v in out[n - i])
            case _:
                raise TypeError(f"not a rational expression: {t!r}")
        by_term[t] = out
        return out

    # within a length, words_up_to order is the order of alphabet positions
    positions = str.maketrans({c: chr(i) for i, c in enumerate(alphabet.letters)})
    return [u for level in words(t) for u in sorted(level, key=lambda u: u.translate(positions))]


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
