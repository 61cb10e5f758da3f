"""Concrete grammar shared by all expression kinds.

Constants `0` and `1`, letters `a`-`z`, postfix `*` (star), `@` (lasso
loop) and `$` (omega power), juxtaposition or `.` for concatenation,
`+` for union, parentheses.  Precedence: postfix > concatenation > `+`;
concatenation and `+` associate to the right (the printers rely on this).

The parser produces a raw tagged tree, and the caller names the postfix
operators it allows besides `*`.  `raw_to_rexp` converts the tree to a
rational expression; `lassoexp.raw_to_tailed` converts it to a lasso or
omega expression, where the kind decides only which terminal (`@` or
`$`) ends a branch.
"""

from __future__ import annotations

from .errors import ParseError
from .ratexp import Alphabet, Letter, ONE, RatExpr, ZERO, Concat, Star, Sum

RawExpr = tuple  # ("zero",) | ("one",) | ("letter", c) | ("cat", l, r) | ("sum", l, r) | ("star", x) | ("circle", x) | ("omega", x)

_POSTFIX = {"*": "star", "@": "circle", "$": "omega"}


class _Parser:
    def __init__(self, text: str, allow: frozenset[str], alphabet: Alphabet | None):
        self.text = text
        self.pos = 0
        self.allow = allow
        self.alphabet = alphabet

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        c = self.peek()
        assert c is not None
        self.pos += 1
        return c

    def parse(self) -> RawExpr:
        node = self.parse_sum()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def parse_sum(self) -> RawExpr:
        left = self.parse_cat()
        if self.peek() == "+":
            self.take()
            return ("sum", left, self.parse_sum())
        return left

    def parse_cat(self) -> RawExpr:
        left = self.parse_postfix()
        c = self.peek()
        if c == ".":
            self.take()
            return ("cat", left, self.parse_cat())
        if c is not None and (c in "01(" or "a" <= c <= "z"):
            return ("cat", left, self.parse_cat())
        return left

    def parse_postfix(self) -> RawExpr:
        node = self.parse_atom()
        while (c := self.peek()) in _POSTFIX:
            kind = _POSTFIX[c]
            if kind != "star" and kind not in self.allow:
                raise self.error(f"operator {c!r} not allowed here")
            self.take()
            node = (kind, node)
        return node

    def parse_atom(self) -> RawExpr:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of input")
        if c == "0":
            self.take()
            return ("zero",)
        if c == "1":
            self.take()
            return ("one",)
        if "a" <= c <= "z":
            check_letter(c, self.alphabet, self.pos)
            self.take()
            return ("letter", c)
        if c == "(":
            self.take()
            node = self.parse_sum()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return node
        raise self.error(f"unexpected {c!r}")


def check_letter(c: str, alphabet: Alphabet | None, pos: int | None = None) -> None:
    """Raise ParseError if an alphabet is given and c lies outside it."""
    if alphabet is not None and c not in alphabet:
        raise ParseError(f"letter {c!r} outside alphabet {''.join(alphabet.letters)!r}", pos)


def check_symbols(text: str, where: str) -> None:
    """Raise ParseError on the first symbol of text outside a-z, in `where`."""
    for c in text:
        if not ("a" <= c <= "z"):
            raise ParseError(f"invalid symbol {c!r} in {where}")


def parse_raw(text: str, allow: frozenset[str] = frozenset(), alphabet: Alphabet | None = None) -> RawExpr:
    return _Parser(text, allow, alphabet).parse()


def raw_to_rexp(raw: RawExpr) -> RatExpr:
    match raw:
        case ("zero",):
            return ZERO
        case ("one",):
            return ONE
        case ("letter", c):
            return Letter(c)
        case ("cat", l, r):
            return Concat(raw_to_rexp(l), raw_to_rexp(r))
        case ("sum", l, r):
            return Sum(raw_to_rexp(l), raw_to_rexp(r))
        case ("star", x):
            return Star(raw_to_rexp(x))
        case ("circle", _) | ("omega", _):
            raise ParseError(f"operator {'@' if raw[0] == 'circle' else '$'} not allowed in a rational expression")
    raise ParseError(f"malformed term {raw!r}")


def parse_rexp(text: str, alphabet: Alphabet | None = None) -> RatExpr:
    """Parse a rational expression; letters are checked against the alphabet if given."""
    return raw_to_rexp(parse_raw(text, frozenset(), alphabet))
