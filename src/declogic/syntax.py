"""Concrete syntax for types, terms and literals.

The printed form round-trips exactly: parsing the printer's output
yields a structurally equal term, and printing again yields the same
string.  Term files may contain `#` line comments and any whitespace.
"""

from __future__ import annotations

import re

from .terms import (
    Absurd,
    Bang,
    CaseSeq,
    Comp,
    Const,
    DecoratedTerm,
    Id,
    Inj1,
    Inj2,
    Op,
    OpSymbol,
    PairSeq,
    Proj1,
    Proj2,
)
from .types import EMPTY_T, UNIT_T, Base, Empty, ObjType, Prod, Sum, Unit

TYPE_KEYWORDS = frozenset({"unit", "empty", "prod", "sum"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


def parse_at(parse, text: str, line: int, col: int, *args):
    """`parse(text.strip(), *args)` for a `text` that starts at column
    `col` of line `line` of a file; a parse error gives its place there."""
    try:
        return parse(text.strip(), *args)
    except ParseError as err:
        col += len(text) - len(text.lstrip()) + err.col - 1
        raise ParseError(err.message, line, col) from None


# ---------------------------------------------------------------------------
# Printing


def print_type(ty: ObjType) -> str:
    if isinstance(ty, Unit):
        return "unit"
    if isinstance(ty, Empty):
        return "empty"
    if isinstance(ty, Base):
        return ty.name
    if isinstance(ty, Prod):
        return f"prod({print_type(ty.left)}, {print_type(ty.right)})"
    if isinstance(ty, Sum):
        return f"sum({print_type(ty.left)}, {print_type(ty.right)})"
    raise TypeError(f"not an object type: {ty!r}")


def print_value(value: object, ty: ObjType) -> str:
    """Print a carrier value at type `ty`.

    Printing is type-directed, so pairs and tagged sums never collide.
    Base values must be integers; anything else has no literal form.
    """
    from .model import UNIT

    if isinstance(ty, Unit):
        if value is UNIT:
            return "()"
    elif isinstance(ty, Base):
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
    elif isinstance(ty, Prod):
        if isinstance(value, tuple) and len(value) == 2:
            return f"({print_value(value[0], ty.left)}, {print_value(value[1], ty.right)})"
    elif isinstance(ty, Sum):
        if isinstance(value, tuple) and len(value) == 2 and value[0] in ("L", "R"):
            if value[0] == "L":
                return f"l({print_value(value[1], ty.left)})"
            return f"r({print_value(value[1], ty.right)})"
    raise ValueError(f"no literal form for {value!r} at {print_type(ty)}")


def print_term(term: DecoratedTerm) -> str:
    """The printed form of `term`; iterative, so deep terms print too."""
    if not isinstance(term, DecoratedTerm):
        raise TypeError(f"not a term: {term!r}")
    out: list[str] = []
    stack: list = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Comp):
            out.append("comp(")
            stack += (")", item.inner, ", ", item.outer)
        elif isinstance(item, PairSeq):
            out.append("pair(")
            stack += (")", item.second, ", ", item.first)
        elif isinstance(item, CaseSeq):
            out.append("case(")
            stack += (")", item.on_right, ", ", item.on_left)
        else:
            out.append(_print_leaf(item))
    return "".join(out)


def _print_leaf(term: DecoratedTerm) -> str:
    if isinstance(term, Id):
        return f"id({print_type(term.at)})"
    if isinstance(term, Op):
        return f"op({term.symbol.name})"
    if isinstance(term, Proj1):
        return f"proj1({print_type(term.left)}, {print_type(term.right)})"
    if isinstance(term, Proj2):
        return f"proj2({print_type(term.left)}, {print_type(term.right)})"
    if isinstance(term, Inj1):
        return f"inj1({print_type(term.left)}, {print_type(term.right)})"
    if isinstance(term, Inj2):
        return f"inj2({print_type(term.left)}, {print_type(term.right)})"
    if isinstance(term, Bang):
        return f"bang({print_type(term.at)})"
    if isinstance(term, Absurd):
        return f"absurd({print_type(term.at)})"
    if isinstance(term, Const):
        return f"const({print_value(term.value, term.at)}, {print_type(term.at)})"
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Scanning
#
# A token is its text, and the end of input is the empty string.  Its
# kind follows from its first character: a letter or `_` starts a name,
# a digit or `-` an integer, and `(`, `)`, `,` stand alone.  Any other
# character is an error, reported before any parse error.

# Layout (blanks, newlines, whole `#` comments), then one token, or a
# character that starts none, or the end of the text.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: \#[^\n]*(?=\n|\Z) [ \t\r\n]* )*
    ( [(),] | -?\d+ | [^\W\d]\w* | [^\#] | \Z )
""", re.VERBOSE)


def _scan(text: str) -> list[str]:
    """Tokens of `text`; the first empty string is the end of input.

    On ASCII text the regex classes are exactly the token rules, so one
    `findall` scans it.  An offending character stays in as a token,
    which the parser never accepts; the parse error that follows
    rescans with `_located_tokens`, which reports the character instead.
    """
    if text.isascii():
        return _TOKEN.findall(text)
    return _located_tokens(text)[0]


def _located_tokens(text: str) -> tuple[list[str], list[int]]:
    """Tokens and their offsets, one at a time by the exact token rules.

    The end of input sits after trailing blanks but where a trailing
    comment starts, since comment characters advance no column.
    """
    tokens: list[str] = []
    offsets: list[int] = []
    pos = 0
    while True:
        found = _TOKEN.match(text, pos)
        offset = found.start(1)
        if offset == found.end(1):
            break
        pos = offset + 1 if text[offset] in "()," else _token_end(text, offset)
        if pos is None:
            raise ParseError(f"unexpected character {text[offset]!r}",
                             *_position(text, offset))
        tokens.append(text[offset:pos])
        offsets.append(offset)
    comment = text.find("#", max(pos, text.rfind("\n") + 1))
    tokens.append("")
    offsets.append(len(text) if comment < 0 else comment)
    return tokens, offsets


def _token_end(text: str, start: int) -> int | None:
    """End of the name or integer at `start`, or None if none starts there.

    Names start with a letter or `_` and go on with `str.isalnum`
    characters; integers are `str.isdecimal` runs, optionally after `-`,
    so that `int` reads every one.  The regex classes agree with that on
    ASCII only: a few non-ASCII digits and numerals (such as `²` or `½`)
    are word characters but no letters, or digits but no decimals.
    """
    ch = text[start]
    end = start + 1
    if ch.isalpha() or ch == "_":
        while end < len(text) and (text[end].isalnum() or text[end] == "_"):
            end += 1
        return end
    if ch.isdecimal() or (ch == "-" and end < len(text) and text[end].isdecimal()):
        while end < len(text) and text[end].isdecimal():
            end += 1
        return end
    return None


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset` in `text`."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_int(tok: str) -> bool:
    # a lone `-` is an offending character left in by `_scan`
    return tok[:1].isdecimal() or (tok[:1] == "-" and len(tok) > 1)


_BINARY = {"comp": Comp, "pair": PairSeq, "case": CaseSeq}
_TYPE_PAIRS = {"proj1": Proj1, "proj2": Proj2, "inj1": Inj1, "inj2": Inj2}
_LEAF_FORMS = frozenset({"op", "id", "bang", "absurd", "const", *_TYPE_PAIRS})


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error_at(self, index: int, message: str) -> ParseError:
        """An error at the token numbered `index`, unless the text holds
        an offending character: rescanning raises that error instead."""
        offset = _located_tokens(self.text)[1][index]
        return ParseError(message, *_position(self.text, offset))

    def fail(self, message: str) -> ParseError:
        return self.error_at(self.pos, message)

    def expect_punct(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.fail(f"expected {text!r}")
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.peek()
        if not _is_name(tok):
            raise self.fail("expected a name")
        self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        return self.peek() == text

    def expect_eof(self) -> None:
        if self.peek():
            raise self.fail("unexpected trailing input")

    # -- types

    def parse_type(self) -> ObjType:
        name = self.peek()
        if not _is_name(name):
            raise self.fail("expected a type")
        self.pos += 1
        if name == "unit":
            return UNIT_T
        if name == "empty":
            return EMPTY_T
        if name in ("prod", "sum"):
            self.expect_punct("(")
            left = self.parse_type()
            self.expect_punct(",")
            right = self.parse_type()
            self.expect_punct(")")
            return Prod(left, right) if name == "prod" else Sum(left, right)
        return Base(name)

    # -- raw literals (coerced against a type once it is known)

    def parse_raw_literal(self):
        tok = self.peek()
        if _is_int(tok):
            self.advance()
            return ("int", int(tok))
        if tok in ("l", "r"):
            tag = self.advance()
            self.expect_punct("(")
            inner = self.parse_raw_literal()
            self.expect_punct(")")
            return ("tag", "L" if tag == "l" else "R", inner)
        if self.at_punct("("):
            self.advance()
            if self.at_punct(")"):
                self.advance()
                return ("unit",)
            first = self.parse_raw_literal()
            self.expect_punct(",")
            second = self.parse_raw_literal()
            self.expect_punct(")")
            return ("pair", first, second)
        raise self.fail("expected a literal")

    def coerce_literal(self, raw, ty: ObjType, at: int):
        """The value of `raw` at `ty`; errors point at token `at`."""
        from .model import UNIT

        if isinstance(ty, Unit) and raw[0] == "unit":
            return UNIT
        if isinstance(ty, Base) and raw[0] == "int":
            return raw[1]
        if isinstance(ty, Prod) and raw[0] == "pair":
            return (
                self.coerce_literal(raw[1], ty.left, at),
                self.coerce_literal(raw[2], ty.right, at),
            )
        if isinstance(ty, Sum) and raw[0] == "tag":
            side = ty.left if raw[1] == "L" else ty.right
            return (raw[1], self.coerce_literal(raw[2], side, at))
        raise self.error_at(at, f"literal does not fit type {print_type(ty)}")

    # -- terms

    def parse_term(self, signature: dict[str, OpSymbol]) -> DecoratedTerm:
        """One term.  Composite forms wait on an explicit stack of
        [constructor, first child] entries, so nesting depth is not
        limited by recursion."""
        tokens = self.tokens
        pending: list[list] = []
        while True:
            at = self.pos
            head = tokens[at]
            ctor = _BINARY.get(head)
            if ctor is None and head not in _LEAF_FORMS and not _is_name(head):
                raise self.fail("expected a term")
            self.pos += 1
            self.expect_punct("(")
            if ctor is not None:
                pending.append([ctor, None])
                continue
            term = self._parse_leaf_body(head, at, signature)
            self.expect_punct(")")
            while pending and pending[-1][1] is not None:
                ctor, first = pending.pop()
                term = ctor(first, term)
                self.expect_punct(")")
            if not pending:
                return term
            pending[-1][1] = term
            self.expect_punct(",")

    def _parse_leaf_body(self, head: str, at: int,
                         signature: dict[str, OpSymbol]) -> DecoratedTerm:
        """The arguments of the leaf form `head`, whose name is token `at`."""
        if head == "op":
            name = self.expect_ident()
            symbol = signature.get(name)
            if symbol is None:
                raise self.error_at(at, f"operation {name!r} is not declared")
            return Op(symbol)
        if head == "id":
            return Id(self.parse_type())
        ctor = _TYPE_PAIRS.get(head)
        if ctor is not None:
            left = self.parse_type()
            self.expect_punct(",")
            right = self.parse_type()
            return ctor(left, right)
        if head == "bang":
            return Bang(self.parse_type())
        if head == "absurd":
            return Absurd(self.parse_type())
        if head == "const":
            lit_at = self.pos
            raw = self.parse_raw_literal()
            self.expect_punct(",")
            ty = self.parse_type()
            return Const(self.coerce_literal(raw, ty, lit_at), ty)
        raise self.error_at(at, f"unknown term form {head!r}")


def parse_type(text: str) -> ObjType:
    parser = _Parser(text)
    ty = parser.parse_type()
    parser.expect_eof()
    return ty


def parse_term(text: str, signature: dict[str, OpSymbol] | None = None) -> DecoratedTerm:
    parser = _Parser(text)
    term = parser.parse_term(signature or {})
    parser.expect_eof()
    return term
