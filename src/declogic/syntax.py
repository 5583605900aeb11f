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


_CODE_ESCAPES = {"_": "__", "(": "_a", ",": "_b", ")": "_c"}
_CODE_UNESCAPES = {code[1]: char for char, code in _CODE_ESCAPES.items()}


def type_code(ty: ObjType) -> str:
    """`print_type(ty)` spelled in identifier characters: spaces dropped,
    and `_`, `(`, `,` and `)` written as `__`, `_a`, `_b` and `_c`."""
    return "".join(_CODE_ESCAPES.get(char, char) for char in print_type(ty) if char != " ")


def parse_type_code(code: str) -> ObjType | None:
    """The type that `type_code` spells as `code`, or None if none is."""
    try:
        ty = parse_type(re.sub(r"_(.?)", lambda m: _CODE_UNESCAPES.get(m[1], "?"), code))
    except ParseError:
        return None
    return ty if type_code(ty) == code else None


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
# Term text and imp programs share one lexical layer, `located_tokens`:
# `LAYOUT` (blanks, newlines, `#` comments to the end of the line), then
# one token, or the empty string at the end.  A character that starts
# no token is an error at its place, before any parse error.  `\d` is
# exactly `str.isdecimal` and `\w` is `str.isalnum` or `_`, so `int`
# reads every `\d+`, and a `\w+` led by a numeral such as `²` is no
# name.  The line formats cut `#` comments with `code_lines`.

LAYOUT = r"[ \t\r\n]* (?: \#[^\n]*(?=\n|\Z) [ \t\r\n]* )*"


def located_tokens(pattern: re.Pattern, text: str,
                   is_token) -> tuple[list[str], list[int]]:
    """Tokens of `text` and their offsets, ending with the empty token.

    Group 1 of each `pattern` match, after `LAYOUT`, is a token, a word
    or character that `is_token` refuses (the first raises), or the end,
    which sits where a comment on the last line starts.
    """
    tokens: list[str] = []
    offsets: list[int] = []
    for found in pattern.finditer(text):
        tok = found[1]
        if not tok:
            break
        if not is_token(tok):
            raise ParseError(f"unexpected character {tok[0]!r}",
                             *_position(text, found.start(1)))
        tokens.append(tok)
        offsets.append(found.start(1))
    comment = text.find("#", text.rfind("\n") + 1)
    tokens.append("")
    offsets.append(len(text) if comment < 0 else comment)
    return tokens, offsets


def code_lines(text: str):
    """`(lineno, line, end_col)` for each line of `text` that holds code
    once its `#` comment is cut off: `line` is that code stripped, and a
    suffix `s` of it starts at column `end_col - len(s)`.  Only a newline
    ends a line, as in the positions the scanners report."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if line:
            yield lineno, line, len(code) - len(code.lstrip()) + len(line) + 1


# A name starts with a letter or `_`, an integer with a digit or `-`, and
# `(`, `)`, `,` stand alone.
_TOKEN = re.compile(LAYOUT + r" ( [(),] | -?\d+ | \w+ | [^\#] | \Z )",
                    re.VERBOSE)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset` in `text`."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_int(tok: str) -> bool:
    # a lone `-` is an offending character that `findall` leaves in
    return tok[:1].isdecimal() or (tok[:1] == "-" and len(tok) > 1)


def _is_token(tok: str) -> bool:
    return tok in ("(", ")", ",") or _is_name(tok) or _is_int(tok)


_BINARY = {"comp": Comp, "pair": PairSeq, "case": CaseSeq}
_TYPE_PAIRS = {"proj1": Proj1, "proj2": Proj2, "inj1": Inj1, "inj2": Inj2}
_LEAF_FORMS = frozenset({"op", "id", "bang", "absurd", "const", *_TYPE_PAIRS})


class _Parser:
    def __init__(self, text: str):
        # `findall` gives the tokens of `located_tokens` up to the first
        # empty one, unchecked.  The parser accepts no token that
        # `_is_token` refuses, so a text holding one never parses, and
        # the rescan in `error_at` reports its character instead.
        self.text = text
        self.tokens = _TOKEN.findall(text)
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
        offset = located_tokens(_TOKEN, self.text, _is_token)[1][index]
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
