"""Concrete syntax for types, terms and literals.

Every form prints as its head, followed by its arguments in parentheses
when it has any: `terms.FORMS` gives both, and the printer and the parser
here read it.  A literal takes the form of its type: `()` at unit, an
integer at a base type, `(a, b)` at a product, and `l(a)` or `r(a)` at a
sum.  Both walk forms over an explicit stack, so types, literals and
terms nest to any depth.

The printed form round-trips exactly: parsing the printer's output
yields a structurally equal term, and printing again yields the same
string.  Term files may contain `#` line comments and any whitespace.
"""

from __future__ import annotations

import re

from .terms import FORMS, Const, DecoratedTerm, OpSymbol
from .types import Base, ObjType, Prod, Sum, Unit


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


def _print(item) -> str:
    """The printed form of a term, a type or a literal `(value, type)`.
    Forms wait on an explicit stack, so any depth prints."""
    out: list[str] = []
    stack = [item]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
            continue
        if cls is tuple:
            head, args = _literal(*item)
        else:
            form = FORMS.get(cls)
            if form is None:
                raise TypeError(f"not a term or type: {item!r}")
            head, get, kinds, _ = form
            if not kinds:
                out.append(item.name if head is None else head)
                continue
            args = get(item)
        if not args:
            out.append(head)
            continue
        out.append(head + "(")
        if len(args) == 2:
            stack += (")", args[1], ", ", args[0])
        else:
            stack += (")", args[0])
    return "".join(out)


def _literal(value, ty: ObjType) -> tuple:
    """The head of the literal for `value` at `ty`, and its parts as
    `(value, type)` pairs.  A value that has none raises ValueError, with
    the type it misses as `at`."""
    from .model import UNIT

    cls = type(ty)
    if cls is Unit and value is UNIT:
        return "()", ()
    if cls is Base and isinstance(value, int) and not isinstance(value, bool):
        return str(value), ()
    if isinstance(value, tuple) and len(value) == 2:
        # A tagged value is no pair, whatever its parts are.
        tagged = value[0] in ("L", "R")
        if cls is Prod and not tagged:
            return "", ((value[0], ty.left), (value[1], ty.right))
        if cls is Sum and tagged:
            return value[0].lower(), ((value[1], ty.left if value[0] == "L" else ty.right),)
    err = ValueError(f"no literal form for {value!r} at {print_type(ty)}")
    err.at = ty
    raise err


def print_type(ty: ObjType) -> str:
    if not isinstance(ty, ObjType):
        raise TypeError(f"not an object type: {ty!r}")
    return _print(ty)


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
    return _print((value, ty))


def print_term(term: DecoratedTerm) -> str:
    """The printed form of `term`; iterative, so deep terms print too."""
    if not isinstance(term, DecoratedTerm):
        raise TypeError(f"not a term: {term!r}")
    return _print(term)


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


# The heads that open a form where a term, a type, an op name or a
# literal is read, each with the form's build and the heads its first
# and second arguments are read with (None past its arity).  Any other
# name is a base type where a type is read.  A literal is an integer,
# `()`, `(a, b)`, `l(a)` or `r(a)`, which builds `("L", a)`.
_TERMS, _TYPES, _NAMES, _LITERALS = {}, {}, {}, {}
_KINDS = {"t": _TERMS, "T": _TYPES, "n": _NAMES, "v": _LITERALS}


def _opens(build, kinds: str) -> tuple:
    return (build, *(_KINDS[kind] for kind in kinds), None, None)[:3]


_TERMS.update((f.head, _opens(c, f.kinds)) for c, f in FORMS.items()
              if issubclass(c, DecoratedTerm))
_TYPES.update((f.head, _opens(c, f.kinds)) for c, f in FORMS.items()
              if f.head and issubclass(c, ObjType))
_LITERALS.update({"(": _opens(lambda *pair: pair, "vv"),
                  "l": _opens(lambda value: ("L", value), "v"),
                  "r": _opens(lambda value: ("R", value), "v")})
TYPE_KEYWORDS = frozenset(_TYPES)


class _Parser:
    def __init__(self, text: str):
        # `findall` gives the tokens of `located_tokens` up to the first
        # empty one, unchecked.  The parser accepts no token that
        # `_is_token` refuses, so a text holding one never parses, and
        # the rescan in `error_at` reports its character instead.
        self.text = text
        self.tokens = _TOKEN.findall(text)

    def error_at(self, index: int, message: str) -> ParseError:
        """An error at the token numbered `index`, unless the text holds
        an offending character: rescanning raises that error instead."""
        offset = located_tokens(_TOKEN, self.text, _is_token)[1][index]
        return ParseError(message, *_position(self.text, offset))

    def parse(self, heads: dict, signature: dict[str, OpSymbol]):
        """The term (`heads` is `_TERMS`) or type (`_TYPES`) that is the
        whole text.  A form waits on an explicit stack of [build, heads of
        its second argument, head token, first argument] entries until its
        arguments are read, so nesting depth is not limited by recursion."""
        tokens = self.tokens
        pos = 0
        pending: list[list] = []
        while True:
            at = pos
            tok = tokens[at]
            pos += 1
            opened = heads.get(tok)
            if heads is _TERMS:
                if opened is None and not _is_name(tok):
                    raise self.error_at(at, "expected a term")
                if tokens[pos] != "(":
                    raise self.error_at(pos, "expected '('")
                pos += 1
                if opened is None:
                    raise self.error_at(at, f"unknown term form {tok!r}")
            elif heads is _TYPES:
                if opened is None:
                    if not _is_name(tok):
                        raise self.error_at(at, "expected a type")
                    item = Base(tok)
                elif opened[1] is None:
                    item, opened = opened[0](), None
                elif tokens[pos] != "(":
                    raise self.error_at(pos, "expected '('")
                else:
                    pos += 1
            elif heads is _NAMES:
                if not _is_name(tok):
                    raise self.error_at(at, "expected a name")
                item = signature.get(tok)
                if item is None:
                    raise self.error_at(pending[-1][2],
                                        f"operation {tok!r} is not declared")
            elif _is_int(tok):
                item = int(tok)
            elif opened is None:
                raise self.error_at(at, "expected a literal")
            elif tok == "(" and tokens[pos] == ")":
                from .model import UNIT

                pos += 1
                item, opened = UNIT, None
            elif tok != "(":
                if tokens[pos] != "(":
                    raise self.error_at(pos, "expected '('")
                pos += 1
            if opened is not None:
                build, heads, second = opened
                pending.append([build, second, at, None])
                continue
            # Every form has one or two arguments.
            while pending:
                build, second, head_at, first = frame = pending[-1]
                if second is not None:
                    if tokens[pos] != ",":
                        raise self.error_at(pos, "expected ','")
                    pos += 1
                    frame[1], frame[3], heads = None, item, second
                    break
                pending.pop()
                if first is None:
                    item = build(item)
                else:
                    if build is Const:
                        self.check_literal(first, item, head_at + 2)
                    item = build(first, item)
                if tokens[pos] != ")":
                    raise self.error_at(pos, "expected ')'")
                pos += 1
            else:
                if tokens[pos]:
                    raise self.error_at(pos, "unexpected trailing input")
                return item

    def check_literal(self, value, ty: ObjType, at: int) -> None:
        """Raise at token `at` unless `ty` has a literal for `value`.  The
        printer tells a parsed pair from a parsed `l(a)` or `r(a)`, since
        no pair starts with a tag."""
        try:
            _print((value, ty))
        except ValueError as err:
            raise self.error_at(at, f"literal does not fit type {print_type(err.at)}") from None


def parse_type(text: str) -> ObjType:
    return _Parser(text).parse(_TYPES, {})


def parse_term(text: str, signature: dict[str, OpSymbol] | None = None) -> DecoratedTerm:
    return _Parser(text).parse(_TERMS, signature or {})
