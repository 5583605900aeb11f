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
The parser hash-conses the nodes of one file: equal subterms within a
term file, theory dump or proof script are one node, so
`canonical_key`, which caches ids on nodes, keys each of them once.
Nothing is shared across files.
Printing and parsing serve files and messages only: no op name spells
a type, so elaborating and checking a program print and parse none.

Model files, theory dumps and proof scripts are line formats, each line
form described once in `LINE_FORMS` for `read_lines` and `print_lines`.
"""

from __future__ import annotations

import re

from .terms import (CHILDREN, FORMS, Const, DecoratedTerm, Decoration, Equation,
                    Mode, OpSymbol)
from .types import UNIT, Base, ObjType, Prod, Sum, Unit


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
# name.  The line formats cut `#` comments in `read_lines`.

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
# Term forms whose arguments are terms (`CHILDREN`) or an op symbol: a
# node's key holds their ids, since `==` on nodes is structural and deep.
# The node holds them, so no id is reused while its key is in the table.
# The other term forms take types, which are interned, or a literal.
_BY_IDENTITY = frozenset(CHILDREN) | {c for c, f in FORMS.items() if f.kinds == "n"}
_TERM_FORMS = frozenset(c for c in FORMS if issubclass(c, DecoratedTerm))


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

    def parse(self, heads: dict, signature: dict[str, OpSymbol], nodes: dict):
        """The term (`heads` is `_TERMS`) or type (`_TYPES`) that is the
        whole text.  A form waits on an explicit stack of [build, heads of
        its second argument, head token, first argument] entries until its
        arguments are read, so nesting depth is not limited by recursion.
        Term nodes come from `nodes` through `_node`."""
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
                if build not in _TERM_FORMS:
                    item = build(item) if first is None else build(first, item)
                else:
                    item = _node(nodes, build, first, item,
                                 self.literal(first, item, head_at + 2)
                                 if build is Const else None)
                if tokens[pos] != ")":
                    raise self.error_at(pos, "expected ')'")
                pos += 1
            else:
                if tokens[pos]:
                    raise self.error_at(pos, "unexpected trailing input")
                return item

    def literal(self, value, ty: ObjType, at: int) -> str:
        """The literal of `value` at `ty`, or an error at token `at` if
        `ty` has none.  The printer tells a parsed pair from a parsed
        `l(a)` or `r(a)`, since no pair starts with a tag."""
        try:
            return _print((value, ty))
        except ValueError as err:
            raise self.error_at(at, f"literal does not fit type {print_type(err.at)}") from None


def _node(nodes: dict, build, first, second, literal: str | None = None):
    """The term node `build(first, second)`, or `build(second)` when
    `first` is None, built once per key in `nodes`: its form with its
    child nodes and op symbol by identity, its types as they are, and a
    constant's `literal` as printed, so no key compares deep values.
    Equal subterms built with one `nodes` are therefore one node."""
    if literal is not None:
        key = (Const, literal, second)
    elif build in _BY_IDENTITY:
        key = (build, id(second)) if first is None else (build, id(first), id(second))
    else:
        key = (build, second) if first is None else (build, first, second)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = build(second) if first is None else build(first, second)
        if literal is not None:
            object.__setattr__(node, "_literal", literal)
    return node


def parse_type(text: str) -> ObjType:
    return _Parser(text).parse(_TYPES, {}, {})


def parse_term(text: str, signature: dict[str, OpSymbol] | None = None,
               nodes: dict | None = None) -> DecoratedTerm:
    """The term `text`; equal subterms are one node, and so are equal
    subterms of every term parsed with the same `nodes` table."""
    return _Parser(text).parse(_TERMS, signature or {}, {} if nodes is None else nodes)


# ---------------------------------------------------------------------------
# Line formats
#
# A line holds one form: its head word, then the rest of the form's
# template.  The holes of a template are the placeholders of `_HOLES`.
# The text between two holes stands as written, blanks around its words
# optional, and a hole runs up to the first character of that text.  A
# form whose first hole is a NAME, BASE or LABEL declares that name, and
# a file declares it once.  `#` starts a comment, and only a newline ends
# a line, as in the positions the scanners report.

LINE_FORMS = {
    # head: (template, the formats that accept the form)
    "type": ("type BASE = {..}", ("model", "theory")),
    "location": ("location NAME : BASE", ("model", "theory")),
    "exception": ("exception NAME : BASE", ("model", "theory")),
    "theory": ("theory FLAVOR", ("theory",)),
    "op": ("op NAME : SRC -> TGT @ (s,e)", ("theory",)),
    "axiom": ("axiom LABEL : MODE LHS = RHS", ("theory",)),
    "obs": ("obs DIRECTION : TERMS", ("theory",)),
    "goal": ("goal MODE LHS = RHS", ("script",)),
    "step": ("step N: RULE [PREMISES] |- MODE LHS = RHS", ("script",)),
}


FLAVORS = ("states", "exceptions", "combined")
_MODES = {mode.value: mode for mode in Mode}


def _word(ok, message: str, value=None):
    """The reader of a one-word hole: `text`, or `value(text)`, if `ok(text)`."""
    def read(text: str, signature, terms):
        if not ok(text):
            raise ParseError(message.format(text), 1, 1)
        return text if value is None else value(text)
    return read


def _items(text: str, first: int = 1) -> list:
    """The stripped items of the comma list `text` at column `first`, a
    decimal one as its int; a blank text has none, and a blank item is an
    error at its column."""
    items: list = []
    for part in text.split(",") if text and not text.isspace() else ():
        item = part.strip()
        if not item:
            raise ParseError("empty list item", 1, first + len(part))
        items.append(int(item) if item.isdecimal() else item)
        first += len(part) + 1
    return items


def _terms(text: str, signature, terms) -> tuple[DecoratedTerm, ...]:
    if not _items(text):
        raise ParseError("expected a term", 1, 1)
    pieces: list[list] = []
    col = depth = 0
    for part in text.split(","):
        if depth:  # the comma before `part` sits inside parentheses
            pieces[-1][1] += "," + part
        else:
            pieces.append([col + 1, part])
        col += len(part) + 1
        depth += part.count("(") - part.count(")")
    return tuple(_side(piece, at, signature, terms) for at, piece in pieces)


def _carrier(text: str, signature, terms) -> tuple[int, ...]:
    if text[:1] + text[-1:] != "{}":
        raise ParseError("carrier must be {v0,v1,...}", 1, 1)
    items = _items(text[1:-1], 2)
    try:
        values = tuple(map(int, items))
    except ValueError:
        raise ParseError("carrier values must be integers", 1, 1) from None
    if len(set(values)) != len(values):
        raise ParseError("carrier values must be distinct", 1, 1)
    if not values:
        raise ParseError("carrier must be non-empty", 1, 1)
    return values


def _decoration(text: str, signature, terms) -> Decoration:
    try:
        state, exc = map(int, text[1:-1].split(",")) if text[:1] + text[-1:] == "()" else ()
    except ValueError:
        raise ParseError("decoration must look like (1,0)", 1, 1) from None
    if not (0 <= state <= 2 and 0 <= exc <= 2):
        raise ParseError("decoration levels must be 0, 1 or 2", 1, 1)
    return Decoration(state, exc)


def _equation(text: str, signature, terms) -> Equation:
    # The mode word ends at the first blank, as a line's head word does.
    mode_word = text.split(None, 1)[0] if text else ""
    rest = text[len(mode_word):]
    mode = _MODES.get(mode_word)
    if mode is None:
        raise ParseError(f"expected 'weak' or 'strong', got {mode_word!r}", 1, 1)
    lhs, eq, rhs = rest.partition("=")
    if not eq:
        raise ParseError("expected '<lhs> = <rhs>'", 1, 1)
    col = len(text) - len(rest) + 1
    return Equation(mode, _side(lhs, col, signature, terms),
                    _side(rhs, col + len(lhs) + 1, signature, terms))


# The forms of `CHILDREN` by head, for `_split`.
_PAIRED = {FORMS[c].head: c for c in CHILDREN}


def _split(text: str) -> tuple | None:
    """`(build, first, second)` when `text` reads `head(first, second)`
    with the head of a form in `_PAIRED`, cut at the first `", "` outside
    parentheses; else None.  Each character is counted once, so the cut
    is linear in the length of `text` whatever its nesting."""
    open_at = text.find("(")
    build = _PAIRED.get(text[:open_at]) if open_at > 0 else None
    if build is None or text[-1] != ")":
        return None
    at = open_at + 1
    depth = 0
    while True:
        comma = text.find(", ", at, -1)
        if comma < 0:
            return None
        depth += text.count("(", at, comma) - text.count(")", at, comma)
        if not depth:
            return build, text[open_at + 1:comma], text[comma + 2:-1]
        at = comma + 2


def _side(text: str, col: int, signature, terms) -> DecoratedTerm:
    """The term of `text`, which starts at column `col` of its line, read
    through the file's table `terms`.  A text read before is its term.  A
    text `head(first, second)` of a form in `_PAIRED` whose two argument
    texts were read before, each exactly, is built from their nodes
    without tokenizing.  Any other text is parsed, and then its argument
    texts, if `_split` finds them, are entered for later texts."""
    key = text.strip()
    term = terms.get(key)
    if term is not None:
        return term
    split = _split(key)
    if split is not None:
        build, first, second = split
        a, b = terms.get(first), terms.get(second)
        if a is not None and b is not None:
            term = terms[key] = _node(terms, build, a, b)
            return term
    term = terms[key] = parse_at(parse_term, text, 1, col, signature, terms)
    if split is not None:
        terms[first], terms[second] = CHILDREN[build](term)
    return term


# placeholder: (read, print).  `read(text, signature, terms)` gives the
# value of a hole's stripped text or raises a ParseError placed in it.  Op
# names resolve in `signature`.  `terms` is the file's table of terms: a
# node key (a tuple, see `_node`) gives its node, and a text (a str) read
# as a side, an observer or an argument of one gives its term (`_side`).
_HOLES = {
    "NAME": (_word(str.isidentifier, "bad name {!r}"), str),
    # An op line would read a base named like a type keyword as that type.
    "BASE": (_word(lambda text: text.isidentifier() and text not in TYPE_KEYWORDS,
                   "bad base type name {!r}"), str),
    "LABEL": (lambda text, signature, terms: text, str),
    "RULE": (_word(bool, "expected a name"), str),
    "N": (_word(str.isdecimal, "bad number {!r}", int), str),
    "FLAVOR": (_word(FLAVORS.__contains__, "unknown flavor {!r}"), str),
    "DIRECTION": (_word(FLAVORS[:2].__contains__, "unknown obs direction {!r}"), str),
    "SRC": (lambda text, signature, terms: parse_type(text), print_type),
    "(s,e)": (_decoration, str),
    "{..}": (_carrier, lambda values: "{" + ",".join(map(str, values)) + "}"),
    "PREMISES": (lambda text, signature, terms: tuple(_items(text)),
                 lambda refs: ", ".join(map(str, refs))),
    "TERMS": (_terms, lambda terms: ", ".join(map(print_term, terms))),
    "MODE LHS = RHS": (_equation, lambda eq: f"{eq.mode.value} {print_term(eq.lhs)} "
                                             f"= {print_term(eq.rhs)}"),
}
_HOLES["TGT"] = _HOLES["SRC"]
_PLACEHOLDER = re.compile(
    "(" + "|".join(map(re.escape, sorted(_HOLES, key=len, reverse=True))) + ")")


def _line_form(template: str) -> tuple:
    """The template's pieces and holes, alternating, its pattern after the
    head, the holes' readers, and whether it holds terms or declares a name."""
    parts = _PLACEHOLDER.split(template)
    holes = parts[1::2]
    pattern = "".join(
        f"([^{re.escape(after.strip()[0])}]*)" + r"\s*".join(
            r"(?:\|-|⊢)" if word == "|-" else re.escape(word) for word in after.split())
        if after.strip() else "(.*)"
        for after in parts[2::2])
    return (parts, re.compile(pattern), [_HOLES[hole][0] for hole in holes],
            bool({"TERMS", "MODE LHS = RHS"} & set(holes)),
            holes[0] in ("NAME", "BASE", "LABEL"))


_LINE_FORMS = {head: _line_form(template) for head, (template, _) in LINE_FORMS.items()}
_FORMATS = {fmt: {head: _LINE_FORMS[head] for head, (_, fmts) in LINE_FORMS.items() if fmt in fmts}
            for fmt in ("model", "theory", "script")}


def read_lines(text: str, fmt: str, signature: dict[str, OpSymbol] | None = None):
    """`(lineno, head, values)` for each line of `text`, a file in format
    `fmt`, with one value for each hole of the line's form.  In a format
    with `op` lines, a line that holds terms comes after every line that
    holds none, so its terms may use the ops the caller has put in
    `signature` from any `op` line.

    The terms of one call are built through one table: an equation side
    or observer whose text was read before is that term, and equal
    subterms anywhere in `text`, in equations and `obs` lines alike, are
    one node.  A side `head(a, b)` of a form of two terms whose argument
    texts `a` and `b` were read before, as sides or as top-level
    arguments of parsed ones, is built from their nodes without
    tokenizing; only the exact text counts, with the printer's `", "`.
    Nothing is shared across calls."""
    forms = _FORMATS[fmt]
    later: list | None = [] if "op" in forms else None
    lines = enumerate(text.split("\n"), start=1)
    declared: set[tuple[str, str]] = set()
    terms: dict = {}
    while lines:
        for lineno, raw in lines:
            code = raw.split("#", 1)[0]
            line = code.strip()
            if not line:
                continue
            head = line.split(None, 1)[0]
            form = forms.get(head)
            if form is None:
                raise ParseError(f"unknown declaration {head!r}", lineno, 1)
            found = form[1].fullmatch(line, len(head))
            if found is None:
                raise ParseError(f"expected `{LINE_FORMS[head][0]}`", lineno, 1)
            if form[3] and later is not None:
                later.append((lineno, raw))
                continue
            if form[4]:
                name = (head, found[1].strip())
                if name in declared:
                    raise ParseError(f"{head} {name[1]!r} declared twice", lineno, 1)
                declared.add(name)
            values: list = []
            try:
                for part, read in zip(found.groups(), form[2]):
                    values.append(read(part.strip(), signature, terms))
            except ParseError as err:
                hole = len(values) + 1
                part = found[hole]
                col = len(code) - len(code.lstrip()) + found.start(hole) - len(part.lstrip())
                raise ParseError(err.message, lineno, col + len(part) + err.col) from None
            yield lineno, head, values
        lines, later = later, None


def print_lines(lines) -> str:
    """The text of `(head, values)` lines, the inverse of `read_lines`."""
    out: list[str] = []
    for head, values in lines:
        parts = _LINE_FORMS[head][0]
        out.append(parts[0])
        for hole, value, after in zip(parts[1::2], values, parts[2::2]):
            out += (_HOLES[hole][1](value), after)
        out.append("\n")
    return "".join(out)
