"""Parser for the imperative language.

Grammar, with `;` and `and` associating to the right:

    command  ::= simple (";" command)?
    simple   ::= "skip"
               | name ":=" aexp
               | "if" bexp "then" block "else" block
               | "while" bexp "do" block
               | "throw" name "(" aexp ")"
               | "try" block ("catch" name "(" name ")" block)+
    block    ::= "{" command "}"
    bexp     ::= bnot ("and" bexp)?
    bnot     ::= "not" bnot | batom
    batom    ::= "true" | "false" | aexp ("==" | "<=") aexp | "(" bexp ")"
    aexp     ::= aterm (("+" | "-") aterm)*
    aterm    ::= afactor ("*" afactor)*
    afactor  ::= int | name | "(" aexp ")"

The keywords, holes, precedences and associativities come from
`ast.SHAPES`.  One loop reads every form over an explicit stack, and an
operator-precedence step (Pratt, "Top Down Operator Precedence", 1973)
lets an infix operator take the operand just read as its left side, for
arithmetic, booleans and `;` alike, so programs nest to any depth.

Programs share the lexical rules of term text in `declogic.syntax`:
blanks, newlines and `#` comments to the end of the line are layout, and
a character that starts no token is an error at its line and column
before any parse error.  `located_tokens` scans with this module's token
pattern.  A `(` where a boolean is read may open a whole boolean or the
arithmetic operand of a comparison.  Its contents are read as either
sort, and the sort they come out as decides: an arithmetic operand must
be followed by `)` and go on to a comparison.  No input is read twice.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from ..syntax import LAYOUT, ParseError, _is_name as _is_word, _position, located_tokens
from .ast import SHAPES, AExp, BExp, Clause, Command, Hole

# An integer or a name (a word led by a letter or `_`), or punctuation.
_TOKEN = re.compile(
    LAYOUT + r" ( := | == | <= | [;(){}+*-] | \d+ | \w+ | [^\#] | \Z )",
    re.VERBOSE)
_PUNCT = frozenset({":=", "==", "<=", *";(){}+*-"})

# Each form's parts as tokens and holes.
_PARTS = {cls: tuple(token for part in shape.parts
                     for token in (part.split() if type(part) is str else (part,)))
          for cls, shape in SHAPES.items()}
KEYWORDS = frozenset(part for parts in _PARTS.values() for part in parts
                     if type(part) is str and part.isalpha())


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok[0].isdecimal() or _is_word(tok)


def _is_name(tok: str) -> bool:
    return _is_word(tok) and tok not in KEYWORDS


class _Infix(NamedTuple):
    cls: type
    parts: tuple
    left: str  # the sort of its left operand
    sort: str  # the sort it builds
    prec: int


# Each form's sort; the forms that start an operand in a slot of each
# kind, by a keyword, `i` for an integer or `n` for a name; and the infix
# forms by their operator.  A boolean may start with the arithmetic
# operand of a comparison, and `?` is the inside of a parenthesis where a
# boolean is read, which holds either sort.
_SORT = {cls: sort for cls in SHAPES
         for sort, base in (("a", AExp), ("b", BExp), ("c", Command)) if issubclass(cls, base)}
_STARTS: dict[str, dict] = {kind: {} for kind in "abc?"}
_INFIX: dict[str, _Infix] = {}
for _cls, _sort in _SORT.items():
    _first = _PARTS[_cls][0]
    if type(_first) is Hole and _first.kind in "abc":
        _INFIX[_PARTS[_cls][1]] = _Infix(_cls, _PARTS[_cls], _first.kind, _sort,
                                         SHAPES[_cls].prec)
        continue
    for _kind in {"a": "ab?", "b": "b?", "c": "c"}[_sort]:
        _STARTS[_kind][_first if type(_first) is str else _first.kind] = _cls
_PARENS = {kind: (Hole("", inner, 0), ")") for kind, inner in (("a", "a"), ("b", "?"), ("?", "?"))}
_NAMES = {"exception": "an exception name", "binder": "a binder name"}


def _parse(text: str, kind: str):
    """The form of sort `kind` that is the whole text.

    A form waits on an explicit stack of [class, parts, index of its next
    part, values read, kind of its slot, least precedence of its slot]
    entries until its parts are read; a parenthesis is such an entry
    without a class.  An operand read for a slot either becomes the left
    side of the infix operator that follows it or fills the slot.
    """
    tokens, offsets = located_tokens(_TOKEN, text, _is_token)

    def fail(at: int, message: str) -> ParseError:
        return ParseError(message, *_position(text, offsets[at]))

    pos = 0
    value = None
    pending: list[list] = [[None, (Hole("", kind, 0),), 0, [], kind, 0]]
    while True:
        frame = pending[-1]
        tok = tokens[pos]
        if value is not None:
            op = _INFIX.get(tok)
            sort = _SORT.get(type(value))
            if op and op.left == sort and op.prec >= least and (kind != "a" or op.sort == "a"):
                pending.append([op.cls, op.parts, 2, [value], kind, least])
                pos += 1
            elif sort == "a" and (kind == "b" or kind == "?" and tok != ")"):
                raise fail(pos, "expected '==' or '<='")
            elif kind == "*":
                frame[3][-1].append(value)
            else:
                frame[3].append(value)
                frame[2] += 1
            value = None
            continue
        parts, i = frame[1], frame[2]
        if i == len(parts):
            pending.pop()
            value = frame[0](*frame[3]) if frame[0] else frame[3][0]
            if not pending:
                if tok:
                    raise fail(pos, "unexpected trailing input")
                return value
            kind, least = frame[4], frame[5]
            continue
        part = parts[i]
        if type(part) is str:
            if tok != part:
                raise fail(pos, f"expected {part!r}")
            frame[2] += 1
        elif part.kind == "n":
            if not _is_name(tok):
                raise fail(pos, f"expected {_NAMES[part.field]}")
            frame[3].append(tok)
            frame[2] += 1
        elif part.kind == "*":  # one or more catch clauses
            values = frame[3]
            if type(values[-1]) is not list:
                values.append([])
            if tok == "catch":
                pending.append([Clause, _PARTS[Clause], 1, [], "*", 0])
            elif values[-1]:
                values[-1] = tuple(values[-1])
                frame[2] += 1
                continue
            else:
                raise fail(pos, "expected at least one catch clause")
        else:  # an operand: a parenthesis, or the start of a form
            kind, least = part.kind, part.least
            if tok == "(" and kind != "c":
                pending.append([None, _PARENS[kind], 0, [], kind, least])
            else:
                key = "i" if tok[:1].isdecimal() else "n" if _is_name(tok) else tok
                start = _STARTS[kind].get(key)
                if start is None:
                    raise fail(pos, "expected a command" if kind == "c"
                               else "expected an arithmetic expression")
                first = [int(tok)] if key == "i" else [tok] if key == "n" else []
                if len(_PARTS[start]) == 1:  # a leaf, read whole
                    value = start(*first)
                else:
                    pending.append([start, _PARTS[start], 1, first, kind, least])
        pos += 1


def parse_command(text: str) -> Command:
    """Parse a complete program; trailing input is an error."""
    return _parse(text, "c")


def parse_aexp(text: str) -> AExp:
    return _parse(text, "a")


def parse_bexp(text: str) -> BExp:
    return _parse(text, "b")
