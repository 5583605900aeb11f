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

Programs share the lexical rules of term text in `declogic.syntax`:
blanks, newlines and `#` comments to the end of the line are layout, and
a character that starts no token is an error at its line and column
before any parse error.  `located_tokens` scans with this module's token
pattern.  A leading `(` in a boolean atom is ambiguous between a
parenthesised comparison operand and a parenthesised boolean, so the
parser tries the comparison first and backtracks.
"""
from __future__ import annotations

import re

from ..syntax import LAYOUT, ParseError, _is_name as _is_word, _position, located_tokens
from .ast import (
    Add,
    AExp,
    And,
    Assign,
    BExp,
    BFalse,
    BTrue,
    Clause,
    Command,
    Eq,
    If,
    Le,
    Lit,
    Loc,
    Mul,
    Not,
    Seq,
    Skip,
    Sub,
    Throw,
    TryCatch,
    While,
)

KEYWORDS = frozenset(
    {
        "skip",
        "if",
        "then",
        "else",
        "while",
        "do",
        "throw",
        "try",
        "catch",
        "true",
        "false",
        "not",
        "and",
    }
)

# An integer or a name (a word led by a letter or `_`), or punctuation.
_TOKEN = re.compile(
    LAYOUT + r" ( := | == | <= | [;(){}+*-] | \d+ | \w+ | [^\#] | \Z )",
    re.VERBOSE)
_PUNCT = frozenset({":=", "==", "<=", *";(){}+*-"})


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok[0].isdecimal() or _is_word(tok)


def _is_name(tok: str) -> bool:
    return _is_word(tok) and tok not in KEYWORDS


class _Parser:
    def __init__(self, text: str):
        # Offsets are kept for every token, not found by a rescan on
        # error, because `parse_batom` backtracks through `ParseError`
        # and a rescan on every failure would be quadratic.
        self.text = text
        self.tokens, self.offsets = located_tokens(_TOKEN, text, _is_token)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def fail(self, message: str) -> ParseError:
        return ParseError(message,
                          *_position(self.text, self.offsets[self.pos]))

    def take(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.take(text):
            raise self.fail(f"expected {text!r}")

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if not _is_name(tok):
            raise self.fail(f"expected {what}")
        self.pos += 1
        return tok

    # -- arithmetic

    def parse_aexp(self) -> AExp:
        expr = self.parse_aterm()
        while True:
            if self.take("+"):
                expr = Add(expr, self.parse_aterm())
            elif self.take("-"):
                expr = Sub(expr, self.parse_aterm())
            else:
                return expr

    def parse_aterm(self) -> AExp:
        expr = self.parse_afactor()
        while self.take("*"):
            expr = Mul(expr, self.parse_afactor())
        return expr

    def parse_afactor(self) -> AExp:
        tok = self.peek()
        if tok[:1].isdecimal():
            self.pos += 1
            return Lit(int(tok))
        if _is_name(tok):
            self.pos += 1
            return Loc(tok)
        if self.take("("):
            expr = self.parse_aexp()
            self.expect(")")
            return expr
        raise self.fail("expected an arithmetic expression")

    # -- boolean

    def parse_bexp(self) -> BExp:
        left = self.parse_bnot()
        if self.take("and"):
            return And(left, self.parse_bexp())
        return left

    def parse_bnot(self) -> BExp:
        if self.take("not"):
            return Not(self.parse_bnot())
        return self.parse_batom()

    def parse_batom(self) -> BExp:
        if self.take("true"):
            return BTrue()
        if self.take("false"):
            return BFalse()
        if self.peek() == "(":
            # Ambiguous: the parenthesis may open a comparison operand
            # or a whole boolean.  Try the comparison, then backtrack.
            mark = self.pos
            try:
                return self.parse_comparison()
            except ParseError:
                self.pos = mark
            self.expect("(")
            inner = self.parse_bexp()
            self.expect(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> BExp:
        left = self.parse_aexp()
        if self.take("=="):
            return Eq(left, self.parse_aexp())
        if self.take("<="):
            return Le(left, self.parse_aexp())
        raise self.fail("expected '==' or '<='")

    # -- commands

    def parse_command(self) -> Command:
        firsts = [self.parse_simple()]
        while self.take(";"):
            firsts.append(self.parse_simple())
        cmd = firsts.pop()
        for first in reversed(firsts):
            cmd = Seq(first, cmd)
        return cmd

    def parse_block(self) -> Command:
        self.expect("{")
        body = self.parse_command()
        self.expect("}")
        return body

    def parse_simple(self) -> Command:
        if self.take("skip"):
            return Skip()
        if self.take("if"):
            cond = self.parse_bexp()
            self.expect("then")
            then_branch = self.parse_block()
            self.expect("else")
            else_branch = self.parse_block()
            return If(cond, then_branch, else_branch)
        if self.take("while"):
            cond = self.parse_bexp()
            self.expect("do")
            return While(cond, self.parse_block())
        if self.take("throw"):
            name = self.expect_name("an exception name")
            self.expect("(")
            payload = self.parse_aexp()
            self.expect(")")
            return Throw(name, payload)
        if self.take("try"):
            body = self.parse_block()
            clauses = []
            while self.take("catch"):
                exc = self.expect_name("an exception name")
                self.expect("(")
                binder = self.expect_name("a binder name")
                self.expect(")")
                clauses.append(Clause(exc, binder, self.parse_block()))
            if not clauses:
                raise self.fail("expected at least one catch clause")
            return TryCatch(body, tuple(clauses))
        target = self.expect_name("a command")
        self.expect(":=")
        return Assign(target, self.parse_aexp())


def _parse_all(text: str, rule) -> object:
    parser = _Parser(text)
    try:
        result = rule(parser)
    except RecursionError:
        raise parser.fail("input nests too deeply to parse") from None
    if parser.peek():
        raise parser.fail("unexpected trailing input")
    return result


def parse_command(text: str) -> Command:
    """Parse a complete program; trailing input is an error."""
    return _parse_all(text, _Parser.parse_command)


def parse_aexp(text: str) -> AExp:
    return _parse_all(text, _Parser.parse_aexp)


def parse_bexp(text: str) -> BExp:
    return _parse_all(text, _Parser.parse_bexp)
