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

`#` starts a comment running to the end of the line.  A leading `(` in a
boolean atom is ambiguous between a parenthesised comparison operand and
a parenthesised boolean, so the parser tries the comparison first and
backtracks.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..syntax import ParseError
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

_PUNCT_PAIRS = (":=", "==", "<=")
_PUNCT_SINGLE = ";(){}+-*"


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "keyword", "int", "punct", "eof"
    text: str
    line: int
    col: int


def _scan(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif text[i : i + 2] in _PUNCT_PAIRS:
            tokens.append(_Token("punct", text[i : i + 2], line, col))
            i += 2
            col += 2
        elif ch in _PUNCT_SINGLE:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "name"
            tokens.append(_Token(kind, word, line, col))
            col += i - start
        elif ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def at(self, kind: str, text: str) -> bool:
        tok = self.peek()
        return tok.kind == kind and tok.text == text

    def take(self, kind: str, text: str) -> bool:
        if self.at(kind, text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str) -> None:
        if not self.take(kind, text):
            raise self.fail(f"expected {text!r}")

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail(f"expected {what}")
        self.advance()
        return tok.text

    # -- arithmetic

    def parse_aexp(self) -> AExp:
        expr = self.parse_aterm()
        while True:
            if self.take("punct", "+"):
                expr = Add(expr, self.parse_aterm())
            elif self.take("punct", "-"):
                expr = Sub(expr, self.parse_aterm())
            else:
                return expr

    def parse_aterm(self) -> AExp:
        expr = self.parse_afactor()
        while self.take("punct", "*"):
            expr = Mul(expr, self.parse_afactor())
        return expr

    def parse_afactor(self) -> AExp:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "name":
            self.advance()
            return Loc(tok.text)
        if self.take("punct", "("):
            expr = self.parse_aexp()
            self.expect("punct", ")")
            return expr
        raise self.fail("expected an arithmetic expression")

    # -- boolean

    def parse_bexp(self) -> BExp:
        left = self.parse_bnot()
        if self.take("keyword", "and"):
            return And(left, self.parse_bexp())
        return left

    def parse_bnot(self) -> BExp:
        if self.take("keyword", "not"):
            return Not(self.parse_bnot())
        return self.parse_batom()

    def parse_batom(self) -> BExp:
        if self.take("keyword", "true"):
            return BTrue()
        if self.take("keyword", "false"):
            return BFalse()
        if self.at("punct", "("):
            # Ambiguous: the parenthesis may open a comparison operand
            # or a whole boolean.  Try the comparison, then backtrack.
            mark = self.pos
            try:
                return self.parse_comparison()
            except ParseError:
                self.pos = mark
            self.expect("punct", "(")
            inner = self.parse_bexp()
            self.expect("punct", ")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> BExp:
        left = self.parse_aexp()
        if self.take("punct", "=="):
            return Eq(left, self.parse_aexp())
        if self.take("punct", "<="):
            return Le(left, self.parse_aexp())
        raise self.fail("expected '==' or '<='")

    # -- commands

    def parse_command(self) -> Command:
        firsts = [self.parse_simple()]
        while self.take("punct", ";"):
            firsts.append(self.parse_simple())
        cmd = firsts.pop()
        for first in reversed(firsts):
            cmd = Seq(first, cmd)
        return cmd

    def parse_block(self) -> Command:
        self.expect("punct", "{")
        body = self.parse_command()
        self.expect("punct", "}")
        return body

    def parse_simple(self) -> Command:
        if self.take("keyword", "skip"):
            return Skip()
        if self.take("keyword", "if"):
            cond = self.parse_bexp()
            self.expect("keyword", "then")
            then_branch = self.parse_block()
            self.expect("keyword", "else")
            else_branch = self.parse_block()
            return If(cond, then_branch, else_branch)
        if self.take("keyword", "while"):
            cond = self.parse_bexp()
            self.expect("keyword", "do")
            return While(cond, self.parse_block())
        if self.take("keyword", "throw"):
            name = self.expect_name("an exception name")
            self.expect("punct", "(")
            payload = self.parse_aexp()
            self.expect("punct", ")")
            return Throw(name, payload)
        if self.take("keyword", "try"):
            body = self.parse_block()
            clauses = []
            while self.take("keyword", "catch"):
                exc = self.expect_name("an exception name")
                self.expect("punct", "(")
                binder = self.expect_name("a binder name")
                self.expect("punct", ")")
                clauses.append(Clause(exc, binder, self.parse_block()))
            if not clauses:
                raise self.fail("expected at least one catch clause")
            return TryCatch(body, tuple(clauses))
        target = self.expect_name("a command")
        self.expect("punct", ":=")
        return Assign(target, self.parse_aexp())


def _parse_all(text: str, rule) -> object:
    parser = _Parser(text)
    try:
        result = rule(parser)
    except RecursionError:
        raise parser.fail("input nests too deeply to parse") from None
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input")
    return result


def parse_command(text: str) -> Command:
    """Parse a complete program; trailing input is an error."""
    return _parse_all(text, _Parser.parse_command)


def parse_aexp(text: str) -> AExp:
    return _parse_all(text, _Parser.parse_aexp)


def parse_bexp(text: str) -> BExp:
    return _parse_all(text, _Parser.parse_bexp)
