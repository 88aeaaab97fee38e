"""Parser for the mini loop language.

The surface syntax follows the paper's pseudo-code with small
conveniences::

    param N
    real A(N), B(0:N)
    do I = 1..N            ! ".." and "," both accepted as range separators
      S1: B(I) = B(I-1) + A(I-1)
      do J = I+1, N
        A(J) = A(J) / A(I) ! labels are optional; S<k> is generated
      end do
    end do

Comments run from ``!`` or ``#`` to end of line.  Identifiers used with
parentheses are array references unless they name a builtin function
(``sqrt``, ``min``, ``f``...), which makes them calls.

Loop bounds additionally accept the forms the printer emits for
strip-mined and generated loops — ``max(t, ...)`` (lower) / ``min(t,
...)`` (upper) of terms, where a term is an affine expression or
``ceild(expr, d)`` (lower) / ``floord(expr, d)`` (upper) — so tiled
programs round-trip through text (the tune cache depends on this).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from repro.ir.ast import ArrayDecl, BoundSet, Loop, Node, Program, Statement
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp,
    VarRef, as_affine,
)
from repro.ir.printer import program_to_str
from repro.obs import span
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.bounds import Bound
from repro.util.errors import IRError, ParseError

__all__ = [
    "parse_program", "parse_expr", "canonicalize", "canonical_text", "program_key",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>[!\#][^\n]*)
  | (?P<newline>\n)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<dots>\.\.)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[+\-*/%(),:;=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"do", "enddo", "end", "param", "real", "then", "if", "endif"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            toks.append(_Tok("newline", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                if kind == "ident" and text.lower() in _KEYWORDS:
                    kind = text.lower()
                toks.append(_Tok(kind, text, line, col))
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.auto_label = 0
        self.labels_seen: set[str] = set()

    # -- token helpers -------------------------------------------------

    def peek(self, skip_newlines: bool = False) -> _Tok:
        j = self.i
        if skip_newlines:
            while self.toks[j].kind == "newline":
                j += 1
        return self.toks[j]

    def next(self, skip_newlines: bool = False) -> _Tok:
        if skip_newlines:
            while self.toks[self.i].kind == "newline":
                self.i += 1
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None, skip_newlines: bool = False) -> _Tok:
        t = self.next(skip_newlines)
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return t

    def at(self, kind: str, text: str | None = None, skip_newlines: bool = False) -> bool:
        t = self.peek(skip_newlines)
        return t.kind == kind and (text is None or t.text == text)

    def skip_separators(self) -> None:
        while self.toks[self.i].kind == "newline" or (
            self.toks[self.i].kind == "op" and self.toks[self.i].text == ";"
        ):
            self.i += 1

    # -- grammar ---------------------------------------------------------

    def parse_program(self, name: str) -> Program:
        params: list[str] = []
        arrays: list[ArrayDecl] = []
        self.skip_separators()
        while self.at("param") or self.at("real"):
            if self.at("param"):
                self.next()
                params.append(self.expect("ident").text)
                while self.at("op", ","):
                    self.next()
                    params.append(self.expect("ident").text)
            else:
                self.next()
                arrays.append(self.parse_array_decl())
                while self.at("op", ","):
                    self.next()
                    arrays.append(self.parse_array_decl())
            self.skip_separators()
        body = self.parse_body(stop_kinds=("eof",))
        self.expect("eof")
        return Program(tuple(body), tuple(params), tuple(arrays), name)

    def parse_array_decl(self) -> ArrayDecl:
        name = self.expect("ident").text
        dims: list[tuple] = []
        self.expect("op", "(")
        while True:
            first = self.parse_affine()
            if self.at("op", ":"):
                self.next()
                second = self.parse_affine()
                dims.append((first, second))
            else:
                dims.append((None, first))
            if self.at("op", ","):
                self.next()
                continue
            break
        self.expect("op", ")")
        fixed = [(lo if lo is not None else 1, hi) for lo, hi in dims]
        return ArrayDecl.make(name, *[(lo, hi) for lo, hi in fixed])

    def parse_body(self, stop_kinds: tuple[str, ...]) -> list[Node]:
        body: list[Node] = []
        self.skip_separators()
        while not any(self.at(k) for k in stop_kinds):
            body.append(self.parse_stmt())
            self.skip_separators()
        return body

    def parse_stmt(self) -> Node:
        if self.at("do"):
            return self.parse_loop()
        return self.parse_assign()

    def parse_loop(self) -> Loop:
        self.expect("do")
        var = self.expect("ident").text
        self.expect("op", "=")
        lower = self.parse_bound(is_lower=True)
        if self.at("dots"):
            self.next()
        else:
            self.expect("op", ",")
        upper = self.parse_bound(is_lower=False)
        step = 1
        if self.at("op", ","):
            self.next()
            step_tok = self.parse_expr()
            if not isinstance(step_tok, IntLit) and not (
                isinstance(step_tok, UnaryOp) and isinstance(step_tok.operand, IntLit)
            ):
                t = self.peek()
                raise ParseError("loop step must be an integer literal", t.line, t.col)
            step = step_tok.value if isinstance(step_tok, IntLit) else -step_tok.operand.value
        body = self.parse_body(stop_kinds=("enddo", "end"))
        if self.at("enddo"):
            self.next()
        else:
            self.expect("end")
            self.expect("do")
        return Loop(var, lower, upper, tuple(body), step)

    # bound grammar (round-trips the printer's output for strip-mined /
    # generated loops):
    #   bound := term | max(term, ...)   -- lower bounds
    #          | term | min(term, ...)   -- upper bounds
    #   term  := expr | ceild(expr, int) -- lower
    #          | expr | floord(expr, int)-- upper
    def parse_bound(self, is_lower: bool) -> BoundSet:
        setname = "max" if is_lower else "min"
        t = self.peek()
        if t.kind == "ident" and t.text == setname and self._lparen_follows():
            self.next()
            self.expect("op", "(")
            terms = [self.parse_bound_term(is_lower)]
            while self.at("op", ","):
                self.next()
                terms.append(self.parse_bound_term(is_lower))
            self.expect("op", ")")
            return BoundSet(tuple(terms), is_lower)
        return BoundSet((self.parse_bound_term(is_lower),), is_lower)

    def parse_bound_term(self, is_lower: bool) -> Bound:
        divname = "ceild" if is_lower else "floord"
        t = self.peek()
        if t.kind == "ident" and t.text == divname and self._lparen_follows():
            self.next()
            self.expect("op", "(")
            e = self.parse_affine()
            self.expect("op", ",")
            d = self.expect("int")
            self.expect("op", ")")
            div = int(d.text)
            if div < 1:
                raise ParseError(f"{divname} divisor must be positive", t.line, t.col)
            return Bound(e, div, is_lower)
        return Bound(self.parse_affine(), 1, is_lower)

    def parse_affine(self) -> LinExpr:
        """An expression that must be affine (bounds, array extents); a
        non-affine one is a syntax error at its first token."""
        t = self.peek()
        try:
            return as_affine(self.parse_expr())
        except IRError as exc:
            raise ParseError(str(exc), t.line, t.col) from None

    def _lparen_follows(self) -> bool:
        nxt = self.toks[self.i + 1]
        return nxt.kind == "op" and nxt.text == "("

    def parse_assign(self) -> Statement:
        t = self.peek()
        label: str | None = None
        # "IDENT :" is a label when the ident is not followed by "(" or "="
        if t.kind == "ident" and self.toks[self.i + 1].kind == "op" and self.toks[self.i + 1].text == ":":
            label = t.text
            self.i += 2
        lhs = self.parse_ref()
        self.expect("op", "=")
        rhs = self.parse_expr()
        if label is None:
            self.auto_label += 1
            label = f"S{self.auto_label}"
            while label in self.labels_seen:
                self.auto_label += 1
                label = f"S{self.auto_label}"
        self.labels_seen.add(label)
        return Statement(label, lhs, rhs)

    def parse_ref(self) -> ArrayRef | VarRef:
        t = self.expect("ident")
        if self.at("op", "("):
            self.next()
            subs = [self.parse_expr()]
            while self.at("op", ","):
                self.next()
                subs.append(self.parse_expr())
            self.expect("op", ")")
            return ArrayRef(t.text, subs)
        return VarRef(t.text)

    # expression grammar: expr -> term ((+|-) term)*; term -> factor ((*|/|%) factor)*
    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            right = self.parse_term()
            left = BinOp(op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at("op", "*") or self.at("op", "/") or self.at("op", "%"):
            op = self.next().text
            right = self.parse_factor()
            left = BinOp(op, left, right)
        return left

    def parse_factor(self) -> Expr:
        if self.at("op", "-"):
            self.next()
            return UnaryOp("-", self.parse_factor())
        if self.at("op", "+"):
            self.next()
            return self.parse_factor()
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return IntLit(int(t.text))
        if t.kind == "float":
            return FloatLit(float(t.text))
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t.kind == "ident":
            if self.at("op", "("):
                self.next()
                args: list[Expr] = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.at("op", ","):
                        self.next()
                        args.append(self.parse_expr())
                self.expect("op", ")")
                if t.text in BUILTIN_FUNCTIONS:
                    return Call(t.text, args)
                return ArrayRef(t.text, args)
            return VarRef(t.text)
        raise ParseError(f"unexpected token {t.text or t.kind!r}", t.line, t.col)


def parse_program(src: str, name: str = "program") -> Program:
    """Parse the mini loop language into a :class:`Program`."""
    with span("ir.parse", program=name):
        return _Parser(src).parse_program(name)


def parse_expr(src: str) -> Expr:
    """Parse a single expression (used in tests and tools)."""
    p = _Parser(src)
    e = p.parse_expr()
    p.skip_separators()
    p.expect("eof")
    return e


def canonicalize(text: str, name: str = "canonical") -> tuple[Program, str]:
    """Parse ``text`` once and print it back: the program and its
    canonical text, the parser's normal form (comments, spacing and
    redundant parentheses gone).  Printing a parsed program and parsing
    that again changes nothing, so formatting variants of one program
    share one canonical text.  Raises :class:`ParseError`."""
    program = parse_program(text, name)
    return program, program_to_str(program)


def canonical_text(program: Program | str) -> str:
    """The canonical text of a program or of its source.

    A programmatically built or generated :class:`Program` goes through
    its printed text, since the printer may spell it differently from
    its reparse (``V + -1`` vs ``V + (-1)``).  Text the parser rejects
    — a generated program's guards or nested ``max(min(...))`` bounds,
    which only source programs promise to round-trip — is its own
    canonical text."""
    text = program if isinstance(program, str) else program_to_str(program)
    try:
        return canonicalize(text)[1]
    except ParseError:
        return text


def program_key(text: str) -> str:
    """SHA-256 of a canonical program text (:func:`canonicalize`,
    :func:`canonical_text`): the program's identity."""
    return hashlib.sha256(text.encode()).hexdigest()
