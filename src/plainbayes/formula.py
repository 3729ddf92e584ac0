"""The likelihood-mean expression language: lexer, parser, code emitter, derivatives.

Grammar (EBNF)::

    expr    := term  (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | primary
    primary := NUMBER | IDENT | "(" expr ")"

Binary operators are left-associative; unary minus binds tighter than "*"
and "/".  Only those constructs are accepted.  Exponentiation (``^``,
``**``) and function calls are rejected with position-bearing errors so
that out-of-contract model formulas fail fast instead of misparsing.

Evaluation environments may bind numpy arrays as well as scalars; arithmetic
then broadcasts element-wise, which is how the posterior module applies one
scalar formula across every data row.  :func:`emit` writes an expression,
its data bound, as straight-line source in the parameters, one local per
operation: the posterior's generated functions are made of it.
:func:`evaluate` runs the same arithmetic with every name bound.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    FormulaTooDeep,
    IllegalCharacter,
    LiteralOverflow,
    NonFiniteResult,
    UnboundVariable,
    UnexpectedEnd,
    UnexpectedToken,
)

__all__ = [
    "NumberLiteral",
    "Variable",
    "Negate",
    "Binary",
    "FormulaAst",
    "Token",
    "tokenize",
    "parse",
    "parse_formula",
    "free_vars",
    "check_finite",
    "writer",
    "emit",
    "evaluate",
    "differentiate",
    "simplify",
    "to_source",
]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class NumberLiteral:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"number literals must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Negate:
    child: "FormulaAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "FormulaAst"
    right: "FormulaAst"


FormulaAst = Union[NumberLiteral, Variable, Negate, Binary]


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | one of "+-*/()"
    text: str
    pos: int
    value: float | None = None


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPERATORS = "+-*/()"


def tokenize(source: str) -> list[Token]:
    """Lex a formula source string into tokens, skipping whitespace."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == "^":
            raise IllegalCharacter(i, "unsupported operator '^' (exponentiation is not part of the formula grammar)")
        if c == "*" and i + 1 < n and source[i + 1] == "*":
            raise IllegalCharacter(i, "unsupported operator '**' (exponentiation is not part of the formula grammar)")
        if c in _OPERATORS:
            tokens.append(Token(c, c, i))
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            value = float(m.group())
            if value == float("inf"):
                raise LiteralOverflow(i, m.group())
            tokens.append(Token("number", m.group(), i, value=value))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        raise IllegalCharacter(i, repr(c))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)


# The deepest AST the parser builds (and its parentheses and negations): the
# walkers recurse, and a partial's partial is a few times as deep as a formula.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise UnexpectedEnd()
        self.i += 1
        return tok

    def deeper(self, depth: int, tok: Token) -> int:
        """``depth + 1``, the depth of a node made at ``tok``, within _MAX_DEPTH."""
        if depth >= _MAX_DEPTH:
            raise FormulaTooDeep(tok.pos, _MAX_DEPTH)
        return depth + 1

    # each parse_* method returns (node, its depth); ``level`` counts the parentheses
    # and negations open, which bounds the parser's own recursion
    def parse_expr(self, level: int = 0):
        return self.parse_chain("+-", lambda lv: self.parse_chain("*/", self.parse_unary, lv), level)

    def parse_chain(self, ops: str, operand, level: int):
        """Operands joined by the left-associative operators ``ops``."""
        node, depth = operand(level)
        while (tok := self.peek()) is not None and tok.kind in ops:
            self.advance()
            right, right_depth = operand(level)
            node, depth = Binary(tok.kind, node, right), self.deeper(max(depth, right_depth), tok)
        return node, depth

    def parse_unary(self, level: int):
        tok = self.peek()
        if tok is None:
            raise UnexpectedEnd()
        if tok.kind == "-":
            self.advance()
            nxt = self.peek()
            # "-3" is one negative literal; "-(3)" stays an explicit negation.
            if nxt is not None and nxt.kind == "number":
                self.advance()
                return NumberLiteral(-nxt.value), 1
            child, depth = self.parse_unary(self.deeper(level, tok))
            return Negate(child), self.deeper(depth, tok)
        return self.parse_primary(level)

    def parse_primary(self, level: int):
        tok = self.peek()
        if tok is None:
            raise UnexpectedEnd()
        if tok.kind == "number":
            self.advance()
            return NumberLiteral(tok.value), 1
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "(":
                raise UnexpectedToken(
                    nxt.pos, f"'(' after {tok.text!r}; function calls are not supported"
                )
            return Variable(tok.text), 1
        if tok.kind == "(":
            self.advance()
            node, depth = self.parse_expr(self.deeper(level, tok))
            closing = self.peek()
            if closing is None:
                raise UnexpectedEnd("missing closing parenthesis")
            if closing.kind != ")":
                raise UnexpectedToken(closing.pos, f"{closing.text!r} (expected ')')")
            self.advance()
            return node, depth
        raise UnexpectedToken(tok.pos, repr(tok.text))


def parse(tokens: Sequence[Token]) -> FormulaAst:
    """Parse a token sequence into an AST, requiring all tokens be consumed."""
    parser = _Parser(tokens)
    node, _ = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise UnexpectedToken(tok.pos, repr(tok.text))
    return node


def parse_formula(source: str) -> FormulaAst:
    """Convenience: ``parse(tokenize(source))``."""
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Analysis and evaluation


def free_vars(ast: FormulaAst) -> set[str]:
    """The exact set of variable names appearing in the expression."""
    if isinstance(ast, NumberLiteral):
        return set()
    if isinstance(ast, Variable):
        return {ast.name}
    if isinstance(ast, Negate):
        return free_vars(ast.child)
    return free_vars(ast.left) | free_vars(ast.right)


def _all_finite(value) -> bool:
    return math.isfinite(value) if type(value) is float else bool(np.isfinite(value).all())


def check_finite(value) -> None:
    """Raise :class:`NonFiniteResult` unless every element of ``value`` is finite."""
    if not _all_finite(value):
        raise NonFiniteResult("expression evaluated to a non-finite value", value=value)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _divide(node: Binary) -> Callable:
    """The quotient node as ``divide(left, right)``: a non-finite quotient is an error, not IEEE propagation."""

    def divide(left, right):
        try:
            if type(left) is float and type(right) is float:  # the same quotient, less numpy's cost
                out = left / right
            else:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    out = left / right
        except ZeroDivisionError:
            raise NonFiniteResult(f"division by zero in {to_source(node)!r}") from None
        if not _all_finite(out):
            raise NonFiniteResult(f"non-finite quotient in {to_source(node)!r}", value=out)
        return out

    return divide


def writer(namespace: dict):
    """``(lines, let, bind)`` for straight-line source run in ``namespace``: ``let(expr)``
    appends the line ``tN = expr`` to ``lines`` and returns the new local ``tN``, and
    ``bind(value)`` names ``value`` in ``namespace``."""
    lines = []

    def let(expr):
        lines.append(f"t{len(lines)} = {expr}")
        return f"t{len(lines) - 1}"

    def bind(value):
        namespace[f"k{len(namespace)}"] = value
        return f"k{len(namespace) - 1}"

    return lines, let, bind


def emit(ast: FormulaAst, params: Mapping[str, str], data: Mapping[str, object], let: Callable, bind: Callable,
         memo: dict | None = None) -> str:
    """The name of the expression's value in straight-line source: its numpy or float arithmetic,
    ``data`` bound, in evaluation order, one ``let(expr)`` (which returns a new local's name) per
    operation on a parameter.  ``params`` maps each parameter to its local and ``data`` binds every
    other name (else :class:`UnboundVariable`); ``bind(value)`` names a value in the source's namespace.
    A quotient calls its node's divide; a parameter-free subtree is computed here unless it raises, so
    the source raises at every run.  No name or number of the expression is printed.  ``memo`` maps a
    node's id to the node and its walk, ``(value, None)`` or ``(None, its local)``, as in :func:`simplify`:
    a subtree shared, or emitted again with one ``memo``, ``params`` and ``data``, reads its first local."""
    value, name = _walk(ast, (params, data, let, bind, {} if memo is None else memo))
    return name or bind(value)


def _walk(node: FormulaAst, context: tuple) -> tuple:
    """:func:`emit`'s walk of ``node``, once per memo: ``(value, None)`` for a subtree computed
    here, else ``(None, its local)``.  Not nested closures: two that call each other form a
    reference cycle, which would hold the memo's arrays until the garbage collector ran."""
    memo = context[-1]
    hit = memo.get(id(node))
    if hit is None:
        hit = memo[id(node)] = node, _step(node, context)
    return hit[1]


def _step(node: FormulaAst, context: tuple) -> tuple:
    params, data, let, bind, _ = context
    if isinstance(node, NumberLiteral):
        return node.value, None
    if isinstance(node, Variable):
        if node.name not in params and node.name not in data:
            raise UnboundVariable(node.name)
        return (None, params[node.name]) if node.name in params else (data[node.name], None)
    if isinstance(node, Negate):
        value, name = _walk(node.child, context)
        return (-value, None) if name is None else (None, let(f"-{name}"))
    op = _divide(node) if node.op == "/" else _ARITHMETIC[node.op]
    (left, left_name), (right, right_name) = _walk(node.left, context), _walk(node.right, context)
    if left_name is None and right_name is None:
        try:
            return op(left, right), None
        except NonFiniteResult:
            pass  # raises again at every run
    left_name, right_name = left_name or bind(left), right_name or bind(right)
    if node.op == "/":
        return None, let(f"{bind(op)}({left_name}, {right_name})")
    return None, let(f"{left_name} {node.op} {right_name}")


def evaluate(ast: FormulaAst, env: Mapping[str, object]):
    """Evaluate the expression under ``env``.

    ``env`` maps variable names to floats or numpy arrays; array values
    broadcast element-wise.  Raises :class:`UnboundVariable` for missing
    names and :class:`NonFiniteResult` if any (intermediate quotient or
    final) value is not finite.
    """
    lines, let, bind = writer(namespace := {})
    name = emit(ast, {}, env, let, bind)
    if lines:  # with every name data, the lines are a quotient that raised: it raises again
        exec("\n".join(lines), namespace)
    check_finite(namespace[name])
    return namespace[name]


# ---------------------------------------------------------------------------
# Symbolic differentiation


_ZERO = NumberLiteral(0.0)
_ONE = NumberLiteral(1.0)


def _is_literal(node: FormulaAst, value: float) -> bool:
    return isinstance(node, NumberLiteral) and node.value == value


def simplify(node: FormulaAst, memo: dict | None = None) -> FormulaAst:
    """Best-effort simplification: constant folding plus identity elimination.

    Applied rules: fold binary/unary operations on finite literals (division
    by a literal zero is left intact), 0+e -> e, e-0 -> e, 0-e -> -e,
    1*e -> e, 0*e -> 0, 0/e -> 0 (e not the literal 0), e/1 -> e, and
    double-negation elimination.  Like 0*e -> 0, 0/e -> 0 assumes e finite
    and non-zero: where e evaluates to 0, the folded node is 0, not the
    division's non-finite error.

    ``memo`` maps a node's id to the node and its simplification (holding
    the node keeps its id from being reused), so a subtree the tree shares
    in several places, as the quotient rule shares a denominator, is
    simplified once per call.  A subtree no rule changes is returned as it
    is, so a partial shares those of its formula, node for node.
    """
    memo = {} if memo is None else memo
    hit = memo.get(id(node))
    if hit is None:
        hit = memo[id(node)] = node, _simplify(node, memo)
    return hit[1]


def _simplify(node: FormulaAst, memo: dict) -> FormulaAst:
    if isinstance(node, (NumberLiteral, Variable)):
        return node
    if isinstance(node, Negate):
        child = simplify(node.child, memo)
        if isinstance(child, NumberLiteral):
            return NumberLiteral(-child.value)
        if isinstance(child, Negate):
            return child.child
        return node if child is node.child else Negate(child)

    left = simplify(node.left, memo)
    right = simplify(node.right, memo)
    op = node.op
    if isinstance(left, NumberLiteral) and isinstance(right, NumberLiteral):
        if op == "+":
            folded = left.value + right.value
        elif op == "-":
            folded = left.value - right.value
        elif op == "*":
            folded = left.value * right.value
        elif right.value != 0.0:
            folded = left.value / right.value
        else:
            folded = float("nan")  # x/0: leave the node intact
        if np.isfinite(folded):
            return NumberLiteral(float(folded))
    if op == "+":
        if _is_literal(left, 0.0):
            return right
        if _is_literal(right, 0.0):
            return left
    elif op == "-":
        if _is_literal(right, 0.0):
            return left
        if _is_literal(left, 0.0):
            return simplify(Negate(right), memo)
    elif op == "*":
        if _is_literal(left, 0.0) or _is_literal(right, 0.0):
            return _ZERO
        if _is_literal(left, 1.0):
            return right
        if _is_literal(right, 1.0):
            return left
    elif op == "/":
        if _is_literal(left, 0.0) and not _is_literal(right, 0.0):
            return _ZERO
        if _is_literal(right, 1.0):
            return left
    return node if left is node.left and right is node.right else Binary(op, left, right)


def _diff(node: FormulaAst, var: str) -> FormulaAst:
    if isinstance(node, NumberLiteral):
        return _ZERO
    if isinstance(node, Variable):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Negate):
        return Negate(_diff(node.child, var))
    dl = _diff(node.left, var)
    dr = _diff(node.right, var)
    if node.op in "+-":
        return Binary(node.op, dl, dr)
    if node.op == "*":
        return Binary("+", Binary("*", dl, node.right), Binary("*", node.left, dr))
    # quotient rule: (l/r)' = (l'r - lr') / r^2
    numerator = Binary("-", Binary("*", dl, node.right), Binary("*", node.left, dr))
    return Binary("/", numerator, Binary("*", node.right, node.right))


def differentiate(ast: FormulaAst, var: str) -> FormulaAst:
    """Symbolic partial derivative of ``ast`` with respect to ``var``."""
    return simplify(_diff(ast, var))


# ---------------------------------------------------------------------------
# Canonical printing


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}
_UNARY_PREC = 30


def _print(node: FormulaAst) -> tuple[str, int]:
    if isinstance(node, NumberLiteral):
        return repr(node.value), 100
    if isinstance(node, Variable):
        return node.name, 100
    if isinstance(node, Negate):
        text, prec = _print(node.child)
        # parenthesize negated literals so they re-parse as Negate, not as a
        # (folded) negative literal
        if prec < _UNARY_PREC or isinstance(node.child, NumberLiteral):
            text = f"({text})"
        return f"-{text}", _UNARY_PREC
    prec = _PREC[node.op]
    left_text, left_prec = _print(node.left)
    right_text, right_prec = _print(node.right)
    if left_prec < prec:
        left_text = f"({left_text})"
    if right_prec <= prec:  # left associativity
        right_text = f"({right_text})"
    return f"{left_text} {node.op} {right_text}", prec


def to_source(ast: FormulaAst) -> str:
    """Render the AST as formula source; ``parse_formula(to_source(a)) == a``."""
    return _print(ast)[0]
