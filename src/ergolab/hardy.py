"""Logarithmico-exponential phase functions.

Parses the closed expression class built from real constants, the variable
x, +, *, exp and log (with ^, /, and unary minus as sugar), tabulates such
functions mod 1 at large arguments, correctly rounded, measures
their second-order difference behaviour, and computes normalized
exponential sums (1/N) sum e(p(n)).

Concrete syntax (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = ("+" | "-") unary | power ;
    power   = atom [ "^" unary ] ;              (right associative)
    atom    = NUMBER | "x" | "(" expr ")"
            | "exp" "(" expr ")" | "log" "(" expr ")" ;
    NUMBER  = (digit | ".") { digit | "." } [ ("e" | "E") [ "+" | "-" ] digit { digit } ] ;

The parser builds the core tree directly: u^v becomes exp(v*log(u)) (so
x^(3/2) is exp(3/2 * log x)), u/v becomes u * exp(-log v) unless v is
constant, and subtraction becomes addition of a (-1) multiple.  Numeric
literals and folded constants are kept as exact rationals so that
evaluation at any working precision matches the written expression, not a
double-rounded shadow of it.

The precision rule asks precision_bits >= 64 + ceil(log2(1 + |p(x)|)) at
a table's top argument.  Every table entry is the correctly rounded
frac(p(n)) at any bits that meet it: the bits set only the precision at
which the interval repair of undecided entries starts.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Tuple, Union

import numpy as np

_VALIDATION_PREC = 128
_VALIDATION_POINTS = 25
_VALIDATION_TOP = 1e12
# The sweep refuses exp arguments of 2^_VALIDATION_EXP_MAG or more: mpmath
# would need that many extra bits of log 2, so a double exponential such as
# exp(exp(x)) would never finish at the sweep's top x.
_VALIDATION_EXP_MAG = 1024
# largest constant the parser builds, literal or folded, in bits: about
# 2,500 digits, under Python's 4,300-digit limit for printing an int
_MAX_CONST_BITS = 1 << 13
_TOO_LARGE = f"constant with over {_MAX_CONST_BITS} bits is too large"
# deepest nesting the parser reads and deepest tree it returns: at up to five
# stack frames a level, within Python's default recursion limit of 1,000
_MAX_DEPTH = 160
_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"
# a token after any whitespace: a number (digits, dots, an exponent), a name, or one other character
_TOKEN = re.compile(r"\s*(?:(?P<num>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)|(?P<char>\S))")
# fractional bits kept by the exact integer roots, the interval repair's
# least starting precision, and the radius 2^-_ROOT_BITS around a nonzero
# integer in which it settles an entry as 0.0
_ROOT_BITS = 128
# the interval repair's highest precision, and the largest precision_bits
_ZIV_CEILING = 1 << 14
# radius 2^-_TIE_BITS of the neighbourhoods of 0 and of each float64 rounding
# boundary that settle an entry: 2^-_ROOT_BITS of the least float64 spacing
_TIE_BITS = 1074 + _ROOT_BITS
# largest root degree s of the powers x^(r/s), r > 0, whose tables take the
# Newton-root evaluator and the exact roots: a root's cost grows about
# linearly in s, so larger s, and r < 0, take the compiled tree
_ROOT_MAX_DEGREE = 24


class ExpressionError(ValueError):
    """Rejected expression text; carries the source position when known."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvalDomainError(ValueError):
    """log of a nonpositive value during evaluation."""


class InsufficientPrecisionError(ValueError):
    """Working precision violates the precision rule for this argument."""


# ---------------------------------------------------------------------------
# AST: core node kinds are exactly {constant, x, +, *, exp, log}.

@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Exp:
    arg: "Node"


@dataclass(frozen=True)
class Log:
    arg: "Node"


Node = Union[Const, Var, Add, Mul, Exp, Log]


def _children(node: Node) -> tuple:
    return () if isinstance(node, Const) else tuple(vars(node).values())  # its fields, in order


@dataclass(frozen=True)
class HardyExpr:
    """A parsed phase function with its declared growth exponent.

    epsilon_hint is the user-declared epsilon of the growth class (the
    second-difference scale x^(epsilon-1) y z); it is not inferred from the
    tree.
    """

    root: Node
    source: str
    epsilon_hint: Optional[float]

    @property
    def integer_polynomial(self) -> bool:
        """Polynomial with integer coefficients, so frac(p(n)) = 0 exactly;
        read off the tree, so every spelling of one function agrees."""
        return _is_integer_polynomial(self.root)


# ---------------------------------------------------------------------------
# Parsing: straight to the core tree, folding sugar and constants as read.

def _tokenize(src: str) -> list:
    """(kind, value, position) triples, ending with an "end" token."""
    # numerals such as "²" are digits to str.isdigit, not to \d: read as "0", they join a number
    probe = src if src.isascii() else "".join("0" if ch.isdigit() else ch for ch in src)
    out = []
    for m in _TOKEN.finditer(probe):
        kind, i = m.lastgroup, m.start(m.lastgroup)
        text = src[i:m.end()]
        if kind == "num":
            try:
                dec = Decimal(text)
            except ArithmeticError:
                raise ExpressionError(f"malformed number {text!r}", i)
            # a nonzero m*10^k has over 3(|k| - 1) bits: refuse a huge k unbuilt
            if dec and abs(dec.adjusted()) > _MAX_CONST_BITS // 3 + 1:
                raise ExpressionError(_TOO_LARGE, i)
            out.append(("num", Fraction(dec), i))
        elif kind == "name" and text not in ("x", "exp", "log"):
            raise ExpressionError(f"unsupported primitive {text!r}", i)
        elif kind == "char" and text not in "+-*/^()":
            raise ExpressionError(f"unexpected character {text!r}", i)
        else:
            out.append((text, text, i))
    out.append(("end", None, len(src)))
    return out


_MINUS_ONE = Const(Fraction(-1))


def _const(value: Fraction, pos: int) -> Const:
    """Every constant the parser builds, literal or folded, passes here."""
    if max(abs(value.numerator), value.denominator).bit_length() - 1 > _MAX_CONST_BITS:
        raise ExpressionError(_TOO_LARGE, pos)
    return Const(value)


def _fold(kind, left: Node, right: Node, pos: int) -> Node:
    """kind(left, right) for kind Add or Mul; two constants fold to one."""
    if isinstance(left, Const) and isinstance(right, Const):
        op = operator.add if kind is Add else operator.mul
        return _const(op(left.value, right.value), pos)
    return kind(left, right)


class _Parser:
    """Recursive descent over the module's grammar; sugar and constants
    fold into core nodes as they are read."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.nesting = 0  # unary calls open: every recursion passes one

    def take(self, *kinds: str):
        """The next token, consumed, if kinds is empty or holds its kind."""
        tok = self.toks[self.i]
        if kinds and tok[0] not in kinds:
            return None
        self.i += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.take()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[0]!r}", tok[2])

    def parse(self) -> Node:
        node = self.expr()
        tok = self.toks[self.i]
        if tok[0] != "end":
            raise ExpressionError(f"unexpected trailing {tok[0]!r}", tok[2])
        depth, level = 0, [node]  # a chain such as x+x+...+x nests without recursion
        while level and depth <= _MAX_DEPTH:
            depth, level = depth + 1, [child for n in level for child in _children(n)]
        if depth > _MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP)
        return node

    def expr(self) -> Node:
        node = self.term()
        while tok := self.take("+", "-"):
            right = self.term()
            node = _fold(Add, node, right if tok[0] == "+" else _fold(Mul, _MINUS_ONE, right, tok[2]), tok[2])
        return node

    def term(self) -> Node:
        node = self.unary()
        while tok := self.take("*", "/"):
            right = self.unary()
            if tok[0] == "/":
                rc = right.value if isinstance(right, Const) else None
                if rc == 0:
                    raise ExpressionError("division by zero constant", tok[2])
                right = Const(1 / rc) if rc is not None else Exp(Mul(_MINUS_ONE, Log(right)))
            node = _fold(Mul, node, right, tok[2])
        return node

    def unary(self) -> Node:
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, self.toks[self.i][2])
        tok = self.take("+", "-")
        node = self.power() if tok is None else self.unary()
        self.nesting -= 1
        return _fold(Mul, _MINUS_ONE, node, tok[2]) if tok and tok[0] == "-" else node

    def power(self) -> Node:
        base = self.atom()
        tok = self.take("^")
        if tok is None:
            return base
        exponent = self.unary()
        if isinstance(base, Const) and isinstance(exponent, Const) and exponent.value.denominator == 1:
            lc, rc = base.value, exponent.value
            if lc == 0 and rc < 0:
                raise ExpressionError("zero to a negative power", tok[2])
            bits = max(math.log2(abs(lc.numerator)), math.log2(lc.denominator)) if lc else 0
            if bits > 0 and abs(rc) > _MAX_CONST_BITS / bits:
                raise ExpressionError(f"constant power with over {_MAX_CONST_BITS} bits is too large", tok[2])
            return _const(lc ** int(rc), tok[2])
        return Exp(Mul(exponent, Log(base)))

    def atom(self) -> Node:
        kind, value, pos = self.take()
        if kind == "num":
            return _const(value, pos)
        if kind == "x":
            return Var()
        if kind in ("exp", "log"):
            self.expect("(")
        elif kind != "(":
            raise ExpressionError(f"unexpected {kind!r}", pos)
        node = self.expr()
        self.expect(")")
        return node if kind == "(" else Exp(node) if kind == "exp" else Log(node)


def _power_of(node: Node) -> Tuple[Optional[Fraction], Optional[Node]]:
    """(q, u) when node is exp(q*log(u)) for a constant q, in either
    operand order of the product; else (None, None)."""
    if isinstance(node, Exp) and isinstance(node.arg, Mul):
        left, right = node.arg.left, node.arg.right
        if isinstance(right, Const):
            left, right = right, left
        if isinstance(left, Const) and isinstance(right, Log):
            return left.value, right.arg
    return None, None


def _is_integer_polynomial(node: Node) -> bool:
    """Integer constants and x closed under +, * and u^k, k >= 0 an integer."""
    if isinstance(node, Const):
        return node.value.denominator == 1
    if isinstance(node, (Var, Add, Mul)):
        return all(map(_is_integer_polynomial, _children(node)))
    q, base = _power_of(node)
    return q is not None and q.denominator == 1 and q >= 0 and _is_integer_polynomial(base)


# ---------------------------------------------------------------------------
# Evaluation.

def _root_exponent(root: Node) -> Optional[Fraction]:
    """q when the tree is x^q on the root route, exp(q log x) in either
    operand order or plain x, with q = r/s > 0 and s <= _ROOT_MAX_DEGREE:
    its tables and its precision rule take exact integer roots.  Else None."""
    q, base = (Fraction(1), root) if isinstance(root, Var) else _power_of(root)
    return q if isinstance(base, Var) and q > 0 and q.denominator <= _ROOT_MAX_DEGREE else None


def _compile(node: Node, ctx):
    """Closure evaluating node in ctx (mp, iv or _DD_CTX) at ctx's precision.

    Every context provides mpf, exp and log, so one evaluator serves point
    values and outward-rounded enclosures.  `not arg > 0` rejects log
    arguments that are nonpositive, and in iv also intervals straddling 0,
    which compare as None.  Constants are rounded once, here, so compile
    under the precision the closure will be called at.  Equal subtrees are
    evaluated once per call (x^(3/2) + x log x takes one log of x): no
    operation of the contexts changes its operands.
    """
    steps, slots = [], {}  # one step per distinct subtree, children first

    def slot(n: Node) -> int:
        if n not in slots:
            if isinstance(n, Const):
                num, den = n.value.numerator, n.value.denominator
                c = ctx.mpf(num) if den == 1 else ctx.mpf(num) / den
                step = lambda x, v: c
            elif isinstance(n, Var):
                step = lambda x, v: x
            elif isinstance(n, (Add, Mul)):
                i, j = slot(n.left), slot(n.right)
                step = (lambda x, v: v[i] + v[j]) if isinstance(n, Add) else (lambda x, v: v[i] * v[j])
            elif isinstance(n, Exp):
                i, exp = slot(n.arg), ctx.exp
                step = lambda x, v: exp(v[i])
            else:
                i, log = slot(n.arg), ctx.log

                def step(x, v):
                    if not v[i] > 0:
                        raise EvalDomainError(f"log of nonpositive value {v[i]}")
                    return log(v[i])
            slots[n] = len(steps)
            steps.append(step)
        return slots[n]

    slot(node)

    def evaluate(x):
        v = []
        for step in steps:
            v.append(step(x, v))
        return v[-1]

    return evaluate


def _iroot(x: int, s: int) -> int:
    """floor(x^(1/s)) for integers x >= 0, s >= 1.

    Integer Newton iteration (Brent & Zimmermann, Modern Computer
    Arithmetic, 1.5) from a float estimate 2^(log2(x)/s), taken from the
    top 53 bits of x with the exponent split into whole and fractional
    parts, so it stays finite and good to about 45 bits for any x and s.
    By AM-GM one step from any positive guess lands on or above the floor
    of the root; from there the iterates fall strictly until they reach
    it.  For s = 2, math.isqrt does the same job faster.
    """
    if x < 2:
        return x
    cut = max(0, x.bit_length() - 53)
    # log2(x) / s = cut // s + f, with 0 < f < 54
    f = (math.log2(x >> cut) + cut % s) / s
    e = cut // s + int(f)
    mant = 2.0 ** (f - int(f))
    y = int(math.ldexp(mant, min(e, 52))) << max(e - 52, 0)
    y = ((s - 1) * y + x // y ** (s - 1)) // s
    while True:
        z = ((s - 1) * y + x // y ** (s - 1)) // s
        if z >= y:
            return y
        y = z


def _ceil_power(n: int, q: Fraction) -> int:
    """ceil(n^q) for integers n >= 1 and q = r/s > 0, in exact integers."""
    r, s = q.numerator, q.denominator
    v = n**r
    c = math.isqrt(v) if s == 2 else _iroot(v, s)
    return c + (c**s != v)


def _root_fractions(q: Fraction, start: int, out: np.ndarray, indices: np.ndarray) -> None:
    """out[i] = frac((start + i)^q) to within 2^-_ROOT_BITS, then rounded, i
    in indices, for q = r/s > 0.

    floor(n^(r/s) 2^K) = iroot_s(n^r 2^(sK)), and its low K bits are
    frac(n^q) 2^K truncated.  int / int is correctly rounded, so the
    conversion to float64 adds no error of its own.  The radicand carries
    s (K + bits of the root) bits, so the cost grows with s; only s <=
    _ROOT_MAX_DEGREE comes here.
    """
    r, s = q.numerator, q.denominator
    shift = s * _ROOT_BITS
    mask = (1 << _ROOT_BITS) - 1
    scale = 1 << _ROOT_BITS
    root = math.isqrt if s == 2 else (lambda v: _iroot(v, s))
    for i in indices.tolist():
        out[i] = (root((start + i) ** r << shift) & mask) / scale


def _required_bits(magnitude) -> int:
    """The precision rule: 64 + ceil(log2(1 + magnitude)) bits, exactly.
    ceil(log2(1 + m)) is the bit length of ceil(m) for real m >= 0; int()
    truncates an mpf exactly, where math.ceil would round it to a float."""
    ceil = int(magnitude)
    return 64 + (ceil + (ceil < magnitude)).bit_length()


# ---------------------------------------------------------------------------
# Double-double phase tables.
#
# Every table takes one pass over chunks of _TABLE_CHUNK arguments.  A _DD
# holds one subtree's values over a chunk: hi + lo in double-double
# (float64 arrays, |lo| <= ulp(hi)/2) and err, an absolute bound on
# |hi + lo - v|, v the exact value.  Each operation adds its own
# double-double rounding (Joldes, Muller & Popescu, ACM TOMS 44(2), 2017) to
# the propagated bounds.  err is itself computed in round-to-nearest
# float64; the factor _SLACK in the decision covers that and the (1 + 2^-52)
# factors left out below.

# x^(3/2) to 2^16 took 5.4, 4.4, 6.4 and 7.2 ms at 2^12..2^15; 2^14 was up
# to 9% faster on the tree evaluator and longer tables, with twice the peak
_TABLE_CHUNK = 1 << 13
_NEWTON_TINY = 2.0**-40  # larger Newton steps |c| / u0 go to the repair
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's split
_DD_ADD = 2.0**-104  # AccurateDWPlusDW: 3u^2/(1 - 4u) relative, u = 2^-53
_DD_MUL = 2.0**-102  # DWTimesDW without fma: under 8u^2 relative
# exp: relative; about 2^-98 from the reduction, the Taylor sum and the
# _EXP_HALVINGS steps s -> s(s + 2), each with the two bounds above
_DD_EXP = 2.0**-96
# log: absolute (the exp of its Newton step) plus relative (three sums)
_DD_LOG_ABS = 2.0**-95
_DD_LOG_REL = 2.0**-102
_TINY = 2.0**-1000  # absolute, for underflow in * and exp
_SLACK = 2.0
_EXP_HALVINGS = 8
_EXP_DEGREE = 10  # |s| <= 2^-9.4: truncation under 2^-119 relative
# 1/j!, j = 1.._EXP_DEGREE, in double-double: the Taylor coefficients of expm1(s)/s
_EXP_COEFFS = tuple(
    (float(c), float(c - Fraction(float(c))))
    for c in (Fraction(1, math.factorial(j)) for j in range(1, _EXP_DEGREE + 1))
)
_EXP_MAX_ARG = 700.0  # larger |arguments| over- or underflow: repaired
# ln 2 as three float64 words, each the nearest float64 to what the words
# before it leave, to about 2^-160
_LN2_PARTS = (0.6931471805599453, 2.3190468138462996e-17, 5.707708438416212e-34)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """Exact when |a| >= |b| or a = 0."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Veltkamp's split: a = ah + al, each half 26 bits or fewer."""
    t = _SPLITTER * a
    ah = t - (t - a)
    return ah, a - ah


def _two_prod(a, b):
    """Dekker's exact product, no fma: a*b = p + e unless |a| or |b| > 2^995.
    A square splits once."""
    p = a * b
    ah, al = _split(a)
    bh, bl = (ah, al) if b is a else _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _zero(word) -> bool:
    """A float 0.0 word or bound, not an array: exactly zero, so the kernels
    below skip the terms it zeroes, with the same result."""
    return isinstance(word, float) and word == 0.0


def _add_dd(xh, xl, yh, yl=0.0):
    """AccurateDWPlusDW: within 3u^2/(1 - 4u) of x + y, relative.  An
    exact-zero low word skips the sums it leaves exact."""
    sh, sl = _two_sum(xh, yh)
    low = [w for w in (xl, yl) if not _zero(w)]
    if len(low) < 2:
        return _fast_two_sum(sh, sl + low[0] if low else sl)
    th, tl = _two_sum(xl, yl)
    vh, vl = _fast_two_sum(sh, sl + th)
    return _fast_two_sum(vh, tl + vl)


def _mul_dd(xh, xl, yh, yl):
    """Double-double product within 8u^2 of x * y, relative."""
    ch, cl = _two_prod(xh, yh)
    cross = [h * l for h, l in ((xh, yl), (yh, xl)) if not _zero(l)]
    return _fast_two_sum(ch, cl + functools.reduce(operator.add, cross) if cross else cl)


def _exp_reduced(rh, rl):
    """exp(r) for |r| <= ln2/2: expm1(r/2^m) by Taylor, m steps of
    s -> s(s + 2), which keep the relative error of expm1, then 1 + s."""
    scale = 2.0**-_EXP_HALVINGS
    sh, sl = rh * scale, rl * scale
    qh, ql = _EXP_COEFFS[-1]
    for ch, cl in reversed(_EXP_COEFFS[:-1]):
        qh, ql = _mul_dd(qh, ql, sh, sl)
        qh, ql = _add_dd(qh, ql, ch, cl)
    qh, ql = _mul_dd(qh, ql, sh, sl)
    for _ in range(_EXP_HALVINGS):
        th, tl = _add_dd(qh, ql, 2.0)
        qh, ql = _mul_dd(qh, ql, th, tl)
    return _add_dd(qh, ql, 1.0)


def _exp_dd(a: _DD) -> _DD:
    """exp(a), a = h + l: 2^k exp(r), r = a - k ln2 with the two products by
    the leading words of ln 2 exact; |h| > _EXP_MAX_ARG gives NaN."""
    l1, l2, l3 = _LN2_PARTS
    h = np.where(np.abs(a.hi) <= _EXP_MAX_ARG, a.hi, np.nan)
    k = np.rint(h / l1)
    p1, q1 = _two_prod(k, l1)
    p2, q2 = _two_prod(k, l2)
    rh, rl = _add_dd(h, a.lo, -p1, -q1)
    rh, rl = _add_dd(rh, rl, -p2, -q2)
    rh, rl = _add_dd(rh, rl, -k * l3)
    eh, el = _exp_reduced(rh, rl)
    k = np.nan_to_num(k).astype(np.int64)
    hi = np.ldexp(eh, k)
    # |exp(a) - exp(A)| <= exp(A) expm1(ea) and exp(A) <= exp(a) e^ea
    g = np.expm1(a.err)
    return _DD(hi, np.ldexp(el, k), np.abs(hi) * (g * (1 + g) + _DD_EXP) + _TINY)


def _log_dd(a: _DD) -> _DD:
    """log(a), a = h + l: e ln2 + log m with m = a/2^e in
    [sqrt(1/2), sqrt(2)), log m by one Newton step y0 + m exp(-y0) - 1 from
    y0 = float64 log m, whose error d leaves d^2/2."""
    l1, l2, l3 = _LN2_PARTS
    # the exact argument is at least low
    low = a.hi * (1 - 2.0**-50) - a.err
    h, l = np.where(low > 0, a.hi, np.nan), a.lo
    m, e = np.frexp(h)
    e = np.where(m < math.sqrt(0.5), e - 1, e)
    mh, ml = np.ldexp(h, -e), l if _zero(l) else np.ldexp(l, -e)
    y0 = np.log(mh)
    th, tl = _exp_reduced(-y0, 0.0)
    wh, wl = _mul_dd(mh, ml, th, tl)
    wh, wl = _add_dd(wh, wl, -1.0)
    yh, yl = _add_dd(wh, wl, y0)
    e = e.astype(np.float64)
    p1, q1 = _two_prod(e, l1)
    p2, q2 = _two_prod(e, l2)
    nh, nl = _add_dd(p1, q1, p2, q2)
    nh, nl = _add_dd(nh, nl, e * l3)
    hi, lo = _add_dd(yh, yl, nh, nl)
    # |log a - log A| <= |a - A| / min(a, A)
    return _DD(hi, lo, a.err / low + _DD_LOG_REL * np.abs(hi) + _DD_LOG_ABS)


class _DD:
    """Values of one subtree over a chunk; see the section comment."""

    __slots__ = ("hi", "lo", "err")

    def __init__(self, hi, lo, err):
        self.hi, self.lo, self.err = hi, lo, err

    def __add__(self, other: "_DD") -> "_DD":
        hi, lo = _add_dd(self.hi, self.lo, other.hi, other.lo)
        terms = [e for e in (self.err, other.err) if not _zero(e)]
        return _DD(hi, lo, functools.reduce(operator.add, terms + [_DD_ADD * np.abs(hi)]))

    def __mul__(self, other: "_DD") -> "_DD":
        hi, lo = _mul_dd(self.hi, self.lo, other.hi, other.lo)
        ea, eb = self.err, other.err
        # |ab - AB| <= |A| eb + |B| ea + ea eb and |A| <= |a| + ea
        terms = [np.abs(h) * e for h, e in ((self.hi, eb), (other.hi, ea)) if not _zero(e)]
        if len(terms) == 2:
            terms.append(3 * ea * eb)
        return _DD(hi, lo, functools.reduce(operator.add, terms + [_DD_MUL * np.abs(hi), _TINY]))

    def __truediv__(self, den: int) -> "_DD":
        """Only _compile's constants divide: mpf(num) / den, den an int."""
        if not np.isfinite(self.hi):
            return self
        q = _dd_constant((Fraction(float(self.hi)) + Fraction(float(self.lo))) / den)
        return _DD(q.hi, q.lo, float(Fraction(float(self.err)) / den) + q.err)

    def __gt__(self, other) -> bool:
        """_compile's chunk-wide domain test passes; log sends each entry
        whose argument is not provably positive to the repair instead."""
        return True


def _dd_constant(value: Fraction) -> _DD:
    if abs(value) >= 2**1000:
        return _DD(np.float64(np.nan), 0.0, np.inf)
    hi = float(value)
    lo = float(value - Fraction(hi))
    return _DD(np.float64(hi), np.float64(lo), abs(hi) * 2.0**-105 + _TINY)


# the context _compile evaluates a tree in for a double-double table
_DD_CTX = SimpleNamespace(mpf=lambda v: _dd_constant(Fraction(v)), exp=_exp_dd, log=_log_dd)


def _chunk_fractions(v: _DD, size: int):
    """(frac, ok) for one chunk of size values v.

    ok marks the entries whose correctly rounded float64 is decided:
    frac(hi + lo) lies further than the slacked err from 0, from 1 and from
    both rounding boundaries of its nearest float64, so every value within
    err rounds to that float.  The others go to the repair.
    """
    h = np.broadcast_to(v.hi, size)
    whole = np.floor(h)
    sh, sl = _two_sum(h, -whole)
    th, tl = _add_dd(sh, sl, v.lo)
    err = _SLACK * (v.err + _DD_ADD * np.abs(th))
    up, down = _half_spacings(th)
    ok = (np.minimum(up - tl, down + tl) > err) & (th > err) & (th < 1 - err)
    return th, ok


def _half_spacings(th: np.ndarray):
    """Half the float64 spacing above and below each th in [0, 1), bytes as
    from np.nextafter: 2^-53 times the exponent bits' binade of th and of th
    (1 - 2^-53), th's predecessor at a power of two (0 if subnormal: so is
    half of 2^-1074, rounded)."""
    up = (th.view(np.int64) & 0x7FF0000000000000).view(np.float64) * 2.0**-53
    below = (th * (1 - 2.0**-53)).view(np.int64) & 0x7FF0000000000000
    return up, below.view(np.float64) * 2.0**-53


def _dd_power(v: _DD, e: int) -> _DD:
    """v^e for an integer e >= 1, by binary powering."""
    result = v if e & 1 else None
    while e > 1:
        e >>= 1
        v = v * v
        if e & 1:
            result = v if result is None else result * v
    return result


def _root_dd(n: _DD, s: int, u0=None) -> _DD:
    """n^(1/s) for integers n = n.hi + n.lo >= 1, exact double-doubles, s >=
    2, by one Newton step u0 - c, c = (u0^s - n) / (s u0^(s-1)), the
    residual in double-double (Brent & Zimmermann, 1.5); u0 None is np.sqrt
    or pow of n.hi polished in float64.  err bounds the distance to the
    root: c's 4 roundings, the residual's err, and the step's truncation.
    c/u0 = (1 - rho^s)/s, rho = root/u0, so |c| <= _NEWTON_TINY u0 puts rho
    within 2^-39 of 1 and the truncation under (s-1)/2 c^2/u0 (1 + 2^-30):
    err takes 2(s-1) c^2/u0; inf beyond.
    """
    if u0 is None and s == 2:
        u0 = np.sqrt(n.hi)
    elif u0 is None:
        u0 = np.power(n.hi, 1.0 / s)
        u0 -= (u0**s - n.hi) / (s * u0 ** (s - 1))
    x0 = _DD(u0, 0.0, 0.0)
    below = _dd_power(x0, s - 1)
    res = below * x0 + _DD(-n.hi, -n.lo, 0.0)
    den = s * below.hi
    c = res.hi / den
    hi, lo = _fast_two_sum(u0, -c)
    err = np.abs(c) * 2.0**-50 + 2 * res.err / den + 2 * (s - 1) * c * c / u0
    err[np.abs(c) > _NEWTON_TINY * u0] = np.inf
    return _DD(hi, lo, err)


def _settle(a: int, b: int, u: int) -> Optional[float]:
    """The entry of every p in [a, b] / 2^u, u > _TIE_BITS, or None if they
    give more than one.  It is a function of p alone: 0.0 within 2^-_ROOT_BITS
    of a nonzero integer (exact at integers such as n^(3/2) at perfect squares)
    or 2^-_TIE_BITS of 0, the even neighbour of a rounding boundary within
    2^-_TIE_BITS of one, else frac(p) correctly rounded (int / int is)."""
    unit, tie = 1 << u, 1 << (u - _TIE_BITS)
    radius = lambda k: unit >> _ROOT_BITS if k else tie  # of the neighbourhood of k that gives 0.0
    k = (a + (unit >> 1)) >> u  # the integer nearest a / unit
    if abs(a - (k << u)) < radius(k) and abs(b - (k << u)) < radius(k):
        return 0.0
    k = a >> u
    a, b = a - (k << u), b - (k << u)
    if radius(k) <= a and b <= unit - radius(k + 1):  # clear of both integers' neighbourhoods
        if (low := (a - tie) / unit) == (b + tie) / unit:  # no rounding boundary within tie
            return low
        below, above = (b - tie) / unit, (a + tie) / unit
        if b - a < 2 * tie and below != above:  # within tie of one boundary
            return (below + above) / 2
    return None


def _round_fractions(root: Node, start: int, out: np.ndarray, indices, bits: int) -> None:
    """out[i] = the entry _settle gives frac(p(start + i)), i in indices, by
    Ziv's strategy (Ziv, ACM TOMS 17(3), 1991): each entry's interval
    enclosure from max(bits, _ROOT_BITS) bits, the precision doubled up to
    _ZIV_CEILING until every value in it gives one entry, so no entry depends
    on bits.  An entry still open at the last precision fails, as does a log
    argument not provably positive.
    """
    from mpmath import iv
    precs = [max(bits, _ROOT_BITS)]
    while precs[-1] < _ZIV_CEILING:
        precs.append(min(2 * precs[-1], _ZIV_CEILING))
    closures = {}
    old = iv.prec  # mpmath's iv context has no workprec
    try:
        for i in indices.tolist():
            for prec in precs:
                iv.prec = prec  # before _compile, which rounds constants at it
                if prec not in closures:
                    closures[prec] = _compile(root, iv)
                try:
                    (s_a, a, e_a, _), (s_b, b, e_b, _) = closures[prec](iv.mpf(start + i))._mpi_
                except EvalDomainError:
                    if prec == precs[-1]:
                        raise
                    continue
                u = max(-e_a, -e_b, _TIE_BITS + 1)  # p lies in [a, b] / 2^u
                entry = _settle((-a if s_a else a) << (u + e_a), (-b if s_b else b) << (u + e_b), u)
                if entry is not None:
                    out[i] = entry
                    break
            else:
                raise InsufficientPrecisionError(f"enclosure of p({start + i}) too wide at {precs[-1]} bits")
    finally:
        iv.prec = old


def _validate_domain(root: Node, source: str) -> None:
    """Rejects the tree unless it is defined at _VALIDATION_POINTS points
    from 1, where every table starts, up to _VALIDATION_TOP.

    The points first run as one chunk in _DD_CTX.  Only a value that comes
    out non-finite there (a log argument not provably positive, an exp
    argument past _EXP_MAX_ARG, a constant from 2^1000 on, an overflow)
    sends them to the 128-bit mpmath sweep, which decides and words the
    error; so every accepted tree is one the sweep accepts.
    """
    xs = np.geomspace(1.0, _VALIDATION_TOP, _VALIDATION_POINTS)
    with np.errstate(all="ignore"):
        v = _compile(root, _DD_CTX)(_DD(xs, 0.0, 0.0))
    if all(np.isfinite(a).all() for a in (v.hi, v.lo, v.err)):
        return
    _validate_domain_mp(root, source, xs.tolist())


def _validate_domain_mp(root: Node, source: str, xs: list) -> None:
    """The mpmath sweep of _validate_domain: the tree at each of xs, 128 bits."""
    from mpmath import mp

    def exp(v):
        if mp.mag(v) > _VALIDATION_EXP_MAG:
            raise EvalDomainError(f"exp argument beyond 2^{_VALIDATION_EXP_MAG}")
        return mp.exp(v)

    with mp.workprec(_VALIDATION_PREC):
        # mp with the sweep's guard on exp; phase tables compile against plain mp
        fn = _compile(root, SimpleNamespace(mpf=mp.mpf, exp=exp, log=mp.log))
        for xv in xs:
            try:
                fn(mp.mpf(xv))
            except EvalDomainError as exc:
                raise ExpressionError(
                    f"expression {source!r} undefined at x={xv:g}: {exc}"
                ) from exc


def parse_expression(
    src: str,
    epsilon_hint: Optional[float] = None,
) -> HardyExpr:
    """Parse source text into a validated HardyExpr.

    Rejects empty input, syntax errors (with position), and primitives
    outside the exp/log algebra.  A sweep over [1, 1e12] confirms
    evaluation is defined (all log arguments positive) there.
    """
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    if epsilon_hint is not None and not 0.0 < epsilon_hint < 1.0:
        raise ValueError(f"epsilon_hint must lie in (0, 1), got {epsilon_hint}")
    root = _Parser(src).parse()
    _validate_domain(root, src)
    return HardyExpr(root, src, epsilon_hint)


def minimum_precision(p: HardyExpr, x: Union[int, float]) -> int:
    """Smallest precision_bits satisfying the rule at argument x.  For x^q on
    the root route and an integer x >= 1 it is exact, 64 plus the bit length
    of ceil(x^q); any other tree, or a float x, takes a 96-bit evaluation."""
    q = _root_exponent(p.root)
    if q is not None and isinstance(x, (int, np.integer)) and x >= 1:
        return _required_bits(_ceil_power(int(x), q))
    from mpmath import mp
    with mp.workprec(96):
        return _required_bits(abs(_compile(p.root, mp)(mp.mpf(x))))


def eval_mod1(p: HardyExpr, x: int, precision_bits: int) -> float:
    """frac(p(x)) correctly rounded: the phase table of the one argument x."""
    return float(phase_fractions(p, x, precision_bits, start=x)[0])


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def phase_fractions(
    p: HardyExpr,
    N: int,
    precision_bits: Optional[int] = None,
    start: int = 1,
) -> np.ndarray:
    """frac(p(n)) for n = start..N as float64, each entry correctly rounded.

    The workhorse behind exponential sums and weight tables.  One
    double-double pass over chunks of _TABLE_CHUNK, each argument n exact
    (one float64 under 2^53, two words above), emits every entry whose error
    bound decides its float64.  The other entries of a chunk (near 0, 1 or a
    rounding boundary, non-finite, a log argument not provably positive, n
    past 2^106) are repaired before the next chunk is evaluated.  The tree
    picks the pass's evaluator and the repair.  A power x^q, q = k + j/s >
    0 with s <= _ROOT_MAX_DEGREE, forms n^k u^j, u = _root_dd(n, s), and
    repairs by exact integer roots; the root is within 2^-128 of frac(n^q),
    far inside err, so it rounds the way every decided entry does.  Every
    other tree, q < 0 included, runs compiled in _DD_CTX and repairs by
    interval enclosures (_round_fractions), so no byte depends on
    precision_bits.  None picks the minimum at x=N plus 16 bits; else
    precision_bits must be an integer that meets the rule at x=N and is at
    most the larger of that default and _ZIV_CEILING, or it fails before
    the table is built.
    """
    N, start = _integer("N", N), _integer("start", start)
    if precision_bits is not None:
        precision_bits = _integer("precision_bits", precision_bits)
    if start < 1:
        raise ValueError(f"arguments must be positive integers, got start={start}")
    if N < start:
        raise ValueError("empty argument range")
    count = N - start + 1
    required = None if p.integer_polynomial else minimum_precision(p, N)
    ceiling = max(_ZIV_CEILING, (required or 0) + 16)
    if precision_bits is not None and precision_bits > ceiling:
        raise ValueError(f"precision_bits must be at most {ceiling}, got {precision_bits}")
    if required is None:
        return np.zeros(count, dtype=np.float64)
    if precision_bits is None:
        precision_bits = required + 16
    elif precision_bits < required:
        raise InsufficientPrecisionError(f"precision rule needs >= {required} bits at x={N}, got {precision_bits}")

    out = np.empty(count, dtype=np.float64)
    q = _root_exponent(p.root)
    if q is not None:
        k, j = divmod(q.numerator, q.denominator)  # j >= 1: integer q is a polynomial

        def fn(x: _DD) -> _DD:
            v = _dd_power(_root_dd(x, q.denominator), j)
            return v * _dd_power(x, k) if k else v
        repair = functools.partial(_root_fractions, q, start, out)
    else:
        fn = _compile(p.root, _DD_CTX)
        repair = functools.partial(_round_fractions, p.root, start, out, bits=precision_bits)
    with np.errstate(all="ignore"):
        for first in range(0, count, _TABLE_CHUNK):
            size, base = min(_TABLE_CHUNK, count - first), start + first
            if base + size <= 1 << 53:  # each n is one float64
                hi, lo = float(base) + np.arange(size, dtype=np.float64), 0.0
            elif base < 1 << 106:  # the rest is an integer under 2^53: n = hi + lo exactly
                head = float(base)
                hi, lo = _two_sum(head, (base - int(head)) + np.arange(size, dtype=np.float64))
            else:
                hi = lo = np.full(size, np.nan)
            out[first:first + size], ok = _chunk_fractions(fn(_DD(hi, lo, 0.0)), size)
            repair(np.flatnonzero(~ok) + first)
    np.clip(out, 0.0, np.nextafter(1.0, 0.0), out=out)
    return out


def unit_phases(fractions: np.ndarray) -> np.ndarray:
    """e(x) = exp(2 pi i x) applied elementwise: cos t and sin t of t = 2 pi
    x written into one complex128 array.  Bit for bit np.exp(2j * np.pi *
    x), whose exp of (+-0 + it) is (cos t, sin t) from the same libm."""
    t = np.asarray(fractions, dtype=np.float64) * (2 * np.pi)
    t += 0.0  # -0.0 to +0.0, as the imaginary part 0*0 + 2 pi x of that product
    out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def prefix_means(terms: np.ndarray, schedule) -> np.ndarray:
    """(1/N) sum_{n<=N} terms[n-1] for each N in schedule, 1 <= N <= len(terms).

    Each mean is an independent fixed-shape pairwise sum over terms[:N], so
    equal term arrays give bit-equal results.  The expsum and average
    pipelines average through it; chain_diagnostics takes its stage means
    with np.sum inline.
    """
    for N in schedule:
        if not 1 <= N <= len(terms):
            raise ValueError(f"prefix length N={N} must lie in [1, {len(terms)}], the number of terms")
    return np.array([np.sum(terms[:N]) / N for N in schedule], dtype=np.complex128)


def exp_sum(p: HardyExpr, N: int, precision_bits: Optional[int] = None) -> complex:
    """(1/N) sum_{n<=N} e(p(n)); magnitude <= 1."""
    fr = phase_fractions(p, N, precision_bits)
    return complex(prefix_means(unit_phases(fr), [N])[0])


def second_difference_ratio(
    p: HardyExpr,
    x: float,
    y: float,
    z: float,
    epsilon: Optional[float] = None,
) -> float:
    """|p(x+y+z) - p(x+y) - p(x+z) + p(x)| / (x^(eps-1) y z).

    The numerator cancels to a quantity many orders below p itself, so the
    working precision is raised until two evaluations 64 bits apart agree;
    the returned ratio is then accurate to ~1e-12 of the normalizer.
    """
    if epsilon is None:
        epsilon = p.epsilon_hint
    if epsilon is None:
        raise ValueError("expression has no epsilon_hint and no epsilon was given")
    if not (x > 0 and y > 0 and z > 0):
        raise ValueError("x, y, z must all be positive")
    from mpmath import mp

    def second_difference(bits: int):
        with mp.workprec(bits):
            fn = _compile(p.root, mp)
            x0 = mp.mpf(x)
            return fn(x0 + y + z) - fn(x0 + y) - fn(x0 + z) + fn(x0)

    bits = minimum_precision(p, x + y + z) + 32
    with mp.workprec(96):
        denom = mp.power(mp.mpf(x), mp.mpf(epsilon) - 1) * y * z

    prev = second_difference(bits)
    for _ in range(16):
        bits += 64
        cur = second_difference(bits)
        # the comparison and the ratio run at double precision, mpmath's default
        with mp.workprec(53):
            if abs(cur - prev) <= denom * mp.mpf(2) ** -40:
                return float(abs(cur) / denom)
        prev = cur
    raise InsufficientPrecisionError(
        f"second difference did not stabilize below {bits} bits"
    )
