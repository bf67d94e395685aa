import operator
import re
import time
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from ergolab.dynamics import RotationSystem
from ergolab import hardy
from ergolab.hardy import (
    EvalDomainError,
    ExpressionError,
    InsufficientPrecisionError,
    _compile,
    _iroot,
    _required_bits,
    eval_mod1,
    exp_sum,
    minimum_precision,
    parse_expression,
    phase_fractions,
    power_phase,
    prefix_means,
    second_difference_ratio,
    unit_phases,
)


def circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# Parsing.

def test_parse_variable():
    e = parse_expression("x")
    assert e.key == "x"
    assert e.integer_polynomial


def test_parse_power_sugar_desugars_to_exp_log():
    e = parse_expression("x^(3/2)")
    assert e.key == "exp(mul(c(3/2),log(x)))"
    assert not e.integer_polynomial


def test_parse_rejects_unsupported_primitive():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("sin(x)")
    assert "sin" in str(exc.value)
    assert exc.value.position == 0


def test_parse_rejects_empty_and_garbage():
    for bad in ("", "   ", "x +", "((x)", "x^", "1..2", "y", "0^(-1)"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_parse_error_carries_position():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("x + cos(x)")
    assert exc.value.position == 4


def test_constant_folding_is_exact():
    e = parse_expression("x^(1/3)")
    assert e.key == "exp(mul(c(1/3),log(x)))"  # kept rational, not 0.333...
    assert parse_expression("(3/2)*2").root.value == Fraction(3)


def test_integer_polynomial_detection():
    assert parse_expression("x^2").integer_polynomial
    assert parse_expression("x^2 + 3*x").integer_polynomial
    assert parse_expression("-x*x + 7").integer_polynomial
    assert parse_expression("(x+1)^3 - 2*x").integer_polynomial
    assert parse_expression("x^0").integer_polynomial
    assert not parse_expression("(x+1)^(-1)").integer_polynomial
    assert not parse_expression("(x/2)^2").integer_polynomial
    assert not parse_expression("exp(log(x))").integer_polynomial
    assert not parse_expression("x^(3/2)").integer_polynomial
    assert not parse_expression("x/2").integer_polynomial
    assert not parse_expression("exp(x)").integer_polynomial
    assert not parse_expression("1.5*x").integer_polynomial


# Source text and the key of its core tree; every folding rule of the
# parser shows up in at least one row.
PINNED_KEYS = [
    ("-x", "mul(c(-1),x)"),
    ("--x", "mul(c(-1),mul(c(-1),x))"),
    ("---x", "mul(c(-1),mul(c(-1),mul(c(-1),x)))"),
    ("+-+x", "mul(c(-1),x)"),
    ("--3", "c(3)"),
    ("x - 1", "add(x,c(-1))"),
    ("1 - x", "add(c(1),mul(c(-1),x))"),
    ("x - 2*x - 3", "add(add(x,mul(c(-1),mul(c(2),x))),c(-3))"),
    ("x - -x", "add(x,mul(c(-1),mul(c(-1),x)))"),
    ("x/2", "mul(x,c(1/2))"),
    ("x/2/3", "mul(mul(x,c(1/2)),c(1/3))"),
    ("x/0.5", "mul(x,c(2))"),
    ("1/x", "mul(c(1),exp(mul(c(-1),log(x))))"),
    ("x/(x+1)", "mul(x,exp(mul(c(-1),log(add(x,c(1))))))"),
    ("2^3", "c(8)"),
    ("2^-2", "c(1/4)"),
    ("(-1)^(-7)", "c(-1)"),
    ("4^(1/2)", "exp(mul(c(1/2),log(c(4))))"),
    ("x^(1/3)", "exp(mul(c(1/3),log(x)))"),
    ("x^-1/2", "mul(exp(mul(c(-1),log(x))),c(1/2))"),
    ("2^3^2", "c(512)"),
    ("x^2^1", "exp(mul(c(2),log(x)))"),
    ("x^(1/2)^2", "exp(mul(c(1/4),log(x)))"),
    ("x^x", "exp(mul(x,log(x)))"),
    ("-x^2", "mul(c(-1),exp(mul(c(2),log(x))))"),
    ("log(exp(x))", "log(exp(x))"),
    ("exp(exp(log(x)))", "exp(exp(log(x)))"),
    ("exp(log(log(x+2)))", "exp(log(log(add(x,c(2)))))"),
    ("exp(3/2*log(x))", "exp(mul(c(3/2),log(x)))"),
    ("exp(log(x)*(3/2))", "exp(mul(log(x),c(3/2)))"),
    ("exp(log(x)*3/2)", "exp(mul(mul(log(x),c(3)),c(1/2)))"),
    ("3/2-1+0.5", "c(1)"),
    ("2*x^2 - 3*x + 1",
     "add(add(mul(c(2),exp(mul(c(2),log(x)))),mul(c(-1),mul(c(3),x))),c(1))"),
]


@pytest.mark.parametrize("src,key", PINNED_KEYS)
def test_parse_pinned_keys(src, key):
    assert parse_expression(src).key == key


@pytest.mark.parametrize("a,b", [
    ("x^2", "exp(2*log(x))"),
    ("x^2", "exp(log(x)*2)"),
    ("x/0.5", "2*x"),
    ("(-1)^(-7)", "-1"),
    ("2^3^2", "512"),
])
def test_equal_trees_give_equal_flags(a, b):
    ea, eb = parse_expression(a), parse_expression(b)
    assert ea.integer_polynomial and eb.integer_polynomial
    for e in (ea, eb):
        assert eval_mod1(e, 7, 96) == 0.0


def test_domain_validation_sweep():
    # log log x dies at x = 1; a later domain start admits it
    with pytest.raises(ExpressionError):
        parse_expression("log(log(x))")
    e = parse_expression("log(log(x))", domain_start=2.0)
    assert e.key == "log(log(x))"


@pytest.mark.parametrize("src", ["x + 3^3^15", "9^9^9", "(1/3)^100000", "2^(10^400)"])
def test_oversized_constant_power_is_rejected_before_folding(src):
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match="constant power"):
        parse_expression(src)
    assert time.perf_counter() - start < 1.0


def test_constant_powers_of_modest_size_still_fold():
    assert parse_expression("2^3^2").key == "c(512)"
    assert parse_expression("1^(10^100)").key == "c(1)"
    assert parse_expression("(-1)^(10^100 + 1)").key == "c(-1)"
    assert parse_expression("2^8192").root.value == 2**8192  # the largest size kept
    with pytest.raises(ExpressionError, match="constant power"):
        parse_expression("2^8193")


@pytest.mark.parametrize("src", [
    "x + 2^8000*2^8000", "x + 1e5000", "x*1e-5000", "2^8192 + 2^8192", "x*1e99999999",
])
def test_oversized_constant_is_rejected_however_built(src):
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match="constant with over 8192 bits"):
        parse_expression(src)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("src,const", [
    ("x + 2^4000*2^4000", Fraction(2) ** 8000),
    ("x*1e-2000", Fraction(1, 10**2000)),
])
def test_constants_under_the_cap_parse_and_print_their_key(src, const):
    e = parse_expression(src)
    assert f"c({const})" in e.key


@pytest.mark.parametrize("src", ["exp(exp(x))", "exp(exp(exp(x)))", "x^(10^400)"])
def test_double_exponential_fails_the_sweep_fast(src):
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match="exp argument"):
        parse_expression(src)
    assert time.perf_counter() - start < 2.0


def test_large_single_exponentials_still_parse():
    for src in ("exp(x)", "exp(x^2)", "exp(exp(log(x)))", "x^(10^30)"):
        parse_expression(src)


def validate_domain_mpmath(root, source: str, domain_start) -> None:
    """Oracle: the 128-bit mpmath sweep alone, as the parser ran it before the
    double-double chunk decided the finite cases."""

    def exp(v):
        if mp.mag(v) > hardy._VALIDATION_EXP_MAG:
            raise EvalDomainError(f"exp argument beyond 2^{hardy._VALIDATION_EXP_MAG}")
        return mp.exp(v)

    xs = np.geomspace(max(domain_start, 1e-9), hardy._VALIDATION_TOP, hardy._VALIDATION_POINTS)
    with mp.workprec(hardy._VALIDATION_PREC):
        fn = _compile(root, SimpleNamespace(mpf=mp.mpf, exp=exp, log=mp.log))
        for xv in [domain_start, *xs.tolist()]:
            try:
                fn(mp.mpf(xv))
            except EvalDomainError as exc:
                raise ExpressionError(f"expression {source!r} undefined at x={xv:g}: {exc}") from exc


def sweep_outcome(validate, src: str, domain_start):
    """None when validate accepts the tree of src, else its error text."""
    root = hardy._Parser(src).parse()
    try:
        validate(root, src, domain_start)
    except ExpressionError as exc:
        return str(exc)
    return None


def check_sweep(src: str, domain_start, monkeypatch) -> bool:
    """The sweep's outcome equals the oracle's; returns whether the
    double-double chunk decided it alone."""
    fallbacks = []
    sweep = hardy._validate_domain_mp
    monkeypatch.setattr(hardy, "_validate_domain_mp", lambda *args: fallbacks.append(1) or sweep(*args))
    got = sweep_outcome(hardy._validate_domain, src, domain_start)
    monkeypatch.undo()
    assert got == sweep_outcome(validate_domain_mpmath, src, domain_start)
    return not fallbacks


DOMAIN_TREES = [
    # (source, domain_start, whether the double-double chunk decides it)
    ("log(log(x))", 1.0, False), ("log(log(x))", 2.0, True), ("log(x - 1.5)", 3.0, True),
    ("log(x - 1.5)", 1.0, False), ("exp(exp(x))", 1.0, False), ("exp(exp(exp(x)))", 1.0, False),
    ("x^(10^400)", 1.0, False), ("exp(x)", 1.0, False), ("exp(x^2)", 1.0, False),
    ("exp(exp(log(x)))", 1.0, False), ("x^(10^30)", 1.0, False), ("x + 2^4000*2^4000", 1.0, False),
    ("x*1e-2000", 1.0, True), ("x^(3/2)", 1.0, True), ("x^(3/2) + x*log(x)", 1.0, True),
    ("x^1.01", 1.0, True), ("x*exp(-x/1000)", 1.0, False), ("exp(x) - exp(x) + x/3", 1.0, False),
    ("x^(3/2)", 0.0, False), ("x^(3/2)", -1.0, False), ("x^(3/2)", 2, True), ("x^(3/2)", 2**53 + 1, False),
    ("log(x - 9007199254740993.5)", 2**53 + 3, False), ("3", 1.0, True), ("log(2 + x*x)", -5.0, True),
]


@pytest.mark.parametrize("src,domain_start,decided", DOMAIN_TREES)
def test_domain_sweep_equals_mpmath_sweep(src, domain_start, decided, monkeypatch):
    assert check_sweep(src, domain_start, monkeypatch) == decided


@given(
    st.builds(Fraction, st.integers(-48, 48), st.integers(1, 24)),
    st.sampled_from([1.0, 2.0, 0.5, 1e-9, 1e-12, 0.0, -1.0, 1e6, 3]),
)
@settings(max_examples=150, deadline=None)
def test_domain_sweep_of_powers_equals_mpmath_sweep(q, domain_start):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_sweep(f"x^({q})", domain_start, monkeypatch)
        check_sweep(f"2*x^({q}) + log(x)", domain_start, monkeypatch)


def test_ln2_words_against_mpmath():
    with mp.workprec(256):
        v = mp.ln2
        hi = float(v)
        mid = float(v - hi)
        words = (hi, mid, float(v - hi - mid))
        assert hardy._LN2_PARTS == words
        assert abs(v - mp.fsum(words)) < mp.mpf(2) ** -160


def test_epsilon_hint_validation():
    with pytest.raises(ValueError):
        parse_expression("x", epsilon_hint=1.5)
    e = power_phase("3/2")
    assert e.epsilon_hint == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# eval_mod1: the one-entry phase table.

def test_integer_polynomial_exact_zero():
    e = parse_expression("x^2")
    assert eval_mod1(e, 3, 96) == 0.0


def test_power_three_halves_at_two():
    # oracle: independent high-precision square root, rounded once
    with mp.workprec(200):
        expected = float(mp.sqrt(8) - 2)
    value = eval_mod1(parse_expression("x^(3/2)"), 2, 96)
    assert type(value) is float and value == expected


def test_precision_rule_enforced():
    e = parse_expression("x^(3/2)")
    with pytest.raises(InsufficientPrecisionError):
        eval_mod1(e, 10**6, 70)  # rule needs 64 + 30 bits
    assert eval_mod1(e, 10**6, 94) == 0.0  # 10^6 is a perfect square


@pytest.mark.parametrize("src", ["x^(3/2)", "x^(3/2) + x*log(x)", "x^1.01"])
def test_eval_mod1_ignores_precision_bits(src):
    # one correctly rounded value: no bit count moves it
    e = parse_expression(src)
    for x in (10**4 + 1, 12345678901):
        base = minimum_precision(e, x)
        values = {eval_mod1(e, x, bits) for bits in (base, base + 1, 128, 2 * base, 256)}
        assert len(values) == 1


def test_doubling_precision_stability():
    # doubling the bits moves the fractional part by < 2^-50 on the circle
    e = parse_expression("x^(3/2)")
    base = minimum_precision(e, 10**6)
    lo = eval_mod1(e, 10**6, base)
    hi = eval_mod1(e, 10**6, 2 * base)
    assert circle_distance(lo, hi) < 2.0**-50


def test_precision_monotonicity():
    # the distance to a 400-bit oracle never grows as the bit count grows
    e = parse_expression("x^(3/2)")
    x = 10**4 + 7
    with mp.workprec(400):
        v = mp.mpf(x) ** mp.mpf(1.5)
        oracle = float(v - mp.floor(v))
    errors = [circle_distance(eval_mod1(e, x, bits), oracle) for bits in (96, 128, 192, 256)]
    assert all(e1 >= e2 for e1, e2 in zip(errors, errors[1:]))
    assert errors[0] <= 2.0**-52


def required_bits_exact(m: Fraction) -> int:
    """Oracle for the rule: 64 + the least k with 2^k >= 1 + m."""
    k = 0
    while (1 << k) < 1 + m:
        k += 1
    return 64 + k


def mpf_value(v) -> Fraction:
    man, exp = v.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def check_required_bits(m) -> None:
    assert _required_bits(m) == required_bits_exact(Fraction(m))
    with mp.workprec(512):  # holds m exactly, 2^300 + 1 too
        v = mp.mpf(m)
    assert _required_bits(v) == required_bits_exact(mpf_value(v))


def test_required_bits_at_powers_of_two():
    # log2 at 96 bits rounded 2^k + 1 down to 2^k for every k >= 91
    for k in range(301):
        for m in (2**k - 1, 2**k, 2**k + 1):
            check_required_bits(m)
            check_required_bits(float(m))


@given(
    st.one_of(
        st.integers(0, 2**400),
        st.floats(0.0, 2.0**1000),
        st.builds(lambda man, e: man * 2.0**e, st.integers(1, 2**53), st.integers(-80, 900)),
    )
)
@settings(max_examples=400, deadline=None)
def test_required_bits_matches_exact_rule(m):
    check_required_bits(m)


def power_rule_exact(q: Fraction, x: int) -> int:
    """Oracle for the rule at x^q, q = r/s > 0: 64 + the least k with 2^k >=
    1 + x^q, that is with x^r <= (2^k - 1)^s, both sides read as Fractions.
    k starts at floor((b - 1) r/s), b the bit length of x, where 2^k <= x^q."""
    r, s = q.numerator, q.denominator
    k = (x.bit_length() - 1) * r // s
    while Fraction(x) ** r > Fraction((1 << k) - 1) ** s:
        k += 1
    return 64 + k


ROOT_ROUTE = [Fraction(q) for q in ("1/2", "3/2", "5/3", "7/4", "25/24", "23/24", "7/2", "1", "2")]


def test_power_precision_rule_is_exact_at_its_steps():
    # at x = 1, at the squares (2^k - 1)^2, where x^(1/2) = 2^k - 1 sits on a
    # step of the rule, and at 2^53 + 1, which a float64 x would round
    cases = [(q, 1) for q in ROOT_ROUTE] + [(q, 2**53 + 1) for q in ROOT_ROUTE]
    cases += [(Fraction(1, 2), (2**k - 1) ** 2 + d) for k in range(2, 200) for d in (-1, 0, 1)]
    for q, x in cases:
        assert minimum_precision(parse_expression(f"x^({q})"), x) == power_rule_exact(q, x), (q, x)
    assert minimum_precision(parse_expression("x^(1/2)"), 961) == 69
    assert minimum_precision(parse_expression("x^(3/2)"), np.int64(4)) == 68


@given(
    st.sampled_from(ROOT_ROUTE) | st.builds(Fraction, st.integers(1, 48), st.integers(1, 24)),
    st.integers(1, 2**70) | st.integers(1, 2**20).map(lambda m: m * m) | st.integers(1, 2**12).map(lambda m: m**3),
)
@settings(max_examples=300, deadline=None)
def test_power_precision_rule_matches_fraction_oracle(q, x):
    assert minimum_precision(parse_expression(f"x^({q})"), x) == power_rule_exact(q, x)


@pytest.mark.parametrize("src,start,length", [
    # ranges that end on a step of the rule: 15^2 needs 68 bits, not 69
    ("x^(1/2)", 1, 225),
    ("x^(1/2)", 1, 961),
    ("x^(3/2)", 1, 1),
    # ranges where the pass bounds no |p|: past 2^106, or past float64
    ("x^(1/2)", 2**106 + 1, 16),
    ("x^(1/2)", (2**54 - 1) ** 2 - 3, 4),  # ends where |p| = 2^54 - 1 exactly
    ("x^(3/2)", 2**120 - 5, 8),
    ("x^(1001/2)", 1013, 8),          # |p| past float64
])
def test_unbounded_bracket_takes_the_exact_roots(src, start, length, monkeypatch):
    # the rule is exact, and entries the pass cannot bound take the tree's
    # own repair, here the exact roots
    enclosed = []
    monkeypatch.setattr(hardy, "_round_fractions", lambda *args: enclosed.append(args))
    p, q, N = parse_expression(src), Fraction(src[3:-1]), start + length - 1
    required = power_rule_exact(q, N)
    fr = phase_fractions(p, N, required, start)
    assert enclosed == []
    assert fr.tobytes() == exact_root_table(q, start, length).tobytes()
    with pytest.raises(InsufficientPrecisionError, match=f"needs >= {required} bits at x={N}, got {required - 1}"):
        phase_fractions(p, N, required - 1, start)


def test_eval_domain_error_at_runtime():
    e = parse_expression("log(x - 1.5)", domain_start=3.0)
    with pytest.raises(EvalDomainError):
        eval_mod1(e, 1, 96)


def test_eval_mod1_rejects_bad_arguments():
    e = parse_expression("x")
    with pytest.raises(ValueError, match="positive"):
        eval_mod1(e, 0, 96)
    with pytest.raises(ValueError, match="^N must be an integer, got 2.5$"):
        eval_mod1(e, 2.5, 96)


@given(st.integers(2, 10**6))
@settings(max_examples=40, deadline=None)
def test_additivity_of_fractional_parts(x):
    # frac(p + q) = frac(frac(p) + frac(q)) up to the three roundings to
    # float64 and the one of the sum; p and q take the exact roots, p + q
    # the compiled tree
    p = parse_expression("x^(3/2)")
    q = parse_expression("x^(5/4)")
    s = parse_expression("x^(3/2) + x^(5/4)")
    bits = minimum_precision(s, x) + 16
    fp, fq, fs = (eval_mod1(expr, x, bits) for expr in (p, q, s))
    assert circle_distance(fs, (fp + fq) % 1.0) <= 2.0**-51


@given(st.integers(1, 10**13), st.integers(0, 64))
@example(12345678901, 0)
@settings(max_examples=150, deadline=None)
def test_eval_mod1_against_exact_integer_oracle(x, extra_bits):
    # frac(x^(3/2)) from floor(x^(3/2) 2^K) = isqrt(x^3 4^K), exact to 2^-K
    # and rounded once; runs at the default global precision, which must not
    # leak into eval_mod1
    K = 192
    e = parse_expression("x^(3/2)")
    oracle = Fraction(isqrt(x**3 << (2 * K)) % (1 << K), 1 << K)
    expected = min(float(oracle), np.nextafter(1.0, 0.0))
    assert eval_mod1(e, x, minimum_precision(e, x) + extra_bits) == expected


# ---------------------------------------------------------------------------
# exp_sum.

def test_exp_sum_zero_phase():
    z = parse_expression("0")
    for N in (1, 2, 17, 1000):
        assert exp_sum(z, N) == 1.0 + 0j


def test_exp_sum_alternating():
    # p(n) = n/2: e(1/2) + e(1) = 0
    e = parse_expression("x/2")
    assert abs(exp_sum(e, 2)) < 1e-12


def test_exp_sum_magnitude_bounded():
    e = parse_expression("x^(3/2)")
    for N in (1, 7, 500):
        assert abs(exp_sum(e, N)) <= 1.0 + 1e-12


def test_exp_sum_integer_shift_invariance():
    # adding an integer constant to p cannot change e(p(n))
    e1 = parse_expression("x^(3/2)")
    e2 = parse_expression("x^(3/2) + 7")
    for N in (16, 257):
        assert abs(exp_sum(e1, N) - exp_sum(e2, N)) < 1e-12


def test_exp_sum_three_halves_decay():
    # derived check: direct summation, cross-checked at two precisions
    e = parse_expression("x^(3/2)")
    N = 10**4
    bits = minimum_precision(e, N)
    v1 = exp_sum(e, N, bits)
    v2 = exp_sum(e, N, bits + 64)
    assert abs(v1 - v2) < 1e-10
    assert abs(v1) < 0.05


def test_exp_sum_precision_rule_precheck():
    e = parse_expression("x^(3/2)")
    with pytest.raises(InsufficientPrecisionError):
        exp_sum(e, 10**6, 70)


def test_phase_fractions_rejects_nonpositive_start():
    e = parse_expression("x^(1/3)")
    for start in (0, -8):
        with pytest.raises(ValueError, match="positive"):
            phase_fractions(e, 8, start=start)


@pytest.mark.parametrize("args, error", [
    ((8.0,), "N must be an integer, got 8.0"),
    ((8, None, 1.0), "start must be an integer, got 1.0"),
    ((np.int64(8), None, np.int64(1)), None),
    ((8, 2.0**10), "precision_bits must be an integer, got 1024.0"),
    ((8, 16385), "precision_bits must be at most 16384, got 16385"),  # past the repair's ceiling
])
def test_phase_fractions_reads_integer_arguments(args, error):
    # one line naming the argument, before the precision rule runs
    e = parse_expression("x^(3/2)")
    if error is None:
        assert phase_fractions(e, *args).tobytes() == phase_fractions(e, 8).tobytes()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            phase_fractions(e, *args)


def test_explicit_precision_may_reach_the_default_start():
    # e^11401 needs 16,513 bits by the rule, past the repair's 2^14 ceiling;
    # an explicit precision may reach the default start, the rule plus 16
    # bits, and no further
    p = parse_expression("exp(x)")
    default = phase_fractions(p, 11401, start=11400)
    with pytest.raises(InsufficientPrecisionError, match="needs >= 16513 bits at x=11401, got 16384$"):
        phase_fractions(p, 11401, 16384, 11400)
    for bits in (16513, 16529):
        assert phase_fractions(p, 11401, bits, 11400).tobytes() == default.tobytes()
    with pytest.raises(ValueError, match="^precision_bits must be at most 16529, got 16600$"):
        phase_fractions(p, 11401, 16600, 11400)
    # an integer polynomial has no rule: the ceiling alone bounds it
    with pytest.raises(ValueError, match="^precision_bits must be at most 16384, got 16385$"):
        phase_fractions(parse_expression("x^2"), 8, 16385)


def phase_fractions_mpmath(q: Fraction, N: int, precision_bits: int, start: int = 1) -> np.ndarray:
    """Reference path for the table of x^q: one mp.power per point at
    precision_bits."""
    out = np.empty(N - start + 1, dtype=np.float64)
    with mp.workprec(precision_bits):
        qm = mp.mpf(q.numerator) / q.denominator
        for i in range(out.shape[0]):
            v = mp.power(start + i, qm)
            out[i] = float(v - mp.floor(v))
    return np.clip(out, 0.0, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("start, N", [(1, 1 << 12), (10**9, 10**9 + 1023)])
def test_power_table_matches_mpmath_loop(start, N):
    # at the default bits the integer-root table equals the mpmath loop
    # bit for bit
    e = parse_expression("x^(3/2)")
    bits = minimum_precision(e, N) + 16
    fr = phase_fractions(e, N, start=start)
    assert fr.tobytes() == phase_fractions_mpmath(Fraction(3, 2), N, bits, start).tobytes()


@given(
    st.integers(-8, 8),
    st.integers(1, 4),
    st.integers(1, 10**12),
    st.integers(1, 32),
)
@example(1, 3, 1, 32)     # q < 1, perfect cubes at 1 and 8 and 27
@example(-3, 2, 10**12, 8)
@settings(max_examples=60, deadline=None)
def test_power_table_within_eval_mod1_bound(r, s, start, length):
    # the bound is half an ulp: every entry is the correctly rounded one
    e = parse_expression(f"x^({r}/{s})")
    N = start + length - 1
    expected = correctly_rounded_table(e, N, minimum_precision(e, N), start)
    assert phase_fractions(e, N, start=start).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "p",
    [
        parse_expression("x^(25/24)"),   # the largest root degree on the integer path
        parse_expression("x^(26/25)"),   # the smallest one past it
        parse_expression("x^1.01"),      # q = 101/100
        power_phase(1.1),                # q = Fraction(1.1), denominator 2^51
    ],
    ids=["25/24", "26/25", "1.01", "float-1.1"],
)
@pytest.mark.parametrize("start, N", [(1, 40), (10**9, 10**9 + 7)])
def test_power_table_any_denominator(p, start, N):
    expected = correctly_rounded_table(p, N, minimum_precision(p, N), start)
    assert phase_fractions(p, N, start=start).tobytes() == expected.tobytes()


# Powers x^q, q > 0 with s <= 24: the Newton-root pass and the exact roots
# for the entries it leaves open, against the exact root at every entry.

def exact_root_table(q: Fraction, start: int, length: int) -> np.ndarray:
    out = np.empty(length, dtype=np.float64)
    hardy._root_fractions(q, start, out, np.arange(length))
    return np.clip(out, 0.0, np.nextafter(1.0, 0.0))


def rooted_table(q: Fraction, start: int, length: int):
    """The table of x^q on start..start+length-1, and the indices it hands
    to the exact integer roots."""
    rooted = []
    root_fractions = hardy._root_fractions

    def capture(q, start, out, indices):
        rooted.extend(indices.tolist())
        root_fractions(q, start, out, indices)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hardy, "_root_fractions", capture)
        fr = phase_fractions(parse_expression(f"x^({q})"), start + length - 1, start=start)
    return fr, rooted


EXPONENTS = [Fraction(e) for e in ("1/2", "3/2", "5/3", "7/4", "25/24", "7/2", "-3/2")]
exponents = st.sampled_from(EXPONENTS) | st.builds(
    Fraction, st.integers(-48, 48).filter(bool), st.integers(1, 24)
)
power_starts = (
    st.just(1)
    | st.integers(1, 10**12)
    | st.integers(2**26 - 64, 2**26 + 64)
    | st.integers(2**35 - 64, 2**35 + 64)
)


@given(exponents.filter(lambda q: q > 0), power_starts, st.integers(1, 64))
@example(Fraction(3, 2), 1, 20000)                 # across a chunk boundary
@example(Fraction(3, 2), 10_800_000_000, 64)       # |p| near 2^50: all rooted
@example(Fraction(23, 24), 10**12 - 64, 64)
@settings(max_examples=150, deadline=None)
def test_power_pass_equals_exact_roots(q, start, length):
    fr, rooted = rooted_table(q, start, length)
    assert fr.tobytes() == exact_root_table(q, start, length).tobytes()
    if q.denominator == 1:  # a polynomial: zeros, no roots
        assert rooted == []
    if q == Fraction(3, 2) and start >= 10_800_000_000:
        assert rooted == list(range(length))


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(5, 3), Fraction(1, 2)])
@pytest.mark.parametrize("start", [2**53 + 1, 2**63 - 100, 2**70 + 3])
def test_power_table_past_2_53_takes_the_roots(q, start, monkeypatch):
    # the pass reads n as an exact double-double, and every entry it leaves
    # open takes the exact roots, none an enclosure; x^(1/2)
    # stays under 2^50, so most of its entries are decided by the pass
    enclosed = []
    round_fractions = hardy._round_fractions

    def capture(root, start, out, indices, bits):
        enclosed.extend(indices.tolist())
        round_fractions(root, start, out, indices, bits)

    monkeypatch.setattr(hardy, "_round_fractions", capture)
    fr = phase_fractions(parse_expression(f"x^({q})"), start + 255, start=start)
    assert enclosed == []
    assert fr.tobytes() == exact_root_table(q, start, 256).tobytes()


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("start", [2**53 - 8192, 2**53 + 2 - hardy._TABLE_CHUNK])
def test_power_table_across_2_53_equals_exact_roots(q, start):
    # a chunk below 2^53 takes each n as one word, a later one as two; the
    # second start ends the first chunk at 2^53 + 1, the first n that needs
    # two.  |p| stays under 2^40, so the pass decides most entries itself
    length = 2**53 + 8192 - start + 1
    fr, rooted = rooted_table(q, start, length)
    assert fr.tobytes() == exact_root_table(q, start, length).tobytes()
    assert len(rooted) < length // 2


def test_power_pass_repairs_perfect_squares_and_few_others():
    _, rooted = rooted_table(Fraction(3, 2), 1, 1 << 16)
    squares = [k * k - 1 for k in range(1, 257)]
    assert set(squares) <= set(rooted)
    assert len(rooted) <= 256 + 8


def test_negative_power_table_is_exact():
    # n^(-28) is its own fraction; roots at 2^-128 absolute left 292 of
    # these 300 entries a few units in the last place low
    fr = phase_fractions(parse_expression("x^(-28)"), 300)
    assert fr.tolist() == [0.0] + [float(Fraction(1, n**28)) for n in range(2, 301)]


@given(st.integers(-48, -1), st.integers(1, 24), power_starts, st.integers(1, 64))
@example(-28, 1, 1, 64)
@example(-3, 2, 10**12, 8)
@example(-48, 1, 3 * 10**6, 64)       # fractions under 2^-1022: subnormal
@settings(max_examples=80, deadline=None)
def test_negative_power_table_equals_mpmath(r, s, start, length):
    # x^q for q < 0 takes the interval route; its largest |p| is at start
    p = parse_expression(f"x^({Fraction(r, s)})")
    N = start + length - 1
    expected = correctly_rounded_table(p, N, minimum_precision(p, start), start)
    assert phase_fractions(p, N, start=start).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Trees off the integer-root path: the double-double table against the
# correctly rounded fractional part at every entry.

def range_precision(p, N: int, start: int = 1) -> int:
    """The precision rule at the largest |p| on start..N, read at every
    point."""
    return max(minimum_precision(p, n) for n in range(start, N + 1))


def correctly_rounded_table(p, N: int, precision_bits: int, start: int = 1) -> np.ndarray:
    """The table's contract: frac(p(n)) correctly rounded to float64, from
    the mpmath closure 256 bits above a precision_bits that meets the rule,
    so within about 2^-320 of p(n), rounded once from its exact binary
    value, subnormals included.  Exactly 0.0 within 2^-128 of a nonzero
    integer, which only the exact integers come that close to here; values
    near 0 keep their own, since n^q for q < 0 falls under 2^-128 without
    being an integer."""
    out = np.empty(N - start + 1, dtype=np.float64)
    with mp.workprec(precision_bits + 256):
        fn = _compile(p.root, mp)
        for i in range(out.shape[0]):
            v = fn(mp.mpf(start + i))
            whole = mp.nint(v)
            near = whole != 0 and abs(v - whole) < mp.ldexp(1, -128)
            man, exp = (v - mp.floor(v)).man_exp
            out[i] = 0.0 if near else float(man * Fraction(2) ** exp)
    return np.clip(out, 0.0, np.nextafter(1.0, 0.0))


def on_tree_path(p) -> bool:
    """Whether p's table takes the compiled tree and the interval repair."""
    q = hardy._power_form(p.root)
    return not p.integer_polynomial and (
        q is None or q < 0 or q.denominator > hardy._ROOT_MAX_DEGREE
    )


LEAVES = [
    "x", "1.01", "3/7", "-2", "exp(1/3)", "log(x)", "x^1.01", "x^(26/25)", "x^(1/3)", "x^(3/2)",
]
trees = st.recursive(
    st.sampled_from(LEAVES),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: f"({t[0]}) + ({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]}) * ({t[1]})"),
        sub.map(lambda u: f"log(2 + ({u})*({u}))"),
        sub.map(lambda u: f"exp(({u}) / (1 + ({u})*({u})))"),
        sub.map(lambda u: f"exp(log(x + ({u})*({u}))*1.01)"),
    ),
    max_leaves=5,
)


starts = st.integers(1, 10**4) | st.integers(1, 10**12)


@given(trees, starts, st.integers(1, 48), st.integers(0, 24))
@example("x^(3/2) + x*log(x)", 1, 48, 16)
@example("x^1.01", 10**12 - 47, 48, 0)         # |p| near 2^40
@example("x^(3/2) + x*log(x)", 10**12, 8, 0)   # |p| >= 2^50: every entry repaired
@example("x*exp(-x/1000)", 900, 48, 0)         # magnitude peaks inside the range
@example("exp(x/100)", 69_990, 48, 0)          # exp arguments across 700
@example("x*x^(1/2)", 1, 48, 0)                # the perfect squares 1, 4, ... 36
@example("exp(x) - exp(x) + x/3", 1, 300, 0)   # intermediates near 2^433
@example("x^(-28) + 3/7*x - 3/7*x", 250, 48, 0)  # tiny p inside enclosures of 0
@example("x^(1/3) - x^(1/3)", 1, 48, 0)        # p = 0, never enclosed exactly
@settings(max_examples=120, deadline=None)
def test_tree_table_equals_mpmath_loop(src, start, length, extra_bits):
    # bits need only meet the rule at N; the mpmath loop runs at the rule on
    # the range's largest |p|, and every entry is the correctly rounded one
    p = parse_expression(src)
    if not on_tree_path(p):
        return
    N = start + length - 1
    bits = minimum_precision(p, N) + extra_bits
    expected = correctly_rounded_table(p, N, max(bits, range_precision(p, N, start)), start)
    assert phase_fractions(p, N, bits, start).tobytes() == expected.tobytes()


@pytest.mark.parametrize("start", [1, 10**6 - 100, 10**10 - 100])
def test_tree_table_repairs_perfect_squares(start):
    # x*x^(1/2) is the integer k^3 at n = k^2: every enclosure holds it, so
    # those entries are exactly 0.0; no power form, so the interval route
    p = parse_expression("x*x^(1/2)")
    assert on_tree_path(p)
    N = start + 299
    bits = minimum_precision(p, N)
    fr = phase_fractions(p, N, bits, start)
    assert fr.tobytes() == correctly_rounded_table(p, N, bits, start).tobytes()
    squares = [k * k - start for k in range(isqrt(start - 1) + 1, isqrt(N) + 1)]
    assert squares and all(fr[i] == 0.0 for i in squares)


@pytest.mark.parametrize("src", ["x*x^(1/2)", "x^(1/3) + log(x)"])
@pytest.mark.parametrize("start", [2**53 - 100, 2**54 - 100, 2**70 - 100])
def test_tree_table_past_2_53(src, start):
    # x*x^(1/2) is the integer 2^81 at 2^54 and 2^105 at 2^70; the other
    # tree stays under 2^50, so the pass decides most of its entries
    p = parse_expression(src)
    N = start + 255
    bits = minimum_precision(p, N)
    fr = phase_fractions(p, N, bits, start)
    assert fr.tobytes() == correctly_rounded_table(p, N, bits, start).tobytes()


def test_x_to_1_01_table_to_2_20():
    p = parse_expression("x^1.01")
    N = 1 << 20
    t0 = time.perf_counter()
    fr = phase_fractions(p, N)
    assert time.perf_counter() - t0 < 5.0
    bits = minimum_precision(p, N) + 16
    for start in (1, 1 << 19, N - 511):
        window = correctly_rounded_table(p, start + 511, bits, start)
        assert fr[start - 1:start + 511].tobytes() == window.tobytes()


THREE_HALVES = ["x^(3/2)", "x*x^(1/2)", "exp(3/2*log(x))", "exp(log(x)*1.5)"]


@pytest.mark.parametrize("start, N", [(1, 1 << 16), (10**10 - 2048, 10**10 + 2047)])
def test_one_function_one_table(start, N):
    # every spelling of x^(3/2) gives one table byte for byte, perfect
    # squares included: the power forms by exact roots, x*x^(1/2) by the
    # interval repair
    expected = phase_fractions(parse_expression("x^(3/2)"), N, start=start).tobytes()
    assert [on_tree_path(parse_expression(src)) for src in THREE_HALVES] == [False, True, False, False]
    for src in THREE_HALVES:
        p = parse_expression(src)
        assert phase_fractions(p, N, minimum_precision(p, N), start).tobytes() == expected


@given(st.integers(1, 48), st.integers(1, 24), power_starts, st.integers(1, 64))
@example(3, 2, 1, 64)
@example(5, 1, 10**12 - 63, 64)    # integers everywhere: every entry settled as 0.0
@settings(max_examples=80, deadline=None)
def test_tree_path_equals_power_path(r, s, start, length):
    # x^(q/2) * x^(q/2) is no power form: the interval route against the
    # root route of x^q.  q > 0 only: the roots keep 2^-128 absolute, which
    # decides the float64 of a fraction unless it is under about 2^-75
    q = Fraction(r, s)
    p = parse_expression(f"x^({q / 2}) * x^({q / 2})")
    N = start + length - 1
    expected = phase_fractions(parse_expression(f"x^({q})"), N, start=start)
    assert phase_fractions(p, N, start=start).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "src, N",
    [
        ("x^(3/2) + x*log(x)", 9125),
        ("x^1.01", 1 << 14),
        ("exp(3/2*log(x))", 1 << 14),   # the exact roots
        ("x*x^(1/2)", 1 << 14),         # the interval repair at perfect squares
    ],
)
def test_tree_table_ignores_precision_bits(src, N):
    p = parse_expression(src)
    bits = minimum_precision(p, N)
    assert phase_fractions(p, N, bits).tobytes() == phase_fractions(p, N, bits + 48).tobytes()


def compile_per_occurrence(node, ctx):
    """Oracle: the evaluator before equal subtrees were shared, one closure
    per occurrence of a subtree, each evaluated on its own."""
    if isinstance(node, hardy.Const):
        num, den = node.value.numerator, node.value.denominator
        c = ctx.mpf(num) if den == 1 else ctx.mpf(num) / den
        return lambda x: c
    if isinstance(node, hardy.Var):
        return lambda x: x
    if isinstance(node, (hardy.Add, hardy.Mul)):
        f, g = compile_per_occurrence(node.left, ctx), compile_per_occurrence(node.right, ctx)
        op = operator.add if isinstance(node, hardy.Add) else operator.mul
        return lambda x: op(f(x), g(x))
    f, fn = compile_per_occurrence(node.arg, ctx), ctx.exp if isinstance(node, hardy.Exp) else ctx.log

    def ev(x):
        arg = f(x)
        if isinstance(node, hardy.Log) and not arg > 0:
            raise EvalDomainError(f"log of nonpositive value {arg}")
        return fn(arg)

    return ev


@pytest.mark.parametrize("N", [1 << 16, 3 * hardy._TABLE_CHUNK + 5])
def test_tree_table_takes_one_log_per_chunk_of_a_repeated_subtree(N, monkeypatch):
    # exp(3/2*log(x)) + x*log(x): log(x) occurs twice and is taken once
    p = parse_expression("x^(3/2) + x*log(x)")
    assert on_tree_path(p) and p.key.count("log(x)") == 2
    log, calls = hardy._DD_CTX.log, []
    monkeypatch.setattr(hardy._DD_CTX, "log", lambda v: calls.append(v) or log(v))
    got = phase_fractions(p, N)
    assert len(calls) == -(-N // hardy._TABLE_CHUNK)
    monkeypatch.setattr(hardy._DD_CTX, "log", log)
    monkeypatch.setattr(hardy, "_compile", compile_per_occurrence)
    assert phase_fractions(p, N).tobytes() == got.tobytes()


@given(trees, st.integers(1, 10**6) | st.integers(1, 10**12))
@settings(max_examples=80, deadline=None)
def test_shared_subtrees_evaluate_as_each_occurrence_does(src, x):
    # in mp the values, in iv the enclosures, and any domain error agree
    def outcome(compile_, ctx):
        try:
            return repr(compile_(p.root, ctx)(ctx.mpf(x)))
        except EvalDomainError as exc:
            return str(exc)

    p = parse_expression(src)
    with mp.workprec(160):
        assert outcome(_compile, mp) == outcome(compile_per_occurrence, mp)
    old = iv.prec
    try:
        iv.prec = 160
        assert outcome(_compile, iv) == outcome(compile_per_occurrence, iv)
    finally:
        iv.prec = old


def test_magnitude_backstop_fails_before_the_repair():
    # x e^(-x/1000) peaks at n = 1000 (|p| = 368, 73 bits); at N = 4000 the
    # rule gives 71.  The rule is checked at N only, and the repair finds its
    # own precision, so 71 bits give the correctly rounded table
    p = parse_expression("x*exp(-x/1000)")
    assert (minimum_precision(p, 4000), range_precision(p, 4000)) == (71, 73)
    expected = correctly_rounded_table(p, 4000, 73)
    assert phase_fractions(p, 4000, 71).tobytes() == expected.tobytes()
    assert phase_fractions(p, 4000, 73).tobytes() == expected.tobytes()


def test_repair_limits_of_the_interval_closure():
    # exp(x) - exp(x) cancels, but its enclosures are as wide as e^x 2^-bits:
    # past x = 266 they need more than 512 bits, so the repair doubles on
    p = parse_expression("exp(x) - exp(x) + x/3")
    bits = minimum_precision(p, 100)
    assert phase_fractions(p, 100, bits).tobytes() == correctly_rounded_table(p, 100, bits).tobytes()
    assert phase_fractions(p, 300).tobytes() == phase_fractions(parse_expression("x/3"), 300).tobytes()
    # e^12000 is about 2^17312: no enclosure within the ceiling cancels it
    with pytest.raises(InsufficientPrecisionError, match=r"^enclosure of p\(12000\) too wide at 16384 bits$"):
        phase_fractions(p, 12000, start=12000)
    with pytest.raises(EvalDomainError, match="log of nonpositive value"):
        phase_fractions(parse_expression("log(x - 1.5)", domain_start=3.0), 4)


def test_each_chunk_is_repaired_before_the_next(monkeypatch):
    # the first chunk's repair fails at the ceiling before the pass
    # evaluates the second chunk
    sizes = []
    chunk_fractions = hardy._chunk_fractions
    monkeypatch.setattr(hardy, "_chunk_fractions", lambda v, size: sizes.append(size) or chunk_fractions(v, size))
    p = parse_expression("exp(x) - exp(x) + x/3")
    N = 12000 + 3 * hardy._TABLE_CHUNK - 1
    with pytest.raises(InsufficientPrecisionError, match=r"^enclosure of p\(12000\) too wide at 16384 bits$"):
        phase_fractions(p, N, start=12000)
    assert sizes == [hardy._TABLE_CHUNK]


# The double-double operations against mpmath at 400 bits.  Each input is
# hi + lo with err e0, and the exact value sits a*e0 below it, |a| <= 1.
# The output's err must bound |dd - exact|.

def dd_input(hi, lo_frac, rel_err, a):
    lo = float(lo_frac * np.spacing(hi) / 2)
    e0 = abs(hi) * rel_err
    x = hardy._DD(np.array([hi]), np.array([lo]), np.array([e0]))
    with mp.workprec(400):
        exact = mp.mpf(hi) + mp.mpf(lo) - a * mp.mpf(e0)
    return x, exact


def within_bound(v, exact):
    with mp.workprec(400):
        dd = mp.mpf(float(v.hi[0])) + mp.mpf(float(v.lo[0]))
        return abs(dd - exact) <= mp.mpf(float(v.err[0]))


def errors():
    return st.tuples(
        st.sampled_from([0.0, 2.0**-60, 2.0**-90, 2.0**-110]),
        st.floats(-1, 1),
    )


@given(st.floats(-700, 700), st.floats(-1, 1), errors())
@example(0.34657359027997264, 1.0, (0.0, 0.0))
@example(-700.0, -1.0, (2.0**-60, 1.0))
@settings(max_examples=300, deadline=None)
def test_double_double_exp_within_bound(hi, lo_frac, err):
    x, exact = dd_input(hi, lo_frac, *err)
    v = hardy._DD_CTX.exp(x)
    with mp.workprec(400):
        assert within_bound(v, mp.exp(exact))


@given(st.floats(1e-300, 1e300), st.floats(-1, 1), errors())
@example(1.0, 0.0, (0.0, 0.0))
@example(1.0000000000000002, -1.0, (2.0**-60, 1.0))
@example(0.9999999999999999, 1.0, (0.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_double_double_log_within_bound(hi, lo_frac, err):
    x, exact = dd_input(hi, lo_frac, *err)
    v = hardy._DD_CTX.log(x)
    with mp.workprec(400):
        assert within_bound(v, mp.log(exact))


finite = st.floats(1e-100, 1e100).flatmap(lambda m: st.sampled_from([m, -m]))


@given(finite, finite, st.floats(-1, 1), st.floats(-1, 1), errors(), errors(), st.booleans())
@example(1.0, -1.0000000000000002, 0.5, 0.0, (0.0, 0.0), (0.0, 0.0), True)
@settings(max_examples=300, deadline=None)
def test_double_double_add_and_mul_within_bound(h1, h2, f1, f2, err1, err2, add):
    x, ex = dd_input(h1, f1, *err1)
    y, ey = dd_input(h2, f2, *err2)
    v = x + y if add else x * y
    with mp.workprec(400):
        assert within_bound(v, ex + ey if add else ex * ey)


@given(st.fractions())
@example(Fraction(101, 100))
@example(Fraction(-(3**5000), 7**1000))
@example(Fraction(1, 3**700))
@settings(max_examples=200, deadline=None)
def test_double_double_constants_within_bound(value):
    # _compile rounds a constant as mpf(numerator) / denominator
    num, den = value.numerator, value.denominator
    v = hardy._DD_CTX.mpf(num) if den == 1 else hardy._DD_CTX.mpf(num) / den
    if not np.isfinite(v.hi):
        assert abs(value) >= 2**1000
        return
    with mp.workprec(8000):
        v.hi, v.lo, v.err = np.array([v.hi]), np.array([v.lo]), np.array([v.err])
        exact = mp.mpf(num) / den
    assert within_bound(v, exact)


@given(
    st.integers(1, (1 << 53) - 64) | st.integers(1 << 53, 1 << 100),
    st.integers(2, 24),
    st.sampled_from([0.0, 2.0**-45, 2.0**-41]),
    st.floats(-1, 1),
)
@example(1, 2, 0.0, 0.0)
@example(1, 4, 0.0, 0.0)           # small |c|: the residual's err dominates
@example((1 << 53) - 64, 24, 2.0**-41, 1.0)
@example((1 << 53) - 31, 2, 0.0, 0.0)      # across 2^53: lo = +-1 from there on
@example(1 << 100, 24, 2.0**-41, -1.0)
@settings(max_examples=200, deadline=None)
def test_newton_root_within_bound(start, s, rel, shift):
    # n as exact pairs hi + lo, from the default estimate (rel = 0) or one
    # off by up to 2^-41, inside the |c| <= 2^-40 u0 the bound is claimed for
    hi = [float(start + i) for i in range(64)]
    lo = [float(start + i - int(h)) for i, h in enumerate(hi)]
    n = hardy._DD(np.array(hi), np.array(lo), 0.0)
    with mp.workprec(400):
        roots = [mp.root(start + i, s) for i in range(64)]
    u0 = None if rel == 0 else np.array([float(r * (1 + rel * shift)) for r in roots])
    v = hardy._root_dd(n, s, u0)
    assert np.isfinite(v.err).all()
    for i, root in enumerate(roots):
        one = hardy._DD(v.hi[i:i + 1], v.lo[i:i + 1], v.err[i:i + 1])
        assert within_bound(one, root)


# The pass's shortcuts against the long forms they stand for: the float
# spacing from np.nextafter, and low words and bounds as arrays of zeros.

def half_spacings_nextafter(th):
    return (np.nextafter(th, 2.0) - th) * 0.5, (th - np.nextafter(th, -1.0)) * 0.5


def chunk_fractions_nextafter(v, size):
    """hardy._chunk_fractions with the spacings from np.nextafter and the
    zero low word of its sum as an array."""
    h = np.broadcast_to(v.hi, size)
    whole = np.floor(h)
    sh, sl = hardy._two_sum(h, -whole)
    th, tl = hardy._add_dd(sh, sl, v.lo, np.zeros(size))
    err = hardy._SLACK * (v.err + hardy._DD_ADD * np.abs(th))
    up, down = half_spacings_nextafter(th)
    ok = (np.minimum(up - tl, down + tl) > err) & (th > err) & (th < 1 - err)
    return th, ok


UNIT_EDGES = [0.0, 5e-324, np.nextafter(2.0**-1022, 0.0), 2.0**-1022, 2.0**-1021, 0.5, 1 - 2.0**-53]
unit_floats = (
    st.floats(0.0, 1.0, exclude_max=True)
    | st.integers(-1074, -1).map(lambda e: 2.0**e)
    | st.sampled_from(UNIT_EDGES)
)


@given(st.lists(unit_floats, min_size=1, max_size=40))
@example(UNIT_EDGES)
@settings(max_examples=300, deadline=None)
def test_half_spacings_equal_nextafter(ths):
    th = np.array(ths)
    for got, want in zip(hardy._half_spacings(th), half_spacings_nextafter(th)):
        assert got.tobytes() == want.tobytes()


table_values = (
    st.floats(-(2.0**60), 2.0**60)
    | st.integers(-(2**50), 2**50).map(float)
    | st.integers(-(2**50), 2**50).map(lambda k: k + 0.5)
    | unit_floats
)


@given(
    st.lists(st.tuples(table_values, st.floats(-1, 1)), min_size=1, max_size=40),
    st.sampled_from([0.0, 2.0**-104, 2.0**-60, 2.0**-52]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_chunk_fractions_equal_nextafter_form(words, rel, one_word):
    hi = np.array([h for h, _ in words])
    lo = 0.0 if one_word else np.array([f * np.spacing(h) / 2 for h, f in words])
    v = hardy._DD(hi, lo, np.abs(hi) * rel + hardy._TINY)
    got, want = hardy._chunk_fractions(v, len(words)), chunk_fractions_nextafter(v, len(words))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def dd_words(draws):
    hi = np.array([h for h, _ in draws])
    return hi, np.array([f * np.spacing(h) / 2 for h, f in draws])


@given(
    st.lists(st.tuples(finite, st.floats(-1, 1), finite, st.floats(-1, 1)), min_size=1, max_size=24),
    st.sampled_from([(True, False), (False, True), (True, True)]),
    st.sampled_from([(True, False), (False, True), (True, True), (False, False)]),
)
@example([(3.0, 0.0, 7.0, 0.0)], (True, True), (True, True))
@example([(1.0, 0.5, -1.0000000000000002, 0.0)], (True, False), (False, True))
@settings(max_examples=300, deadline=None)
def test_exact_zero_words_skip_with_the_same_bytes(draws, zero_lows, zero_errs):
    # the float 0.0 as a low word or bound gives the bytes of an array of zeros
    xh, xl = dd_words([(a, b) for a, b, _, _ in draws])
    yh, yl = dd_words([(c, d) for _, _, c, d in draws])
    ex, ey = np.abs(xh) * 2.0**-60, np.abs(yh) * 2.0**-70
    zeros = np.zeros(len(draws))

    def words(scalar):
        lows = [(0.0 if scalar else zeros) if z else w for z, w in zip(zero_lows, (xl, yl))]
        errs = [(0.0 if scalar else zeros) if z else e for z, e in zip(zero_errs, (ex, ey))]
        return lows, errs

    (sxl, syl), (sex, sey) = words(True)
    (axl, ayl), (aex, aey) = words(False)
    for kernel in (hardy._add_dd, hardy._mul_dd):
        for got, want in zip(kernel(xh, sxl, yh, syl), kernel(xh, axl, yh, ayl)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for op in (operator.mul, operator.add):
        got = op(hardy._DD(xh, sxl, sex), hardy._DD(yh, syl, sey))
        want = op(hardy._DD(xh, axl, aex), hardy._DD(yh, ayl, aey))
        for a, b in ((got.hi, want.hi), (got.lo, want.lo), (got.err, want.err)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@given(st.integers(0, 1 << 20000), st.integers(1, 300))
@example((1 << 1500) - 1, 3)
@example(10**300, 5)
@example(3**101 << 12800, 100)   # the radicand of 3^1.01 at 128 fractional bits
@example((1 << 20000) - 1, 1)
@settings(max_examples=200, deadline=None)
def test_iroot_is_floor_of_root(x, s):
    root = _iroot(x, s)
    assert root**s <= x < (root + 1) ** s


@pytest.mark.parametrize("prec", [20, 300])
def test_results_ignore_global_precision(prec):
    power, generic = parse_expression("x^(3/2)"), parse_expression("x^(3/2) + x*log(x)")

    def results():
        return (
            phase_fractions(power, 300).tobytes(),
            phase_fractions(generic, 300).tobytes(),
            phase_fractions(generic, 10**9 + 7, start=10**9 + 7).tobytes(),
            eval_mod1(power, 12345678901, 120),
            eval_mod1(generic, 10**9 + 7, 110),
            minimum_precision(generic, 10**9),
            second_difference_ratio(power, 1e4, 3.0, 7.0, epsilon=0.5),
            parse_expression("log(log(x))", domain_start=2.0),
            RotationSystem("sqrt2m1").alpha_fp,
        )

    expected = results()
    with mp.workprec(prec):
        assert results() == expected


def test_unit_phases_values():
    z = unit_phases(np.array([0.0, 0.25, 0.5]))
    assert z[0] == 1.0 + 0j
    assert abs(z[1] - 1j) < 1e-15
    assert abs(z[2] + 1.0) < 1e-15


subnormals = st.floats(0.0, 2.0**-1022, exclude_max=True, allow_subnormal=True)
phase_arguments = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 0.5, 2.0**20]),
    subnormals,
    subnormals.map(lambda t: -t),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-(2.0**20), 0.0),
    st.floats(0.0, 2.0**20),
)


@given(st.lists(phase_arguments, max_size=80))
@settings(max_examples=300, deadline=None)
def test_unit_phases_equal_complex_exp_bit_for_bit(ts):
    t = np.array(ts, dtype=np.float64)
    assert unit_phases(t).tobytes() == np.exp(2j * np.pi * t).tobytes()


@pytest.mark.parametrize("scale", [1.0, -1.0, 2.0**20])
def test_unit_phases_equal_complex_exp_on_long_arrays(scale):
    # lengths past numpy's vector loops' blocks, and one not a multiple of them
    t = np.random.default_rng(8).random((1 << 17) + 3) * scale
    assert unit_phases(t).tobytes() == np.exp(2j * np.pi * t).tobytes()
    assert unit_phases(t[::3]).tobytes() == np.exp(2j * np.pi * t[::3]).tobytes()


@pytest.mark.parametrize("schedule,N", [([2, 8], 8), ([0], 0), ([-2], -2), ([1, 5], 5), (np.array([4, 9]), 9)])
def test_prefix_means_rejects_lengths_outside_the_terms(schedule, N):
    with pytest.raises(ValueError, match=rf"^prefix length N={N} must lie in \[1, 4\], the number of terms$"):
        prefix_means(np.ones(4), schedule)


def test_prefix_means_at_both_ends():
    terms = np.array([1.0, 2.0, 3.0, 6.0])
    assert prefix_means(terms, [1, 4]).tolist() == [1.0, 3.0]
    assert prefix_means(terms, np.array([2], dtype=np.int64)).tolist() == [1.5]


# ---------------------------------------------------------------------------
# Second differences.

def test_second_difference_square_exact():
    # p(x) = x^2: second difference is exactly 2yz, so the ratio is 2
    e = parse_expression("x^2")
    for x, y, z in ((10.0, 1.0, 1.0), (1e4, 3.0, 7.0), (1e6, 100.0, 5.0)):
        assert abs(second_difference_ratio(e, x, y, z, epsilon=1.0) - 2.0) < 1e-12


def test_second_difference_linear_vanishes():
    e = parse_expression("3*x")
    assert second_difference_ratio(e, 50.0, 2.0, 2.0, epsilon=1.0) == 0.0


def test_second_difference_three_halves():
    # mean-value oracle: ratio ~ p''(x) / x^(eps-1) = 3/4 at y = z = 1
    e = parse_expression("x^(3/2)", epsilon_hint=0.5)
    ratio = second_difference_ratio(e, 1e4, 1.0, 1.0)
    assert 0.5 <= ratio <= 1.0
    assert abs(ratio - 0.75) < 0.01


def test_second_difference_requires_epsilon():
    e = parse_expression("x^(3/2)")  # no hint
    with pytest.raises(ValueError):
        second_difference_ratio(e, 100.0, 1.0, 1.0)
    assert second_difference_ratio(e, 100.0, 1.0, 1.0, epsilon=0.5) > 0


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.75])
def test_second_difference_bounded_for_power_presets(eps):
    # p(x) = x^(1+eps): the normalized second difference never exceeds the
    # mean-value bound sup p'' / x^(eps-1) = (1+eps) eps; one constant (2)
    # covers the whole grid
    e = power_phase(Fraction(4 + int(4 * eps), 4))  # 1 + eps with eps in quarters
    assert e.epsilon_hint == pytest.approx(eps)
    ratios = []
    for x in np.geomspace(10.0, 1e6, 7):
        for fy in (1.0, x ** 0.4):
            for fz in (1.0, x ** 0.2, x ** 0.4):
                ratios.append(second_difference_ratio(e, float(x), fy, fz))
    assert min(ratios) > 0.0
    assert max(ratios) <= 2.0
    assert max(ratios) <= (1 + eps) * eps + 1e-9
