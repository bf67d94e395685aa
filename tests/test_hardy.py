import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ergolab.dynamics import RotationSystem
from ergolab.hardy import (
    EvalDomainError,
    ExpressionError,
    InsufficientPrecisionError,
    _iroot,
    eval_mod1,
    exp_sum,
    minimum_precision,
    parse_expression,
    phase_fractions,
    power_phase,
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
        assert eval_mod1(e, 7, 96).error_bound == 0.0


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


def test_epsilon_hint_validation():
    with pytest.raises(ValueError):
        parse_expression("x", epsilon_hint=1.5)
    e = power_phase("3/2")
    assert e.epsilon_hint == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# eval_mod1.

def test_integer_polynomial_exact_zero():
    e = parse_expression("x^2")
    pv = eval_mod1(e, 3, 96)
    assert pv.frac == 0.0
    assert pv.error_bound == 0.0


def test_power_three_halves_at_two():
    # oracle: independent high-precision square root
    with mp.workprec(200):
        expected = float(mp.sqrt(8) - 2)
    pv = eval_mod1(parse_expression("x^(3/2)"), 2, 96)
    assert abs(pv.frac - expected) < 1e-15
    assert pv.error_bound < 2.0**-50


def test_precision_rule_enforced():
    e = parse_expression("x^(3/2)")
    with pytest.raises(InsufficientPrecisionError):
        eval_mod1(e, 10**6, 70)  # rule needs 64 + 30 bits
    pv = eval_mod1(e, 10**6, 96)
    assert pv.error_bound < 2.0**-50


def test_doubling_precision_stability():
    # doubling the bits moves the fractional part by < 2^-50 on the circle
    e = parse_expression("x^(3/2)")
    base = minimum_precision(e, 10**6)
    lo = eval_mod1(e, 10**6, base)
    hi = eval_mod1(e, 10**6, 2 * base)
    assert circle_distance(lo.frac, hi.frac) < 2.0**-50


def test_precision_monotonicity():
    e = parse_expression("x^(3/2)")
    bounds = [eval_mod1(e, 10**4, bits).error_bound for bits in (96, 128, 192, 256)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_eval_domain_error_at_runtime():
    e = parse_expression("log(x - 1.5)", domain_start=3.0)
    with pytest.raises(EvalDomainError):
        eval_mod1(e, 1, 96)


def test_eval_mod1_rejects_bad_arguments():
    e = parse_expression("x")
    with pytest.raises(ValueError):
        eval_mod1(e, 0, 96)


@given(st.integers(2, 10**6))
@settings(max_examples=40, deadline=None)
def test_additivity_of_fractional_parts(x):
    # frac(p + q) = frac(frac(p) + frac(q)) within combined error bounds
    p = parse_expression("x^(3/2)")
    q = parse_expression("x^(5/4)")
    s = parse_expression("x^(3/2) + x^(5/4)")
    bits = minimum_precision(s, x) + 16
    fp, fq, fs = (eval_mod1(expr, x, bits) for expr in (p, q, s))
    combined = (fp.frac + fq.frac) % 1.0
    tol = fp.error_bound + fq.error_bound + fs.error_bound + 1e-15
    assert circle_distance(fs.frac, combined) < tol


@given(st.integers(1, 10**13), st.integers(0, 64))
@example(12345678901, 0)
@settings(max_examples=150, deadline=None)
def test_eval_mod1_against_exact_integer_oracle(x, extra_bits):
    # frac(x^(3/2)) from floor(x^(3/2) 2^K) = isqrt(x^3 4^K), exact to 2^-K;
    # runs at the default global precision, which must not leak into eval_mod1
    K = 96
    e = parse_expression("x^(3/2)")
    pv = eval_mod1(e, x, minimum_precision(e, x) + extra_bits)
    oracle = Fraction(isqrt(x**3 << (2 * K)) % (1 << K), 1 << K)
    d = abs(Fraction(pv.frac) - oracle) % 1
    assert min(d, 1 - d) <= Fraction(pv.error_bound) + Fraction(1, 1 << K)


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


def test_phase_fractions_match_eval_mod1():
    e = parse_expression("x^(3/2)")
    fr = phase_fractions(e, 64, 128)
    for x in (1, 2, 33, 64):
        pv = eval_mod1(e, x, 128)
        assert circle_distance(fr[x - 1], pv.frac) < 1e-14


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
    e = parse_expression(f"x^({r}/{s})")
    N = start + length - 1
    fr = phase_fractions(e, N, start=start)
    bits = minimum_precision(e, N) + 16
    for i, x in enumerate(range(start, N + 1)):
        pv = eval_mod1(e, x, bits)
        assert circle_distance(fr[i], pv.frac) <= pv.error_bound + 2.0**-53


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
    fr = phase_fractions(p, N, start=start)
    bits = minimum_precision(p, N) + 16
    for i, x in enumerate(range(start, N + 1)):
        pv = eval_mod1(p, x, bits)
        assert circle_distance(fr[i], pv.frac) <= pv.error_bound + 2.0**-53


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
