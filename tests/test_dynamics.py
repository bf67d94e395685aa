import importlib.util
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import dynamics, hardy, harness, selectors
from ergolab.dynamics import (
    BernoulliSystem,
    CyclicSystem,
    RotationSystem,
    chain_diagnostics,
    make_system,
    partial_summation_identity,
    weighted_average_from_positions,
)
from ergolab.harness import ExperimentConfig
from ergolab.rng import _mix_block, child_seed
from ergolab.selectors import OutOfRangeError, SelectorParams, generate_realization, realization_from_bits

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def p32():
    return hardy.parse_expression("x^(3/2)", epsilon_hint=0.5)


# ---------------------------------------------------------------------------
# Systems: measure preservation and boundedness.

def test_rotation_preserves_uniform_measure():
    # push forward 1e4 uniform states; bin counts stay within 5 sigma of flat
    sys = RotationSystem("sqrt2m1", "e")
    states = np.array(sys.random_states(31, 10**4))
    images = np.array([sys.iterate(x) for x in states])
    counts, _ = np.histogram(images, bins=20, range=(0.0, 1.0))
    sigma = math.sqrt(10**4 * 0.05 * 0.95)
    assert np.all(np.abs(counts - 500) < 5 * sigma)
    assert np.all((images >= 0) & (images < 1))


def test_cyclic_shift_is_measure_preserving_bijection():
    sys = CyclicSystem(7, "roots")
    states = sys.random_states(5, 10**4)
    images = [sys.iterate(x) for x in states]
    # T permutes residues, so multiset counts are exactly preserved
    assert sorted(np.bincount(states, minlength=7)) == sorted(
        np.bincount(images, minlength=7)
    )


def test_bernoulli_shift_stationarity():
    # observable mean over fresh states vs over shifted states: both near 0
    sys = BernoulliSystem(2, 6)
    states = sys.random_states(11, 400)
    v0 = np.mean([sys.orbit_observable(x, [0])[0] for x in states])
    v1 = np.mean([sys.orbit_observable(sys.iterate(x), [0])[0] for x in states])
    assert abs(v0) < 0.1 and abs(v1) < 0.1


def test_observable_modulus_bounded():
    for sys in (
        RotationSystem("sqrt2m1", "e"),
        RotationSystem("invphi", "e_shifted"),
        RotationSystem("sqrt3m1", "coboundary"),
        CyclicSystem(5, "indicator0"),
        BernoulliSystem(3, 4),
    ):
        for x in sys.sample_points(8):
            vals = sys.orbit_observable(x, np.arange(0, 50, dtype=np.int64))
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_unbounded_observable_rejected():
    table = np.array([1.5, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        CyclicSystem(3, table)
    for j in (3000, 4095):  # every entry: 3000 is none of the states _check_bounded probes
        with pytest.raises(ValueError, match=f"observable exceeds modulus 1 at state {j}$"):
            CyclicSystem(4096, np.where(np.arange(4096) == j, 5.0, 0.0))
    # NaN compares false with any bound, so it fails the check, in either part
    for nan in (complex(math.nan, 0.0), complex(0.0, math.nan)):
        table = np.zeros(8, dtype=complex)
        table[3] = nan
        with pytest.raises(ValueError, match="observable exceeds modulus 1 at state 3$"):
            CyclicSystem(8, table)
        # the sampled check: its 16 points visit every state of the 8
        system = CyclicSystem(8, "roots")
        system.table[5] = nan
        with pytest.raises(ValueError, match="observable exceeds modulus 1 at state"):
            system._check_bounded()


def test_rotation_bound_check_refuses_a_patched_observable(monkeypatch):
    # an observable over modulus 1 on the arc [0.31, 0.32) is refused, at the
    # first of the 80 checked states whose 8 iterates reach the arc (the tenth)
    plain = RotationSystem("sqrt2m1", "e")
    pts = plain.sample_points(16) + plain.random_states(7, 64)
    ks = np.arange(0, 8, dtype=np.int64)

    def on_arc(fr):
        return (0.31 <= fr) & (fr < 0.32)

    hits = [x for x, fr in zip(pts, plain._orbit_fracs(pts, ks)) if np.any(on_arc(fr))]
    assert hits[0] == pts[9]
    f_of_fracs = RotationSystem._f_of_fracs
    monkeypatch.setattr(RotationSystem, "_f_of_fracs",
                        lambda self, fr: f_of_fracs(self, fr) * np.where(on_arc(fr), 1.5, 1.0))
    with pytest.raises(ValueError, match=f"modulus 1 at state {hits[0]!r}$"):
        RotationSystem("sqrt2m1", "e")


def test_cyclic_e_is_the_roots_table():
    # e(x) at the states x = j/q of the cyclic shift
    e, roots = CyclicSystem(6, "e"), CyclicSystem(6, "roots")
    assert e.table.tobytes() == roots.table.tobytes()
    assert e.known_mean == roots.known_mean == 0j
    assert CyclicSystem(1, "e").known_mean == 1.0 + 0j


@pytest.mark.parametrize("kind, observable, names", [
    ("rotation", "roots", "e, e_shifted, const, coboundary"),
    ("cyclic", "coboundary", "e, roots, indicator0"),
])
def test_unknown_observable_error_lists_the_system_observables(kind, observable, names):
    with pytest.raises(ValueError, match=f"unknown {kind} observable '{observable}'; choose from {names}$"):
        make_system(kind, observable=observable)


def test_make_system_factory():
    assert isinstance(make_system("rotation", alpha="invphi"), RotationSystem)
    assert make_system("cyclic", q=9).q == 9
    assert make_system("bernoulli", alphabet=4, window=3).alphabet == 4
    with pytest.raises(ValueError):
        make_system("doubling")


# Angles as the former 192-bit mpmath path resolved them; every one of these
# lies far enough from a multiple of 2^-128 for that path to floor exactly.
@pytest.mark.parametrize("alpha, alpha_fp", [
    ("sqrt2m1", 140949571415070559626692937523481902398),
    ("sqrt3m1", 249103981505922019304800303939765943177),
    (" invphi ", 210306068529402873165736369884012333108),
    ("0.5", 1 << 127),
    (" 0.5 ", 1 << 127),
    ("+.5", 1 << 127),
    ("5.", 0),
    ("1/3", 113427455640312821154458202477256070485),
    ("1 / 3", 113427455640312821154458202477256070485),
    ("-1/3", 226854911280625642308916404954512140970),
    ("1/-3", 226854911280625642308916404954512140970),
    ("1e5", 0),
    ("1e-5", 3402823669209384634633746074317682),
    ("0.1", 34028236692093846346337460743176821145),
    ("-0.25", 255211775190703847597530955573826158592),
    ("2.75", 255211775190703847597530955573826158592),
    ("12345.678e-3", 117628128032496166173092407547798771799),
    ("0.318309886183790671537767526745", 108315241484954818046902227470551173642),
    ("1e-25", 34028236692093),
    ("0.99999999999999999998", 340282366920938463456568960093349442186),
    (0.1, 34028236692093848235284053891034906624),
    (-0.1, 306254130228844615228090553540733304832),
    (1e-300, 0),
    (7, 0),
])
def test_rotation_angle_resolution(alpha, alpha_fp):
    assert dynamics._resolve_angle(alpha) == alpha_fp


@pytest.mark.parametrize("alpha, alpha_fp", [
    # 200 bits: the mpmath path rounded the .5 away and rotated by 0
    ("123456789012345678901234567890123456789012345678901234567890.5", 1 << 127),
    # exponents are clamped, not expanded into 10^(10^8)
    ("1e100000000", 0),
    ("1e-100000000", 0),
    ("-1e-100000000", (1 << 128) - 1),
])
def test_rotation_angle_exact_at_any_magnitude(alpha, alpha_fp):
    assert dynamics._resolve_angle(alpha) == alpha_fp


@given(
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=60),
    st.integers(0, 60),
    st.integers(-300, 300),
)
@settings(max_examples=300, deadline=None)
def test_rotation_angle_equals_exact_fraction(sign, digits, point, exponent):
    # the clamped exponent changes no angle: the oracle expands 10^exponent
    point = min(point, len(digits))
    text = f"{sign}{digits[:point]}.{digits[point:]}e{exponent}"
    val = Fraction(text)
    assert dynamics._resolve_angle(text) == math.floor((val - math.floor(val)) * 2**128)


@pytest.mark.parametrize("alpha, message", [
    ("nan", "finite angle"), ("-inf", "finite angle"), (float("inf"), "finite angle"),
    (float("nan"), "finite angle"), ("abc", "decimal"), ("1/0", "decimal"), ("1/2/3", "decimal"),
])
def test_rotation_angle_rejects(alpha, message):
    with pytest.raises(ValueError, match=message):
        dynamics._resolve_angle(alpha)


@pytest.mark.parametrize("observable", ["const", "e_shifted", "coboundary", "roots"])
def test_bernoulli_rejects_other_observables(observable):
    assert isinstance(make_system("bernoulli", observable="e"), BernoulliSystem)
    with pytest.raises(ValueError, match="bernoulli system observes only e"):
        make_system("bernoulli", observable=observable)


def orbit_fracs_exact(sys: RotationSystem, x: float, iterates) -> np.ndarray:
    """Reference path: arbitrary-precision integers, one k at a time."""
    x_fp = int(math.floor((x % 1.0) * (1 << dynamics._FP_BITS)))
    vals = [(x_fp + int(k) * sys.alpha_fp) & dynamics._FP_MASK for k in iterates]
    return np.array(vals, dtype=np.float64) * dynamics._FP_INV


def test_rotation_orbit_matches_exact_integers():
    sys = RotationSystem("sqrt2m1", "e")
    ks = np.array([1, 2, 10**6, 10**9, 5], dtype=np.int64)
    fast = next(sys._orbit_fracs([0.73], ks))
    exact = orbit_fracs_exact(sys, 0.73, ks)
    assert np.max(np.abs(fast - exact)) < 1e-15


# The orbit kernel's oracle is the allocating kernel it replaced: k * alpha
# in thirteen uint64 arrays, fresh sums for each point, and e(t) by np.exp.

def k_alpha_allocating(alpha_fp: int, iterates):
    ks = np.asarray(iterates, dtype=np.int64)
    a = alpha_fp
    m32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    k = ks.astype(np.uint64)
    k0 = k & m32
    k1 = k >> s32
    al0 = np.uint64(a & 0xFFFFFFFF)
    al1 = np.uint64((a >> 32) & 0xFFFFFFFF)
    a_hi = np.uint64((a >> 64) & 0xFFFFFFFFFFFFFFFF)
    p0 = k0 * al0
    p1 = k0 * al1
    p2 = k1 * al0
    p3 = k1 * al1
    mid = p1 + p2
    carry_mid = (mid < p1).astype(np.uint64)
    low = p0 + (mid << s32)
    carry_low = (low < p0).astype(np.uint64)
    high = p3 + (mid >> s32) + (carry_mid << s32) + carry_low
    high += k * a_hi
    return low, high


def orbit_fracs_one_point(sys: RotationSystem, x: float, iterates) -> np.ndarray:
    """Oracle for the shared product: frac(x + k alpha) for one point, with
    k * alpha and x_fp added in one uint64 pass (32-bit limbs, explicit carries)."""
    ks = np.asarray(iterates, dtype=np.int64)
    if ks.size == 0:
        return np.empty(0, dtype=np.float64)
    low, high = k_alpha_allocating(sys.alpha_fp, ks)
    x_fp = int(math.floor((x % 1.0) * (1 << dynamics._FP_BITS)))
    x_lo = np.uint64(x_fp & 0xFFFFFFFFFFFFFFFF)
    x_hi = np.uint64((x_fp >> 64) & 0xFFFFFFFFFFFFFFFF)
    new_low = low + x_lo
    high += x_hi + (new_low < low).astype(np.uint64)
    return high.astype(np.float64) * 2.0 ** -64 + new_low.astype(np.float64) * 2.0 ** -128


def f_of_fracs_exp(sys: RotationSystem, fr: np.ndarray) -> np.ndarray:
    if sys.observable == "const":
        return np.ones(fr.shape[0], dtype=np.complex128)
    ez = np.exp(2j * np.pi * fr)
    if sys.observable == "e":
        return ez
    if sys.observable == "e_shifted":
        return 0.5 * (1.0 + ez)
    return ez * (0.5 * (1.0 - np.exp(2j * np.pi * (sys.alpha_fp * dynamics._FP_INV))))


def check_against_allocating_kernel(sys: RotationSystem, points, ks) -> None:
    low, high = sys._k_alpha(ks)
    want_low, want_high = k_alpha_allocating(sys.alpha_fp, ks)
    assert low.tobytes() == want_low.tobytes() and high.tobytes() == want_high.tobytes()
    got = list(sys.orbits(points, ks))
    assert len(got) == len(points)
    for x, fr, orbit in zip(points, sys._orbit_fracs(points, ks), got):
        want = orbit_fracs_one_point(sys, x, ks)
        assert fr.tobytes() == want.tobytes()
        want = f_of_fracs_exp(sys, want)
        assert orbit.dtype == np.complex128 and orbit.tobytes() == want.tobytes()
        assert sys.orbit_observable(x, ks).tobytes() == want.tobytes()


@st.composite
def iterate_arrays(draw):
    """Unsorted int64 iterates in [0, 2^63 - 1], with repeats."""
    ks = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
    ks += draw(st.lists(st.sampled_from(ks), max_size=10))
    return np.array(draw(st.permutations(ks)), dtype=np.int64)


rotation_points = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0 - 2.0**-53),
        st.integers(1, 2**20).map(dynamics._radical_inverse),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    min_size=1,
    max_size=6,
)


ALPHAS = ["sqrt2m1", "invphi", "0.318309886183790671537767526745", "1e-25", "0.99999999999999999998"]
OBSERVABLES = ["e", "e_shifted", "const", "coboundary"]


# Float64 keeps the high limb's last bit only for values below about 2^-11,
# so two decimal angles make the carries visible: at 1e-25 every k alpha is
# below 2^-19, and at 1 - 2e-20 the point 2^-65 carries into a wrap to ~0.
@given(st.sampled_from(ALPHAS), st.sampled_from(OBSERVABLES), rotation_points, iterate_arrays())
@example("0.99999999999999999998", "e", [2.0**-65, 0.5, 2.0**-65], np.array([1, 0, 1], dtype=np.int64))
@settings(max_examples=300, deadline=None)
def test_rotation_orbits_equal_one_point_path_bit_for_bit(alpha, observable, points, ks):
    check_against_allocating_kernel(RotationSystem(alpha, observable), points, ks)


@pytest.mark.parametrize("observable", OBSERVABLES)
def test_rotation_orbits_equal_one_point_path_on_long_orbits(observable):
    # past the vector loops' blocks: random 63-bit iterates, then 1..2^17
    rng = np.random.default_rng(12)
    ks = np.concatenate([rng.integers(0, 2**63 - 1, 1 << 16), np.arange(1, (1 << 17) + 1)])
    check_against_allocating_kernel(RotationSystem("sqrt2m1", observable), [0.0, 0.73, 1.0 - 2.0**-53], ks)


def fraction_of_words(high: int, low: int) -> float:
    """Oracle: high 2^-64 + low 2^-128 in float64, each word correctly
    rounded by Python's int to float, as the kernel once summed every entry."""
    return float(high) * 2.0**-64 + float(low) * 2.0**-128


def kernel_fraction(high: int, low: int) -> float:
    """_orbit_fracs at the word pair (high, low): the orbit of x = 0 at
    k = 1 under the angle (high 2^64 + low) 2^-128."""
    sys = RotationSystem(f"{(high << 64) + low}/{1 << 128}", "e")
    assert sys.alpha_fp == (high << 64) + low
    return float(next(sys._orbit_fracs([0.0], np.array([1], dtype=np.int64)))[0])


WORD_HIGHS = [2**53 + 2, 2**54 - 2, 2**54 - 1, 2**54, 2**54 + 4]
WORD_LOWS = [0, 2**64 - 1, 2**64 - 2**10]


@pytest.mark.parametrize("high", WORD_HIGHS)
@pytest.mark.parametrize("low", WORD_LOWS)
def test_orbit_fraction_of_crafted_words_equals_the_sum_of_both(high, low):
    got = kernel_fraction(high, low)
    assert got.hex() == fraction_of_words(high, low).hex()


@given(st.integers(2**52, 2**55), st.integers(0, 2**64 - 1))
@example(2**53 + 2, 2**64 - 1)
@example(2**54 - 1, 2**64 - 1)
@settings(max_examples=200, deadline=None)
def test_orbit_fraction_of_drawn_words_equals_the_sum_of_both(high, low):
    assert kernel_fraction(high, low).hex() == fraction_of_words(high, low).hex()


@pytest.mark.parametrize("observable", OBSERVABLES)
@pytest.mark.parametrize("schedule", [[1], [2], [1 << 10, 12345, 1 << 15]])
def test_weighted_average_equals_allocating_product(observable, schedule):
    # z * orbit in place, z the first operand, as the allocating product was
    # phases drawn at random: x^(3/2) at n = 1 gives e(0) = 1, whose products are exact
    sys = RotationSystem("sqrt2m1", observable)
    N = schedule[-1]
    phases = np.random.default_rng(N).random(N)
    pos = selectors.select_first(0.3, 4, N)
    pts = sys.sample_points(4)
    got = weighted_average_from_positions(sys, phases, pos, schedule, sample_points=pts)
    z = np.exp(2j * np.pi * phases)
    want = []
    for x in pts:
        # a named orbit: numpy would compute z * (a temporary) from 16,384
        # elements up by eliding it, with the operands swapped
        orbit = f_of_fracs_exp(sys, orbit_fracs_one_point(sys, x, pos))
        want.append(hardy.prefix_means(z * orbit, schedule))
    assert got.tobytes() == np.array(want).tobytes()


def bernoulli_symbols_per_slot(sys, x, ks):
    """Oracle for the Bernoulli symbols: every window slot hashed by itself."""
    stream, offset = x
    pos = (offset + ks)[:, None] + np.arange(sys.window, dtype=np.int64)[None, :]
    u = _mix_block(child_seed(stream, 0xBE52), pos.reshape(-1).astype(np.uint64))
    return np.floor(u.astype(np.float64) * 2.0**-53 * sys.alphabet).reshape(pos.shape)


def test_bernoulli_observable_equals_complex_exp():
    sys = BernoulliSystem(3, 9)
    ks = np.arange(0, 70000, 3, dtype=np.int64)
    for x in sys.sample_points(3):
        want = np.exp(2j * np.pi * (bernoulli_symbols_per_slot(sys, x, ks) @ sys._weights))
        assert sys.orbit_observable(x, ks).tobytes() == want.tobytes()


@given(
    st.integers(2, 5),
    st.integers(1, 9),
    st.one_of(
        st.lists(st.integers(0, 60), max_size=80),             # unsorted, repeats, overlaps
        st.lists(st.integers(0, 2**40), min_size=1, max_size=20),
        st.integers(1, 3000).map(lambda n: list(range(1, n + 1))),  # as chain passes them
    ),
    st.integers(0, 2**20),
)
@settings(max_examples=100, deadline=None)
def test_bernoulli_orbit_equals_per_slot_hash(alphabet, window, ks, offset):
    sys = BernoulliSystem(alphabet, window)
    ks = np.array(ks, dtype=np.int64)
    for stream, _ in sys.sample_points(2):
        x = (stream, offset)
        want = hardy.unit_phases(bernoulli_symbols_per_slot(sys, x, ks) @ sys._weights)
        assert sys.orbit_observable(x, ks).tobytes() == want.tobytes()


def test_rotation_orbits_of_no_iterates_and_no_points():
    sys = RotationSystem("sqrt2m1", "e")
    (orbit,) = sys.orbits([0.25], np.zeros(0, dtype=np.int64))
    assert orbit.shape == (0,) and orbit.dtype == np.complex128
    assert list(sys.orbits([], np.arange(4, dtype=np.int64))) == []
    with pytest.raises(ValueError):
        next(sys.orbits([0.25], np.array([3, -1], dtype=np.int64)))


@given(
    st.sampled_from([CyclicSystem(7, "roots"), CyclicSystem(5, "indicator0"), BernoulliSystem(3, 4)]),
    st.integers(1, 6),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_base_orbits_equal_orbit_observable_per_point(sys, n_points, ks):
    ks = np.array(ks, dtype=np.int64)
    points = sys.random_states(3, n_points)
    got = list(sys.orbits(points, ks))
    assert len(got) == n_points
    for x, orbit in zip(points, got):
        assert orbit.tobytes() == sys.orbit_observable(x, ks).tobytes()


# ---------------------------------------------------------------------------
# Birkhoff means.

def birkhoff_mean(sys, N, points):
    """(1/N) sum_{n<=N} f(T^n x) at each point: prefix_means over the system's orbits."""
    return np.array([hardy.prefix_means(o, [N])[0] for o in sys.orbits(points, np.arange(1, N + 1))])


def test_birkhoff_constant_observable():
    sys = RotationSystem("sqrt2m1", "const")
    for N in (1, 5, 1000):
        vals = birkhoff_mean(sys, N, sys.sample_points(4))
        assert np.allclose(vals, 1.0, atol=0)


def test_birkhoff_rotation_equidistribution():
    # geometric-series oracle: |sum e(n alpha)| <= 1 / (2 dist(alpha, Z)),
    # so the mean is below 1/(N * 2 * dist) ~ 1.2e-6 at N = 1e6; assert 1e-4
    sys = RotationSystem("sqrt2m1", "e")
    vals = birkhoff_mean(sys, 10**6, sys.sample_points(4))
    assert np.max(np.abs(vals)) < 1e-4


def test_birkhoff_cyclic_exact_orbit_average():
    # full orbits of the centered indicator cancel exactly
    sys = CyclicSystem(5, "indicator0")
    vals = birkhoff_mean(sys, 1000, sys.sample_points(5))
    assert np.max(np.abs(vals)) < 1e-15


# ---------------------------------------------------------------------------
# Weighted random averages.

def test_constant_observable_factorizes_bit_for_bit(p32):
    # with f == 1 the weights factor out: equality with exp_sum is exact
    # because both sides reduce the same term array with the same tree
    sys = RotationSystem("sqrt2m1", "const")
    r = generate_realization(SelectorParams(a=0.3, seed=7, n_max=200000))
    schedule = [64, 512, 4096]
    phases = hardy.phase_fractions(p32, schedule[-1])
    series = weighted_average_from_positions(sys, phases, r.ones, schedule, sample_points=[0.5])
    for i, N in enumerate(schedule):
        assert series[0, i] == hardy.exp_sum(p32, N)


def test_exact_cancellation_synthetic():
    # p = 0, all-ones counting (a_n = n), two-point shift with f = (+1, -1):
    # even prefixes cancel exactly
    zero = hardy.parse_expression("0")
    params = SelectorParams(a=0.3, seed=0, n_max=64)
    r = realization_from_bits(params, np.ones(64, dtype=bool))
    sys = CyclicSystem(2, np.array([1.0, -1.0], dtype=complex))
    phases = hardy.phase_fractions(zero, 64)
    series = weighted_average_from_positions(sys, phases, r.ones, [2, 10, 64], sample_points=[0])
    assert np.all(series == 0.0)


def test_weighted_average_magnitude_bound(p32):
    # triangle inequality: |average| <= (1/N) sum |weights| = 1
    sys = RotationSystem("sqrt2m1", "e")
    r = generate_realization(SelectorParams(a=0.3, seed=3, n_max=50000))
    phases = hardy.phase_fractions(p32, 256)
    series = weighted_average_from_positions(
        sys, phases, r.ones, [16, 256], sample_points=sys.sample_points(6)
    )
    assert np.all(np.abs(series) <= 1.0 + 1e-12)


def test_insufficient_realization_signalled(p32):
    sys = RotationSystem("sqrt2m1", "e")
    r = generate_realization(SelectorParams(a=0.3, seed=3, n_max=100))
    phases = hardy.phase_fractions(p32, 1000)
    with pytest.raises(OutOfRangeError):
        weighted_average_from_positions(sys, phases, r.ones, [1000])


def test_positions_entry_matches_realization_entry(p32):
    sys = RotationSystem("sqrt2m1", "e")
    r = generate_realization(SelectorParams(a=0.3, seed=21, n_max=100000))
    pts = sys.sample_points(3)
    phases = hardy.phase_fractions(p32, 1024)
    a1 = weighted_average_from_positions(sys, phases, r.ones, [128, 1024], sample_points=pts)
    pos = selectors.select_first(0.3, 21, 1024)
    a2 = weighted_average_from_positions(sys, phases, pos, [128, 1024], sample_points=pts)
    assert np.array_equal(a1, a2)


# ---------------------------------------------------------------------------
# Chain diagnostics.

def test_chain_first_step_identity_exact(p32):
    # reindexing k = S_n makes stages 0 and 1 the same sum over the same
    # float terms: the gap is exactly zero, not merely small
    sys = RotationSystem("sqrt2m1", "e_shifted")
    r = generate_realization(SelectorParams(a=0.3, seed=13, n_max=4096))
    phases = hardy.phase_fractions(p32, 4096)
    diag = chain_diagnostics(sys, phases, [r], [4096], sample_points=sys.sample_points(5))[0][0]
    assert np.all(diag.diffs[:, 0] == 0.0)


def test_chain_first_step_identity_against_masked_sum(p32):
    # independent route: the masked full-length sum over all n <= N
    sys = RotationSystem("sqrt2m1", "e_shifted")
    r = generate_realization(SelectorParams(a=0.3, seed=13, n_max=2048))
    N = 2048
    s_N = r.S(N)
    fr = hardy.phase_fractions(p32, N)
    e_all = hardy.unit_phases(fr)
    x = 0.375
    orbit = sys.orbit_observable(x, np.arange(1, N + 1, dtype=np.int64))
    masked = np.sum(r.bits[:N] * e_all[np.cumsum(r.bits[:N]) - 1] * orbit) / s_N
    diag = chain_diagnostics(sys, fr, [r], [N], sample_points=[x])[0][0]
    assert abs(diag.stages[0, 1] - masked) < 1e-12


def test_chain_renormalization_bound(p32):
    # |stage2 - stage1| = |S_N/W_N - 1| * |stage1| exactly (same inner sum,
    # two normalizers); check the algebra within float tolerance
    sys = RotationSystem("sqrt2m1", "e_shifted")
    r = generate_realization(SelectorParams(a=0.3, seed=29, n_max=8192))
    phases = hardy.phase_fractions(p32, 8192)
    diag = chain_diagnostics(sys, phases, [r], [8192], sample_points=sys.sample_points(4))[0][0]
    w_N = np.cumsum(selectors.sigma_values(0.3, 1, 8192))[-1]
    bound = abs(r.S(8192) / w_N - 1.0) * np.abs(diag.stages[:, 1])
    assert np.all(diag.diffs[:, 1] <= bound * (1 + 1e-9) + 1e-15)


def test_chain_shapes_and_median(p32):
    sys = RotationSystem("sqrt2m1", "e_shifted")
    r = generate_realization(SelectorParams(a=0.3, seed=1, n_max=1024))
    phases = hardy.phase_fractions(p32, 1024)
    diag = chain_diagnostics(sys, phases, [r], [1024], sample_points=sys.sample_points(6))[0][0]
    assert diag.stages.shape == (6, 6)
    assert diag.diffs.shape == (6, 6)
    assert np.median(diag.diffs, axis=0).shape == (6,)
    assert diag.s_N == r.S(1024)


def test_chain_schedule_matches_single_n_calls(p32):
    # one call over a schedule slices each point's top-N orbit; every
    # ChainDiagnostics must equal the one a single-N call builds, bit for bit
    sys = RotationSystem("sqrt2m1", "e_shifted")
    r = generate_realization(SelectorParams(a=0.3, seed=5, n_max=4096))
    phases = hardy.phase_fractions(p32, 4096)
    pts = sys.sample_points(3)
    schedule = [4096, 100, 1, 1024]
    diags = chain_diagnostics(sys, phases, [r], schedule, sample_points=pts)[0]
    assert [d.N for d in diags] == sorted(schedule)
    for d in diags:
        single = chain_diagnostics(sys, phases[: d.N], [r], [d.N], sample_points=pts)[0][0]
        assert (d.s_N, d.w_N) == (single.s_N, single.w_N)
        assert np.array_equal(d.stages, single.stages)
        assert np.array_equal(d.diffs, single.diffs)
    with pytest.raises(ValueError):
        chain_diagnostics(sys, phases[:1000], [r], [1024], sample_points=pts)
    with pytest.raises(ValueError):
        chain_diagnostics(sys, phases, [r], [4097], sample_points=pts)
    # S_1 = 0 would index the phase table at -1; no realization has X_1 = 0
    no_first = np.array(r.bits)
    no_first[0] = False
    with pytest.raises(ValueError, match="X_1"):
        realization_from_bits(r.params, no_first)


@pytest.mark.parametrize("n_top", [1000, 3 * selectors.DEFAULT_CHUNK + 5])
def test_chain_mean_counts_are_one_cumsum(n_top):
    # every w_N is the cumulative sum of sigma_n to N, the same bytes for
    # each realization, and the compensated sum to within 1e-10 relative
    sys = RotationSystem("sqrt2m1", "e_shifted")
    schedule = [1, 2, 17, 999, n_top]
    phases = np.random.default_rng(8).random(n_top)
    rs = [generate_realization(SelectorParams(a=0.3, seed=seed, n_max=n_top)) for seed in (6, 7)]
    oracle = np.cumsum(selectors.sigma_values(0.3, 1, n_top))[np.array(schedule) - 1]
    for diags in chain_diagnostics(sys, phases, rs, schedule, sample_points=[0.25]):
        w_Ns = np.array([d.w_N for d in diags])
        assert w_Ns.tobytes() == oracle.tobytes()
        for d in diags:
            assert abs(d.w_N - selectors.sigma_prefix(0.3, d.N)) < 1e-10 * d.w_N


def test_chain_last_gap_is_the_scalar_abs_of_stage_5():
    # d6 is Python's abs of the numpy scalar, not np.abs of an array: on
    # numpy 2.4.6 (x86-64, AVX-512) the two differ in the last bit on about
    # a third of complex128 values, so vectorizing d6 would move every chain
    # digest; 64 N and two points make that near-certain to show here
    sys = RotationSystem("sqrt2m1", "e_shifted")
    N = 4096
    r = generate_realization(SelectorParams(a=0.3, seed=3, n_max=N))
    phases = np.random.default_rng(6).random(N)
    diags = chain_diagnostics(sys, phases, [r], range(64, N + 1, 64), sample_points=sys.sample_points(2))[0]
    stage5 = [v for d in diags for v in d.stages[:, 5]]
    d6 = np.array([d.diffs[:, 5] for d in diags]).ravel()
    assert d6.tobytes() == np.array([abs(v) for v in stage5]).tobytes()


def test_chain_late_steps_decay_along_schedule(p32):
    """Median gaps for the selector->probability, observable->mean, and
    trig-sum stages all shrink from N = 2^12 to N = 2^17; two disjoint
    seed families return the same verdict (shifted observable keeps the
    mean-dependent stages away from zero)."""
    sys = RotationSystem("sqrt2m1", "e_shifted")
    pts = sys.sample_points(4)
    n_lo, n_hi = 1 << 12, 1 << 17
    phases = hardy.phase_fractions(p32, n_hi)

    def family_medians(base):
        lo_all, hi_all = [], []
        family = (
            generate_realization(SelectorParams(a=0.3, seed=seed, n_max=n_hi))
            for seed in range(base, base + 10)
        )
        for lo, hi in chain_diagnostics(sys, phases, family, [n_lo, n_hi], sample_points=pts):
            lo_all.append(lo.diffs)
            hi_all.append(hi.diffs)
        return np.median(lo_all, axis=0), np.median(hi_all, axis=0)

    verdicts = []
    for base in (400, 900):
        lo_med, hi_med = family_medians(base)
        # steps 3..6 (indices 2..5): medians decrease at every sample point
        verdicts.append(bool(np.all(hi_med[:, 2:] < lo_med[:, 2:])))
    assert verdicts[0] and verdicts[1]


def chain_diagnostics_one_realization(sys, phases, r, schedule, sample_points):
    """Oracle for the shared orbits: the chain for one realization, with its
    own orbit per sample point and its weights gathered through S_n."""
    schedule = sorted(int(N) for N in schedule)
    n_top = schedule[-1]
    e_all = hardy.unit_phases(phases[:n_top])
    s_n = np.cumsum(r.bits[:n_top])
    sigma = selectors.sigma_values(r.params.a, 1, n_top)
    w_n = np.cumsum(sigma)
    weighted = sigma * e_all[s_n - 1]
    km = complex(sys.known_mean)
    ks = np.arange(1, n_top + 1, dtype=np.int64)
    s_Ns = [int(s_n[N - 1]) for N in schedule]
    w_Ns = [float(w_n[N - 1]) for N in schedule]
    mean_stages = [
        (km * np.sum(weighted[:N]) / w_N, km * (np.sum(e_all[:N]) / N))
        for N, w_N in zip(schedule, w_Ns)
    ]
    n_pts = len(sample_points)
    stages = np.empty((len(schedule), n_pts, 6), dtype=np.complex128)
    diffs = np.empty((len(schedule), n_pts, 6), dtype=np.float64)
    for j, orbit in enumerate(sys.orbits(sample_points, ks)):
        for i, N in enumerate(schedule):
            s_N, w_N, row = s_Ns[i], w_Ns[i], stages[i, j]
            sum_sel = np.sum(e_all[:s_N] * orbit[r.ones[:s_N] - 1])
            row[0] = sum_sel / s_N
            row[1] = sum_sel / s_N
            row[2] = sum_sel / w_N
            row[3] = np.sum(weighted[:N] * orbit[:N]) / w_N
            row[4], row[5] = mean_stages[i]
            diffs[i, j, :5] = np.abs(np.diff(row))
            diffs[i, j, 5] = abs(row[5])
    return [
        dynamics.ChainDiagnostics(N, s_Ns[i], w_Ns[i], stages[i], diffs[i])
        for i, N in enumerate(schedule)
    ]


def assert_chain_equals_oracle(sys, phases, rs, schedule, pts):
    got = chain_diagnostics(sys, phases, iter(rs), schedule, sample_points=pts)
    assert len(got) == len(rs)
    for r, diags in zip(rs, got):
        want = chain_diagnostics_one_realization(sys, phases, r, schedule, pts)
        assert [d.N for d in diags] == [w.N for w in want] == sorted(schedule)
        for d, w in zip(diags, want):
            assert (d.s_N, d.w_N) == (w.s_N, w.w_N)
            assert type(d.s_N) is int and type(d.w_N) is float
            assert d.stages.tobytes() == w.stages.tobytes()
            assert d.diffs.tobytes() == w.diffs.tobytes()


CHAIN_SYSTEMS = [
    ("rotation", dict(observable="e")),
    ("rotation", dict(observable="e_shifted")),
    ("rotation", dict(observable="const")),
    ("rotation", dict(observable="coboundary")),
    ("cyclic", dict(q=7, observable="roots")),
    # a mean that is not 0, 1/2 or 1, so its products round
    ("cyclic", dict(q=5, observable=np.array([0.9, 0.3j, -0.2, 0.5 + 0.1j, 0.7]))),
    ("bernoulli", dict(alphabet=3, window=5)),
]


@pytest.mark.parametrize("kind,kwargs", CHAIN_SYSTEMS)
def test_chain_shared_orbits_equal_one_realization_oracle(p32, kind, kwargs):
    # several seeds in one call, an unsorted schedule holding N = 1 and
    # N = n_max, and one realization that runs past the schedule top
    sys = make_system(kind, **kwargs)
    n_max = 3000
    phases = hardy.phase_fractions(p32, n_max)
    rs = [generate_realization(SelectorParams(a=0.3, seed=s, n_max=n_max)) for s in (3, 8, 40)]
    rs.append(generate_realization(SelectorParams(a=0.3, seed=11, n_max=5000)))
    assert_chain_equals_oracle(sys, phases, rs, [1000, 1, n_max, 37, 2048], sys.sample_points(3))


@settings(max_examples=40, deadline=None)
@given(
    system=st.sampled_from(range(len(CHAIN_SYSTEMS))),
    a=st.sampled_from([0.05, 0.3, 0.49]),
    seeds=st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
    schedule=st.one_of(
        st.just([1]),
        st.lists(st.integers(1, 1500), min_size=1, max_size=1),
        st.lists(st.integers(1, 1500), min_size=1, max_size=5),
    ),
    phase_seed=st.integers(0, 2**32 - 1),
    n_pts=st.integers(1, 3),
)
@example(system=0, a=0.3, seeds=[3], schedule=[1], phase_seed=1, n_pts=2)
@example(system=6, a=0.49, seeds=[5, 6], schedule=[2], phase_seed=2, n_pts=1)
def test_chain_shared_orbits_equal_oracle_drawn(system, a, seeds, schedule, phase_seed, n_pts):
    # a drawn phase table, so that e(p(1)) != 1 and one-term products round:
    # a one-element product written in place would show here
    kind, kwargs = CHAIN_SYSTEMS[system]
    sys = make_system(kind, **kwargs)
    n_max = max(schedule)
    phases = np.random.default_rng(phase_seed).random(n_max)
    assert phases[0] != 0.0
    rs = [generate_realization(SelectorParams(a=a, seed=s, n_max=n_max)) for s in seeds]
    assert_chain_equals_oracle(sys, phases, rs, schedule, sys.sample_points(n_pts))


def test_chain_equals_oracle_at_the_benchmark_config():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = ExperimentConfig(**workloads.config_kwargs("chain", 0))
    shared, _ = harness._system_inputs(cfg)
    union = shared["union"]
    rs = [generate_realization(SelectorParams(a=cfg.a, seed=s, n_max=union[-1])) for s in cfg.seed_list()]
    assert len(rs) == 4 and len(shared["points"]) == 16 and union[-1] == 1 << 15
    assert_chain_equals_oracle(shared["system"], shared["phases"], rs, union, shared["points"])


def test_chain_checks_every_realization_before_any_orbit(p32):
    sys = CyclicSystem(5, "roots")

    def no_orbits(points, iterates):
        raise AssertionError("an orbit was built before the realizations were checked")

    sys.orbits = sys.orbit_observable = no_orbits
    phases = hardy.phase_fractions(p32, 1024)
    good = [generate_realization(SelectorParams(a=0.3, seed=s, n_max=1024)) for s in (1, 2)]
    other_a = generate_realization(SelectorParams(a=0.25, seed=3, n_max=1024))
    short = generate_realization(SelectorParams(a=0.3, seed=3, n_max=1023))
    no_first = np.array(good[0].bits)
    no_first[0] = False
    with pytest.raises(ValueError, match="X_1"):
        realization_from_bits(good[0].params, no_first)
    for bad, match in ((other_a, "one a"), (short, "n_max=1023")):
        with pytest.raises(ValueError, match=match):
            chain_diagnostics(sys, phases, good + [bad], [16, 1024])
    assert chain_diagnostics(sys, phases, [], [16, 1024]) == []
    assert chain_diagnostics(sys, phases, iter(()), [16, 1024]) == []


class RecordingSystem(dynamics.DynamicalSystem):
    """Constant orbits, each weakly referenced as it is built; building one
    while an earlier one is alive fails."""

    def __init__(self):
        self.refs = []

    def orbits(self, points, iterates):
        for _ in points:
            assert all(ref() is None for ref in self.refs), "an earlier orbit is alive"
            orbit = np.full(len(iterates), 0.5 + 0.5j)
            self.refs.append(weakref.ref(orbit))
            yield orbit
            del orbit


def test_one_orbit_alive_at_a_time(p32):
    pts, phases = [0.1, 0.2, 0.3], hardy.phase_fractions(p32, 1024)
    rs = [generate_realization(SelectorParams(a=0.3, seed=s, n_max=1024)) for s in (1, 2)]
    runs = [
        lambda sys: weighted_average_from_positions(sys, phases, rs[0].ones, [16, 64], pts),
        lambda sys: chain_diagnostics(sys, phases, rs, [16, 1024], sample_points=pts),
    ]
    for run in runs:
        sys = RecordingSystem()
        run(sys)
        assert len(sys.refs) == len(pts)


# ---------------------------------------------------------------------------
# Partial summation identity.

def test_partial_summation_constant_sequence():
    sig = selectors.sigma_values(0.3, 1, 100)
    lhs, rhs = partial_summation_identity(sig, np.ones(100, dtype=complex), 100)
    assert abs(lhs - 1.0) < 1e-14
    assert abs(rhs - 1.0) < 1e-12


def test_partial_summation_single_term():
    sig = np.array([1.0])  # sigma_1 = 1 keeps the float algebra exact
    a = np.array([0.3 - 0.4j])
    lhs, rhs = partial_summation_identity(sig, a, 1)
    assert lhs == rhs == complex(a[0])


def test_partial_summation_random_instances():
    # exact algebraic identity: both routes agree to 1e-10 relative
    rng = np.random.default_rng(7)
    for trial in range(100):
        N = int(rng.integers(2, 2000))
        a = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
        sig = selectors.sigma_values(rng.uniform(0.05, 0.95), 1, N)
        lhs, rhs = partial_summation_identity(sig, a, N)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_partial_summation_rejects_bad_sigma():
    with pytest.raises(ValueError):
        partial_summation_identity(np.array([1.0, 2.0]), np.ones(2, dtype=complex), 2)
    with pytest.raises(ValueError):
        partial_summation_identity(np.array([1.0, -0.5]), np.ones(2, dtype=complex), 2)


# ---------------------------------------------------------------------------
# Unweighted-transfer surrogate: coboundary observables telescope.

def test_coboundary_average_bounded_by_selection_density():
    # for f = h - h(T .) and any bounded G, summation by parts bounds
    # |(1/N) sum G(S_n) f(T^n x)| by 2 sup|G| sup|h| (S_N + 1) / N
    sys = RotationSystem("sqrt2m1", "coboundary")
    sup_h = 0.5  # h = e(.)/2
    r = generate_realization(SelectorParams(a=0.3, seed=17, n_max=1 << 14))
    g_of_s = np.cos(np.cumsum(r.bits).astype(np.float64))  # bounded by 1
    ks = np.arange(1, (1 << 14) + 1, dtype=np.int64)
    for x in sys.sample_points(4):
        f_orbit = sys.orbit_observable(x, ks)
        for N in (1 << 8, 1 << 11, 1 << 14):
            avg = np.sum(g_of_s[:N] * f_orbit[:N]) / N
            bound = 2.0 * 1.0 * sup_h * (r.S(N) + 1) / N
            assert abs(avg) <= bound * (1 + 1e-9)
