from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits.errors import NotAFieldError
from borbits.ratfunc import (
    EPS,
    EPS_INV,
    RF_ONE,
    RF_ZERO,
    RFun,
    poly,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    rf_add,
    rf_div,
    rf_mul,
    rf_neg,
)
from borbits.suites import run_suite

MEMOS = (rf_add, rf_mul, rf_div, rf_neg)


def test_poly_arithmetic():
    a = poly(1, 2, 1)  # (1+e)^2
    b = poly(1, 1)
    quotient, rest = poly_divmod(a, b)
    assert quotient == poly(1, 1) and rest == ()
    assert poly_mul(b, b) == a
    assert poly_gcd(a, b) == poly(1, 1)
    assert poly_gcd(poly(1), poly(0, 1)) == poly(1)


def test_rfun_reduction_and_equality():
    # (e^2 - 1) / (e - 1) reduces to e + 1
    ratio = RFun(poly(-1, 0, 1), poly(-1, 1))
    assert ratio == RFun(poly(1, 1))
    assert ratio == EPS + 1
    # denominators are kept monic
    half = RFun(poly(1), poly(2))
    assert half.den == poly(1) and half.num == poly(Fraction(1, 2))


def test_rfun_field_ops():
    x = EPS + EPS_INV
    assert x * EPS == EPS * EPS + 1
    assert EPS * EPS_INV == RF_ONE
    assert (EPS - EPS) == RF_ZERO and not (EPS - EPS)
    assert -(EPS - 1) == 1 - EPS
    assert (2 * EPS) / 2 == EPS
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO


def test_rfun_promotes_ints_and_fractions():
    assert EPS + Fraction(1, 2) == RFun(poly(Fraction(1, 2), 1))
    assert 3 * EPS == EPS + EPS + EPS
    assert Fraction(1, 3) == RFun.const(Fraction(1, 3))


def test_eval_and_poles():
    f = (EPS * EPS - 1) / (EPS - 1)  # = e + 1 after reduction
    assert f.eval_at(0) == 1
    assert f.eval_at(Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        EPS_INV.eval_at(0)


def test_reduction_is_canonical():
    # same function built two ways compares equal structurally
    a = (EPS + 1) * (EPS - 1) / ((EPS - 1) * (EPS - 1))
    b = (EPS + 1) / (EPS - 1)
    assert a == b and hash(a) == hash(b)


def test_case_specific_scalars():
    # the two torus entries used by the nesting-swap curve
    d_i = EPS - EPS_INV
    assert d_i == (EPS * EPS - 1) / EPS
    assert d_i.eval_at(2) == Fraction(3, 2)
    assert bool(d_i)


def test_constructor_promotes_int_coefficients_to_fractions():
    half = RFun((1, 2), (2,))
    assert half.num == (Fraction(1, 2), Fraction(1)) and half.den == (Fraction(1),)
    assert all(type(c) is Fraction for c in half.num + half.den)


def test_constructor_trims_trailing_zeros():
    assert RFun((Fraction(1), Fraction(0))) == RFun(poly(1))
    assert RFun((0, 1, 0), (2, 0)) == EPS / 2
    assert RFun((0, 0)) == RF_ZERO and RFun((0, 0)).den == (Fraction(1),)
    with pytest.raises(ZeroDivisionError):
        RFun((1,), (0, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: RFun((0.5,)),
        lambda: RFun((1,), (2.0,)),
        lambda: RFun(("1",)),
        lambda: poly(1, 0.5),
        lambda: RFun.const(0.5),
    ],
)
def test_constructor_rejects_non_rational_coefficients(build):
    with pytest.raises(NotAFieldError):
        build()


def is_reduced(f):
    """Coefficients are Fractions, neither polynomial has a trailing zero,
    the denominator is monic and coprime to the numerator (zero is 0/1)."""
    if not all(type(c) is Fraction for c in f.num + f.den):
        return False
    if (f.num and f.num[-1] == 0) or f.den[-1] != 1:
        return False
    if not f.num:
        return f.den == poly(1)
    return poly_gcd(f.num, f.den) == poly(1)


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_polys = st.lists(small_rationals, max_size=3)
rfuns = st.one_of(
    st.sampled_from([RF_ZERO, RF_ONE, EPS, EPS_INV, RFun.const(Fraction(-2, 3))]),
    st.builds(RFun, small_polys, small_polys.filter(lambda p: any(p))),
)


@settings(max_examples=200, deadline=None)
@given(a=rfuns, b=rfuns, c=rfuns)
@example(a=EPS_INV, b=EPS, c=RF_ONE)
@example(a=RF_ZERO, b=EPS_INV, c=-EPS_INV)
def test_field_axioms_and_reduced_results(a, b, c):
    results = [a + b, a * b, -a, a - b, (a + b) + c, a * (b * c), a * (b + c)]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a and a * RF_ONE == a
    assert a + (-a) == RF_ZERO and a - a == RF_ZERO
    if a:
        inverse = RF_ONE / a
        results.append(inverse)
        assert a * inverse == RF_ONE
    else:
        with pytest.raises(ZeroDivisionError):
            RF_ONE / a
    for f in results + [a, b, c]:
        assert is_reduced(f), f


# a denominator with a factor eps^k, k up to 2, so that poles at 0 come up
polar_rfuns = st.builds(
    lambda num, shift, den: RFun(num, [0] * shift + den),
    small_polys,
    st.integers(0, 2),
    small_polys.filter(any),
)


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(rfuns, polar_rfuns))
@example(f=EPS_INV)
@example(f=RF_ZERO)
@example(f=RF_ONE)
@example(f=RFun.const(Fraction(-2, 3)))
@example(f=(EPS + 2) / (3 * EPS + 1))
def test_eval_at_zero_is_the_horner_value(f):
    zero = Fraction(0)
    try:
        horner = poly_eval(f.num, zero) / poly_eval(f.den, zero)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="pole at 0"):
            f.eval_at(0)
        return
    value = f.eval_at(0)
    assert type(value) is Fraction and value == horner


@pytest.mark.parametrize("f", [RF_ZERO, RF_ONE, EPS, EPS_INV, (EPS + 2) / (3 * EPS)])
@pytest.mark.parametrize("x", [0.0, 0.1, 1.0, "0", None])
def test_eval_at_rejects_non_rational_points(f, x):
    # 0.1 would become 3602879701896397/36028797018963968; 0.0 must not
    # slip through the shortcut at zero
    with pytest.raises(NotAFieldError):
        f.eval_at(x)


def test_constants_hash_like_the_numbers_they_equal():
    assert {1: "a"}.get(RF_ONE) == "a" and {RF_ZERO: "b"}.get(0) == "b"
    assert 1 in {RF_ONE} and Fraction(0) in {RF_ZERO}


numbers = st.one_of(st.integers(-3, 3), small_rationals)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(rfuns, numbers), b=st.one_of(rfuns, numbers))
@example(a=RF_ONE, b=1)
@example(a=RF_ZERO, b=Fraction(0))
@example(a=EPS * EPS_INV, b=RF_ONE)
@example(a=RFun.const(Fraction(-2, 3)), b=Fraction(-2, 3))
def test_equal_values_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(c=numbers)
def test_a_constant_built_any_way_hashes_like_its_number(c):
    for f in (RFun.const(c), RFun((c,), (1,)), c * EPS / EPS, (c + EPS) - EPS):
        assert f == c and hash(f) == hash(c)


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(rfuns, polar_rfuns), b=st.one_of(rfuns, polar_rfuns))
@example(a=EPS_INV, b=-EPS_INV)
@example(a=EPS, b=RF_ZERO)
def test_memoized_operations_match_their_uncached_bodies(a, b):
    cases = [(rf_add, (a, b)), (rf_mul, (a, b)), (rf_neg, (a,))]
    if b:
        cases.append((rf_div, (a, b)))
    for memo, args in cases:
        result, oracle = memo(*args), memo.__wrapped__(*args)
        assert result == oracle and hash(result) == hash(oracle)
        assert is_reduced(result), (memo.__name__, args, result)
    # the operators go through the memos
    assert a + b is rf_add(a, b) and a * b is rf_mul(a, b) and -a is rf_neg(a)


def test_a_repeated_operation_is_a_cache_hit():
    a = RFun(poly(7, 11), poly(13, 1))
    b = RFun(poly(-5, 3), poly(2, 0, 1))
    before = rf_mul.cache_info()
    first = a * b
    middle = rf_mul.cache_info()
    # equal operands, built afresh, find the same entry
    second = RFun(poly(7, 11), poly(13, 1)) * b
    after = rf_mul.cache_info()
    assert middle.misses == before.misses + 1
    assert after.misses == middle.misses and after.hits == middle.hits + 1
    assert second is first


def test_division_by_zero_is_raised_before_the_cache():
    before = rf_div.cache_info()
    for zero in (RF_ZERO, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            EPS / zero
    with pytest.raises(ZeroDivisionError):
        1 / RF_ZERO
    assert rf_div.cache_info() == before


def test_memos_are_bounded():
    assert all(0 < memo.cache_info().maxsize <= 4096 for memo in MEMOS)


def test_degeneration_suite_needs_few_distinct_operations():
    # thousands of field operations, a few dozen distinct ones
    before = sum(memo.cache_info().misses for memo in MEMOS)
    assert run_suite("degeneration", 6).passed
    assert sum(memo.cache_info().misses for memo in MEMOS) - before <= 40


def test_equal_results_are_one_object():
    # each result is canonical: the first RFun met of its value
    assert EPS_INV * EPS is RF_ONE
    assert -(-EPS) is EPS
    assert EPS - EPS is RF_ZERO
    assert RFun.const(1) is RF_ONE
    assert (EPS + 1) * EPS_INV is EPS_INV + 1
