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
)


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


def test_json_serialization():
    f = (EPS + 1) / (2 * EPS)
    blob = f.to_json()
    assert blob == {"num": ["1/2", "1/2"], "den": ["0", "1"]}


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
