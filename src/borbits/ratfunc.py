"""The field of univariate rational functions in eps over the rationals.

Polynomials are tuples of ``Fraction`` coefficients in ascending degree
with no trailing zeros (the zero polynomial is the empty tuple).  Every
:class:`RFun` is kept reduced: numerator and denominator coprime, the
denominator monic and nonzero.  Equality is therefore structural.

The public constructors (:func:`poly`, ``RFun(num, den)``) check their
coefficients; the arithmetic methods build results from polynomials that
are already trimmed ``Fraction`` tuples and skip that check.

The degeneration suite makes 53,000 field operations at n = 8 on the
same few functions (0, 1, eps, 1/eps), only 25 of them distinct.  Each
is one bounded ``lru_cache`` (:func:`rf_add`, :func:`rf_mul`,
:func:`rf_div`, :func:`rf_neg`) whose result is made canonical, one
object per value; the uncached bodies, as ``__wrapped__``, are the
tests' oracle.  An ``RFun`` stores its hash, a constant its ``Fraction``'s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NotAFieldError

Poly = tuple[Fraction, ...]

# the rational 0 and 1, shared so that equal entries are often identical
Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)
_ONE_POLY = (Q_ONE,)
# entries per operation cache; a degeneration suite needs a few dozen
_MEMO_SIZE = 4096


def _trim(coeffs: list[Fraction]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def exact_rational(x) -> Fraction:
    """An int promoted to Fraction and a Fraction as it is; anything else,
    a float say, is rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise NotAFieldError(f"{x!r} is not an int or Fraction")


def _exact_poly(coeffs) -> Poly:
    """Trimmed Fraction tuple from int or Fraction coefficients; any other
    coefficient, a float say, is rejected."""
    return _trim([exact_rational(c) for c in coeffs])


def poly(*coeffs: int | Fraction) -> Poly:
    """Polynomial from ascending coefficients: poly(1, 2) == 1 + 2*eps."""
    return _exact_poly(coeffs)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Q_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Q_ZERO] * max(0, len(a) - len(b) + 1)
    rest = list(a)
    lead = b[-1]
    while len(rest) >= len(b):
        factor = rest[-1] / lead
        shift = len(rest) - len(b)
        quotient[shift] = factor
        for k, c in enumerate(b):
            rest[shift + k] -= factor * c
        del rest[-1]
        while rest and rest[-1] == 0:
            del rest[-1]
    return _trim(quotient), _trim(rest)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)  # monic


def poly_eval(a: Poly, x: Fraction) -> Fraction:
    acc = Q_ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_str(a: Poly) -> str:
    if not a:
        return "0"
    terms = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*e" if c != 1 else "e")
        else:
            terms.append(f"{c}*e^{k}" if c != 1 else f"e^{k}")
    return " + ".join(terms)


class RFun:
    """A reduced fraction of polynomials in eps with rational coefficients."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=_ONE_POLY):
        """The reduced form of num / den, for int or Fraction coefficients
        in ascending degree."""
        self._reduce(_exact_poly(num), _exact_poly(den))

    def _reduce(self, num: Poly, den: Poly) -> None:
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        # a constant equals its Fraction (zero equals 0), so it hashes alike
        if not num:
            self.num, self.den, self._hash = (), _ONE_POLY, hash(0)
            return
        if len(den) > 1:  # a constant denominator is coprime to anything
            g = poly_gcd(num, den)
            if len(g) > 1:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        self.num, self.den = num, den
        self._hash = hash(num[0]) if len(num) == len(den) == 1 else hash((num, den))

    @classmethod
    def _from_polys(cls, num: Poly, den: Poly) -> "RFun":
        """num / den for polynomials that are already trimmed Fraction
        tuples, as every arithmetic result is, made canonical."""
        out = object.__new__(cls)
        out._reduce(num, den)
        return _canonical(out)

    @staticmethod
    def const(value: int | Fraction) -> "RFun":
        return RFun._from_polys(poly(value), _ONE_POLY)

    @staticmethod
    def _coerce(value) -> "RFun | None":
        if isinstance(value, RFun):
            return value
        if isinstance(value, (int, Fraction)):
            return RFun.const(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return rf_add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return rf_neg(self)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return rf_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return rf_div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.den == (Q_ONE,):
            return f"RFun({poly_str(self.num)})"
        return f"RFun(({poly_str(self.num)})/({poly_str(self.den)}))"

    def eval_at(self, x: int | Fraction) -> Fraction:
        """Value at a rational point; raises ZeroDivisionError on a pole.
        At 0 the value is the ratio of the constant terms."""
        if not isinstance(x, (int, Fraction)):
            raise NotAFieldError(f"point {x!r} is not an int or Fraction")
        if not x:
            if not self.num:
                return Q_ZERO
            if len(self.den) == 1:  # monic, so the denominator is 1
                return self.num[0]
            if not self.den[0]:
                raise ZeroDivisionError(f"pole at {x}")
            return self.num[0] / self.den[0]
        x = Fraction(x)
        bottom = poly_eval(self.den, x)
        if bottom == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return poly_eval(self.num, x) / bottom


# The field operations on reduced RFuns, one bounded cache each.


# the first RFun met equal to x, so that equal results mostly compare by identity
_canonical = lru_cache(maxsize=_MEMO_SIZE)(lambda x: x)


@lru_cache(maxsize=_MEMO_SIZE)
def rf_add(a: RFun, b: RFun) -> RFun:
    return RFun._from_polys(
        poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den)),
        poly_mul(a.den, b.den),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def rf_mul(a: RFun, b: RFun) -> RFun:
    return RFun._from_polys(poly_mul(a.num, b.num), poly_mul(a.den, b.den))


@lru_cache(maxsize=_MEMO_SIZE)
def rf_div(a: RFun, b: RFun) -> RFun:
    """a / b for nonzero b, which ``RFun.__truediv__`` checks first."""
    return RFun._from_polys(poly_mul(a.num, b.den), poly_mul(a.den, b.num))


@lru_cache(maxsize=_MEMO_SIZE)
def rf_neg(a: RFun) -> RFun:
    return RFun._from_polys(poly_neg(a.num), a.den)


RF_ZERO = RFun._from_polys((), _ONE_POLY)
RF_ONE = RFun._from_polys(_ONE_POLY, _ONE_POLY)
EPS = RFun._from_polys((Q_ZERO, Q_ONE), _ONE_POLY)
EPS_INV = RF_ONE / EPS
