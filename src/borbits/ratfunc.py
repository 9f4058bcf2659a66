"""The field of univariate rational functions in eps over the rationals.

Polynomials are tuples of ``Fraction`` coefficients in ascending degree
with no trailing zeros (the zero polynomial is the empty tuple).  Every
:class:`RFun` is kept reduced: numerator and denominator coprime, the
denominator monic and nonzero.  Equality is therefore structural.

The public constructors (:func:`poly`, ``RFun(num, den)``) check their
coefficients; the arithmetic methods build results from polynomials that
are already trimmed ``Fraction`` tuples and skip that check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAFieldError

Poly = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ONE_POLY = (_ONE,)


def _trim(coeffs: list[Fraction]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _exact_poly(coeffs) -> Poly:
    """Trimmed Fraction tuple from int or Fraction coefficients; any other
    coefficient, a float say, is rejected."""
    out = []
    for c in coeffs:
        if isinstance(c, int):
            c = Fraction(c)
        elif not isinstance(c, Fraction):
            raise NotAFieldError(f"coefficient {c!r} is not an int or Fraction")
        out.append(c)
    return _trim(out)


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
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [_ZERO] * max(0, len(a) - len(b) + 1)
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
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_str(a: Poly, var: str = "e") -> str:
    if not a:
        return "0"
    terms = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
    return " + ".join(terms)


class RFun:
    """A reduced fraction of polynomials in eps with rational coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_POLY):
        """The reduced form of num / den, for int or Fraction coefficients
        in ascending degree."""
        self._reduce(_exact_poly(num), _exact_poly(den))

    def _reduce(self, num: Poly, den: Poly) -> None:
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = (), _ONE_POLY
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

    @classmethod
    def _from_polys(cls, num: Poly, den: Poly) -> "RFun":
        """num / den for polynomials that are already trimmed Fraction
        tuples, as every arithmetic result is."""
        out = object.__new__(cls)
        out._reduce(num, den)
        return out

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
        return RFun._from_polys(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RFun._from_polys(poly_neg(self.num), self.den)

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
        return RFun._from_polys(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return RFun._from_polys(
            poly_mul(self.num, other.den), poly_mul(self.den, other.num)
        )

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
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.den == (_ONE,):
            return f"RFun({poly_str(self.num)})"
        return f"RFun(({poly_str(self.num)})/({poly_str(self.den)}))"

    def eval_at(self, x: int | Fraction) -> Fraction:
        """Value at a rational point; raises ZeroDivisionError on a pole.
        At 0 the value is the ratio of the constant terms."""
        x = Fraction(x)
        if not x:
            if not self.den[0]:
                raise ZeroDivisionError(f"pole at {x}")
            return self.num[0] / self.den[0] if self.num else _ZERO
        bottom = poly_eval(self.den, x)
        if bottom == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return poly_eval(self.num, x) / bottom

    def to_json(self) -> dict:
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }


RF_ZERO = RFun(())
RF_ONE = RFun.const(1)
EPS = RFun(poly(0, 1))
EPS_INV = RF_ONE / EPS
