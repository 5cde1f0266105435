"""Exact arithmetic in the half-integer lattice (1/2)Z.

Every exponent in this package is a half-integer.  ``HalfInt`` stores the
doubled value as a plain int, so addition, subtraction, negation and
comparisons are exact and the type is closed under them.  Nothing in the
package ever converts these to floats.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

HalfLike = Union["HalfInt", int]


class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    __slots__ = ("num2",)

    def __init__(self, num2: int) -> None:
        _set_num2(self, num2)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return HalfInt, (self.num2,)

    # -- equality, hashing and order ---------------------------------------
    # Only against another HalfInt: HalfInt(0) != 0, and HalfInt(0) < 0
    # raises TypeError.  ``>`` and ``>=`` reflect to ``__lt__`` and ``__le__``.
    def __eq__(self, other):
        return self.num2 == other.num2 if other.__class__ is HalfInt else NotImplemented

    def __hash__(self) -> int:
        return hash((self.num2,))

    def __lt__(self, other):
        return self.num2 < other.num2 if other.__class__ is HalfInt else NotImplemented

    def __le__(self, other):
        return self.num2 <= other.num2 if other.__class__ is HalfInt else NotImplemented

    # -- constructors -----------------------------------------------------
    @staticmethod
    def of(value: HalfLike) -> "HalfInt":
        """Coerce an int (or HalfInt) to HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} to HalfInt")
        return HalfInt(2 * value)

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Parse '3', '-2' or 'p/2' style literals."""
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise ValueError(f"half-integer literal must have denominator 2: {text!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(text))

    # -- arithmetic (closed in (1/2)Z) ------------------------------------
    def __add__(self, other: HalfLike) -> "HalfInt":
        if other.__class__ is int:
            return HalfInt(self.num2 + 2 * other)
        return HalfInt(self.num2 + HalfInt.of(other).num2)

    __radd__ = __add__

    def __sub__(self, other: HalfLike) -> "HalfInt":
        if other.__class__ is int:
            return HalfInt(self.num2 - 2 * other)
        return HalfInt(self.num2 - HalfInt.of(other).num2)

    def __rsub__(self, other: HalfLike) -> "HalfInt":
        return HalfInt(HalfInt.of(other).num2 - self.num2)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.num2)

    def __mul__(self, other: int) -> "HalfInt":
        if not isinstance(other, int) or isinstance(other, bool):
            raise TypeError("HalfInt may only be scaled by an int")
        return HalfInt(self.num2 * other)

    __rmul__ = __mul__

    # -- conversion -------------------------------------------------------
    def as_fraction(self) -> Fraction:
        return Fraction(self.num2, 2)

    # -- presentation -----------------------------------------------------
    def __str__(self) -> str:
        if self.num2 % 2 == 0:
            return str(self.num2 // 2)
        return f"{self.num2}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.num2})"

    def _json_fields(self) -> dict:
        return {"num2": self.num2}

    to_jsonable = _json_fields  # an int field: the deep form is the shallow one


# the slot's own setter: a quarter faster than object.__setattr__
_set_num2 = HalfInt.num2.__set__


def hi(value) -> HalfInt:
    """Convenience coercion used throughout tests and the DSL.

    Accepts HalfInt, int, or a string literal like '3/2'.
    """
    return HalfInt.parse(value) if isinstance(value, str) else HalfInt.of(value)
