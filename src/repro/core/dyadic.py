"""Exact dyadic (binary-point) rational numbers.

Every commodity value and every interval endpoint in the paper is a *dyadic
rational*: a number of the form ``n / 2**k`` with integer ``n`` and
non-negative integer ``k``.  Section 4 of the paper chooses interval endpoints
to be "binary-point numbers of finite representation, i.e., a sum of powers of
2 with a finite number of summands" precisely so that they can be encoded with
finitely many bits; Section 3.1 arranges for every scalar commodity to be a
power of 2 for the same reason.

:class:`Dyadic` implements these numbers exactly.  Floating point is never
used anywhere in a protocol: commodity preservation (the sum of outgoing
commodity equalling the incoming commodity) must hold *exactly* for the
terminal's ``sum == 1`` test to be meaningful, and Python floats would break
it as soon as a vertex of out-degree 3 splits an interval.

The class is immutable, hashable, totally ordered, and interoperates with
:class:`int` where that is unambiguous.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any, Callable, Tuple, Union

__all__ = ["Dyadic", "DYADIC_ZERO", "DYADIC_ONE"]

_IntOrDyadic = Union[int, "Dyadic"]


def _normalize(num: int, exp: int) -> Tuple[int, int]:
    """Return the canonical ``(num, exp)`` pair for ``num / 2**exp``.

    The canonical form has ``exp >= 0`` and either ``num`` odd or
    ``exp == 0``.  Zero is represented as ``(0, 0)``.
    """
    if num == 0:
        return 0, 0
    if exp < 0:
        # n / 2**(-k) == n * 2**k / 2**0
        return num << (-exp), 0
    # Strip common factors of two.
    shift = min(exp, _trailing_zeros(num))
    return num >> shift, exp - shift


def _trailing_zeros(n: int) -> int:
    """Number of trailing zero bits of a non-zero integer."""
    return (n & -n).bit_length() - 1


def _ordering(compare: Callable[[int, int], bool]) -> Callable[[Any, Any], Any]:
    """A rich comparison of ``Dyadic`` against ``Dyadic`` or ``int``.

    Both sides are brought to the larger exponent and their numerators
    compared as plain ints: one call, no coercion, no ``Fraction``.  The
    comparisons sit on the interval-union merges, so this is hot.
    """

    def method(self: "Dyadic", other: Any) -> Any:
        if other.__class__ is Dyadic:
            shift = self.exp - other.exp
            if shift >= 0:
                return compare(self.num, other.num << shift)
            return compare(self.num << -shift, other.num)
        if isinstance(other, int):
            return compare(self.num, other << self.exp)
        return NotImplemented

    return method


class Dyadic:
    """An exact dyadic rational ``num / 2**exp``.

    Instances are canonical: ``exp >= 0`` and ``num`` is odd unless the value
    is an integer (``exp == 0``).  This makes equality and hashing structural.

    Parameters
    ----------
    num:
        Integer numerator.
    exp:
        The denominator is ``2**exp``.  May be negative on input (the value is
        then ``num * 2**(-exp)``); the stored form is normalised.
    """

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int, exp: int = 0) -> None:
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError("Dyadic components must be integers")
        n, e = _normalize(num, exp)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "exp", e)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "Dyadic":
        """The dyadic equal to the integer ``value``."""
        return cls(value, 0)

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """The dyadic ``2**k`` (``k`` may be negative)."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "Dyadic":
        """Convert an exactly-dyadic :class:`~fractions.Fraction`.

        Raises
        ------
        ValueError
            If the denominator of ``frac`` is not a power of two.
        """
        denom = frac.denominator
        if denom & (denom - 1):
            raise ValueError(f"{frac} is not a dyadic rational")
        return cls(frac.numerator, denom.bit_length() - 1)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """This value as an exact :class:`~fractions.Fraction`."""
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __int__(self) -> int:
        if self.exp:
            raise ValueError(f"{self!r} is not an integer")
        return self.num

    def is_power_of_two(self) -> bool:
        """True iff the value is ``2**k`` for some (possibly negative) ``k``."""
        return self.num == 1 or (self.num > 1 and self.exp == 0 and self.num & (self.num - 1) == 0)

    def log2(self) -> int:
        """The exponent ``k`` with ``self == 2**k``.

        Raises
        ------
        ValueError
            If the value is not a power of two.
        """
        if not self.is_power_of_two():
            raise ValueError(f"{self!r} is not a power of two")
        if self.num == 1:
            return -self.exp
        return self.num.bit_length() - 1

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other: _IntOrDyadic) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other, 0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: _IntOrDyadic) -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: _IntOrDyadic) -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other: _IntOrDyadic) -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other: _IntOrDyadic) -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def scaled_pow2(self, k: int) -> "Dyadic":
        """This value multiplied by ``2**k`` (``k`` may be negative)."""
        return Dyadic(self.num, self.exp - k)

    def half(self) -> "Dyadic":
        """This value divided by 2."""
        return Dyadic(self.num, self.exp + 1)

    def midpoint(self, other: "Dyadic") -> "Dyadic":
        """The dyadic midpoint of ``self`` and ``other``."""
        return (self + other).half()

    def divide_pow2_parts(self, parts: int) -> "Dyadic":
        """This value divided by ``parts`` where ``parts`` is a power of two.

        Raises
        ------
        ValueError
            If ``parts`` is not a positive power of two.
        """
        if parts <= 0 or parts & (parts - 1):
            raise ValueError(f"parts must be a positive power of two, got {parts}")
        return Dyadic(self.num, self.exp + parts.bit_length() - 1)

    # ------------------------------------------------------------------
    # Comparison and hashing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, int):
            return self.exp == 0 and self.num == other
        return NotImplemented

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __hash__(self) -> int:
        # Hash-compatible with int for integer values.
        if self.exp == 0:
            return hash(self.num)
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    # ------------------------------------------------------------------
    # Encoding cost
    # ------------------------------------------------------------------

    def bit_cost(self) -> int:
        """Number of bits needed to write this value down.

        This is the quantity the paper's communication-complexity accounting
        charges for an endpoint or a scalar commodity: the length of the
        binary-point representation, i.e. the bits of the numerator plus the
        bits needed to state the binary-point position.  Exact self-delimiting
        encodings live in :mod:`repro.core.encoding`; this method is the quick
        size proxy used in metrics.
        """
        from .encoding import BitWriter, encode_dyadic  # local import: avoid cycle

        writer = BitWriter()
        encode_dyadic(writer, self)
        return len(writer)

    # ------------------------------------------------------------------
    # Copying / repr
    # ------------------------------------------------------------------

    def __copy__(self) -> "Dyadic":
        # Immutable: copying is identity (keeps schedule exploration cheap).
        return self

    def __deepcopy__(self, memo) -> "Dyadic":
        return self

    def __repr__(self) -> str:
        if self.exp == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"


#: The dyadic zero.
DYADIC_ZERO = Dyadic(0)

#: The dyadic one.
DYADIC_ONE = Dyadic(1)
