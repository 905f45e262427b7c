"""Exact integer and rational arithmetic primitives.

Everything downstream (lattices, plumbing graphs, correction terms) is built
on top of this module.  All values are Python ints or ``fractions.Fraction``;
no floating point is used anywhere in the package.

Continued fractions here follow the minus convention

    [c1, c2, ..., cm] = c1 - 1/(c2 - 1/( ... - 1/cm)),

the one used throughout plumbing calculus.  ``hj_expand`` gives the expansion
with all entries >= 2 of a value > 1; negating every entry gives the
all-<= -2 expansion of its negative (the Hirzebruch-Jung legs of a
negative-definite plumbing).  Mixing the two sign conventions is the classic
source of sign bugs, so the plus convention is deliberately not implemented.

``Record`` and ``Frozen`` are the bases of the package's value classes: equality,
hash and repr over the fields each class names, in plain classes that keep
``dataclasses`` (and the ``inspect`` and ``ast`` it loads) out of every start.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import index

__all__ = [
    "ZeroTailError",
    "NotExpandableError",
    "NotCoprimeError",
    "mod_inverse",
    "cf_eval",
    "hj_expand",
]


class ZeroTailError(ZeroDivisionError):
    """A proper suffix of the continued fraction evaluates to zero."""


class NotExpandableError(ValueError):
    """No continued-fraction expansion exists in the requested sign mode."""


class NotCoprimeError(ValueError):
    """Arguments required to be coprime are not."""


def mod_inverse(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m`` in ``[0, m)``; ``m >= 2``."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprimeError(f"{a} is not invertible modulo {m}") from None


def cf_eval(word) -> Fraction:
    """Evaluate ``[c1, ..., cm] = c1 - 1/(c2 - ... - 1/cm)`` exactly.

    The entries must be integers.  Raises :class:`ZeroTailError` when some
    proper suffix evaluates to zero, which would require dividing by zero.
    """
    coeffs = list(map(index, word))
    if not coeffs:
        raise ValueError("continued fraction word must be nonempty")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        if value == 0:
            raise ZeroTailError(f"suffix of {coeffs} evaluates to 0")
        value = c - 1 / value
    return value


def hj_expand(value) -> tuple[int, ...]:
    """Expand ``value > 1`` as ``[c1, ..., cm]`` with every ``ci >= 2``.

    The expansion is unique and ``cf_eval`` inverts it.  For a reduced
    fraction p/q the length is at most p.  ``value`` must be rational (an int
    or a ``Fraction``), never a float.
    """
    if not isinstance(value, Rational):
        raise TypeError(f"hj_expand needs an int or a Fraction, not {type(value).__name__}")
    v = Fraction(value)
    if v <= 1:
        raise NotExpandableError(f"{v} has no all->=2 expansion (need value > 1)")
    return _hj_word(v.numerator, v.denominator)


def _hj_word(a: int, b: int) -> tuple[int, ...]:
    """``hj_expand(a/b)`` for integers a > b >= 1: c = ceil(a/b), (a, b) <- (b, c b - a)."""
    out: list[int] = []
    while b:
        c = -(-a // b)
        out.append(c)
        # 0 <= c b - a < b, so the denominator strictly drops
        a, b = b, c * b - a
    return tuple(out)


# ---------------------------------------------------------------------------
# Value classes


class Record:
    """Equality and repr over the attributes named in ``_fields``, as a dataclass has them.

    Only an instance of the same class compares equal; a record is mutable and unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._values()))})"


class Frozen(Record):
    """A :class:`Record` hashed by its fields that refuses assignment: ``__init__`` fills ``__dict__``."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
