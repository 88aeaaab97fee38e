"""Dependence-vector entries: integer intervals with ±∞ ends.

The paper's dependence vectors mix exact distances (integers) with
directions (``+``, ``-``).  We represent every entry uniformly as an
integer interval ``[lo, hi]`` over ℤ ∪ {±∞}: a constant distance ``c``
is ``[c, c]``, the direction ``+`` is ``[1, +∞)``, ``-`` is
``(-∞, -1]``, and ``*`` is ``(-∞, +∞)``.  Interval arithmetic then gives
a sound ``M · d`` for the legality test even when ``d`` has directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import DependenceError

__all__ = ["DepEntry", "NEG_INF", "POS_INF"]

# Compare against these with ``==``, never ``is``: any other ``float("inf")``
# (parsed, computed or copied) is a distinct object, and equality on ±inf
# is exact either way.
NEG_INF = float("-inf")
POS_INF = float("inf")


def _add(a, b):
    if a in (NEG_INF, POS_INF):
        if b in (NEG_INF, POS_INF) and a != b:
            raise DependenceError("indeterminate infinity sum in interval arithmetic")
        return a
    if b in (NEG_INF, POS_INF):
        return b
    return a + b


def _mul(a, s: int):
    if s == 0:
        return 0
    if a in (NEG_INF, POS_INF):
        return a if s > 0 else (NEG_INF if a == POS_INF else POS_INF)
    return a * s


@dataclass(frozen=True)
class DepEntry:
    """A closed integer interval ``[lo, hi]``; ends may be ±∞."""

    lo: object
    hi: object

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        for v, name in ((lo, "lo"), (hi, "hi")):
            if not (isinstance(v, int) or v in (NEG_INF, POS_INF)):
                raise DependenceError(f"{name} must be an int or ±inf, got {v!r}")
        if lo == POS_INF or hi == NEG_INF or (isinstance(lo, int) and isinstance(hi, int) and lo > hi):
            raise DependenceError(f"empty interval [{lo}, {hi}]")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c: int) -> "DepEntry":
        return DepEntry(c, c)

    @staticmethod
    def plus() -> "DepEntry":
        """The '+' direction: at least 1."""
        return DepEntry(1, POS_INF)

    @staticmethod
    def minus() -> "DepEntry":
        """The '-' direction: at most -1."""
        return DepEntry(NEG_INF, -1)

    @staticmethod
    def star() -> "DepEntry":
        """Unknown direction."""
        return DepEntry(NEG_INF, POS_INF)

    @staticmethod
    def parse(token) -> "DepEntry":
        """Parse paper notation: int, '+', '-', '0+', '-0', '*'."""
        if isinstance(token, int):
            return DepEntry.const(token)
        t = str(token)
        table = {
            "+": DepEntry.plus(),
            "-": DepEntry.minus(),
            "*": DepEntry.star(),
            "0+": DepEntry(0, POS_INF),
            "+0": DepEntry(0, POS_INF),
            "-0": DepEntry(NEG_INF, 0),
            "0-": DepEntry(NEG_INF, 0),
        }
        if t in table:
            return table[t]
        try:
            return DepEntry.const(int(t))
        except ValueError:
            raise DependenceError(f"cannot parse dependence entry {token!r}") from None

    # -- queries ------------------------------------------------------------

    def is_constant(self) -> bool:
        return self.lo == self.hi and isinstance(self.lo, int)

    def constant(self) -> int:
        if not self.is_constant():
            raise DependenceError(f"{self} is not a constant entry")
        return self.lo

    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def definitely_positive(self) -> bool:
        return self.lo != NEG_INF and self.lo >= 1

    def definitely_negative(self) -> bool:
        return self.hi != POS_INF and self.hi <= -1

    def definitely_nonnegative(self) -> bool:
        return self.lo != NEG_INF and self.lo >= 0

    def may_be_positive(self) -> bool:
        return self.hi == POS_INF or self.hi >= 1

    def may_be_negative(self) -> bool:
        return self.lo == NEG_INF or self.lo <= -1

    def may_be_zero(self) -> bool:
        return (self.lo == NEG_INF or self.lo <= 0) and (self.hi == POS_INF or self.hi >= 0)

    def contains(self, v: int) -> bool:
        lo_ok = self.lo == NEG_INF or self.lo <= v
        hi_ok = self.hi == POS_INF or v <= self.hi
        return lo_ok and hi_ok

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "DepEntry") -> "DepEntry":
        if not isinstance(other, DepEntry):
            return NotImplemented
        return DepEntry(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def __neg__(self) -> "DepEntry":
        return DepEntry(_mul(self.hi, -1), _mul(self.lo, -1))

    def scale(self, s: int) -> "DepEntry":
        if s >= 0:
            return DepEntry(_mul(self.lo, s), _mul(self.hi, s))
        return DepEntry(_mul(self.hi, s), _mul(self.lo, s))

    def hull(self, other: "DepEntry") -> "DepEntry":
        """Smallest interval containing both."""
        lo = NEG_INF if NEG_INF in (self.lo, other.lo) else min(self.lo, other.lo)
        hi = POS_INF if POS_INF in (self.hi, other.hi) else max(self.hi, other.hi)
        return DepEntry(lo, hi)

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_constant():
            return str(self.lo)
        if self == DepEntry.plus():
            return "+"
        if self == DepEntry.minus():
            return "-"
        if self == DepEntry.star():
            return "*"
        if self == DepEntry(0, POS_INF):
            return "0+"
        if self == DepEntry(NEG_INF, 0):
            return "-0"
        lo = "-inf" if self.lo == NEG_INF else str(self.lo)
        hi = "+inf" if self.hi == POS_INF else str(self.hi)
        return f"[{lo},{hi}]"

    def __repr__(self) -> str:
        return f"DepEntry({self})"


def zip_dot(row: tuple[int, ...], entries: tuple[DepEntry, ...]) -> DepEntry:
    """Interval dot product of an integer row with dependence entries."""
    if len(row) != len(entries):
        raise DependenceError("dimension mismatch in interval dot product")
    total = DepEntry.const(0)
    for c, e in zip(row, entries):
        if c != 0:
            total = total + e.scale(c)
    return total
