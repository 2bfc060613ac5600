"""Numeric domains, each declared once. The config parser and the domain
objects check against the same instances below, so the bound the CLI
states is the bound the object enforces."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Domain:
    """Integers or floats from lo to hi (None for no bound; both ends
    excluded when `open`), less the `exclude`d values."""

    kind: type = float
    lo: Optional[float] = None
    hi: Optional[float] = None
    open: bool = False
    exclude: tuple = ()

    def __contains__(self, v) -> bool:
        # comparisons with nan are false, so nan lies in no bounded domain
        return ((self.lo is None or (self.lo < v if self.open else self.lo <= v))
                and (self.hi is None or (v < self.hi if self.open else v <= self.hi))
                and v not in self.exclude)

    @property
    def text(self) -> str:
        """The rule as a phrase, such as "must lie in [0, 1]"."""
        if self.kind is int:
            if self.hi is not None:
                return f"must be an integer in [{self.lo}, {self.hi}]"
            excluded = "".join(f" and != {x}" for x in self.exclude)
            return f"must be an integer >= {self.lo}{excluded}"
        if self.lo is None:
            return "must be a finite number"
        if self.hi is None:
            return "must be positive" if self.open else f"must be >= {self.lo:g}"
        left, right = "()" if self.open else "[]"
        hi = "pi/2" if self.hi == math.pi / 2 else f"{self.hi:g}"
        return f"must lie in {left}{self.lo:g}, {hi}{right}"

    def check(self, name: str, v) -> None:
        if v not in self:
            raise ValueError(f"{name} {self.text}, got {v}")

    def parse(self, s: str):
        """The number config text `s` spells; ValueError with the rule when
        it spells none or one outside the domain, or "not a finite number"."""
        try:
            v = self.kind(s)
        except ValueError:
            raise ValueError(self.text) from None
        if self.kind is float and not math.isfinite(v):
            raise ValueError("not a finite number")
        if v not in self:
            raise ValueError(self.text)
        return v


REAL = Domain()
UNIT = Domain(float, 0.0, 1.0)
OPEN_UNIT = Domain(float, 0.0, 1.0, open=True)
NON_NEGATIVE = Domain(float, 0.0)
POSITIVE = Domain(float, 0.0, open=True)
COUNT = Domain(int, 1)
INDEX = Domain(int, 0)
SEED = Domain(int, 0, 2**64 - 1)  # the 64-bit word each random stream's entropy takes
SETTINGS = Domain(int, 3, exclude=(4,))  # n = 2 has one usable basis, n = 4 pins P1 at 0.5
ANGLE = Domain(float, 0.0, math.pi / 2, open=True)
