"""Exact Laurent polynomials in one variable.

Everything here is integer arithmetic: coefficients are Python ints, so
state sums with thousands of terms stay exact.  The variable is called A
by convention (the Kauffman bracket variable) but nothing below depends
on that; renderers accept any variable name.  `delta_spread` is the one
place where powers of the loop value delta are summed.
"""

from __future__ import annotations

import re
from math import comb
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from .errors import InternalError

__all__ = [
    "LaurentPoly",
    "DELTA",
    "delta_spread",
    "PolyError",
]


class PolyError(ValueError):
    """Raised for malformed polynomial input or unsupported operations."""


# ============================================================
# Laurent polynomials
# ============================================================

_TermsLike = Union[Mapping[int, int], Iterable[Tuple[int, int]]]


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    Stored as a dict mapping exponent -> nonzero coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: _TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[int, int] = {}
        for exp, coeff in items:
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise PolyError("exponents and coefficients must be integers")
            if coeff:
                c = acc.get(exp, 0) + coeff
                if c:
                    acc[exp] = c
                else:
                    del acc[exp]
        self._terms = acc

    # ---- constructors ----

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def _of(cls, terms: Dict[int, int]) -> "LaurentPoly":
        """Wrap an exponent -> nonzero coefficient dict without checking it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    # ---- inspection ----

    def terms(self) -> Tuple[Tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, descending exponent."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.terms())

    def exponent_parity(self) -> int:
        """Common parity of all exponents (0 or 1); error if mixed or zero."""
        if not self._terms:
            raise PolyError("zero polynomial has no exponent parity")
        parities = {e & 1 for e in self._terms}
        if len(parities) != 1:
            raise PolyError("mixed exponent parity")
        return parities.pop()

    # ---- arithmetic ----

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return LaurentPoly._of(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly._of({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: Dict[int, int] = {}
        # iterate over the smaller factor for speed
        a, b = (self._terms, other._terms)
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return LaurentPoly._of(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise PolyError("polynomial powers must be nonnegative integers")
        result = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        return LaurentPoly._of({e + k: c for e, c in self._terms.items()})

    def reciprocal_variable(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (negate every exponent)."""
        return LaurentPoly._of({-e: c for e, c in self._terms.items()})

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises PolyError on a nonzero remainder."""
        if not other:
            raise PolyError("division by zero polynomial")
        if not self:
            return LaurentPoly()
        rem = dict(self._terms)
        div = other._terms
        dmax = max(div)
        lead = div[dmax]
        # exact quotients cannot reach below this exponent, which bounds
        # the otherwise endless descent of an inexact Laurent division
        min_shift = min(self._terms) - min(div)
        quot: Dict[int, int] = {}
        while rem:
            rmax = max(rem)
            shift = rmax - dmax
            if shift < min_shift:
                raise PolyError("inexact division (nonzero remainder)")
            q, r = divmod(rem[rmax], lead)
            if r:
                raise PolyError("inexact division (leading coefficient)")
            quot[shift] = q
            for e, c in div.items():
                ee = e + shift
                s = rem.get(ee, 0) - q * c
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
        return LaurentPoly(quot)

    # ---- comparison / hashing ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.terms())

    # ---- rendering / parsing ----

    def to_string(self, var: str = "A") -> str:
        """Human-readable form, terms sorted by descending exponent."""
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_string()})"

    @classmethod
    def parse(cls, text: str, var: str = "A") -> "LaurentPoly":
        """Parse the to_string format; term order does not matter."""
        src = text.strip()
        if src == "0":
            return cls()
        v = re.escape(var)
        term_re = re.compile(
            rf"([+-]?)\s*(?:(\d+)\s*\*?\s*)?(?:{v}(?:\^(-?\d+))?)?"
        )
        pos = 0
        terms = []
        while pos < len(src):
            m = term_re.match(src, pos)
            if not m or m.end() == pos:
                raise PolyError(f"cannot parse polynomial at: {src[pos:]!r}")
            sign, mag, exp = m.groups()
            has_var = var in m.group(0)
            if mag is None and not has_var:
                raise PolyError(f"empty term in {text!r}")
            coeff = int(mag) if mag is not None else 1
            if sign == "-":
                coeff = -coeff
            if has_var:
                e = int(exp) if exp is not None else 1
            else:
                e = 0
            terms.append((e, coeff))
            pos = m.end()
            while pos < len(src) and src[pos].isspace():
                pos += 1
        return cls(terms)


# Kauffman circle weight: removing one circle multiplies the bracket by this.
DELTA = LaurentPoly({2: -1, -2: -1})


def delta_spread(profile: Mapping[Tuple[int, int], int], v: int, bound: int) -> Tuple[int, ...]:
    """Levels a[0..bound] of the sub-dessin sum of a dessin with v vertices.

    `profile` maps (e(H), f(H)) to the number of sub-dessins H with those
    edge and face counts.  H contributes A^(e - 2 e(H)) delta^(f(H) - 1) to
    the bracket: from level l0 = (v + e(H) - f(H)) / 2, its delta power
    spreads binomially over f(H) consecutive levels of A^(e + 2v - 2 - 4l),
    a[l] = sum over H of (-1)^(f-1) C(f-1, l - l0).
    """
    acc = [0] * (bound + 1)
    rows: Dict[int, List[int]] = {}  # f -> C(f-1, 0..f-1)
    for (eh, f), cnt in profile.items():
        l0, odd = divmod(v + eh - f, 2)
        if odd or l0 < 0:
            raise InternalError(f"internal error: no start level for v={v} e={eh} f={f}")
        if l0 > bound:
            continue
        row = rows.get(f)
        if row is None:
            row = rows[f] = [comb(f - 1, i) for i in range(f)]
        signed = -cnt if (f - 1) % 2 else cnt
        for l in range(l0, min(l0 + f, bound + 1)):
            acc[l] += signed * row[l - l0]
    return tuple(acc)
