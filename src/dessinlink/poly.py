"""Exact Laurent polynomials in one variable.

`LaurentPoly` is a value type: it is built from integer terms, compared,
hashed, read term by term, rendered and parsed, and nothing else; it has
no ring arithmetic.  Coefficients are Python ints, so state sums with
thousands of terms stay exact.  The variable is called A by convention
(the Kauffman bracket variable) but nothing below depends on that;
renderers accept any variable name.  `delta_spread` is the only delta
arithmetic here (the bracket contraction in `invariants` applies its loop
factor on packed integers of its own): it sums the powers of the loop
value delta by Horner's rule on packed signed digits, and reads the
subset profile of a dessin (the coefficient levels and their checks), the
state-sum oracle's tally, and the weighted expansion's profile of the
expanded one-vertex dessin.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from .errors import InternalError

__all__ = [
    "LaurentPoly",
    "delta_spread",
    "PolyError",
]


class PolyError(ValueError):
    """Raised for malformed polynomial input."""


# ============================================================
# Laurent polynomials
# ============================================================

_TermsLike = Union[Mapping[int, int], Iterable[Tuple[int, int]]]


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    A value, not a ring element: equal terms make equal, equally hashed
    polynomials, and no operator derives a new one.  Stored as a dict
    mapping exponent -> nonzero coefficient.
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
        """Parse the to_string format; term order does not matter.

        A term is a magnitude, or `var` with an optional `mag*` before it
        and `^exp` after it; a sign stands between any two terms.
        """
        src = text.strip()
        v = re.escape(var)
        term_re = re.compile(rf"([+-]?)\s*(?:(?:(\d+)\*)?({v})(?:\^(-?\d+))?|(\d+))\s*")
        pos = 0
        terms = []
        while pos < len(src) or not terms:
            m = term_re.match(src, pos)
            if not m or (pos and not m.group(1)):
                raise PolyError(f"cannot parse polynomial at: {src[pos:]!r}")
            sign, mag, has_var, exp, const = m.groups()
            coeff = int(const or mag or 1)
            terms.append((int(exp or 1) if has_var else 0, -coeff if sign == "-" else coeff))
            pos = m.end()
        return cls(terms)


def delta_spread(profile: Mapping[Tuple[int, int], int], v: int, bound: int) -> Tuple[int, ...]:
    """Levels a[0..bound] of the sub-dessin sum of a dessin with v vertices.

    `profile` maps (e(H), f(H)) to the number of sub-dessins H with those
    edge and face counts.  H contributes A^(e - 2 e(H)) delta^(f(H) - 1) to
    the bracket: from level l0 = (v + e(H) - f(H)) / 2, its delta power
    spreads binomially over f(H) consecutive levels of A^(e + 2v - 2 - 4l),
    a[l] = sum over H of (-1)^(f-1) C(f-1, l - l0): the coefficient of x^l
    in sum_f P_f(x) (-1 - x)^(f-1), P_f = sum cnt x^l0 over the entries
    with f faces.  Horner's rule takes it on integers packed at x = 2^bits;
    no digit of a step exceeds sum |cnt| 2^(f-1) <= 2^(top-1) sum |cnt|,
    top the largest f, so bits is the length of the latter + 1.
    """
    top = max(map(itemgetter(1), profile), default=1)
    bits = (sum(map(abs, profile.values())) << max(top - 1, 0)).bit_length() + 1
    packed = [0] * top  # packed[f - 1] = P_f(2^bits)
    for (eh, f), cnt in profile.items():
        twice = v + eh - f  # 2 l0
        if twice & 1 or twice < 0 or f < 1 or eh < 0:
            raise InternalError(f"internal error: no start level for v={v} e={eh} f={f}")
        l0 = twice >> 1
        if l0 <= bound:
            packed[f - 1] += cnt << l0 * bits
    acc = 0
    for p in reversed(packed):
        acc = p - acc - (acc << bits)
    return tuple(_signed_digits(acc, bits, bound + 1))


def _signed_digits(value: int, bits: int, count: int) -> List[int]:
    """The low `count` digits c_j of value = sum c_j 2^(j bits), given |c_j| < 2^(bits-1)."""
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:  # a negative digit borrows one
            value = (value >> bits) + 1
            out.append(digit - full)
        else:
            value >>= bits
            out.append(digit)
    return out
