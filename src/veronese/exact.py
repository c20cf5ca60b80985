"""Exact rational scalars and the tiny linear-algebra kernel.

Scalars are ``fractions.Fraction`` throughout (arbitrary precision,
always stored reduced, denominator positive), so equality is structural
and arithmetic never rounds.  ``rat``/``rat_str`` fix the "p/q" wire
format used in all JSON payloads.  ``rat`` tries a string first, as that
is what the CLI hands it, before the ``numbers.Rational`` checks, which
go through the ABC machinery.  Plain ASCII "p" and "p/q" strings are
split by one regular expression and built from two ints; every other
string goes to Fraction's own parser, so both paths accept and refuse
alike.  Such a string with an exponent ("1e5") is refused: Fraction
would compute 10**exp in full, unbounded work for a short string.

The kernel's loops run on ints.  ``clear_denominators`` is the one place
that turns rationals into them: it returns L > 0, the lcm of their
denominators, and the ints L v_i, which keep every sign and ratio.
``sign_det`` clears each row so and runs ``bareiss_step``, one
fraction-free elimination step, to the end; ``geometry`` shares those
steps between the determinants of an instance, and keeps a chart's
cleared coefficients C_i = L xi_i, with which it evaluates L b^d q(a/b)
as an integer: its sign is that of q(a/b), and ``geometry.q_eval``
divides it by L b^d > 0 once.

``is_power_of_linear_form`` reads the same C_j.  A power c (a + b t)^d
has xi_j = c C(d,j) a^(d-j) b^j, so when no xi_j is 0 the ratios
xi_{j+1} C(d,j) / (xi_j C(d,j+1)) = xi_{j+1} (j+1) / (xi_j (d-j)) all
equal b/a; one pass compares each with the first, cross-multiplied in
ints of the size of the C_j, with no binomial.  A zero coefficient
leaves the powers c a^d and c b^d t^d alone: one nonzero coefficient,
at j = 0 or at j = d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError, InvalidChartError

_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction or a "p/q", "p" or decimal
    string; a string with an exponent is refused."""
    if isinstance(value, str):
        text = value.strip()
        plain = _PLAIN.fullmatch(text)
        if plain is None and ("e" in text or "E" in text):
            raise InvalidChartError(
                f"cannot parse rational {value!r}: exponents are refused")
        try:
            if plain is None:
                return Fraction(text)
            p, q = plain.groups()
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidChartError(f"cannot parse rational {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidChartError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidChartError(f"cannot parse rational {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize as "p" for integers, "p/q" otherwise."""
    value = value if type(value) is Fraction else Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def clear_denominators(values) -> tuple:
    """(L, (L v_0, L v_1, ...)) of ints and Fractions v_i: L > 0 the lcm
    of their denominators, so each L v_i is an int of v_i's sign."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def bareiss_step(rows, pivot_row, k: int, prev: int) -> None:
    """One step of Bareiss fraction-free elimination, in place: entry j > k
    of each row becomes (row[j] pivot_row[k] - row[k] pivot_row[j]) / prev,
    with prev the previous step's pivot (1 at the first step).  By
    Sylvester's identity the quotient is exact: it is the minor of the
    step's k + 1 pivot rows and the row on columns 0..k and j.  Columns up
    to k are not written and are not read again."""
    pivot = pivot_row[k]
    for row in rows:
        head = row[k]
        for j in range(k + 1, len(row)):
            row[j] = (row[j] * pivot - head * pivot_row[j]) // prev


def sign_det(rows) -> int:
    """Exact sign of det(rows) via Bareiss fraction-free elimination.

    Accepts any square matrix of Fractions/ints (list of rows).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError(f"matrix is not square: {n} rows")
    if n == 0:
        return 1
    # each row times its positive L: the sign of the determinant stays; a
    # bool is not taken for an int
    m = [list(clear_denominators([x if type(x) is int else Fraction(x) for x in row])[1])
         for row in rows]
    flip = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    flip = -flip
                    break
            else:
                return 0
        bareiss_step(m[k + 1:], m[k], k, prev)
        prev = m[k][k]
    return flip * sign(m[n - 1][n - 1])


def is_power_of_linear_form(xi, d: int) -> bool:
    """Whether the binary form with coefficients xi (degree d) is a
    scalar multiple of a d-th power of a linear form: with C_j = L xi_j
    (see ``clear_denominators``), either one C_j alone is nonzero, at
    j = 0 or j = d, or none is 0 and C_{j+1} (j+1) / (C_j (d-j)) is the
    same for every j (see the module docstring).
    """
    coords = [x if type(x) is Fraction else Fraction(x) for x in xi]
    if len(coords) != d + 1:
        raise DimensionMismatchError(
            f"chart has {len(coords)} entries, expected {d + 1}"
        )
    if all(x == 0 for x in coords):
        raise InvalidChartError("all-zero chart")
    c = clear_denominators(coords)[1]
    if 0 in c:
        return sum(map(bool, c)) == 1 and (c[0] != 0 or c[d] != 0)
    # C_{j+1} (j+1) / (C_j (d-j)) == C_1 / (C_0 d), cross-multiplied
    return all(c[j + 1] * (j + 1) * c[0] * d == c[1] * c[j] * (d - j) for j in range(1, d))
