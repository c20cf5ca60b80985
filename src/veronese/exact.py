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

The kernel's loops run on ints, scaled by positive factors so that no
value or sign changes.  ``sign_det`` clears each row's denominators and
runs ``bareiss_step``, one fraction-free elimination step, to the end;
``geometry`` shares those steps between the determinants of an instance.
``is_power_of_linear_form`` scales c_j = xi_j / C(d,j) by their common
denominator D > 0 and compares the 2 x 2 minors of the integers D c_j,
which are D^2 times the rational ones.  ``geometry`` evaluates
L b^d q(a/b) as an integer: its sign is that of q(a/b), and
``geometry.q_eval`` divides it by L b^d > 0 once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

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


def _integer_rows(rows):
    """Clear denominators row by row; the multipliers are positive, so
    the determinant sign is unchanged.  Rows of ints are copied as they
    are (a bool is not taken for an int)."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs))
        out.append([int(f * mult) for f in fracs])
    return out


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
    m = _integer_rows(rows)
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
    scalar multiple of a d-th power of a linear form.

    With c_j = xi_j / C(d,j) this holds iff the 2 x d matrix with rows
    (c_0..c_{d-1}) and (c_1..c_d) has rank <= 1, tested via 2x2 minors.
    """
    coords = [x if type(x) is Fraction else Fraction(x) for x in xi]
    if len(coords) != d + 1:
        raise DimensionMismatchError(
            f"chart has {len(coords)} entries, expected {d + 1}"
        )
    if all(x == 0 for x in coords):
        raise InvalidChartError("all-zero chart")
    dens = [x.denominator * comb(d, j) for j, x in enumerate(coords)]
    scale = lcm(*dens)
    c = [x.numerator * (scale // den) for x, den in zip(coords, dens)]
    for i in range(d):
        for j in range(i + 1, d):
            if c[i] * c[j + 1] != c[j] * c[i + 1]:
                return False
    return True
