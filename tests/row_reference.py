"""Independent reference for frieze rows: the diamond rule solved for the entry below.

The library reads every entry as a bracket of polygon vertices; the tests
check it against this completion, which works the rows out downward from the
quiddity by one division per entry.  Both functions are scalar-generic, so
they also run on jets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from frieze_lab.exceptions import NotClosed, ZeroEntryEncountered


def _is_zero(x) -> bool:
    # jets compare by value part
    return getattr(x, "val", x) == 0


def complete_rows(quiddity: Sequence, n: int) -> list[list]:
    """Display rows -1..n-2 propagated downward from the first nontrivial row.

    Raises ZeroEntryEncountered when an interior entry turns zero before the
    band closes, NotClosed when the closing rows are wrong.
    """
    rows: list[list] = [[0] * n, [1] * n, list(quiddity)]
    for r in range(2, n):
        prev2, prev = rows[-2], rows[-1]
        nxt = []
        for j in range(n):
            denom = prev2[(j + 1) % n]
            if _is_zero(denom):
                raise ZeroEntryEncountered(
                    f"zero entry in row {r - 2}, column {(j + 1) % n}"
                )
            nxt.append((prev[j] * prev[(j + 1) % n] - 1) / denom)
        rows.append(nxt)
    if any(x != 1 for x in rows[n - 1]):
        raise NotClosed("no second row of ones at depth n-2")
    if any(x != 0 for x in rows[n]):
        raise NotClosed("closing row of ones is not followed by zeros")
    return rows[:n]


def quiddity_from_diagonal(values: Sequence, base: int, n: int) -> list:
    """Recover the quiddity from one SE diagonal of nonzero values.

    The diagonal recurrence pins every coefficient except c_base; that one is
    read off the neighbouring diagonal, swept out by the diamond rule.
    """
    d = [Fraction(0), Fraction(1), *values, Fraction(1), Fraction(0)]  # e(base, base+k)
    c: list = [None] * n
    for j in range(1, n):
        c[(base + j) % n] = (d[j + 1] + d[j - 1]) / d[j]
    d2 = [0, 1]  # e(base+1, base+1+k)
    for k in range(2, n):
        if _is_zero(d[k]):
            raise ZeroEntryEncountered("zero diagonal value")
        d2.append((1 + d[k + 1] * d2[k - 1]) / d[k])
    # closing entry of the neighbour diagonal is 1, so c_base = e(base+1, base+n-1)
    c[base % n] = d2[n - 2]
    return c


def frieze_diagnostics(frieze) -> dict:
    """The four ``FriezePattern.check()`` diagnostics, each tested entry by entry."""
    n = frieze.period
    ent = frieze.ent
    return {
        "diamond_rule": all(
            ent(i, i + d) * ent(i + 1, i + 1 + d) - ent(i, i + 1 + d) * ent(i + 1, i + d) == 1
            for i in range(n)
            for d in range(1, n)
        ),
        "border_rows": all(x == 0 for x in frieze.rows[0])
        and all(x == 1 for x in frieze.rows[1])
        and all(x == 1 for x in frieze.rows[n - 1]),
        "nonzero_interior": all(x != 0 for r in range(1, frieze.width + 1) for x in frieze.rows[r + 1]),
        "glide_symmetry": all(ent(i, i + d) == ent(i + d, i + n) for i in range(n) for d in range(0, n + 1)),
        "period": n,
    }
