"""Small dense simplex in exact integers.

Solves max sum(lam) subject to sum_j lam_j * col_j <= rhs, lam >= 0.  The
all-slack basis is feasible because the right-hand side is non-negative,
so no phase-1 is needed; Bland's rule guarantees termination.

The tableau is kept fraction-free (Bareiss pivoting): every entry is an
integer over one shared positive denominator, the last pivot, which is
the determinant of the current basis.  Every update divides exactly, by
Cramer's rule, so no rational is formed until the result is returned.
"""

from __future__ import annotations

from fractions import Fraction


def max_convex_cover(
    columns: list[tuple[int, ...]], rhs: tuple[int, ...]
) -> tuple[Fraction, tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    """Return (optimum, dual vector y, basis rows R).

    At the optimum y >= 0, y.rhs == optimum, and y.col >= 1 for every
    column, so when the optimum is below 1 the dual vector is an exact
    separating certificate: no convex combination of the columns is
    dominated by rhs.

    R is det(B) * B^-1 for the optimal basis B, with det(B) > 0.  The
    reduced costs do not depend on the right-hand side, so for any other
    right-hand side v with R.v >= 0 the same basis is optimal and the
    optimum is exactly y.v.
    """
    m = len(columns)
    n = len(rhs)
    if m == 0:
        raise ValueError("need at least one column")
    if any(sum(c) == 0 for c in columns):
        raise ValueError("zero column makes the program unbounded")
    last = m + n
    tab = []
    for i in range(n):
        row = [columns[j][i] for j in range(m)]
        row += [1 if k == i else 0 for k in range(n)]
        row.append(rhs[i])
        tab.append(row)
    # objective row z - sum(lam) = 0, pivoted with the others: its entries
    # are the negated reduced costs, and under the slacks it holds y
    tab.append([-1] * m + [0] * (n + 1))
    basis = list(range(m, m + n))
    den = 1

    while True:
        # Bland: the first improving column enters
        entering = next((j for j in range(m + n) if tab[n][j] < 0), -1)
        if entering < 0:
            break
        # the least ratio of the last column to a positive entry, compared
        # cross-multiplied; ties go to the least basic index
        leaving = -1
        for i in range(n):
            a = tab[i][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            here = tab[i][last] * tab[leaving][entering]
            best = tab[leaving][last] * a
            if here < best or (here == best and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            raise ArithmeticError("unbounded program")
        prow = tab[leaving]
        piv = prow[entering]
        for i in range(n + 1):
            f = tab[i][entering]
            if i != leaving:
                tab[i] = [(piv * v - f * p) // den for v, p in zip(tab[i], prow)]
        den = piv
        basis[leaving] = entering

    obj = tab[n]
    return (
        Fraction(obj[last], den),
        tuple(Fraction(y, den) for y in obj[m:last]),
        tuple(tuple(row[m:last]) for row in tab[:n]),
    )
