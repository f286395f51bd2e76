"""Small dense simplex over exact rationals.

Solves max sum(lam) subject to sum_j lam_j * col_j <= rhs, lam >= 0, with
Fraction arithmetic throughout.  The all-slack basis is feasible because the
right-hand side is non-negative, so no phase-1 is needed; Bland's rule
guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction


def max_convex_cover(
    columns: list[tuple[int, ...]], rhs: tuple[int, ...]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Return (optimum, dual vector y).

    At the optimum y >= 0, y.rhs == optimum, and y.col >= 1 for every
    column, so when the optimum is below 1 the dual vector is an exact
    separating certificate: no convex combination of the columns is
    dominated by rhs.
    """
    m = len(columns)
    n = len(rhs)
    if m == 0:
        raise ValueError("need at least one column")
    if any(sum(c) == 0 for c in columns):
        raise ValueError("zero column makes the program unbounded")
    width = m + n + 1
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(m)]
        row += [Fraction(1 if k == i else 0) for k in range(n)]
        row.append(Fraction(rhs[i]))
        tab.append(row)
    # objective row z - sum(lam) = 0, pivoted with the others: its entries
    # are the negated reduced costs, and under the slacks it holds y
    tab.append([Fraction(-1)] * m + [Fraction(0)] * (n + 1))
    basis = list(range(m, m + n))

    while True:
        # Bland: the first improving column enters
        entering = next((j for j in range(m + n) if tab[n][j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(n):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("unbounded program")
        piv = tab[leaving][entering]
        prow = tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(n + 1):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
        basis[leaving] = entering

    return tab[n][width - 1], tuple(tab[n][m:m + n])
