"""Exact integer matrix helpers for checking Smith normal form transforms."""

IntMatrix = list[list[int]]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def mat_det(a: IntMatrix) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
