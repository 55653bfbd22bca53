"""Dense integer matrix arithmetic: the reference that the sparse
counting steps are checked against."""


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    return tuple(
        tuple(sum(a[i][x] * b[x][j] for x in range(k)) for j in range(m))
        for i in range(n)
    )


def matrix_power(matrix, exponent: int):
    """Exact integer matrix power by repeated squaring."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = _identity(len(matrix))
    base = matrix
    e = exponent
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result
