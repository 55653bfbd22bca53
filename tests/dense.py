"""Dense integer matrix arithmetic: the reference that the sparse
counting steps are checked against; and the list-built Cesaro power
stream, the reference for the one that reads its arrays off the product
table."""

from math import inf

from reglang.errors import ConvergenceError


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


def leading_limits(vertices, edges, parts, radius, q, d):
    """The power stream of `metrics._leading_limits` on lists: the union's
    trim graph as its sorted product states, the first one initial, and
    its (src, dst) edges in state then symbol order, numbered through a
    dict and turned into arrays one tuple at a time.  Reads the cap and
    the tolerance from `metrics` at each call."""
    import numpy as np

    from reglang import metrics

    cap, tol = metrics.POWER_MAX_ITER, metrics.LIMIT_TOL
    index = {v: i for i, v in enumerate(vertices)}
    src, dst = np.array([(index[s], index[t]) for s, t in edges]).T
    finals = np.array([[v in part for part in parts] for v in vertices], float)

    def step(v):
        return np.bincount(dst, weights=v[src], minlength=len(v)) / radius

    def limits(lead):
        c = []
        for _ in range(q):
            c.append(lead @ finals)
            lead = step(lead)
        r = np.arange(q)
        sums = radius ** -r @ np.array(c)[(r[:, None] - r) % q]
        if not sums[:, 1].all():  # a class with no union words yet
            return None
        return [float(s / u) for s, u in sums]

    b = np.array([float(v == 0) for v in vertices])
    diffs, residual = [], inf
    for blocks in range(cap):
        diffs = [b, *diffs[:d]]
        for j in range(1, len(diffs)):
            diffs[j] = diffs[j - 1] - diffs[j]
        if len(diffs) > d:
            lead = np.abs(diffs[d - 1]).max()
            residual = float(np.abs(diffs[d]).max() / lead) if lead else inf
            if residual <= tol:
                return limits(diffs[d - 1]), residual, blocks
        for _ in range(q):
            b = step(b)
        scale = np.abs(b).max()
        b, diffs = b / scale, [x / scale for x in diffs]
    reason = f"the leading vector's residual is {residual:.3g} after {cap} blocks"
    found = limits(diffs[d - 1]) if residual < inf else None
    partial = None if found is None else sum(found) / q
    raise ConvergenceError(reason, partial=partial, diagnostics={"residual": residual})
