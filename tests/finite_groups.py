"""Brute-force enumeration of small finite integer matrix groups, kept as a
test oracle for ``solvkit.linalg.minkowski_bound``.

2 x 2 integer matrices are 4-tuples ``(a, b, c, d)`` in row-major order.
"""

from __future__ import annotations


def _mul2(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


_I2 = (1, 0, 0, 1)


def _finite_order_2x2(m) -> bool:
    det = m[0] * m[3] - m[1] * m[2]
    if det not in (1, -1) or abs(m[0] + m[3]) > 2:
        return False
    # finite order in 2x2 integer matrices forces order dividing 12
    power = _I2
    for _ in range(12):
        power = _mul2(power, m)
    return power == _I2


def _closure_size(generators, cap: int) -> int | None:
    seen = {_I2}
    frontier = [_I2]
    while frontier:
        new = []
        for element in frontier:
            for g in generators:
                product = _mul2(element, g)
                if product not in seen:
                    seen.add(product)
                    new.append(product)
                    if len(seen) > cap:
                        return None
        frontier = new
    return len(seen)


def finite_subgroup_orders(n: int, entry_bound: int = 2, cap: int = 30) -> set[int]:
    """Brute-force oracle: orders of the finite matrix groups generated by
    pairs of finite-order n x n integer matrices with bounded entries.

    Supported for n = 1 and n = 2; pairs that generate an infinite group
    (closure exceeding ``cap``) contribute nothing.
    """
    if n == 1:
        orders = set()
        units = [t for t in range(-entry_bound, entry_bound + 1) if t * t == 1]
        for u in units:
            for v in units:
                orders.add(len({1, u, v, u * v}))
        return orders
    if n != 2:
        raise ValueError("the brute-force oracle only supports n = 1 and n = 2")
    span = range(-entry_bound, entry_bound + 1)
    candidates = [
        (a, b, c, d)
        for a in span
        for b in span
        for c in span
        for d in span
        if _finite_order_2x2((a, b, c, d))
    ]
    orders = set()
    for i, first in enumerate(candidates):
        for second in candidates[i:]:
            size = _closure_size((first, second), cap)
            if size is not None:
                orders.add(size)
    return orders
