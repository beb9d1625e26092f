"""Reference child for the end-to-end timings: a fixed job that does not
import lapbel. It starts Python, imports numpy and runs the kinds of small
numpy calls lapbel's CLI is made of: masks and fancy indexing over an
exponent table, monomial products, dense solves and outer products.

``run.py`` spawns it between the set-up and CLI children and rescales their
wall times by it, so the end-to-end metrics do not move with the speed of a
shared machine. Its time depends only on the machine, never on lapbel.

Usage: python3 perfbench/reference_child.py
"""

import numpy as np

ROUNDS = 700


def main() -> None:
    dim = 24
    P = (np.arange(8 * dim).reshape(8, dim) * 7 % 11 == 0).astype(int) * 2
    C = np.linspace(0.5, 1.5, 8)
    u = np.linspace(-0.9, 0.9, dim)
    M = np.arange(144, dtype=float).reshape(12, 12) / 144.0
    S = M @ M.T + 12.0 * np.eye(12)
    x = np.linspace(-1.0, 1.0, 12)
    acc = 0.0
    for r in range(ROUNDS):
        for i in range(dim):
            mask = P[:, i] > 0
            if not np.any(mask):
                continue
            expo = P[mask].copy()
            expo[:, i] -= 1
            acc += float((C[mask] * P[mask, i]) @ np.prod(u[None, :] ** expo, axis=1))
        y = np.linalg.solve(S, x + r * 1e-6)
        acc += float(np.trace(np.outer(y, x))) + float(y @ x)
        acc += sum(c * c for c in ((k * r) % 7 for k in range(16))) % 5
    print(repr(acc))


if __name__ == "__main__":
    main()
