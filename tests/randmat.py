"""Random matrices for the tests; seeded by the caller's RNG."""

from hopfcyclic.linalg import Matrix


def random_invertible(field, n, rng):
    """Random invertible n x n matrix: unit lower x unit upper with small entries."""
    f = field
    lo = []
    up = []
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.4:
                lo.append((i, j, f.parse(rng.randint(-2, 2))))
            if i < j and rng.random() < 0.4:
                up.append((i, j, f.parse(rng.randint(-2, 2))))
    L = Matrix.identity(f, n).add(Matrix.from_entries(f, n, n, lo))
    U = Matrix.identity(f, n).add(Matrix.from_entries(f, n, n, up))
    return L.mul(U)
