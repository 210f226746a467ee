from itertools import combinations

import pytest

from fano21 import steiner, orient, embed, kirkman


@pytest.fixture(scope="session")
def b1():
    return steiner.fano_b1()


@pytest.fixture(scope="session")
def b2():
    return steiner.fano_b2()


@pytest.fixture(scope="session")
def qr():
    return orient.qr_orientation()


@pytest.fixture(scope="session")
def classical():
    return embed.classical_rotation()


@pytest.fixture(scope="session")
def all_planes():
    return steiner.all_fano_planes()


@pytest.fixture(scope="session")
def sts61():
    return kirkman.sts15_61()


# cyclic systems whose automorphism group is Z_v: STS(19), whose automorphism
# bound 19 * 18 * 16 = 5,472 is at or below aut's listing limit, and STS(31),
# whose bound 31 * 30 * 28 = 26,040 is above it
STS31_BASE_BLOCKS = [(0, 1, 3), (0, 4, 11), (0, 5, 15), (0, 6, 18), (0, 8, 17)]


@pytest.fixture(scope="session")
def sts19():
    return steiner.cyclic_sts(19, [(0, 1, 4), (0, 2, 9), (0, 5, 11)])


@pytest.fixture(scope="session")
def sts31():
    return steiner.cyclic_sts(31, STS31_BASE_BLOCKS)


@pytest.fixture(scope="session")
def ag23():
    # the affine plane AG(2,3), the unique STS(9): rows, columns and
    # diagonals of a 3x3 grid
    return steiner.validate_sts(9, [
        (0, 1, 2), (3, 4, 5), (6, 7, 8),
        (0, 3, 6), (1, 4, 7), (2, 5, 8),
        (0, 4, 8), (2, 4, 6), (1, 5, 6),
        (2, 3, 7), (0, 5, 7), (1, 3, 8),
    ])


def projective_space(n):
    """PG(n-1,2): the nonzero vectors of GF(2)^n, point x - 1 for vector x,
    with the lines {a, b, a + b}."""
    return steiner.validate_sts(2 ** n - 1, sorted({
        tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
        for a in range(1, 2 ** n) for b in range(1, 2 ** n) if a != b
    }))


@pytest.fixture(scope="session")
def pg32():
    return projective_space(4)


@pytest.fixture(scope="session")
def pg42():
    return projective_space(5)


@pytest.fixture(scope="session")
def ag33():
    # the affine space AG(3,3): the vectors of GF(3)^3, point 9a + 3b + c
    # for (a, b, c), with the lines {x, y, z}, x + y + z = 0
    vectors = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    return steiner.validate_sts(27, sorted({
        tuple(sorted((vectors.index(x), vectors.index(y),
                      vectors.index(tuple((-p - q) % 3 for p, q in zip(x, y))))))
        for x, y in combinations(vectors, 2)
    }))
