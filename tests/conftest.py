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


@pytest.fixture(scope="session")
def pg32():
    # the projective space PG(3,2): the nonzero vectors of GF(2)^4, point
    # x - 1 for vector x, with the lines {a, b, a + b}
    return steiner.validate_sts(15, sorted({
        tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
        for a in range(1, 16) for b in range(1, 16) if a != b
    }))
