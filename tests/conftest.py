import pytest

from sematlas.core import validate
from sematlas.atlas import fixture_catalog, load_fixture


TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# the first 10-vertex torus map, face list frozen from its printed links
T_1_10_FACES = [
    (0, 3, 4), (0, 4, 5), (0, 5, 6), (1, 2, 9), (1, 9, 8), (1, 8, 7),
    (2, 9, 6), (2, 6, 5), (3, 4, 7), (3, 7, 8),
    (0, 1, 2, 3), (0, 6, 7, 1), (2, 5, 8, 3), (8, 9, 4, 5), (9, 6, 7, 4),
]

# its Klein-bottle sibling on 10 vertices
K_1_10_FACES = [
    (0, 3, 4), (0, 4, 5), (0, 5, 6), (1, 2, 9), (1, 8, 9), (1, 7, 8),
    (2, 7, 9), (2, 7, 8), (3, 4, 6), (3, 5, 6),
    (0, 1, 2, 3), (0, 6, 7, 1), (2, 8, 5, 3), (6, 4, 9, 7), (9, 8, 5, 4),
]

# the 6-vertex real projective plane (the hemi-icosahedron): chi = 1
RP2_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


@pytest.fixture(scope="session")
def tetrahedron():
    return validate(TETRAHEDRON, 4)


@pytest.fixture(scope="session")
def t_1_10():
    return validate(T_1_10_FACES, 10)


@pytest.fixture(scope="session")
def k_1_10():
    return validate(K_1_10_FACES, 10)


@pytest.fixture(scope="session")
def rp2():
    return validate(RP2_FACES, 6)


@pytest.fixture(scope="session")
def atlas():
    return {e.id: load_fixture(e.id) for e in fixture_catalog()}


@pytest.fixture(scope="session")
def catalog():
    return {e.id: e for e in fixture_catalog()}
