import random

import pytest

from k3tk import EvenLattice, MukaiVector, apply_translate, dual


def random_lattice(rng: random.Random, max_rank: int = 4,
                   spread: int = 4) -> EvenLattice:
    rank = rng.randint(1, max_rank)
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2 * rng.randint(-spread, spread)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-spread, spread)
    return EvenLattice(tuple(tuple(row) for row in g))


def random_vector(rng: random.Random, rank: int, spread: int = 9) -> MukaiVector:
    return MukaiVector(rng.randint(-spread, spread),
                       tuple(rng.randint(-spread, spread) for _ in range(rank)),
                       rng.randint(-spread, spread))


def rand_minus_two(rng, lat):
    """Random (-2)-vector: isometries applied to (1, 0, 1) stay (-2)-vectors."""
    u = MukaiVector(1, (0,) * lat.rank, 1)
    for _ in range(rng.randint(0, 3)):
        shift = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        u = apply_translate(shift, u, lat)
        if rng.random() < 0.3:
            u = -u
        if rng.random() < 0.3:
            u = dual(u)
    return u


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture
def gram2() -> EvenLattice:
    """The default surface: Pic = Z H with (H^2) = 2."""
    return EvenLattice(((2,),))
