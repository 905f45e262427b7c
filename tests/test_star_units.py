"""The unit-vector count of a negative-definite star at its centre, against Fincke-Pohst."""

import random
from collections import Counter

import pytest

from plumbcalc.lattice import NotNegativeDefiniteError, _closest_point, _Enumerator, minimalize
from plumbcalc.plumbing import ChainDiagram, _leg_continuants, _leg_minima, chain_to_gram, graph_to_gram, star_graph, star_unit_pairs


def _coupled_leg_minimum(weights: list[int], s: int) -> tuple[int, int]:
    """(alpha min_y Q(y - s Q^-1 e_1), its number of minimizers) by Fincke-Pohst on the leg's chain,
    Q = -G: the minimum of Q(y) - 2 s y_1 plus s^2 omega/alpha, times alpha."""
    elim = chain_to_gram(ChainDiagram(tuple(weights)))._elimination
    enum, alpha = _Enumerator(elim), abs(elim.det)
    center = [int(-s * x) for x in elim.solve([alpha] + [0] * (len(weights) - 1))]  # s Q^-1 e_1 over alpha
    value, _ = _closest_point(enum, center, alpha)
    leaves = []
    enum.run(center, alpha, int(value * enum.scale(alpha)), lambda x, v: leaves.append(v))
    return int(alpha * value), len(leaves)


def test_leg_tables_match_fincke_pohst_at_every_residue():
    rng = random.Random(18)
    kept = 0
    for _ in range(100):
        weights = [-rng.choice((2, 2, 3, 4)) for _ in range(rng.randint(1, 4))]
        m = _leg_continuants(weights)
        table = _leg_minima(m)
        for s in range(m[0]):
            f, count = _coupled_leg_minimum(weights, s)
            assert table.get(s) == ((f, count) if f < m[0] else None), (weights, s)
        kept += len(table)
    assert kept > 100  # every table keeps residue 0, and most keep more


def test_unit_pairs_match_minimalize_on_random_stars():
    rng = random.Random(1806)
    pairs, definite = Counter(), 0
    while definite < 300:
        legs = [[-rng.choice((2, 2, 2, 3, 4, 5, 7)) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(3, 4))]
        G = star_graph(-rng.choice((1, 1, 2, 3, 4)), legs)
        if G._elimination.inertia.sign != -1:
            with pytest.raises(NotNegativeDefiniteError):
                star_unit_pairs(G)
            continue
        definite += 1
        k = star_unit_pairs(G)
        assert k == minimalize(graph_to_gram(G)).minus_ones, G
        pairs[min(k, 2)] += 1
    assert min(pairs[0], pairs[1], pairs[2]) >= 5, pairs  # none, one and several pairs all occur


def test_unit_pairs_of_small_lattices():
    assert star_unit_pairs(star_graph(-1, [])) == 1
    assert star_unit_pairs(star_graph(-2, [[-2] * 4, [-2] * 2, [-2]])) == 0  # -E8
    assert star_unit_pairs(star_graph(-1, [[-2], [-3], [-7]])) == 4  # unimodular of rank 4, so -I_4
    with pytest.raises(NotNegativeDefiniteError):
        star_unit_pairs(star_graph(-1, [[-2], [-2], [-2]]))
