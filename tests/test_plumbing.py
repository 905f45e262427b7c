import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest

import plumbcalc.lattice
import plumbcalc.plumbing
from plumbcalc.arith import NotExpandableError, _hj_word, mod_inverse
from plumbcalc.cli import main
from plumbcalc.lattice import (
    Definiteness,
    GramLattice,
    NotNegativeDefiniteError,
    NotUnimodularError,
    SingularMod2Error,
    _eliminate,
    _negdef_unimodular,
    _wu,
    classify,
    determinant,
    e8_gram,
    isometric,
    minimalize,
    max_char_square,
    recognize_e8,
    signature,
)
from plumbcalc.plumbing import (
    BrieskornTriple,
    ChainDiagram,
    NotStarShapedError,
    PatternNotFoundError,
    PlumbingGraph,
    SeifertData,
    brieskorn_seifert,
    brieskorn_star,
    chain_to_gram,
    graph_to_gram,
    mubar,
    negdef_plumbing,
    plumbing_to_seifert,
    rohlin,
    seifert_to_plumbing,
    star_graph,
    star_legs,
    star_mubar,
    twist_reduce,
    ue_spin_bound,
    _tree_eliminate,
)
from plumbcalc.families import FAMILY_IDS, family_triple
from plumbcalc.lens import LensSpace, SurgeryDescriptor, d_brieskorn, d_from_plumbing


def brieskorn_rank(p: int, q: int, r: int) -> int:
    """The rank of ``negdef_plumbing`` in integers: the leg at a is -HJ(a/(a - (product of the others)^-1 mod a))."""
    return 1 + sum(len(_hj_word(a, a - pow(x * y, -1, a))) for a, x, y in ((p, q, r), (q, p, r), (r, p, q)))


def minus_e8_tree() -> PlumbingGraph:
    """Star with center -2 and legs of -2s of lengths 4, 2, 1."""
    return star_graph(-2, [[-2] * 4, [-2] * 2, [-2]])


# ---------------------------------------------------------------------------
# constructors take integers only


@pytest.mark.parametrize(
    "build",
    [
        lambda x: BrieskornTriple(x, 3, 5),
        lambda x: GramLattice(((x,),)),
        lambda x: PlumbingGraph((x,), ()),
        lambda x: PlumbingGraph((-2, -2, -2), ((0, 1), (1, x))),
        lambda x: SeifertData(x, ((2, 1),)),
        lambda x: SeifertData(1, ((x, 1),)),
        lambda x: ChainDiagram((2, x)),
        lambda x: ChainDiagram((2, 2, 2), (0, x)),
        lambda x: LensSpace(x, 1),
        lambda x: LensSpace(7, x),
        lambda x: SurgeryDescriptor(7, 2, x),
    ],
)
def test_constructors_refuse_non_integers(build):
    """A float or a Fraction is refused, not truncated (BrieskornTriple(2.5,
    3, 5) was Sigma(2, 3, 5), and GramLattice(((3/2,),)) stored 1), while the
    same value as an int is accepted."""
    build(2)
    for x in (2.5, Fraction(5, 2), 2.0, Fraction(2)):
        with pytest.raises(TypeError):
            build(x)


# ---------------------------------------------------------------------------
# graphs and Gram matrices


class TestGraphToGram:
    def test_single_vertex(self):
        g = PlumbingGraph((5,), ())
        assert graph_to_gram(g).rows == ((5,),)

    def test_e8_tree_is_minus_e8(self):
        gram = graph_to_gram(minus_e8_tree())
        assert recognize_e8(gram) == -1
        assert signature(gram).sigma == -8
        assert determinant(gram) == 1

    def test_star_with_minus_one_center(self):
        g = star_graph(-1, [[-2], [-2], [-2]])
        gram = graph_to_gram(g)
        # cofactor oracle by hand: det = -1*(-2)^3 - 3*(-2)^2*... use package
        # determinant against an independently computed value:
        # det(-1; three -2 legs) = (-2)^3 * (-1 - 3*(1/-2)) = -8 * 1/2 = -4
        assert determinant(gram) == -4

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            PlumbingGraph((1, 1, 1), ((0, 1), (1, 2), (0, 2)))  # cycle
        with pytest.raises(ValueError):
            PlumbingGraph((1, 1), ((0, 0),))  # self-loop
        with pytest.raises(ValueError):
            PlumbingGraph((1, 1, 1, 1), ((0, 1), (2, 3), (1, 2), (0, 3)))
        # n - 1 edges, but vertex 0 does not reach every vertex
        with pytest.raises(ValueError, match="connected"):
            PlumbingGraph((1, 1, 1, 1), ((0, 1), (0, 1), (2, 3)))  # a repeated edge
        with pytest.raises(ValueError, match="connected"):
            PlumbingGraph((1, 1, 1, 1), ((0, 1), (1, 2), (0, 2)))  # a cycle and an isolated vertex

    def test_json_round_trip(self):
        g = minus_e8_tree()
        data = json.loads(json.dumps(g.to_json()))
        assert PlumbingGraph.from_json(data) == g


class TestChains:
    def test_single_framing(self):
        assert chain_to_gram(ChainDiagram((7,))).rows == ((7,),)

    def test_marked_chain_gram(self):
        c = ChainDiagram((2, 2, 2, 2, 2, 2, 4, 2), (5, 2))
        gram = chain_to_gram(c)
        assert gram.rows == (  # tridiagonal, the marked link (5, 6) of multiplicity 2
            (2, 1, 0, 0, 0, 0, 0, 0),
            (1, 2, 1, 0, 0, 0, 0, 0),
            (0, 1, 2, 1, 0, 0, 0, 0),
            (0, 0, 1, 2, 1, 0, 0, 0),
            (0, 0, 0, 1, 2, 1, 0, 0),
            (0, 0, 0, 0, 1, 2, 2, 0),
            (0, 0, 0, 0, 0, 2, 4, 1),
            (0, 0, 0, 0, 0, 0, 1, 2),
        )
        assert recognize_e8(gram) == 1

    def test_all_three_endpoint_chains_are_plus_e8(self):
        chains = [
            ChainDiagram((2, 2, 2, 2, 2, 2, 4, 2), (5, 2)),   # 2^[6] .(2) 4 . 2
            ChainDiagram((2, 2, 2, 4, 2, 2, 2, 2), (3, 2)),   # 2^[3] . 4 .(2) 2^[4]
            ChainDiagram((2, 2, 2, 2, 4, 2, 2, 2), (3, 2)),   # 2^[4] .(2) 4 . 2^[3]
        ]
        for c in chains:
            assert recognize_e8(chain_to_gram(c)) == 1


class TestTwistReduce:
    def test_family_chain_reduction(self):
        # 2^[6] . n . 0 .(2) (4-4n) . 2  ->  2^[6] .(2) 4 . 2 for every n
        for n in (0, 1, 2, 5, -3):
            c = ChainDiagram((2, 2, 2, 2, 2, 2, n, 0, 4 - 4 * n, 2), (7, 2))
            red = twist_reduce(c)
            assert red == ChainDiagram((2, 2, 2, 2, 2, 2, 4, 2), (5, 2))
            assert red.rank == c.rank - 2

    def test_mirrored_pattern(self):
        # 2^[5] . (2-4n) .(2) 0 . n . 4 . 2 reduces with the 0 on the right
        n = 3
        c = ChainDiagram((2, 2, 2, 2, 2, 2 - 4 * n, 0, n, 4, 2), (5, 2))
        red = twist_reduce(c)
        assert red == ChainDiagram((2, 2, 2, 2, 2, 2, 4, 2), (5, 2))

    def test_zero_twist_is_identity_on_framing(self):
        # q=5, n=0, 0, marked k=3, p=9: p + 0*k^2 = p
        c = ChainDiagram((5, 0, 0, 9, 3), (2, 3))
        red = twist_reduce(c)
        assert red == ChainDiagram((5, 9, 3), (0, 3))

    def test_pattern_not_found(self):
        with pytest.raises(PatternNotFoundError):
            twist_reduce(ChainDiagram((2, 2, 2)))
        with pytest.raises(PatternNotFoundError):
            twist_reduce(ChainDiagram((2, 2, 2, 2), (1, 2)))

    def test_determinant_preserved_up_to_sign(self):
        # |det| (and hence its parity) is preserved on every family chain;
        # the even/odd *type* is not preserved for odd n, where the pre-twist
        # chain carries the odd framing n on its diagonal while the reduced
        # chain is even
        from plumbcalc.families import family_chain

        for fam in ("i", "ii", "iii", "iv"):
            for n in range(1, 6):
                c = family_chain(fam, n)
                red = twist_reduce(c)
                d0 = determinant(chain_to_gram(c))
                d1 = determinant(chain_to_gram(red))
                assert abs(d0) == abs(d1) == 1
                assert all(x % 2 == 0 for x in red.framings)


# ---------------------------------------------------------------------------
# Seifert data


class TestSeifert:
    def test_to_plumbing_e8(self):
        s = SeifertData(-2, ((5, -4), (3, -2), (2, -1)))
        g = seifert_to_plumbing(s)
        assert g == minus_e8_tree()

    def test_no_branches(self):
        assert seifert_to_plumbing(SeifertData(7)) == PlumbingGraph((7,), ())

    def test_corrected_minus_sigma347_data_is_plus_e8(self):
        s = SeifertData(2, ((3, 2), (4, 3), (7, 4)))
        assert s.euler_number() == Fraction(1, 84)
        gram = graph_to_gram(seifert_to_plumbing(s))
        assert recognize_e8(gram) == 1

    def test_unexpandable_branch(self):
        with pytest.raises(NotExpandableError):
            seifert_to_plumbing(SeifertData(0, ((5, 7),)))

    def test_from_plumbing_e8(self):
        s = plumbing_to_seifert(minus_e8_tree())
        assert s.e == -2
        assert sorted(s.branches) == [(2, -1), (3, -2), (5, -4)]

    def test_single_vertex(self):
        assert plumbing_to_seifert(PlumbingGraph((9,), ())) == SeifertData(9)

    def test_star_legs_of_a_lone_vertex_and_a_path(self):
        """A lone vertex is its own centre, with no legs; a path is read from its lowest-index endpoint."""
        assert star_legs(PlumbingGraph((9,), ())) == (0, [])
        assert star_legs(PlumbingGraph((-2, -3, -4), ((0, 2), (2, 1)))) == (0, [[2, 1]])
        assert star_legs(PlumbingGraph((-2, -3, -4), ((1, 0), (0, 2)))) == (1, [[0, 2]])

    def test_not_star_shaped(self):
        # two degree-3 vertices
        g = PlumbingGraph((1,) * 6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
        with pytest.raises(NotStarShapedError):
            plumbing_to_seifert(g)

    def test_round_trip_star(self):
        # minimal-model stars (all weights <= -2) round-trip isometrically;
        # weight -1 graphs can legitimately blow down, so they stay out here
        rng = random.Random(11)
        for _ in range(25):
            legs = []
            for _ in range(rng.randint(0, 3)):
                legs.append([rng.choice((-4, -3, -2)) for _ in range(rng.randint(1, 4))])
            g = star_graph(rng.randint(-5, -2), legs)
            s = plumbing_to_seifert(g)
            g2 = seifert_to_plumbing(s)
            assert graph_to_gram(g2).rank == graph_to_gram(g).rank
            if g.rank <= 12:
                assert isometric(graph_to_gram(g), graph_to_gram(g2)) is not None

    def test_normalization(self):
        s = SeifertData(-2, ((5, -4), (3, -2), (2, -1)))
        assert s.normalized() == SeifertData(1, ((2, 1), (3, 1), (5, 1)))
        assert s.normalized().euler_number() == s.euler_number()

    def test_multiplicity_one_branch_absorbed(self):
        s = SeifertData(3, ((1, 2), (5, 2)))
        assert s.normalized() == SeifertData(1, ((5, 2),))
        g = seifert_to_plumbing(s)
        assert g.weights[0] == 1


class TestBrieskorn:
    def test_sigma235_standard_is_e8_tree(self):
        g = negdef_plumbing(BrieskornTriple(2, 3, 5))
        gram = graph_to_gram(g)
        assert recognize_e8(gram) == -1
        assert isometric(gram, graph_to_gram(minus_e8_tree())) is not None
        # same tree: legs of -2s with lengths {1, 2, 4} around a -2 center
        assert sorted(g.weights) == [-2] * 8

    def test_sigma235_data(self):
        data = brieskorn_seifert(BrieskornTriple(2, 3, 5))
        assert data == SeifertData(1, ((2, 1), (3, 1), (5, 1)))
        assert data.euler_number() == Fraction(-1, 30)

    def test_data_does_not_depend_on_the_order_of_the_triple(self):
        """Every order of the multiplicities gives the same data, branches sorted and already normalized."""
        for triple in [(2, 3, 5), (2, 3, 7), (3, 4, 7)]:
            datas = [brieskorn_seifert(BrieskornTriple(*t)) for t in permutations(triple)]
            assert len(datas) == 6 and all(d == datas[0] == datas[0].normalized() for d in datas), triple
            assert [a for a, _ in datas[0].branches] == sorted(triple)

    def test_sigma237(self):
        data = brieskorn_seifert(BrieskornTriple(2, 3, 7))
        assert data.euler_number() == Fraction(-1, 42)
        g = negdef_plumbing(BrieskornTriple(2, 3, 7))
        res = minimalize(graph_to_gram(g))
        assert res.minimal.rank == 0  # the lattice is diagonalized

    def test_sigma347_reversed(self):
        data = brieskorn_seifert(BrieskornTriple(3, 4, 7)).negated().normalized()
        assert data == SeifertData(2, ((3, 2), (4, 3), (7, 4)))
        gram = graph_to_gram(seifert_to_plumbing(data))
        assert recognize_e8(gram) == 1

    def test_coprimality_enforced(self):
        from plumbcalc.arith import NotCoprimeError

        with pytest.raises(NotCoprimeError):
            BrieskornTriple(2, 3, 4)

    def test_negdef_unimodular_scan_up_to_60(self):
        # every coprime triple p < q < r <= 60 yields a negative-definite
        # plumbing with |det| = 1
        count = 0
        for p in range(2, 61):
            for q in range(p + 1, 61):
                if gcd(p, q) != 1:
                    continue
                for r in range(q + 1, 61):
                    if gcd(p, r) != 1 or gcd(q, r) != 1:
                        continue
                    # negdef_plumbing runs its own |det| = 1 and definiteness
                    # checks; they raise on failure
                    negdef_plumbing(BrieskornTriple(p, q, r))
                    count += 1
        assert count > 4000

    def test_negdef_plumbing_check_names_the_triple(self, monkeypatch):
        # a construction that went wrong: negative definite, but |det| = 43
        wrong = star_graph(-2, [[-2], [-3], [-7]])
        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", lambda center_weight, legs: wrong)
        with pytest.raises(AssertionError, match=r"plumbing of \(2, 3, 7\): .*\|det\| = 43"):
            negdef_plumbing(BrieskornTriple(2, 3, 7))

    def test_integer_rank_matches_both_orientations_up_to_45(self):
        # the integer rank equals the rank of the negative-definite plumbing.
        # The reversed orientation's star is that plumbing negated (weights
        # negated, the same edges), which is why classify-e8 tests the
        # negative-definite star only
        count = 0
        for p in range(2, 46):
            for q in range(p + 1, 46):
                if gcd(p, q) != 1:
                    continue
                for r in range(q + 1, 46):
                    if gcd(p, r) != 1 or gcd(q, r) != 1:
                        continue
                    T = BrieskornTriple(p, q, r)
                    G = negdef_plumbing(T)
                    assert brieskorn_rank(p, q, r) == G.rank, T
                    data = brieskorn_seifert(T)
                    reversed_data = data.negated().normalized()
                    assert data.euler_number() == Fraction(-1, p * q * r), T
                    assert reversed_data.euler_number() == Fraction(1, p * q * r), T
                    rev = seifert_to_plumbing(reversed_data)
                    assert rev.weights == tuple(-w for w in G.weights), T
                    assert rev.edges == G.edges, T
                    count += 1
        assert count > 3000


# ---------------------------------------------------------------------------
# mu-bar, Rohlin, spin bound


class TestMuBar:
    def test_e8_tree(self):
        assert mubar(minus_e8_tree()) == -1

    def test_single_minus_one(self):
        assert mubar(PlumbingGraph((-1,), ())) == 0

    def test_family_i_members(self):
        for n in range(1, 5):
            g = negdef_plumbing(BrieskornTriple(2, 8 * n - 3, 14 * n - 5))
            assert mubar(g) == -1

    def test_sigma237_value(self):
        assert mubar(negdef_plumbing(BrieskornTriple(2, 3, 7))) == 1

    def test_orientation_antisymmetry(self):
        for triple in (BrieskornTriple(2, 3, 5), BrieskornTriple(3, 4, 7), BrieskornTriple(2, 3, 7)):
            std = mubar(negdef_plumbing(triple))
            rev_data = brieskorn_seifert(triple).negated().normalized()
            rev = mubar(seifert_to_plumbing(rev_data))
            assert rev == -std

    def test_a_wu_set_spans_no_edge(self):
        """Each vertex of the Wu set has an even number of neighbours in it (G w == diag G mod 2), and a forest with
        every degree even has no edge: on 1000 seeded odd-determinant trees no edge joins two vertices of the set,
        so ``mubar``'s sum of the set's weights is the whole w^T Gram w, pinned here against the dense norm."""
        rng, seen, spread = random.Random(36), 0, 0
        while seen < 1000:
            G = _random_tree(rng, rng.randint(1, 14), -6, 6)
            elim = _tree_eliminate(G)
            if elim.det % 2 == 0:
                continue
            seen += 1
            w = _wu(elim, G.weights)
            assert not any(w[a] and w[b] for a, b in G.edges), G
            assert mubar(G) == Fraction(elim.inertia.sigma - graph_to_gram(G).norm(w), 8), G
            spread += sum(w) >= 3
        assert spread >= 300, spread

    def test_rohlin(self):
        assert rohlin(minus_e8_tree()) == 1
        assert rohlin(negdef_plumbing(BrieskornTriple(2, 3, 7))) == 1
        assert rohlin(PlumbingGraph((-1,), ())) == 0


class TestUeSpinBound:
    def test_sigma235(self):
        assert ue_spin_bound(minus_e8_tree()) == (8, 8, -1)

    def test_family_i_n2(self):
        g = negdef_plumbing(BrieskornTriple(2, 13, 23))
        assert ue_spin_bound(g) == (8, 8, -1)

    def test_sigma237_no_positive_cap(self):
        bound = ue_spin_bound(negdef_plumbing(BrieskornTriple(2, 3, 7)))
        assert bound.max_b2 == 0
        assert bound.b2_mod16 == 8

    def test_requires_a_negative_definite_unimodular_star(self):
        # the reversed orientation of Sigma(2, 3, 5) bounds the positive E8 star
        positive = seifert_to_plumbing(brieskorn_seifert(BrieskornTriple(2, 3, 5)).negated().normalized())
        with pytest.raises(ValueError, match="negative-definite"):
            ue_spin_bound(positive)
        with pytest.raises(ValueError, match="negative-definite"):
            ue_spin_bound(star_graph(-2, [[-2], [-3], [-7]]))  # negative definite, |det| = 43


class TestStarMubar:
    """``star_mubar`` reads mu-bar off a star's centre weight and legs; tree ``mubar`` is its oracle."""

    def test_matches_the_tree_on_coprime_triples(self):
        rng, seen = random.Random(34), 0
        while seen < 2000:
            T = sorted(rng.sample(range(2, 600), 3))
            if gcd(T[0], T[1]) != 1 or gcd(T[0], T[2]) != 1 or gcd(T[1], T[2]) != 1:
                continue
            seen += 1
            T = BrieskornTriple(*T)
            assert star_mubar(*brieskorn_star(T)) == mubar(negdef_plumbing(T)), T

    def test_matches_the_tree_on_every_family(self):
        for fam in FAMILY_IDS:
            for n in range(1, 31):
                T = family_triple(fam, n)
                assert star_mubar(*brieskorn_star(T)) == mubar(negdef_plumbing(T)) == -1, (fam, n)

    def test_matches_the_tree_on_seifert_homology_spheres(self):
        # omega_i = -(A/alpha_i)^-1 mod alpha_i and e0 = -(1 + sum omega_i A/alpha_i) / A give |det| = 1
        rng, seen = random.Random(35), 0
        while seen < 500:
            alphas = rng.sample(range(2, 60), rng.randint(3, 5))
            if any(gcd(a, b) != 1 for i, a in enumerate(alphas) for b in alphas[:i]):
                continue
            seen += 1
            A = prod(alphas)
            omegas = [-mod_inverse(A // a, a) % a for a in alphas]
            e0, rem = divmod(-(1 + sum(w * (A // a) for a, w in zip(alphas, omegas))), A)
            assert rem == 0
            legs = [[-c for c in _hj_word(a, w)] for a, w in zip(alphas, omegas)]
            assert star_mubar(e0, legs) == mubar(star_graph(e0, legs)), (e0, legs)

    def test_brieskorn_star_is_the_plumbing(self):
        for T in (BrieskornTriple(2, 3, 5), BrieskornTriple(2, 3, 7), BrieskornTriple(5, 3498, 4997)):
            assert star_graph(*brieskorn_star(T)) == negdef_plumbing(T)

    @pytest.mark.parametrize(
        "center, legs, error, match",
        [
            (-2, [[-2], [-3], [-7]], NotUnimodularError, r"\|det\| = 43"),
            (-1, [[-2], [-3], [-5]], NotNegativeDefiniteError, "= -1 <= 0"),  # Sigma(2,3,5) at centre -1: indefinite
            (-1, [[-2], [-2]], NotNegativeDefiniteError, "= 0 <= 0"),  # singular
            (-2, [[-2], [-1], [-7]], ValueError, "leg weight -1 is above -2"),
        ],
    )
    def test_refuses_what_the_tree_check_refuses(self, center, legs, error, match):
        with pytest.raises(error, match=match):
            star_mubar(center, legs)
        if error is not ValueError:  # the tree's one elimination refuses the same star by the same class
            with pytest.raises(error):
                _negdef_unimodular(star_graph(center, legs)._elimination)


def test_plumbing_invariants_build_no_dense_gram(monkeypatch, capsys, tmp_path):
    """mu-bar (`mubar --graph` too), the spin bound and negdef_plumbing's check
    run on the integer tree kernel, d (both entries) on the star's legs:
    building a dense Gram matrix or running the Fraction kernel fails the test,
    and the Fractions a call builds do not grow with the rank.
    negdef_plumbing, from the triple to its checked star, builds no Fraction
    at all."""

    def dense(*args, **kwargs):
        raise AssertionError("a dense Gram matrix was built")

    def fraction_kernel(*args, **kwargs):
        raise AssertionError("the Fraction elimination ran")

    monkeypatch.setattr(plumbcalc.plumbing, "graph_to_gram", dense)
    monkeypatch.setattr(GramLattice, "__init__", dense)
    monkeypatch.setattr(plumbcalc.lattice, "_eliminate", fraction_kernel)
    g = negdef_plumbing(BrieskornTriple(2, 13, 23))
    assert mubar(g) == -1
    assert ue_spin_bound(g) == (8, 8, -1)
    assert d_from_plumbing(g).value == 2
    assert mubar(negdef_plumbing(BrieskornTriple(5, 3498, 4997))) == -1  # family (v), n = 100: rank 2511
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PlumbingGraph((0, 3, 5, 0), ((0, 1), (1, 2), (2, 3))).to_json()))
    assert main(["mubar", "--graph", str(path)]) == 0 and capsys.readouterr().out == "0\n"

    built = Counter()
    new = Fraction.__new__
    for n in (2, 100):  # ranks 61 and 2511
        calls = {
            "negdef_plumbing": lambda: negdef_plumbing(family_triple("v", n)),
            "mubar": lambda: mubar(g),
            "ue_spin_bound": lambda: ue_spin_bound(g),
            "d_from_plumbing": lambda: d_from_plumbing(g),
            "d_brieskorn": lambda: d_brieskorn(family_triple("v", n)),
        }
        g = negdef_plumbing(family_triple("v", n))
        for name, call in calls.items():
            monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.update([(name, n)]) or new(cls, *a, **k))
            call()
            monkeypatch.setattr(Fraction, "__new__", new)
    assert built["negdef_plumbing", 2] == built["negdef_plumbing", 100] == 0, built
    for name in ("mubar", "ue_spin_bound", "d_from_plumbing"):
        assert 0 < built[name, 2] == built[name, 100] < 30, built
    # both d entries take the one path on the star's legs, in integers: one Fraction, the value
    assert built["d_brieskorn", 2] == built["d_brieskorn", 100] == built["d_from_plumbing", 2] == 1, built


def _random_tree(rng: random.Random, n: int, lo: int, hi: int) -> PlumbingGraph:
    """A seeded random tree on n shuffled vertices with weights in [lo, hi]."""
    perm = rng.sample(range(n), n)
    return PlumbingGraph(tuple(rng.randint(lo, hi) for _ in range(n)), tuple((perm[rng.randrange(v)], perm[v]) for v in range(1, n)))


def test_tree_kernel_matches_the_fraction_kernel():
    """The integer tree kernel against lattice._eliminate on 1201 seeded trees:
    det, inertia, solve, the Wu class and the negative-definite unimodular
    check, each read by the same name from both results.  Stars, random trees
    and trees with weights in [-2, 2], a third of them with a zero-pivot block;
    in the path (0, 3, 5, 0) every root leaves a zero-weight leaf as a subtree."""
    rng = random.Random(1111)
    path = PlumbingGraph((0, 3, 5, 0), ((0, 1), (1, 2), (2, 3)))
    legs = lambda: [[rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(3, 5))]
    trees = [path] + [star_graph(rng.randint(-6, 6), legs()) for _ in range(400)]
    trees += [_random_tree(rng, rng.randint(1, 12), -6, 6) for _ in range(400)]
    trees += [_random_tree(rng, rng.randint(2, 16), -2, 2) for _ in range(400)]
    counts = Counter()
    for G in trees:
        ref, elim = _eliminate(graph_to_gram(G).rows), _tree_eliminate(G)
        assert (elim.det, elim.inertia) == (ref.det, ref.inertia), G
        counts["block"] += max(elim.pair) >= 0
        checks = []
        for e in (elim, ref):  # one check, so one verdict and one message for both kernels
            try:
                checks.append(_negdef_unimodular(e) is e)
            except ValueError as exc:
                checks.append((type(exc), str(exc)))
        assert checks[0] == checks[1], G
        counts["negdef_unimodular"] += checks[0] is True
        if not elim.det:
            counts["singular"] += 1
            for e in (elim, ref):
                with pytest.raises(ZeroDivisionError):
                    e.solve(G.weights)
            continue
        rhs = [elim.det * rng.randint(-9, 9) for _ in G.weights]
        assert elim.solve(rhs) == ref.solve(rhs), G
        if elim.det % 2:
            counts["odd"] += 1
            assert _wu(elim, G.weights) == _wu(ref, G.weights), G
        else:
            for e in (elim, ref):
                with pytest.raises(SingularMod2Error):
                    _wu(e, G.weights)
    assert (_tree_eliminate(path).det, _tree_eliminate(path).inertia) == (1, (2, 2, 0))
    assert 3 * counts["block"] >= len(trees) >= 1000 and counts["singular"] and counts["odd"] and counts["negdef_unimodular"], counts


def test_tree_kernel_checks_every_division():
    # G x = (1, 0) has the solution (-2/3, -1/3) on the det 3 path (-2, -2)
    with pytest.raises(AssertionError, match="no integral solution"):
        _tree_eliminate(PlumbingGraph((-2, -2), ((0, 1),))).solve([1, 0])
    assert _tree_eliminate(PlumbingGraph((-2, -2), ((0, 1),))).solve([3, 0]) == [-2, -1]
