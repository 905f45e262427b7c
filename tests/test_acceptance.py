"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Wall-clock budgets follow the stated targets; they are generous
on current hardware but real, so a pathological regression fails loudly.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from plumbcalc.arith import cf_eval, hj_expand
from plumbcalc.lattice import (
    GramLattice,
    determinant,
    e8_gram,
    isometric,
    minimalize,
    max_char_square,
    recognize_e8,
    wu_class,
)
from plumbcalc.lens import (
    SurgeryDescriptor,
    d_from_plumbing,
    d_surgery,
    lens_d,
    lens_d_all,
    lens_d_oracle,
)
from plumbcalc.plumbing import (
    BrieskornTriple,
    SeifertData,
    graph_to_gram,
    mubar,
    negdef_plumbing,
    seifert_to_plumbing,
)
from plumbcalc.families import (
    FAMILY_IDS,
    REDUCED_ENDPOINT_SEIFERT,
    classify_e8_brieskorn,
    family_final_lattice,
    family_triple,
    surgery_parameters,
    theorem_bound,
    verify_unbounded_gap,
)

from test_lattice import box_char_max, random_tree_gram, _random_negdef_unimodular


def test_criterion_01_d_of_sigma235_and_sigma237():
    """d(Sigma(2,3,5)) = 2 and d(Sigma(2,3,7)) = 0, each under a second."""
    t0 = time.monotonic()
    assert d_from_plumbing(negdef_plumbing(BrieskornTriple(2, 3, 5))).value == 2
    assert time.monotonic() - t0 < 1.0
    t0 = time.monotonic()
    assert d_from_plumbing(negdef_plumbing(BrieskornTriple(2, 3, 7))).value == 0
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_d_of_sigma_2_3_12n5_family():
    """d(Sigma(2, 3, 12n+5)) = 2 for n = 0..10, within 30 seconds."""
    t0 = time.monotonic()
    for n in range(0, 11):
        triple = BrieskornTriple(2, 3, 12 * n + 5)
        assert d_from_plumbing(negdef_plumbing(triple)).value == 2, n
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_mubar_is_minus_one_for_all_families():
    """mu-bar = -1 for all twelve families at n = 1..5 (60 cases), in a minute."""
    t0 = time.monotonic()
    for fam in FAMILY_IDS:
        for n in range(1, 6):
            g = negdef_plumbing(family_triple(fam, n))
            assert mubar(g) == -1, (fam, n)
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_final_chains_are_plus_e8_with_isometry():
    """Rank-8 endpoint chains of (i)-(iv) recognize as +E8 and an explicit
    isometry against the negated E8 tree confirms it."""
    plus_e8_tree = e8_gram(1)
    for fam in ("i", "ii", "iii", "iv"):
        final = family_final_lattice(fam, 1)
        assert recognize_e8(final) == 1, fam
        assert isometric(final, plus_e8_tree) is not None, fam


def test_criterion_05_corrected_endpoint_and_recorded_discrepancy():
    """S(2;(3,2),(4,3),(7,4)) is +E8; the literal branch data with (5,4) in
    place of (4,3) has determinant 4 and must fail, which is itself the
    recorded discrepancy check."""
    corrected = graph_to_gram(seifert_to_plumbing(REDUCED_ENDPOINT_SEIFERT))
    assert recognize_e8(corrected) == 1
    literal = graph_to_gram(seifert_to_plumbing(SeifertData(2, ((3, 2), (5, 4), (7, 4)))))
    assert abs(determinant(literal)) == 4
    assert recognize_e8(literal) is None


def test_criterion_06_correction_term_bounds_n_1_to_6():
    """Theorem bounds via d_surgery for n = 1..6, plus family (i)'s exact
    witness pattern from the closed forms, in a minute."""
    t0 = time.monotonic()
    for fam in ("i", "ii", "iii", "iv"):
        for n in range(1, 7):
            sp = surgery_parameters(fam, n)
            res = d_surgery(sp.descriptor())
            assert res.value >= theorem_bound(fam, n), (fam, n)
    # family (i) witness values: top - bottom == n+1 (odd n) / n (even n),
    # reproduced from the recursion at the reconciled witness label
    for n in range(1, 7):
        sp = surgery_parameters("i", n)
        w = sp.witness_label()
        top = lens_d(sp.p, sp.q, (sp.k * w + sp.descriptor().c) % sp.p)
        bottom = lens_d(sp.p, 1, w)
        if n % 2 == 1:
            assert top == Fraction(224 * n**3 + 8 * n * n - 95 * n + 25, 4 * sp.p)
            assert bottom == Fraction(-(52 * n * n - 37 * n + 7), 4 * sp.p)
            assert top - bottom == n + 1
        else:
            assert top == Fraction(224 * n**3 - 216 * n * n + 73 * n - 8, 4 * sp.p)
            assert bottom == Fraction(-(52 * n * n - 41 * n + 8), 4 * sp.p)
            assert top - bottom == n
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_cross_method_surgery_equals_plumbing():
    """d_surgery == d_from_plumbing exactly for (i)-(iv), n = 1..10, in 2 min."""
    t0 = time.monotonic()
    for fam in ("i", "ii", "iii", "iv"):
        for n in range(1, 11):
            sp = surgery_parameters(fam, n)
            via_surgery = d_surgery(sp.descriptor()).value
            via_plumbing = d_from_plumbing(negdef_plumbing(family_triple(fam, n))).value
            assert via_surgery == via_plumbing, (fam, n)
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_lens_oracle_equivalence_up_to_40():
    """multiset(lens_d_all) == multiset(lens_d_oracle) for all L(p, q) with
    2 <= p <= 40, within 2 minutes."""
    t0 = time.monotonic()
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert sorted(lens_d_all(p, q).values()) == sorted(lens_d_oracle(p, q).values()), (p, q)
    assert time.monotonic() - t0 < 120.0


def test_criterion_09_classification_of_e8_brieskorn_spheres():
    """The scan over coprime triples up to the guard bound 400 returns
    exactly Sigma(2,3,5) and Sigma(3,4,7), within 5 minutes."""
    t0 = time.monotonic()
    assert classify_e8_brieskorn(400) == [(2, 3, 5), (3, 4, 7)]
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_unbounded_gap_family_i():
    """rank(minimal part) >= 4d for family (i), n = 1..4; the lower bound on
    the minimal-sublattice invariant minus 8 clears 0 at n <= 2 and 8 at
    n >= 3, growing with the theorem bound."""
    floors = {1: 0, 2: 0, 3: 8, 4: 8}
    for n in range(1, 5):
        rep = verify_unbounded_gap("i", n)
        assert rep.passed, (n, rep.checks)
        d_val = Fraction(rep.values["d"])
        assert rep.values["minimal_rank"] >= 4 * d_val
        assert rep.values["minimal_rank"] - 8 >= floors[n]
        assert rep.values["minimal_rank"] - 8 >= 4 * theorem_bound("i", n) - 8


def test_criterion_11_property_suites():
    """Wu re-substitution on 200 random odd-determinant trees; box equals
    enlarged box on small lattices; minimalize cancellation under 20 random
    orderings; continued-fraction round trips through p = 60."""
    # Wu classes
    rng = random.Random(20240814)
    found = 0
    while found < 200:
        L = random_tree_gram(rng, rng.randint(1, 9))
        if determinant(L) % 2 == 0:
            continue
        found += 1
        w = wu_class(L)
        for i in range(L.rank):
            e = [1 if j == i else 0 for j in range(L.rank)]
            assert (L.pairing(w, e) - L.rows[i][i]) % 2 == 0

    # box vs 3x-enlarged box
    rng = random.Random(8)
    for L in _random_negdef_unimodular(rng, count=8, max_rank=4, max_entry=5):
        got = max_char_square(L).square
        assert got == box_char_max(L, 1) == box_char_max(L, 3)

    # cancellation under random orderings of the basis (Gram P^T G P)
    L = e8_gram(-1).direct_sum(GramLattice.diag(-1, -1))
    baseline = minimalize(L).minimal
    for seed in range(20):
        perm = random.Random(seed).sample(range(L.rank), L.rank)
        res = minimalize(GramLattice(tuple(tuple(L.rows[i][j] for j in perm) for i in perm)))
        assert res.minimal.rank == baseline.rank
        assert isometric(res.minimal, baseline) is not None

    # continued-fraction round trips
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                word = hj_expand(Fraction(p, q))
                assert cf_eval(word) == Fraction(p, q)
                assert len(word) <= p
