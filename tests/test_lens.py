"""Lens-space correction terms: recursion, oracle, and the surgery maximum.

The label-convention anchors here are the load-bearing tests: they pin the
recursion labeling against published closed-form values (families of Brieskorn
spheres surgered to lens spaces), and the oracle equality pins the orientation
conventions of the chain plumbings.
"""

import random
import sys
from fractions import Fraction
from itertools import accumulate, count, cycle, islice
from math import gcd, prod
from operator import mul, sub

import pytest

import plumbcalc.lens
from plumbcalc.arith import NotCoprimeError, _hj_word
from plumbcalc.lattice import _closest_point, _Enumerator, _negdef_unimodular, max_char_square
from plumbcalc.families import surgery_parameters, verify_conjecture
from plumbcalc.guards import GUARDS, ScanGuardExceededError
from plumbcalc.lens import (
    LensSpace,
    SurgeryDescriptor,
    SurgeryResult,
    d_brieskorn,
    d_from_plumbing,
    d_surgery,
    lens_d,
    lens_d_all,
    lens_d_oracle,
    _chain_bounds,
    _chain_minima,
    _chain_route,
    _descent_label,
    _descent_labels,
    _descent_table,
    _step,
    _tau_min,
)
from plumbcalc.plumbing import (
    BrieskornTriple,
    ChainDiagram,
    PlumbingGraph,
    SeifertData,
    _leg_continuants,
    chain_to_gram,
    graph_to_gram,
    mubar,
    negdef_plumbing,
    plumbing_to_seifert,
    seifert_to_plumbing,
    star_graph,
)
from plumbcalc.arith import hj_expand


def _reference_r(p: int, q: int, j: int) -> Fraction:
    """The descent recursion R(p, q, j) as written, over Fractions, unmemoized."""
    if p == 1:
        return Fraction(0)
    return Fraction((2 * j + 1 - p - q) ** 2 - p * q, 4 * p * q) - _reference_r(q, p % q, j % q)


def _dict_descent(p: int, q: int, js) -> dict[int, int]:
    """{j: 4p R(p, q, j)} for recursion labels j in ``js``, 0 <= j < p + q, by the
    label sets {j mod q} down the Euclidean chain and one exact division per label
    back up: the all-labels descent before it became flat tables, kept as an oracle."""
    levels = []
    while p != 1:
        levels.append((p, q, js))
        js = {j % q for j in js}
        p, q = q, p % q
    num = {0: 0}
    for p, q, js in reversed(levels):
        below, num = num, {}
        for j in js:
            num[j], rem = divmod((2 * j + 1 - p - q) ** 2 - p * q - p * below[j % q], q)
            if rem:
                raise AssertionError(f"4p R({p}, {q}, {j}) is not an integer")
    return num


def _table_maximum(desc: SurgeryDescriptor) -> SurgeryResult:
    """The surgery maximum over all p labels, read from the full descent table."""
    p, q, k, c = desc.p, desc.q, desc.k, desc.c
    num = _descent_table(p, q)
    gaps = [num[(q * ((k * i + c) % p + 1) - 1) % p] - (2 * i - p) ** 2 for i in range(p)]
    best = max(gaps)
    winners = tuple(i for i, g in enumerate(gaps) if g == best)
    return SurgeryResult(Fraction(best + p, 4 * p), winners[0], winners)


def _coprime_pairs(rng: random.Random, how_many: int, top: int):
    """Seeded lens parameters (p, q), 2 <= p < top, 0 < q < p coprime to p."""
    pairs = []
    while len(pairs) < how_many:
        p, q = rng.randrange(2, top), 0
        while gcd(p, q) != 1:
            q = rng.randrange(1, p)
        pairs.append((p, q))
    return pairs


class TestLensSpaceType:
    def test_s3(self):
        assert LensSpace(1, 0) == LensSpace(1, 5)
        assert lens_d(1, 0, 0) == 0

    def test_normalization(self):
        assert LensSpace(5, 7).q == 2

    def test_coprimality(self):
        with pytest.raises(NotCoprimeError):
            LensSpace(6, 3)

    def test_error_names_the_q_given(self):
        # q is reduced mod p only after the check: the message shows what the caller passed
        for p, q in ((5, 10), (6, 9), (6, -3), (4, 0)):
            with pytest.raises(NotCoprimeError, match=rf"^L\({p},{q}\) needs q coprime to p$"):
                LensSpace(p, q)


class TestRecursion:
    def test_rp3(self):
        assert sorted(lens_d_all(2, 1).values()) == [Fraction(-1, 4), Fraction(1, 4)]

    def test_l31(self):
        assert sorted(lens_d_all(3, 1).values()) == [Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 2)]

    def test_overhang_periodicity(self):
        # the recursion window 0 <= j < p + q duplicates the first q labels:
        # R(p, q, j + p) == R(p, q, j), so restriction to [0, p) is honest
        for (p, q) in [(5, 2), (5, 3), (7, 3), (23, 2), (12, 5), (40, 17)]:
            for j in range(q):
                assert _descent_label(p, q, j) == _descent_label(p, q, j + p)

    def test_descent_matches_the_fraction_recursion(self):
        """The flat tables, the dict descent and the single-label path against the
        plain recursion R over Fractions: every label of every L(p, q) with p <= 60
        (the overhang too), then seeded labels at p < 10^6."""
        for p in range(1, 61):
            for q in range(1, p) if p > 1 else (0,):
                if gcd(p, q) != 1:
                    continue
                reference = {j: 4 * p * _reference_r(p, q, j) for j in range(p + q)}
                assert _dict_descent(p, q, range(p + q)) == reference
                assert {j: _descent_label(p, q, j) for j in range(p + q)} == reference
                assert _descent_table(p, q) == [reference[j] for j in range(p)]
                public = lens_d_all(p, q)
                assert public == {i: _reference_r(p, q, (q * (i + 1) - 1) % p) for i in range(p)}
                assert all(lens_d(p, q, i) == v for i, v in public.items())
        rng = random.Random(2003)
        for _ in range(200):
            p, q = rng.randrange(2, 10**6), 0
            while gcd(p, q) != 1:
                q = rng.randrange(1, p)
            i = rng.randrange(p)
            assert lens_d(p, q, i) == _reference_r(p, q, (q * (i + 1) - 1) % p), (p, q, i)

    def test_table_matches_the_single_label_path(self):
        """The flat table against one label at a time on seeded L(p, q) up to
        p = 20000, and against the dict descent on a few of them."""
        for n, (p, q) in enumerate(_coprime_pairs(random.Random(2010), 12, 20000)):
            table = _descent_table(p, q)
            assert table == [_descent_label(p, q, j) for j in range(p)], (p, q)
            if n < 3:
                oracle = _dict_descent(p, q, range(p))
                assert table == [oracle[j] for j in range(p)], (p, q)
        p = 19997  # q = 1, 2: a few long residue classes; q = p - 1: many of length 1 or 2
        for q in (1, 2, p - 1):
            assert _descent_table(p, q) == [_descent_label(p, q, j) for j in range(p)], (p, q)

    def test_inconsistent_level_fails_its_exactness_check(self):
        # the level below (5, 2) is N(2, 1, .) = [2, -2], read cyclically; a wrong value
        # gives V(j) = q N(j) that is not a multiple of q = 2, first at j = 1
        assert _step(5, 2, range(5), cycle([2, -2])) == [4 * 5 * _reference_r(5, 2, j) for j in range(5)]
        with pytest.raises(AssertionError, match=r"4p R\(5, 2, 1\) is not an integer"):
            _step(5, 2, range(5), cycle([2, -1]))
        with pytest.raises(AssertionError, match=r"4p R\(7, 3, 0\) is not an integer"):
            _step(7, 3, range(7), cycle([1, 0, 0]))

    def test_deep_descent_chain(self):
        # consecutive Fibonacci numbers F(1501), F(1500) descend one level at a
        # time, 1500 levels: deeper than the interpreter's default recursion limit,
        # which the single label and the chain bounds walk in loops
        q, p = 1, 1
        for _ in range(1499):
            q, p = p, q + p
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)  # for the reference only
        try:
            expected = _reference_r(p, q, (q - 1) % p)
        finally:
            sys.setrecursionlimit(limit)
        assert lens_d(p, q, 0) == expected
        lo, hi = _chain_bounds(p, q)
        rng = random.Random(1500)
        for j in [0, p - 1] + [rng.randrange(p) for _ in range(5)]:
            assert lo <= _descent_label(p, q, j) <= hi, j

    def test_block_walk_matches_the_single_label_path(self):
        """_descent_labels against _descent_label label for label: seeded blocks, repeats
        included, on S^3, L(p, 1), the Fibonacci chain of test_deep_descent_chain and seeded
        L(p, q) up to p = 10^6; and whole tables, which the walk reads as a flat list at once."""
        rng = random.Random(2030)
        q, p = 1, 1
        for _ in range(1499):
            q, p = p, q + p
        for p, q in [(1, 0), (2, 1), (7, 1), (19997, 1), (p, q)] + _coprime_pairs(rng, 40, 10**6):
            for size in (1, 2, 17, 300) if p < 10**6 else (1, 2, 17):
                js = [rng.randrange(p) for _ in range(size)]
                assert _descent_labels(p, q, js) == [_descent_label(p, q, j) for j in js], (p, q, size)
        for p, q in ((1, 0), (2, 1), (23, 2), (40, 17), (233, 144)):
            assert _descent_labels(p, q, list(range(p))) == _descent_table(p, q), (p, q)

    def test_block_walk_fails_its_exactness_check(self, monkeypatch):
        # three labels stop the walk at L(3, 1), whose table [6, -2, -2] is read; one wrong
        # entry moves V(0) = 3 N(7, 3, 0) by 7 at the level above, off the multiples of 3
        assert _descent_labels(7, 3, [0, 1, 2]) == _descent_table(7, 3)[:3]
        monkeypatch.setattr(plumbcalc.lens, "_descent_table", lambda p, q: [7, -2, -2])
        with pytest.raises(AssertionError, match=r"^4p R\(7, 3, 0\) is not an integer$"):
            _descent_labels(7, 3, [0, 1, 2])

    def test_published_value_l23_2(self):
        # the odd-n closed form (224n^3+8n^2-95n+25)/(4p) at n = 1 evaluates
        # to 81/46 at the published label (7n-5)/2 = 1
        assert lens_d(23, 2, 1) == Fraction(81, 46)

    def test_published_value_l150_19(self):
        # even n = 2: label -7n/2 = -7 == 143 and (224n^3-216n^2+73n-8)/(4p)
        assert lens_d(150, 19, (-7) % 150) == Fraction(533, 300)

    def test_published_value_l23_1_at_reconciled_label(self):
        # the published witness formula floor((q+1)/2) - n reads q for p; at
        # the reconciled label floor((p+1)/2) - n = 11 the tabulated value
        # -(52n^2-37n+7)/(4p) = -11/46 is reproduced exactly (so is its
        # mirror label 12)
        assert lens_d(23, 1, 11) == Fraction(-11, 46)
        assert lens_d(23, 1, 12) == Fraction(-11, 46)

    def test_published_value_l150_1_at_reconciled_label(self):
        assert lens_d(150, 1, 73) == Fraction(-67, 300)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            lens_d(5, 2, 5)


class TestConjugationSymmetry:
    def test_multiset_symmetric_under_conjugation(self):
        # conjugation acts on the recursion labels as j -> p + q - 1 - j;
        # in the public labels that is i -> q^{-1} - 1 - i mod p
        for (p, q) in [(5, 2), (7, 3), (9, 2), (11, 4), (12, 5), (15, 4)]:
            qinv = pow(q, -1, p)
            for i in range(p):
                j = (qinv - 1 - i) % p
                assert lens_d(p, q, i) == lens_d(p, q, j)


def _enumeration_oracle(p: int, q: int) -> dict[int, Fraction]:
    """``lens_d_oracle`` as it was before the chain DP, kept as its oracle: one Fincke-Pohst closest-point
    search per coset on the chain's dense Fraction elimination, with the same canonical labels."""
    if p == 1:
        return {0: Fraction(0)}
    word, negate = _chain_route(p, q)
    G = chain_to_gram(ChainDiagram(tuple(-c for c in word)))
    elim = G._elimination
    det = abs(elim.det)
    assert det == p
    a = [int(x) for x in elim.solve([det if i == 0 else 0 for i in range(G.rank)])]
    base = [int(det * x) for x in elim.solve(G.diagonal())]
    enum = _Enumerator(elim)
    out = {}
    for s in range(p):
        u = s * pow(a[0], -1, p) % p
        val, _ = _closest_point(enum, [-(b + 2 * u * x) for b, x in zip(base, a)], 2 * det)
        out[s] = (4 * val - G.rank) / 4 if negate else (G.rank - 4 * val) / 4
    return out


def _random_chains(rng: random.Random, how_many: int, top: int) -> list[tuple[int, ...]]:
    """Seeded chains of 1-10 weights in 2..15 (mostly 2, so long chains stay small) with continuant <= top."""
    chains = []
    while len(chains) < how_many:
        b = tuple(2 if rng.random() < 0.6 else rng.randint(3, 15) for _ in range(rng.randint(1, 10)))
        if _leg_continuants([-c for c in b])[0] <= top:
            chains.append(b)
    return chains


def _in_window(b: tuple[int, ...], u: int, x: tuple[int, ...]) -> bool:
    """Whether every x_j lies in the window ``_chain_minima`` tries at level j given x_{j-1} (x_{-1} = u):
    (2 m_j x_j - N)^2 <= m_j^2 + m_j m_{j+1} (sum_{v>j} b_v + 2 max(n - j - 2, 0)), N = m_{j+1} (2 x_{j-1} - b_j) - Nb_{j+1}."""
    n, m = len(b), _leg_continuants([-c for c in b]) + [0]
    nb = [sum(b[v] * m[v + 1] for v in range(j, n)) for j in range(n + 1)]
    for j, (s, y) in enumerate(zip((u,) + x, x)):
        N = m[j + 1] * (2 * s - b[j]) - nb[j + 1]
        if (2 * m[j] * y - N) ** 2 > m[j] ** 2 + m[j] * m[j + 1] * (sum(b[j + 1 :]) + 2 * max(n - j - 2, 0)):
            return False
    return True


class TestOracle:
    def test_chain_minima_match_fincke_pohst(self):
        """On seeded chains, H_0(u) = min f_u is the Fincke-Pohst minimum of Q(x - centre) less the constant
        w^T Q^{-1} w / 4 (w = b - 2u e_0), for every coset u; and every minimizer the enumeration finds lies in
        the DP's window at every level."""
        rng = random.Random(24)
        chains = _random_chains(rng, 300, 120)
        assert {len(b) for b in chains} == set(range(1, 11)) and max(max(b) for b in chains) >= 14
        for b in chains:
            H, m, nb = _chain_minima(b)
            G = chain_to_gram(ChainDiagram(tuple(-c for c in b)))
            elim, p, n = G._elimination, m[0], len(b)
            assert len(H) == p == abs(elim.det) and nb[0] == sum(map(mul, b, m[1:]))
            a = [int(x) for x in elim.solve([p] + [0] * (n - 1))]  # p G^{-1} e_0
            base = [int(p * x) for x in elim.solve(G.diagonal())]  # p G^{-1} diag(G)
            enum = _Enumerator(elim)
            for u in range(p):
                centre = [-(c + 2 * u * x) for c, x in zip(base, a)]  # over 2p: -G^{-1} t / 2, t = -b + 2u e_0
                val, _ = _closest_point(enum, centre, 2 * p)
                w = [c - 2 * u * (i == 0) for i, c in enumerate(b)]
                assert H[u] == val + sum(map(mul, w, elim.solve(w))) / 4, (b, u)  # G^{-1} = -Q^{-1}
                minimizers = []
                enum.run(centre, 2 * p, int(val * enum.scale(2 * p)), lambda x, v: minimizers.append(tuple(x)))
                assert minimizers and all(_in_window(b, u, x) for x in minimizers), (b, u)

    def test_matches_the_enumeration_oracle(self):
        # label for label: every L(p, q) with p <= 60 and a seeded sample up to the old guard, p = 144
        pairs = [(p, q) for p in range(1, 61) for q in range(1, p + 1) if gcd(p, q) == 1]
        for p, q in pairs + _coprime_pairs(random.Random(144), 40, 145):
            assert lens_d_oracle(p, q) == _enumeration_oracle(p, q), (p, q)

    def test_rp3(self):
        assert sorted(lens_d_oracle(2, 1).values()) == [Fraction(-1, 4), Fraction(1, 4)]

    def test_s3(self):
        assert lens_d_oracle(1, 0) == lens_d_all(1, 0) == {0: 0}

    def test_l41_max_matches_chain_value(self):
        vals = lens_d_oracle(4, 1)
        assert len(vals) == 4
        assert max(vals.values()) == max(lens_d_all(4, 1).values()) == Fraction(3, 4)

    def test_multiset_equality_sample(self):
        for (p, q) in [(3, 1), (3, 2), (5, 2), (7, 3), (12, 5), (15, 4), (23, 2), (40, 17)]:
            assert sorted(lens_d_all(p, q).values()) == sorted(lens_d_oracle(p, q).values())

    def test_inverse_route_is_the_reversed_word(self):
        """The oracle's chain routes skip x^{-1} mod p: its word is the word of x reversed."""
        for p in range(2, 401):
            for x in range(1, p):
                if gcd(x, p) == 1:
                    assert _hj_word(p, pow(x, -1, p)) == _hj_word(p, x)[::-1], (p, x)

    def test_orientation_reversal(self):
        # L(p, p-q) = -L(p, q): the multisets are negatives of each other
        for (p, q) in [(3, 1), (5, 2), (7, 2), (9, 4), (11, 3)]:
            direct = sorted(lens_d_all(p, q).values())
            reversed_ = sorted(-v for v in lens_d_all(p, p - q).values())
            assert direct == reversed_


class TestUeConsistency:
    def test_spin_d_equals_minus_two_mubar(self):
        # for spherical manifolds d at the spin structure equals -2 mu-bar;
        # check on lens spaces of odd order, where the spin structure is the
        # conjugation-fixed label and the chain plumbing computes mu-bar
        for (p, q) in [(3, 1), (5, 2), (7, 3), (9, 2), (11, 4), (13, 5), (15, 2)]:
            qinv = pow(q, -1, p)
            fixed = [i for i in range(p) if (qinv - 1 - 2 * i) % p == 0]
            assert len(fixed) == 1  # odd p: unique spin structure
            d_spin = lens_d(p, q, fixed[0])
            # mu-bar of the canonical chain bounding -L(p, q), negated
            word = hj_expand(Fraction(p, q))
            chain_graph = star_graph(-word[0], [[-c for c in word[1:]]] if len(word) > 1 else [])
            mb = mubar(chain_graph)
            assert d_spin == -2 * (-mb)

    def test_poincare_sphere_case(self):
        # d(Sigma(2,3,5)) = 2 = -2 mu-bar, the homology-sphere instance
        g = negdef_plumbing(BrieskornTriple(2, 3, 5))
        assert d_from_plumbing(g).value == -2 * mubar(g)


class TestSurgeryMaximum:
    def test_family_i_n1(self):
        desc = SurgeryDescriptor(23, 2, 9)
        assert desc.c == 17
        res = d_surgery(desc)
        assert res.value == 2
        assert 11 in res.witnesses and 12 in res.witnesses

    def test_family_i_n2_value(self):
        res = d_surgery(SurgeryDescriptor(150, 19, 23))
        assert res.value == 2

    def test_degenerate_slope_one(self):
        # q = 1, k = 1 gives c = 0 and identical terms at every label
        res = d_surgery(SurgeryDescriptor(7, 1, 1))
        assert res.value == 0
        assert res.witnesses == tuple(range(7))

    def test_matches_the_reference_maximum(self):
        """d_surgery against the maximum over reference values, families
        (i)-(iv) at n = 1..3, witnesses included."""
        for fam in ("i", "ii", "iii", "iv"):
            for n in (1, 2, 3):
                desc = surgery_parameters(fam, n).descriptor()
                p, q, k, c = desc.p, desc.q, desc.k, desc.c
                gaps = [
                    _reference_r(p, q, (q * ((k * i + c) % p + 1) - 1) % p) - _reference_r(p, 1, i) for i in range(p)
                ]
                best = max(gaps)
                winners = tuple(i for i, g in enumerate(gaps) if g == best)
                assert d_surgery(desc) == SurgeryResult(best, winners[0], winners), (fam, n)

    def test_matches_the_brute_force_maximum_on_seeded_descriptors(self):
        """d_surgery against the maximum of reference differences on seeded
        L(p, q), p <= 200, with random coprime k, witnesses included."""
        rng = random.Random(2003)
        for p, q in _coprime_pairs(rng, 60, 201) + [(1, 0), (2, 1)]:
            k = rng.randrange(1, p + 1)
            while gcd(k, p) != 1:
                k = rng.randrange(1, p + 1)
            desc = SurgeryDescriptor(p, q, k)
            c = desc.c
            gaps = [_reference_r(p, q, (q * ((k * i + c) % p + 1) - 1) % p) - _reference_r(p, 1, i) for i in range(p)]
            best = max(gaps)
            winners = tuple(i for i, g in enumerate(gaps) if g == best)
            assert d_surgery(desc) == SurgeryResult(best, winners[0], winners), desc

    def test_chain_bounds_bracket_every_label(self):
        """lo <= N(p, q, j) <= hi on every label of every L(p, q) with p <= 60 and of
        seeded L(p, q) up to p = 20000, q = 1, 2 and p - 1 among them; L(p, 1) attains both."""
        pairs = [(p, q) for p in range(1, 61) for q in (range(1, p) if p > 1 else (0,)) if gcd(p, q) == 1]
        pairs += _coprime_pairs(random.Random(2016), 30, 20000) + [(19997, 1), (19997, 2), (19997, 19996)]
        for p, q in pairs:
            lo, hi = _chain_bounds(p, q)
            table = _descent_table(p, q)
            assert lo <= min(table) and max(table) <= hi, (p, q)
            if q == 1:
                assert (lo, hi) == (min(table), max(table)) == (p % 2 - p, p * p - p)

    def test_matches_the_table_maximum_on_the_families(self):
        """d_surgery against the maximum over the full descent table, witnesses
        included, on (i)-(iv) at n = 1..12, 25 and 50 (p up to 523958)."""
        for fam in ("i", "ii", "iii", "iv"):
            for n in (*range(1, 13), 25, 50):
                desc = surgery_parameters(fam, n).descriptor()
                assert d_surgery(desc) == _table_maximum(desc), (fam, n)

    def test_matches_the_table_maximum_on_seeded_descriptors(self):
        """The same on 400 seeded descriptors, p < 5000, with q = 1, 2, p - 1 and
        k = +-1 among them (at q = 1 and k = +-1 every label ties)."""
        rng = random.Random(1603)
        for n in range(400):
            p = rng.randrange(1, 5000)
            q, k = (1, 2, p - 1, 0)[n % 4], (1, -1, 0)[n % 3]
            while gcd(p, q) != 1:
                q = rng.randrange(1, p + 1)
            while gcd(p, k) != 1:
                k = rng.randrange(1, p + 1)
            desc = SurgeryDescriptor(p, q, k)
            assert d_surgery(desc) == _table_maximum(desc), desc

    def test_matches_the_table_maximum_at_block_edges(self, monkeypatch):
        """Windows that end on the block schedule's edges, with the labels of each block:
        at the last t of a full block (odd p, and even p, whose first block holds the lone
        t = 0 label), one t past a full block, and the all-ties q = 1, k = +-1 over eight
        blocks up to t = p, where every label is a witness."""
        blocks = []
        descend = plumbcalc.lens._descent_labels
        monkeypatch.setattr(plumbcalc.lens, "_descent_labels", lambda p, q, js: blocks.append(len(js)) or descend(p, q, js))
        cases = {
            (1293, 985, 647): [32, 64],  # the window closes at t = 95, the last t of block 2
            (644, 359, 239): [31, 64],  # t = 0 .. 30, then 32 .. 94; the window, t <= 95, ends at 94
            (4400, 547, 1037): [31, 64, 128],  # the window, t <= 223, ends at block 3's last t, 222
            (743, 632, 595): [32, 64, 2],  # one t past a full block
            (1138, 1087, 351): [31, 64, 2],
            (4999, 1, 1): [32, 64, 128, 256, 512, 1024, 2048, 935],
            (5000, 1, -1): [31, 64, 128, 256, 512, 1024, 2048, 937],
        }
        for (p, q, k), sizes in cases.items():
            blocks.clear()
            desc = SurgeryDescriptor(p, q, k)
            assert d_surgery(desc) == _table_maximum(desc) and blocks == sizes, desc
        assert d_surgery(SurgeryDescriptor(5000, 1, -1)).witnesses == tuple(range(5000))

    def test_q_is_reduced(self):
        assert SurgeryDescriptor(23, 25, 9) == SurgeryDescriptor(23, 2, 9)
        assert d_surgery(SurgeryDescriptor(23, 25, 9)).value == 2

    def test_c_recomputable(self):
        assert SurgeryDescriptor(23, 2, 9).c == 17
        with pytest.raises(NotCoprimeError):
            SurgeryDescriptor(10, 3, 5)


class TestLabelGuard:
    def test_all_labels_past_the_guard_raise(self):
        p = GUARDS["lens labels"].bound + 1
        with pytest.raises(ScanGuardExceededError, match=f"^lens labels guard exceeded: labels evaluated {p} > {p - 1}$"):
            lens_d_all(p, 1)
        with pytest.raises(ScanGuardExceededError, match="^lens labels guard exceeded"):
            d_surgery(SurgeryDescriptor(p, 1, 1))
        assert lens_d(p, 1, 0) == Fraction(p * p - p, 4 * p)  # a single label is not guarded

    def test_the_surgery_guard_counts_the_labels_evaluated(self, monkeypatch):
        """(iii) at n = 50, p = 523958, evaluates 2269 labels; the label guard bounds
        that count, not p: one label less and it raises before the last block, having
        evaluated exactly the blocks before it."""
        desc = surgery_parameters("iii", 50).descriptor()
        blocks = []
        descend = plumbcalc.lens._descent_labels
        monkeypatch.setattr(plumbcalc.lens, "_descent_labels", lambda p, q, js: blocks.append(len(js)) or descend(p, q, js))
        monkeypatch.setitem(GUARDS, "lens labels", GUARDS["lens labels"]._replace(bound=2269))
        assert d_surgery(desc).value == 52 and sum(blocks) == 2269
        evaluated, blocks[:] = blocks[:], []
        monkeypatch.setitem(GUARDS, "lens labels", GUARDS["lens labels"]._replace(bound=2268))
        with pytest.raises(ScanGuardExceededError, match="^lens labels guard exceeded: labels evaluated 2269 > 2268$"):
            d_surgery(desc)
        assert blocks == evaluated[:-1]

    def test_verify_conjecture_skips_past_both_guards(self):
        # family (v) at n = 400: its tau window is past the scan guard, and no
        # surgery fallback runs (family (v) has no surgery table anyway)
        rep = verify_conjecture("v", 400)
        assert rep.notes == ["skipped: tau window guard exceeded: window points 3741539 > 2000000"]
        assert "computed" not in rep.values


def _random_triples(rng: random.Random, count: int, max_rank: int) -> list[tuple[int, int, int]]:
    """Seeded pairwise-coprime Brieskorn triples whose plumbing has rank <= max_rank."""
    found: set[tuple[int, int, int]] = set()
    while len(found) < count:
        p, q, r = sorted(rng.sample(range(2, 60), 3))
        if gcd(p, q) == gcd(p, r) == gcd(q, r) == 1:
            if negdef_plumbing(BrieskornTriple(p, q, r)).rank <= max_rank:
                found.add((p, q, r))
    return sorted(found)


def _seifert_sphere(alphas: tuple[int, ...]) -> PlumbingGraph:
    """The negative-definite star of the Seifert homology sphere with
    multiplicities ``alphas`` (pairwise coprime), euler number -1/prod(alphas)."""
    A = prod(alphas)
    omegas = [-pow(A // a, -1, a) % a for a in alphas]
    e0 = -(1 + sum(w * (A // a) for a, w in zip(alphas, omegas))) // A
    return seifert_to_plumbing(SeifertData(e0, tuple((a, -w) for a, w in zip(alphas, omegas))))


def _tau_data(g: PlumbingGraph) -> tuple[int, list[tuple[int, int]]]:
    """(e0, [(alpha_i, omega_i)]) of a negative-definite star."""
    data = plumbing_to_seifert(g)
    return data.e, [(a, -b) for a, b in data.branches]


def _full_length(branches: list[tuple[int, int]]) -> int:
    """An n past which tau never decreases: ceil(x) <= x + 1 - 1/alpha and
    e0 + sum omega_i/alpha_i = -1/A give Delta(n) > -1, so Delta(n) >= 0, for
    n > A (nu - 2 - sum 1/alpha_i), which (nu - 2) A exceeds (nu >= 3 legs)."""
    return max(1, len(branches) - 2) * prod(a for a, _ in branches)


def _reference_tau_min(e0: int, branches: list[tuple[int, int]], length: int) -> tuple[int, int]:
    """(min tau(n), its first n) over 0 <= n <= length by the full scan from n = 0."""
    ceils = [
        accumulate(cycle([(-r * w) // a - (-(r + 1) * w) // a for r in range(a)]), initial=0)
        for a, w in branches
    ]
    deltas = map(sub, count(1, -e0), map(sum, zip(*ceils)))
    return min(zip(islice(accumulate(deltas, initial=0), length + 1), count()))


def _coprime_sets(rng: random.Random, how_many: int, sizes: tuple[int, ...], top: int, max_product: int):
    """Seeded distinct sets of pairwise-coprime multiplicities in [2, top)."""
    found: set[tuple[int, ...]] = set()
    while len(found) < how_many:
        alphas = tuple(sorted(rng.sample(range(2, top), rng.choice(sizes))))
        if prod(alphas) <= max_product and all(gcd(a, b) == 1 for i, a in enumerate(alphas) for b in alphas[i + 1 :]):
            found.add(alphas)
    return sorted(found)


# seeded pairwise-coprime triples for the tau-scan tests (multiplicities < 60)
TRIPLES = _random_triples(random.Random(2005), 200, max_rank=16)


def _dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for gcd(h, k) = 1 in O(log k) steps, by the reciprocity
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk) - 3) / 12 (Rademacher-Grosswald)."""
    total, sign, h = Fraction(0), 1, h % k
    while h:
        total += sign * (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k) - 3) / 12
        h, k, sign = k % h, h, -sign
    return total


def test_dedekind_sum_by_reciprocity_matches_its_definition():
    def saw(x: Fraction) -> Fraction:
        return x - x.numerator // x.denominator - Fraction(1, 2) if x.denominator != 1 else Fraction(0)

    for k in range(1, 30):
        for h in (h for h in range(2 * k) if gcd(h, k) == 1):
            assert _dedekind_sum(h, k) == sum(saw(Fraction(i, k)) * saw(Fraction(h * i, k)) for i in range(1, k)), (h, k)


def test_k_squared_matches_the_dedekind_sum_formula():
    """K^2 + rank from the integer tree kernel, with K = G^-1 k and
    k_v = -w_v - 2 as in d_from_plumbing, against Nemethi-Nicolaescu (Geom.
    Topol. 6, 2002): K^2 + s = eps^2 e + e + 5 - 12 sum s(omega_i, alpha_i),
    e = e0 + sum omega_i/alpha_i, eps = (2 - nu + sum 1/alpha_i)/e, on 250
    seeded triples and 50 seeded four- and five-leg spheres."""
    rng = random.Random(2011)
    cases = [negdef_plumbing(BrieskornTriple(*t)) for t in _coprime_sets(rng, 250, (3,), 200, 10**7)]
    cases += [_seifert_sphere(t) for t in _coprime_sets(rng, 50, (4, 5), 20, 20000)]
    for g in cases:
        k = [-w - 2 for w in g.weights]
        e0, branches = _tau_data(g)
        e = e0 + sum(Fraction(w, a) for a, w in branches)
        eps = (2 - len(branches) + sum(Fraction(1, a) for a, _ in branches)) / e
        want = eps * eps * e + e + 5 - 12 * sum(_dedekind_sum(w, a) for a, w in branches)
        assert sum(map(mul, k, _negdef_unimodular(g._elimination).solve(k))) + g.rank == want, branches


class TestDFromPlumbing:
    def test_poincare(self):
        g = negdef_plumbing(BrieskornTriple(2, 3, 5))
        res = d_from_plumbing(g)
        assert res.value == 2
        assert res.vector == (0,) * 8  # even lattice: zero is characteristic

    def test_sigma_2_3_7(self):
        assert d_from_plumbing(negdef_plumbing(BrieskornTriple(2, 3, 7))).value == 0

    def test_os_bound_equality_for_brieskorn(self):
        for triple in [(2, 3, 5), (2, 3, 7), (2, 5, 9), (2, 13, 23)]:
            g = negdef_plumbing(BrieskornTriple(*triple))
            gram = graph_to_gram(g)
            d = d_from_plumbing(g).value
            top = max_char_square(gram).square + gram.rank
            assert top <= 4 * d
            assert not top <= 4 * (d - Fraction(1, 4))

    def test_d_brieskorn_scans_the_window_its_guard_computed(self, monkeypatch):
        windows = []
        real = plumbcalc.lens._tau_window
        monkeypatch.setattr(plumbcalc.lens, "_tau_window", lambda branches: windows.append(real(branches)) or windows[-1])
        for triple, d in [((2, 3, 5), 2), ((2, 3, 7), 0), ((101, 103, 10007), 10)]:
            windows.clear()
            assert d_brieskorn(BrieskornTriple(*triple)).value == d
            assert len(windows) == 1, triple

    def test_rank_guard(self):
        # the one work guard is on the tau window: Sigma(101, 11857, 20298) has
        # rank 23 but a window of 4536597 points
        g = negdef_plumbing(BrieskornTriple(101, 11857, 20298))
        assert g.rank == 23
        with pytest.raises(ScanGuardExceededError, match="^tau window guard exceeded: window points 4536597 > 2000000$"):
            d_from_plumbing(g)
        # Sigma(101, 103, 10007) has prod alpha = 104102821 but a window of 54302 points
        assert d_brieskorn(BrieskornTriple(101, 103, 10007)).value == d_from_plumbing(
            negdef_plumbing(BrieskornTriple(101, 103, 10007))
        ).value

    def test_leg_weight_above_minus_two(self):
        with pytest.raises(ValueError, match="above -2"):
            d_from_plumbing(star_graph(-2, [[-2], [-1], [-3]]))

    def test_agrees_with_enumeration(self):
        """The tau-scan against the characteristic-vector enumeration."""
        for t in TRIPLES + [(3, 5, 7, 8, 13)]:
            g = negdef_plumbing(BrieskornTriple(*t)) if len(t) == 3 else _seifert_sphere(t)
            gram = graph_to_gram(g)
            res = d_from_plumbing(g)
            assert res.value == Fraction(max_char_square(gram).square + gram.rank, 4), t
            gc = [sum(x * c for x, c in zip(row, res.vector)) for row in gram.rows]
            assert all((x - row[i]) % 2 == 0 for i, (x, row) in enumerate(zip(gc, gram.rows))), t
            assert gram.norm(res.vector) + gram.rank == 4 * res.value, t

    def test_tau_window_matches_the_full_scan(self):
        """The windowed minimum against the full scan from n = 0 (first
        argmin included) on 300 seeded triples and 200 seeded four- and
        five-leg spheres; Sigma(3, 5, 7, 8, 13) has its minimum past prod alpha."""
        rng = random.Random(2009)
        cases = [negdef_plumbing(BrieskornTriple(*t)) for t in _coprime_sets(rng, 300, (3,), 45, 10**6)]
        cases += [_seifert_sphere(t) for t in _coprime_sets(rng, 200, (4, 5), 20, 20000)]
        cases.append(_seifert_sphere((3, 5, 7, 8, 13)))
        assert len({tuple(g.weights) + g.edges for g in cases}) == 501
        for g in cases:
            e0, branches = _tau_data(g)
            assert _tau_min(branches) == _reference_tau_min(e0, branches, _full_length(branches)), branches
        e0, branches = _tau_data(_seifert_sphere((3, 5, 7, 8, 13)))
        assert _tau_min(branches)[1] > 3 * 5 * 7 * 8 * 13

    def test_tau_scan_matches_the_plain_recursion(self):
        """The windowed minimum against tau written out step by step."""
        cases = [negdef_plumbing(BrieskornTriple(*t)) for t in TRIPLES[:20]]
        cases += [_seifert_sphere(alphas) for alphas in ((2, 3, 5, 7), (3, 4, 5, 7), (3, 5, 7, 8, 13))]
        for g in cases:
            e0, branches = _tau_data(g)
            tau, taus = 0, [0]
            for n in range(_full_length(branches)):
                tau += 1 - e0 * n - sum(-(-n * w // a) for a, w in branches)
                taus.append(tau)
            assert _tau_min(branches) == (min(taus), taus.index(min(taus))), branches

    def test_requires_star(self):
        from plumbcalc.plumbing import NotStarShapedError, PlumbingGraph

        bad = PlumbingGraph((-2,) * 6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
        with pytest.raises(NotStarShapedError):
            d_from_plumbing(bad)
