import random
from fractions import Fraction
from itertools import product
from math import ceil, gcd

import pytest

from plumbcalc.arith import (
    NotCoprimeError,
    NotExpandableError,
    ZeroTailError,
    cf_eval,
    hj_expand,
    mod_inverse,
)


class TestCfEval:
    def test_single_term_identity(self):
        for k in (-7, -2, 0, 1, 5):
            assert cf_eval([k]) == k

    def test_hand_evaluated_positive(self):
        # 2 - 1/(2 - 1/2) = 2 - 2/3
        assert cf_eval([2, 2, 2]) == Fraction(4, 3)

    def test_hand_evaluated_negative(self):
        # -2 - 1/(-2 - 1/(-2 - 1/(-2))) worked outward: -3/2, -4/3, -5/4
        assert cf_eval([-2, -2, -2, -2]) == Fraction(-5, 4)

    def test_zero_tail_raises(self):
        # suffix [1, 1] evaluates to 0, so the division is undefined
        with pytest.raises(ZeroTailError):
            cf_eval([2, 1, 1])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            cf_eval([])


def fraction_hj_expand(value) -> tuple[int, ...]:
    """Reference expansion in Fraction arithmetic, the oracle for
    ``hj_expand``'s integer loop: c = ceil(v), then v <- 1/(c - v) until v is
    an integer."""
    v = Fraction(value)
    if v <= 1:
        raise NotExpandableError(f"{v} has no all->=2 expansion (need value > 1)")
    out: list[int] = []
    while True:
        c = ceil(v)
        out.append(c)
        if v == c:
            return tuple(out)
        v = 1 / (c - v)


class TestExpansion:
    def test_integer_loop_matches_fraction_oracle(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            word = tuple(rng.randint(2, 40) for _ in range(rng.randint(1, 8)))
            value = cf_eval(word)
            assert fraction_hj_expand(value) == word
            assert hj_expand(value) == word
        for bad in (1, 0, -5, Fraction(1, 2), Fraction(-7, 3)):
            with pytest.raises(NotExpandableError):
                fraction_hj_expand(bad)
            with pytest.raises(NotExpandableError):
                hj_expand(bad)

    def test_four_thirds(self):
        assert hj_expand(Fraction(4, 3)) == (2, 2, 2)

    def test_integers(self):
        for k in range(2, 9):
            assert hj_expand(k) == (k,)

    def test_not_expandable(self):
        for bad in (1, 0, Fraction(1, 2), Fraction(-1, 2), -1):
            with pytest.raises(NotExpandableError):
                hj_expand(bad)

    def test_round_trip_all_reduced_fractions_up_to_60(self):
        # acceptance: cf round-trips for all reduced p/q with p > q >= 1, p <= 60
        for p in range(2, 61):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                word = hj_expand(Fraction(p, q))
                assert cf_eval(word) == Fraction(p, q)
                assert all(c >= 2 for c in word)
                assert len(word) <= p

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cf_eval([2.0, 3]),
            lambda: cf_eval([2, 2.5]),
            lambda: cf_eval([Fraction(5, 2)]),
            lambda: hj_expand(2.5),
            lambda: hj_expand(1.1),  # exactly 2476979795053773 / 2^51: an expansion too long to finish
            lambda: hj_expand("5/3"),
        ],
    )
    def test_non_integer_input_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_expansion_is_unique_among_small_words(self):
        # every all->=2 word whose value equals cf_eval of another such word
        # is that word: enumerate values of short words and check injectivity
        seen = {}
        for length in range(1, 5):
            for word in product(range(2, 6), repeat=length):
                v = cf_eval(word)
                assert seen.setdefault(v, word) == word

    def test_reversal_preserves_numerator(self):
        # classical duality: the continuant K(c1..cm) is reversal-invariant,
        # so [c1..cm] = K(c1..cm)/K(c2..cm) and its reversal share the
        # numerator (the denominators differ already for [2, 3] vs [3, 2])
        for length in range(1, 7):
            for word in product(range(2, 6), repeat=length):
                a = cf_eval(word)
                b = cf_eval(tuple(reversed(word)))
                assert a.numerator == b.numerator


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(1, 5) == 1
        assert mod_inverse(2, 5) == 3
        assert mod_inverse(7, 23) == 10

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(6, 9)

    def test_fuzz(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randint(2, 10**6)
            a = rng.randint(1, m - 1)
            if gcd(a, m) != 1:
                continue
            inv = mod_inverse(a, m)
            assert 0 <= inv < m
            assert (a * inv) % m == 1


def test_fraction_arithmetic_is_exact():
    # exactness sanity: field laws hold on random inputs (they would fail
    # immediately with floats)
    rng = random.Random(99)

    def rand_frac():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    for _ in range(300):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
