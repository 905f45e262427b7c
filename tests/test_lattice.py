"""Lattice engine tests.

The determinant and signature oracles here are deliberately naive and share
no code with the package: cofactor expansion, and eigenvalue-sign counting
through the characteristic polynomial (sums of principal minors) with
Descartes' rule, which is exact for symmetric matrices since all roots are
real.
"""

import ast
import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm
from operator import mul
from pathlib import Path

import pytest

import plumbcalc.lattice
from plumbcalc.guards import ScanGuardExceededError
from plumbcalc.lattice import (
    CharMax,
    Definiteness,
    GramLattice,
    NotDefiniteError,
    NotNegativeDefiniteError,
    NotUnimodularError,
    Parity,
    Signature,
    SingularMod2Error,
    _closest_point,
    _eliminate,
    _Enumerator,
    classify,
    determinant,
    e8_gram,
    isometric,
    max_char_square,
    minimalize,
    recognize_e8,
    short_vectors,
    signature,
    wu_class,
)
from plumbcalc.plumbing import BrieskornTriple, graph_to_gram, negdef_plumbing

MINUS_E8 = e8_gram(-1)
PLUS_E8 = e8_gram(1)


# ---------------------------------------------------------------------------
# oracles


def det_oracle(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_oracle(minor)
    return total


def signature_oracle(rows) -> Signature:
    """Eigenvalue sign counts from the characteristic polynomial.

    det(xI - M) = x^n - e1 x^(n-1) + e2 x^(n-2) - ... with e_k the sum of
    k x k principal minors.  Trailing zero coefficients count zero
    eigenvalues; Descartes' rule applied to p(x) and p(-x) counts the
    positive and negative ones exactly (all roots are real).
    """
    n = len(rows)
    coeffs = [1]  # coefficient of x^(n-k) is (-1)^k e_k
    for k in range(1, n + 1):
        e_k = 0
        for subset in combinations(range(n), k):
            sub = [[rows[r][c] for c in subset] for r in subset]
            e_k += det_oracle(sub)
        coeffs.append((-1) ** k * e_k)
    # strip zero roots
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    signs = [c for c in coeffs if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    # p(-x): flip the sign of odd-degree coefficients, then count changes
    alt = [c if (len(coeffs) - 1 - i) % 2 == 0 else -c for i, c in enumerate(coeffs) if c != 0]
    neg = sum(1 for a, b in zip(alt, alt[1:]) if (a > 0) != (b > 0))
    return Signature(pos, neg, n_zero)


def random_symmetric(rng, n, lo=-5, hi=5) -> GramLattice:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            rows[i][j] = rows[j][i] = v
    return GramLattice(tuple(tuple(r) for r in rows))


def solve_rational(rows, rhs):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k] / m[k][k]
                for c in range(k, n + 1):
                    m[r][c] -= f * m[k][c]
    return [m[i][n] / m[i][i] for i in range(n)]


def box_char_max(L: GramLattice, scale: int = 1):
    """Literal pairing-value box search: enumerate all characteristic t with
    scale*m_v <= t_v <= -scale*m_v and t_v = m_v mod 2, maximize t^T G^-1 t.

    The inverse is computed once and is integral because L is unimodular
    (asserted), so the search runs in integers; the vector G^-1 t is then
    integral too, so every box point is a characteristic vector.
    """
    n = L.rank
    diag = L.diagonal()
    inv_cols = [solve_rational([list(r) for r in L.rows], [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    assert all(x.denominator == 1 for col in inv_cols for x in col), "box_char_max needs a unimodular lattice"
    inv_cols = [[int(x) for x in col] for col in inv_cols]
    axes = []
    for m in diag:
        lo, hi = scale * m, -scale * m
        axes.append([t for t in range(lo, hi + 1) if (t - m) % 2 == 0])
    best = None
    for t in product(*axes):
        val = sum(tj * sum(map(mul, t, col)) for tj, col in zip(t, inv_cols) if tj)
        if best is None or val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# determinant / signature / classify


def test_determinant_empty_is_one():
    assert determinant(GramLattice.empty()) == 1


def test_from_edges():
    assert GramLattice.diag(-1, 0, 3).rows == ((-1, 0, 0), (0, 0, 0), (0, 0, 3))
    assert GramLattice.from_edges((1, 2, 3), [(2, 0, -4)]).rows == ((1, 0, -4), (0, 2, 0), (-4, 0, 3))
    for edge in [(1, 1, 1), (0, 3, 1), (-1, 0, 1)]:  # a loop, an index past the rank, a negative index
        with pytest.raises(ValueError, match="distinct indices"):
            GramLattice.from_edges((1, 2, 3), [edge])


def test_determinant_minus_e8_is_one():
    assert determinant(MINUS_E8) == 1


def test_determinant_e8_chain_minors():
    # diag(2,2,2,2,2,2,4,2) with off-diagonals (1,1,1,1,1,2,1):
    # tridiagonal recurrence gives leading minors 2,3,4,5,6,7,4,1
    diag = [2, 2, 2, 2, 2, 2, 4, 2]
    off = [1, 1, 1, 1, 1, 2, 1]
    rows = [[0] * 8 for _ in range(8)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    for i, o in enumerate(off):
        rows[i][i + 1] = rows[i + 1][i] = o
    minors = []
    d_prev, d_cur = 1, diag[0]
    minors.append(d_cur)
    for i in range(1, 8):
        d_prev, d_cur = d_cur, diag[i] * d_cur - off[i - 1] ** 2 * d_prev
        minors.append(d_cur)
    assert minors == [2, 3, 4, 5, 6, 7, 4, 1]
    assert determinant(GramLattice(tuple(tuple(r) for r in rows))) == 1


def random_lattices(seed):
    """200 random dense symmetric matrices, 200 random trees whose weights
    lie in [-3, 3], and 50 dense matrices with zero diagonal.  A zero
    diagonal makes the kernel add a basis vector; a zero row is a null."""
    rng = random.Random(seed)
    lattices = [random_symmetric(rng, rng.randint(1, 6)) for _ in range(200)]
    rng = random.Random(seed + 1000)
    lattices += [random_tree_gram(rng, rng.randint(1, 7), -3, 3) for _ in range(200)]
    for _ in range(50):
        rows = [list(r) for r in random_symmetric(rng, rng.randint(2, 6)).rows]
        lattices.append(GramLattice(tuple(tuple(0 if i == j else x for j, x in enumerate(r)) for i, r in enumerate(rows))))
    return lattices


def test_determinant_vs_cofactor_oracle():
    rng = random.Random(404)
    paths = {"add": 0, "null": 0, "solved": 0}
    for L in random_lattices(404):
        rows = [list(r) for r in L.rows]
        det = det_oracle(rows)
        assert determinant(L) == det
        elim = _eliminate(L.rows)
        paths["add"] += any(elim.adds)
        paths["null"] += 0 in elim.pivots
        if det != 0:
            rhs = [rng.randint(-4, 4) for _ in range(L.rank)]
            assert elim.solve(rhs) == solve_rational(rows, rhs)
            paths["solved"] += any(elim.adds)
    # every zero-pivot path of the kernel ran, solves across basis changes too
    assert all(paths.values()), paths


@pytest.mark.parametrize(
    "rows, pivots, adds",
    [
        (((0, 1), (1, 0)), [2, Fraction(-1, 2)], [(1, 1), None]),  # an add with t = +1, pivot 2 m_01
        (((0, 1), (1, -2)), [-4, Fraction(1, 4)], [(1, -1), None]),  # 2 m_01 + m_11 = 0: t = -1, pivot -4 m_01
        (((1, 0, 0), (0, 0, 0), (0, 0, 1)), [1, 0, 1], [None] * 3),  # a null that is not last
        (((2, 0), (0, 0)), [2, 0], [None] * 2),
    ],
)
def test_kernel_branches_by_hand(rows, pivots, adds):
    """Each branch of ``_eliminate`` on a form small enough to check by hand:
    the record is indexed by basis index (one pivot per basis vector, adds
    only to later vectors), and det, inertia, solve and the Wu class agree
    with the naive oracles."""
    L, mat = GramLattice(rows), [list(r) for r in rows]
    elim = L._elimination
    assert len(elim.pivots) == L.rank and len(elim.rows) == L.rank == len(elim.adds)
    assert all(a is None or (a[0] > k and a[1] in (1, -1)) for k, a in enumerate(elim.adds))
    assert (elim.pivots, elim.adds) == (pivots, adds)
    det = det_oracle(mat)
    assert determinant(L) == elim.det == det
    assert signature(L) == signature_oracle(mat)
    if det:
        rhs = [3, -1, 2][: L.rank]
        assert elim.solve(rhs) == solve_rational(mat, rhs)
    else:
        with pytest.raises(ZeroDivisionError):
            elim.solve([0] * L.rank)
    wu = [
        eps
        for eps in product((0, 1), repeat=L.rank)
        if all((sum(map(mul, row, eps)) - row[i]) % 2 == 0 for i, row in enumerate(rows))
    ]
    if det % 2:
        assert [wu_class(L)] == wu
    else:
        with pytest.raises(SingularMod2Error):
            wu_class(L)


def test_signature_examples():
    assert signature(GramLattice.diag(-1, -1)) == (0, 2, 0)
    sig = signature(MINUS_E8)
    assert sig == (0, 8, 0) and sig.sigma == -8
    hyper = GramLattice(((0, 1), (1, 0)))
    assert signature(hyper) == (1, 1, 0)


def test_signature_vs_charpoly_oracle():
    for L in random_lattices(405):
        assert signature(L) == signature_oracle([list(r) for r in L.rows])


def test_signature_sign_on_every_inertia_shape():
    # definite of either sign, indefinite, degenerate, and rank 0 (+1)
    shapes = {(3, 0, 0): 1, (0, 3, 0): -1, (2, 1, 0): None, (2, 0, 1): None, (0, 2, 1): None, (0, 0, 2): None, (0, 0, 0): 1}
    for shape, sign in shapes.items():
        assert Signature(*shape).sign == sign, shape
    lattices = [PLUS_E8, MINUS_E8, GramLattice(((0, 1), (1, 0))), GramLattice.diag(2, 0), GramLattice.empty()]
    assert [signature(L).sign for L in lattices] == [1, -1, None, None, 1]
    # the same answer on every random lattice as the Enumerator, which refuses the indefinite ones
    seen = set()
    for L in random_lattices(60):
        elim = L._elimination
        seen.add(elim.inertia.sign)
        if elim.inertia.sign is None:
            with pytest.raises(NotDefiniteError, match="inertia"):
                _Enumerator(elim)
        else:
            assert _Enumerator(elim).sign == elim.inertia.sign
    assert seen == {1, -1, None}


def test_classify():
    assert classify(MINUS_E8) == (Definiteness.NEGATIVE, Parity.EVEN, True)
    assert classify(GramLattice.diag(1)) == (Definiteness.POSITIVE, Parity.ODD, True)
    assert classify(GramLattice(((0, 1), (1, 0)))) == (Definiteness.INDEFINITE, Parity.EVEN, True)
    assert classify(GramLattice.diag(2, 0)).definiteness == Definiteness.DEGENERATE


def test_recognize_e8():
    # the fixtures' whole Gram matrices: the 7-path 0..6 with leaf 7 on vertex 4, off-diagonals +1 at either sign
    for L, w in ((MINUS_E8, -2), (PLUS_E8, 2)):
        assert L.rows == (
            (w, 1, 0, 0, 0, 0, 0, 0),
            (1, w, 1, 0, 0, 0, 0, 0),
            (0, 1, w, 1, 0, 0, 0, 0),
            (0, 0, 1, w, 1, 0, 0, 0),
            (0, 0, 0, 1, w, 1, 0, 1),
            (0, 0, 0, 0, 1, w, 1, 0),
            (0, 0, 0, 0, 0, 1, w, 0),
            (0, 0, 0, 0, 1, 0, 0, w),
        )
    assert recognize_e8(MINUS_E8) == -1
    assert recognize_e8(PLUS_E8) == 1
    assert recognize_e8(GramLattice.diag(*([-1] * 8))) is None  # odd
    assert recognize_e8(GramLattice.diag(-2)) is None  # wrong rank


# ---------------------------------------------------------------------------
# short vectors


def test_short_vectors_rank_one():
    assert short_vectors(GramLattice.diag(-1), -1) == [(1,)]


def test_short_vectors_e8_root_count():
    roots = short_vectors(MINUS_E8, -2)
    assert len(roots) == 120  # 240 roots in +- pairs


def test_short_vectors_even_lattice_has_no_unit_vectors():
    assert short_vectors(MINUS_E8, -1) == []


def test_short_vectors_requires_definite():
    with pytest.raises(NotDefiniteError):
        short_vectors(GramLattice(((0, 1), (1, 0))), 2)


def test_enumeration_rank_is_not_capped_by_the_recursion_limit():
    # the descent is a loop, so ranks past the interpreter's recursion limit run
    L = GramLattice.diag(*[-2] * 1100)
    assert short_vectors(L, -1) == []
    assert minimalize(L).minimal.rank == 1100


# ---------------------------------------------------------------------------
# closest-vector enumeration: the scaled-integer enumerator against an
# oracle that runs the same Fincke-Pohst search in Fractions


def _floor_sqrt_ratio(num: int, den: int) -> int:
    """floor(sqrt(num/den)) for num >= 0, den > 0, exactly."""
    return isqrt(num * den) // den


def _floor_z_plus_sqrt(z: Fraction, t: Fraction) -> int:
    """floor(z + sqrt(t)) exactly, for t >= 0."""
    s = _floor_sqrt_ratio(t.numerator, t.denominator)
    x = (z.numerator // z.denominator) + s + 2
    while True:
        diff = x - z
        if diff <= 0 or diff * diff <= t:
            return x
        x -= 1


class FractionEnumerator:
    """Depth-first enumeration over Q(x - center) in Fractions, with the
    zigzag order and the pruning of ``lattice._Enumerator``."""

    def __init__(self, elim, sign, center):
        self.d = [sign * p for p in elim.pivots]
        self.u = elim.rows
        self.center = [Fraction(c) for c in center]
        self.n = len(self.d)

    def run(self, bound, on_leaf):
        n = self.n
        if n == 0:
            on_leaf([], Fraction(0))
            return
        d, u, center = self.d, self.u, self.center
        x = [0] * n
        y = [Fraction(0)] * n
        state_bound = bound

        def descend(i, partial):
            nonlocal state_bound
            z = center[i] - sum((uij * y[j] for j, uij in u[i]), Fraction(0))
            budget = state_bound - partial
            if budget < 0:
                return
            t = budget / d[i]
            lo, hi = -_floor_z_plus_sqrt(-z, t), _floor_z_plus_sqrt(z, t)
            if lo > hi:
                return
            base = (2 * z.numerator + z.denominator) // (2 * z.denominator)
            base = min(max(base, lo), hi)
            order = [base]
            step = 1
            while True:
                added = False
                if base - step >= lo:
                    order.append(base - step)
                    added = True
                if base + step <= hi:
                    order.append(base + step)
                    added = True
                if not added:
                    break
                step += 1
            for xi in order:
                total = partial + d[i] * (xi - z) ** 2
                if total > state_bound:
                    continue
                x[i] = xi
                y[i] = xi - center[i]
                if i == 0:
                    new = on_leaf(x, total)
                    if new is not None and new < state_bound:
                        state_bound = new
                else:
                    descend(i - 1, total)
            y[i] = Fraction(0)

        descend(n - 1, Fraction(0))


def fraction_closest_point(elim, sign, center):
    """(minimum, first minimizer) of Q(x - center) by ``FractionEnumerator``."""
    n = len(center)
    enum = FractionEnumerator(elim, sign, center)
    centerp = enum.center
    x0 = [(2 * c.numerator + c.denominator) // (2 * c.denominator) for c in centerp]
    diff = [x0[i] - centerp[i] for i in range(n)]
    bound = sum(
        (di * (diff[i] + sum(u * diff[j] for j, u in enum.u[i])) ** 2 for i, di in enumerate(enum.d)), Fraction(0)
    )
    best = [bound, tuple(x0)]

    def on_leaf(xp, value):
        if value < best[0]:
            best[0], best[1] = value, tuple(xp)
            return value
        return None

    enum.run(bound, on_leaf)
    return best[0], best[1]


def fraction_short_vectors(elim, sign, norm_target):
    target = abs(norm_target)
    found = []

    def on_leaf(x, value):
        if value == target and next(v for v in x if v) > 0:
            found.append(tuple(x))

    FractionEnumerator(elim, sign, [Fraction(0)] * len(elim.pivots)).run(Fraction(target), on_leaf)
    return sorted(found)


def random_definite(rng):
    """A definite Gram matrix of rank <= 6 and either sign: a dense
    A^T A + I, or a plumbing-like tree with diagonal of one sign."""
    n = rng.randint(1, 6)
    sign = rng.choice((1, -1))
    if rng.random() < 0.5:
        A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        rows = [[sum(A[k][i] * A[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        return GramLattice(tuple(tuple(sign * x for x in r) for r in rows))
    while True:
        L = random_tree_gram(rng, n, 2, 4)
        if _eliminate(L.rows).inertia.sign == 1:
            return L if sign > 0 else L.negate()


def random_center(rng, n, kind):
    """Integer numerators over a common denominator: mixed denominators,
    exact half-integers (every coordinate a rounding tie), or zero."""
    if kind == "mixed":
        dens = [rng.choice((1, 2, 3, 4, 5, 7, 12)) for _ in range(n)]
        return [Fraction(rng.randint(-3 * k, 3 * k), k) for k in dens]
    if kind == "half":
        return [Fraction(2 * rng.randint(-3, 3) + 1, 2) for _ in range(n)]
    return [Fraction(0)] * n


def as_numerators(center):
    den = lcm(*(c.denominator for c in center))
    return [int(c * den) for c in center], den


def test_integer_enumerator_matches_fraction_oracle():
    # 240 seeded definite lattices of rank <= 6, both signs, three kinds of
    # centre: the same leaves in the same order with the same values (scaled),
    # the same closest point and the same short vectors
    rng = random.Random(8080)
    signs = set()
    for trial in range(240):
        L = random_definite(rng)
        elim = _eliminate(L.rows)
        sign = elim.inertia.sign
        signs.add(sign)
        enum = _Enumerator(elim)
        n = L.rank
        assert not any(elim.adds) and 0 not in elim.pivots  # a definite form never adds or nulls (Sylvester)
        center = random_center(rng, n, ("mixed", "half", "zero")[trial % 3])
        nums, den = as_numerators(center)
        S = enum.scale(den)

        # a fixed bound visits every leaf; a shrinking one follows the closest-point search
        fixed = fraction_closest_point(elim, sign, center)[0] + 2
        for shrink in (False, True):
            old, new = [], []

            def old_leaf(x, value):
                old.append((tuple(x), value))
                return value if shrink else None

            def new_leaf(x, value):
                new.append((tuple(x), value))
                return value if shrink else None

            FractionEnumerator(elim, sign, center).run(fixed, old_leaf)
            _Enumerator(elim).run(nums, den, int(fixed * S), new_leaf)
            assert new == [(x, v * S) for x, v in old]

        assert _closest_point(enum, nums, den) == fraction_closest_point(elim, sign, center)
        target = L.rows[trial % n][trial % n]
        assert short_vectors(L, target) == fraction_short_vectors(elim, sign, target)
    assert signs == {1, -1}


# ---------------------------------------------------------------------------
# Wu classes


def test_wu_class_even_lattice_is_zero():
    assert wu_class(MINUS_E8) == (0,) * 8


def test_wu_class_diag():
    assert wu_class(GramLattice.diag(-1, -3)) == (1, 1)


def test_wu_class_even_determinant_rejected():
    with pytest.raises(SingularMod2Error):
        wu_class(GramLattice.diag(-2))


def random_tree_gram(rng, n, lo=-5, hi=5) -> GramLattice:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(lo, hi)
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u][v] = rows[v][u] = 1
    return GramLattice(tuple(tuple(r) for r in rows))


def test_wu_class_on_200_random_odd_determinant_trees():
    # acceptance: re-substitution satisfies the Wu condition everywhere, and
    # the mod-2 system has exactly one solution (odd determinant)
    rng = random.Random(1234)
    found = 0
    while found < 200:
        L = random_tree_gram(rng, rng.randint(1, 9))
        if determinant(L) % 2 == 0:
            continue
        found += 1
        w = wu_class(L)
        assert all(x in (0, 1) for x in w)
        for i in range(L.rank):
            basis = [1 if j == i else 0 for j in range(L.rank)]
            assert (L.pairing(w, basis) - L.rows[i][i]) % 2 == 0
        # uniqueness among 0/1 vectors by brute force on small ranks
        if L.rank <= 6:
            sols = [
                eps
                for eps in product((0, 1), repeat=L.rank)
                if all((L.pairing(eps, [1 if j == i else 0 for j in range(L.rank)]) - L.rows[i][i]) % 2 == 0 for i in range(L.rank))
            ]
            assert sols == [tuple(w)]


def wu_class_gf2(L: GramLattice) -> tuple[int, ...]:
    """Oracle: the Wu class by dense bitmask elimination over GF(2), sharing
    no code with the package's rational kernel."""
    n = L.rank
    # rows as bitmasks, bit j = coefficient of eps_j, bit n = RHS
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if L.rows[i][j] % 2:
                mask |= 1 << j
        if L.rows[i][i] % 2:
            mask |= 1 << n
        rows.append(mask)
    pivots = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, n):
            if rows[i] & (1 << col):
                pivot = i
                break
        if pivot is None:
            raise SingularMod2Error("Gram matrix is singular mod 2")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i] & (1 << col):
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    eps = [0] * n
    for r, col in enumerate(pivots):
        eps[col] = (rows[r] >> n) & 1
    return tuple(eps)


def test_wu_class_vs_gf2_oracle():
    """200 odd-determinant dense matrices and 200 odd-determinant trees.

    A third of the dense matrices have zero diagonal and a third have
    entries in [-1, 1], where eliminating a pivot sometimes zeroes a later
    diagonal: both send the kernel down its basis-vector add path, which
    runs whenever the current diagonal is zero and its row is not; the
    final assertion pins that it ran, once with a nonzero Wu class.  Even
    determinants, 0 included, are rejected by both solvers.
    """
    rng = random.Random(4242)
    counts = {"dense": 0, "tree": 0, "even": 0, "added": 0, "added_nonzero": 0}
    while counts["dense"] < 200:
        kind = counts["dense"] % 3
        L = random_symmetric(rng, rng.randint(1, 7), *((-1, 1) if kind == 2 else (-5, 5)))
        if kind == 1:
            L = GramLattice(tuple(tuple(0 if i == j else x for j, x in enumerate(r)) for i, r in enumerate(L.rows)))
        if determinant(L) % 2 == 0:
            counts["even"] += 1
            with pytest.raises(SingularMod2Error):
                wu_class(L)
            with pytest.raises(SingularMod2Error):
                wu_class_gf2(L)
            continue
        counts["dense"] += 1
        w = wu_class(L)
        assert w == wu_class_gf2(L), L
        if any(_eliminate(L.rows).adds):
            counts["added"] += 1
            counts["added_nonzero"] += any(w)
    while counts["tree"] < 200:
        L = random_tree_gram(rng, rng.randint(1, 9))
        if determinant(L) % 2 == 0:
            with pytest.raises(SingularMod2Error):
                wu_class(L)
            with pytest.raises(SingularMod2Error):
                wu_class_gf2(L)
            continue
        counts["tree"] += 1
        assert wu_class(L) == wu_class_gf2(L), L
    assert all(counts.values()), counts


# ---------------------------------------------------------------------------
# minimalize


def test_minimalize_already_split():
    L = MINUS_E8.direct_sum(GramLattice.diag(-1))
    res = minimalize(L)
    assert res.minus_ones == 1 and res.plus_ones == 0
    assert recognize_e8(res.minimal) == -1


def test_minimalize_diagonal():
    res = minimalize(GramLattice.diag(-1, -1, -1))
    assert res.minimal.rank == 0
    assert res.minus_ones == 3


def _assert_certified(L, res):
    """res.basis_change B is unimodular and B^T G B is the block matrix
    minimal (+) <+1>^plus_ones (+) <-1>^minus_ones."""
    B, n = res.basis_change, L.rank
    assert abs(det_oracle([list(r) for r in B])) == 1
    conj = [[sum(B[r][i] * sum(L.rows[r][c] * B[c][j] for c in range(n)) for r in range(n)) for j in range(n)] for i in range(n)]
    k = res.minimal.rank
    units = [1] * res.plus_ones + [-1] * res.minus_ones
    block = [[res.minimal.rows[i][j] if i < k and j < k else (units[i - k] if i == j else 0) for j in range(n)] for i in range(n)]
    assert conj == block


def test_minimalize_idempotent_and_certified():
    rng = random.Random(77)
    produced = 0
    while produced < 25:
        n = rng.randint(1, 8)
        # random definite lattice: A^T A + I (positive), sometimes negated
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        rows = [[sum(A[k][i] * A[k][j] for k in range(n)) + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        sign = rng.choice((1, -1))
        L = GramLattice(tuple(tuple(sign * x for x in r) for r in rows))
        produced += 1
        res = minimalize(L)
        _assert_certified(L, res)
        again = minimalize(res.minimal)
        assert again.minimal == res.minimal and again.plus_ones == again.minus_ones == 0


def test_minimalize_cancellation_under_random_orderings():
    # acceptance: 20 random orderings of the basis (Gram P^T G P for a
    # permutation P) give minimal parts isometric to the unpermuted one
    L = MINUS_E8.direct_sum(GramLattice.diag(-1, -1))
    baseline = minimalize(L).minimal
    for seed in range(20):
        perm = random.Random(seed).sample(range(L.rank), L.rank)
        res = minimalize(GramLattice(tuple(tuple(L.rows[i][j] for j in perm) for i in perm)))
        assert res.minimal.rank == baseline.rank
        assert isometric(res.minimal, baseline) is not None


def test_minimalize_splits_units_that_are_not_coordinate_vectors():
    """40 seeded congruent images U^T (-E8 (+) <-1>^2 (+) <-3>) U: the two
    unit pairs are found wherever U puts them."""
    base = MINUS_E8.direct_sum(GramLattice.diag(-1, -1, -3))
    n = base.rank
    for seed in range(40):
        rng = random.Random(seed)
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.sample(range(n), 2)
            f = rng.choice((-1, 1))
            for r in range(n):
                U[r][j] += f * U[r][i]  # column j += f column i
        L = GramLattice(tuple(tuple(sum(U[a][i] * base.rows[a][b] * U[b][j] for a in range(n) for b in range(n)) for j in range(n)) for i in range(n)))
        assert max(abs(x) for r in L.rows for x in r) > 2
        res = minimalize(L)
        assert res.minus_ones == 2 and res.plus_ones == 0 and res.minimal.rank == 9
        units = [[row[j] for row in res.basis_change] for j in (9, 10)]
        assert any(sum(map(abs, u)) > 1 for u in units), seed  # not both +-e_i
        _assert_certified(L, res)


def test_minimalize_enumerates_once(monkeypatch):
    calls = []
    short = plumbcalc.lattice._short_vectors
    monkeypatch.setattr(plumbcalc.lattice, "_short_vectors", lambda enum, t: calls.append(t) or short(enum, t))
    lattices = [MINUS_E8, PLUS_E8.direct_sum(GramLattice.diag(1, 1)), GramLattice.diag(-1, -1, -1, -2), GramLattice.empty()]
    for L in lattices:
        calls.clear()
        minimalize(L)
        assert len(calls) == 1, L


def test_minimalize_returns_a_lattice_without_units_itself():
    for L in (MINUS_E8, PLUS_E8, GramLattice.diag(-2, -3), GramLattice.empty()):
        res = minimalize(L)
        assert res.minimal is L and res.plus_ones == res.minus_ones == 0
        assert res.basis_change == tuple(tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank))


def test_minimalize_requires_definite():
    with pytest.raises(NotDefiniteError):
        minimalize(GramLattice(((0, 1), (1, 0))))


# ---------------------------------------------------------------------------
# characteristic vector maxima


def _eliminate_calls(node: ast.AST, scope: str):
    """The qualified scope of every call to a function named ``_eliminate`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == "_eliminate":
            yield inner
        yield from _eliminate_calls(child, inner)


def test_dense_eliminations_are_cached_once_per_lattice():
    # only GramLattice._elimination (a cached property) calls the Fraction
    # kernel, and no other module imports it
    callers, importers = [], []
    for path in sorted(Path(plumbcalc.lattice.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += _eliminate_calls(tree, path.stem)
        names = (a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names)
        importers += [path.stem] * sum(name == "_eliminate" for name in names)
    assert callers == ["lattice.GramLattice._elimination"] and importers == []


def test_max_char_square_eliminates_once(monkeypatch):
    # a lattice with no unit vector: minimalize returns it, and the one
    # cached elimination serves the checks, the Wu class and the enumeration
    L = graph_to_gram(negdef_plumbing(BrieskornTriple(2, 13, 23)))
    calls = []
    kernel = plumbcalc.lattice._eliminate
    monkeypatch.setattr(plumbcalc.lattice, "_eliminate", lambda rows: calls.append(len(rows)) or kernel(rows))
    assert max_char_square(L).square == 4 * 2 - L.rank  # d = 2
    assert calls == [L.rank]


def test_max_char_square_minus_e8():
    res = max_char_square(MINUS_E8)
    assert res.square == 0 and res.vector == (0,) * 8


def test_max_char_square_diagonal():
    for k in range(1, 6):
        L = GramLattice.diag(*([-1] * k))
        assert max_char_square(L).square == -k


def test_max_char_square_requires_unimodular():
    with pytest.raises(NotUnimodularError, match=r"negative-definite form has \|det\| = 2"):
        max_char_square(GramLattice.diag(-2))


def test_max_char_square_requires_negative_definite():
    with pytest.raises(NotNegativeDefiniteError, match=r"not negative-definite \(inertia \(8, 0, 0\)\)"):
        max_char_square(PLUS_E8)
    with pytest.raises(NotNegativeDefiniteError, match="negative-definite"):
        max_char_square(GramLattice(((0, 1), (1, 0))))
    with pytest.raises(NotNegativeDefiniteError, match=r"\(inertia \(0, 1, 1\)\)"):  # degenerate, so det = 0 too
        max_char_square(GramLattice.diag(-1, 0))
    assert max_char_square(GramLattice.empty()) == (0, ())


def test_max_char_square_witness_is_characteristic():
    rng = random.Random(2024)
    for L in _random_negdef_unimodular(rng, count=20, max_rank=6):
        res = max_char_square(L)
        assert L.norm(res.vector) == res.square
        for i in range(L.rank):
            e = [1 if j == i else 0 for j in range(L.rank)]
            assert (L.pairing(res.vector, e) - L.rows[i][i]) % 2 == 0


def _random_negdef_unimodular(rng, count, max_rank, max_entry=8):
    """Random negative definite unimodular Gram matrices: -U^T U for a
    random unimodular U, rejected when entries get large (the box oracles
    enumerate the full pairing box, so diagonals must stay small)."""
    out = []
    while len(out) < count:
        n = rng.randint(1, max_rank)
        U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = rng.randint(-1, 1)
                for c in range(n):
                    U[i][c] += f * U[j][c]
        rows = [[-sum(U[k][i] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if max(abs(x) for r in rows for x in r) > max_entry:
            continue
        out.append(GramLattice(tuple(tuple(r) for r in rows)))
    return out


def test_max_char_square_box_vs_enlarged_box():
    # acceptance: the production search equals the literal pairing-value box
    # and the 3x-enlarged box on every rank <= 6 test lattice
    rng = random.Random(31337)
    lattices = _random_negdef_unimodular(rng, count=12, max_rank=4, max_entry=5)
    lattices += _random_negdef_unimodular(rng, count=4, max_rank=6, max_entry=3)
    lattices.append(GramLattice.diag(-1, -1, -1))
    for L in lattices:
        got = max_char_square(L).square
        assert got == box_char_max(L, scale=1)
        assert got == box_char_max(L, scale=3)


def test_max_char_square_direct_sum_additivity():
    rng = random.Random(5150)
    for L in _random_negdef_unimodular(rng, count=10, max_rank=5):
        res = minimalize(L)
        lhs = max_char_square(L).square
        rhs = max_char_square(res.minimal).square - res.minus_ones
        assert lhs == rhs


def test_check_os_bound():
    # the Ozsvath-Szabo bound max (c, c) + rank <= 4d
    top = max_char_square(MINUS_E8).square + MINUS_E8.rank
    assert top <= 4 * 2
    assert top == 4 * 2  # equality
    assert max_char_square(GramLattice.diag(-1)).square + 1 <= 4 * 0
    assert not top <= 4 * 1


# ---------------------------------------------------------------------------
# isometry


def test_isometric_permuted_e8():
    perm = [3, 1, 0, 2, 4, 7, 6, 5]
    other = GramLattice(tuple(tuple(MINUS_E8.rows[perm[i]][perm[j]] for j in range(8)) for i in range(8)))
    U = isometric(MINUS_E8, other)
    assert U is not None
    n = 8
    conj = [
        [sum(U[r][i] * sum(MINUS_E8.rows[r][c] * U[c][j] for c in range(n)) for r in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert conj == [list(r) for r in other.rows]


def test_isometric_distinguishes_parity():
    assert isometric(MINUS_E8, GramLattice.diag(*([-1] * 8))) is None


def test_isometric_early_returns():
    I2 = GramLattice.diag(1, 1)
    assert isometric(GramLattice.diag(1), I2) is None  # rank
    assert isometric(I2, GramLattice.diag(-1, -1)) is None  # sign
    assert isometric(I2, GramLattice.diag(1, 2)) is None  # det
    assert isometric(GramLattice(((2, 1), (1, 2))), GramLattice.diag(1, 3)) is None  # parity, det 3 both
    assert isometric(GramLattice.empty(), GramLattice.empty()) == ()
    # x^2 + 5 y^2 has no vector of norm 2, the first basis vector's norm in the other form of det 5
    assert short_vectors(GramLattice.diag(1, 5), 2) == []
    assert isometric(GramLattice.diag(1, 5), GramLattice(((2, 1), (1, 3)))) is None
    # x^2 + y^2 + 4 z^2 has vectors of norms 1 and 2, but two pairs of norm 1 against one: the backtrack fails
    L1, L2 = GramLattice.diag(1, 1, 4), GramLattice.diag(1, 2, 2)
    assert short_vectors(L1, 1) and short_vectors(L1, 2)
    assert isometric(L1, L2) is None and isometric(L2, L2) is not None
    with pytest.raises(NotDefiniteError):
        isometric(GramLattice(((0, 1), (1, 0))), GramLattice(((0, 1), (1, 0))))


def test_isometric_recheck_raises_on_a_wrong_certificate(monkeypatch):
    # a certificate that fails its exact re-check is a fault, never "not isometric"
    monkeypatch.setattr(plumbcalc.lattice, "_congruent", lambda g, U: [[0] * len(g) for _ in g])
    with pytest.raises(AssertionError, match="isometry certificate"):
        isometric(MINUS_E8, MINUS_E8)


def test_isometric_rank_guard():
    big = GramLattice.diag(*([-1] * 13))
    with pytest.raises(ScanGuardExceededError, match="^isometric rank guard exceeded: lattice rank 13 > 12$"):
        isometric(big, big)
