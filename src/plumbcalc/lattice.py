"""Exact integral-lattice engine.

A lattice is stored as its Gram matrix (symmetric, integer).  All operations
are exact, and the rational elimination of a Gram matrix goes through one
kernel, ``_eliminate``: symmetric LDL^T elimination over the rationals in
index order, with one +-add of a later basis vector at a zero diagonal and a
null (pivot 0) at a zero row, so position k is basis index k for every form.
Its pivots give the determinant (their product) and the inertia (their signs,
by Sylvester's law), which decide signature and definiteness; its factors give
exact solves and, scaled to integers once per elimination, drive the integer
Fincke-Pohst enumeration of ``max_char_square``, ``short_vectors``,
``minimalize`` and ``isometric``.  A ``GramLattice`` is eliminated at most
once, by its cached ``_elimination``, and every operation below reads that
one elimination.  Plumbing trees do not come here: ``plumbing._tree_eliminate``
eliminates them from subtree determinants in integers, and ``_eliminate`` is
the tests' oracle for it.  Both results answer by the same names: ``det``
and ``inertia`` are values (``inertia.sign`` is +1 / -1 on a definite form,
else None) and ``solve`` is a method.  So the Wu class (``_wu``) and the
check "negative definite, |det| = 1" (``_negdef_unimodular``) are written
once, here, for both kernels, and ``_Enumerator`` reads its sign off the
inertia and refuses an indefinite form itself.  Nothing here touches a float.

Conventions used by several operations:

* a *characteristic vector* c satisfies (c, v) == (v, v) mod 2 for every
  basis vector v, i.e. ``G c == diag(G) (mod 2)``;
* the *Wu class* is the unique characteristic vector with 0/1 coordinates
  (unique exactly when det(G) is odd);
* ``minimalize`` splits off all norm +-1 vectors as orthogonal <+-1>
  summands in one pass, returning a unimodular base-change certificate.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import Frozen
from .guards import guard


class NotDefiniteError(ValueError):
    """Operation requires a (positive or negative) definite lattice."""


class NotNegativeDefiniteError(NotDefiniteError):
    """Operation requires a negative definite lattice."""


class NotUnimodularError(ValueError):
    """Operation requires |det| = 1."""


class SingularMod2Error(ValueError):
    """The Gram matrix is singular mod 2 (det is even); Wu class not unique."""


# ---------------------------------------------------------------------------
# Gram lattices


class GramLattice(Frozen):
    """A symmetric integer Gram matrix; rank 0 is the valid empty lattice."""

    _fields = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        rows = tuple(tuple(map(index, row)) for row in rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.__dict__["rows"] = rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def _elimination(self) -> "_Elimination":
        """``_eliminate`` of the Gram matrix, run once per lattice."""
        return _eliminate(self.rows)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.rank))

    def negate(self) -> "GramLattice":
        return GramLattice(tuple(tuple(-x for x in row) for row in self.rows))

    def direct_sum(self, other: "GramLattice") -> "GramLattice":
        n, m = self.rank, other.rank
        rows = []
        for i in range(n):
            rows.append(self.rows[i] + (0,) * m)
        for i in range(m):
            rows.append((0,) * n + other.rows[i])
        return GramLattice(tuple(rows))

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        """The bilinear form v^T G w (exact integer)."""
        total = 0
        for i, vi in enumerate(v):
            if vi:
                row = self.rows[i]
                total += vi * sum(row[j] * wj for j, wj in enumerate(w) if wj)
        return total

    def norm(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    @classmethod
    def from_edges(cls, diagonal: Sequence[int], edges: Iterable[tuple[int, int, int]]) -> "GramLattice":
        """A plumbing's form: ``diagonal`` on the diagonal, k at (a, b) and (b, a) per edge (a, b, k)."""
        n = len(diagonal)
        rows = [[0] * n for _ in range(n)]  # zero rows, then the diagonal: fast at rank 1000+
        for i, w in enumerate(diagonal):
            rows[i][i] = w
        for a, b, k in edges:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) is not a pair of distinct indices below {n}")
            rows[a][b] = rows[b][a] = k
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def diag(cls, *entries: int) -> "GramLattice":
        return cls.from_edges(entries, ())

    @classmethod
    def empty(cls) -> "GramLattice":
        return cls(())


def e8_gram(sign: int = 1) -> GramLattice:
    """The E8 Gram matrix from the standard tree (weights all 2*sign).

    The tree is a 7-vertex path with one extra leaf attached to the 5th
    vertex; sign=-1 gives the negative-definite form.
    """
    return GramLattice.from_edges((2 * sign,) * 8, [(a, a + 1, 1) for a in range(6)] + [(4, 7, 1)])


# ---------------------------------------------------------------------------
# The elimination kernel: determinant, inertia, solves


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def sigma(self) -> int:
        return self.n_plus - self.n_minus

    # +1 / -1 for a positive / negative definite form (+1 at rank 0), else None
    sign = property(lambda s: None if s.n_zero or (s.n_plus and s.n_minus) else -1 if s.n_minus else 1)


class _Elimination(NamedTuple):
    """A congruence G ~ diag(pivots), in the lattice's own coordinates.

    ``rows[k]`` lists the (j, u) with j > k of the unit factor, so a definite
    G has x^T G x = sum_k pivots[k] (x_k + sum u x_j)^2.  ``adds[k]`` is None
    or the (j, t) of the one basis change e_k += t e_j made before pivot k.
    A null direction has pivot 0 and no factor.  ``det`` is the product of
    the pivots (0 with a null) and ``inertia`` their sign counts.  A definite
    G never adds or nulls (see ``_eliminate``).
    """

    pivots: list[Fraction]
    rows: list[list[tuple[int, Fraction]]]
    adds: list[Optional[tuple[int, int]]]
    det: int
    inertia: Signature

    def solve(self, rhs: Sequence) -> list[Fraction]:
        """The x with G x = rhs (G nonsingular), by substitution on the factors."""
        if not self.det:
            raise ZeroDivisionError("the Gram matrix is singular")
        b = [Fraction(v) for v in rhs]
        for k, row in enumerate(self.rows):
            if self.adds[k]:
                j, t = self.adds[k]
                b[k] += t * b[j]
            for j, u in row:
                b[j] -= u * b[k]
        for k in reversed(range(len(b))):  # b becomes x, from the back
            b[k] = b[k] / self.pivots[k] - sum(u * b[j] for j, u in self.rows[k])
            if self.adds[k]:
                j, t = self.adds[k]
                b[j] += t * b[k]
        return b


def _eliminate(rows: Sequence[Sequence[int]]) -> _Elimination:
    """Symmetric exact LDL^T elimination of the Gram matrix ``rows``, in one
    pass; it works on the nonzero entries m_ij of each row, kept in a dict.

    Basis vectors are pivoted in index order k = 0..n-1.  At a zero diagonal
    m_kk with a nonzero entry, the smallest such column j > k is added once:
    e_k += t e_j (a unimodular congruence) makes the pivot 2t m_kj + m_jj,
    with t = +1 unless that vanishes, when t = -1 gives -4 m_kj.  A zero row
    is a null direction, pivot 0.  So det is the product of the pivots and
    the inertia is their sign counts (Sylvester's law of inertia).  A
    definite G never adds or nulls: its k-th pivot is the ratio of its
    leading principal minors of orders k + 1 and k, all nonzero by
    Sylvester's criterion.
    """
    m = [{j: x for j, x in enumerate(row) if x} for row in rows]
    pivots: list[Fraction] = []
    factors: list[list[tuple[int, Fraction]]] = []
    adds: list[Optional[tuple[int, int]]] = []
    for k, row in enumerate(m):
        add = None
        if row and k not in row:
            j = min(row)
            t = 1 if 2 * row[j] + m[j].get(j, 0) else -1
            add = j, t
            for c, x in m[j].items():  # row k += t row j, then column k += t column j
                row[c] = row.get(c, 0) + t * x
            row[k] += t * row[j]
            for c, x in list(row.items()):  # column k follows row k
                if c != k:
                    if x:
                        m[c][k] = x
                    else:
                        del row[c], m[c][k]
        d = Fraction(row.pop(k, 0))
        factor = []
        for r, x in row.items():
            f, mr = x / d, m[r]
            factor.append((r, f))
            del mr[k]
            for c, y in row.items():
                v = mr.get(c, 0) - f * y
                if v:
                    mr[c] = v
                else:
                    del mr[c]
        pivots.append(d)
        factors.append(factor)
        adds.append(add)
    plus, minus = sum(d > 0 for d in pivots), sum(d < 0 for d in pivots)
    return _Elimination(
        pivots, factors, adds, int(prod(pivots)), Signature(plus, minus, len(pivots) - plus - minus)
    )


def determinant(L: GramLattice) -> int:
    """Exact determinant, the product of the kernel's pivots; empty -> 1."""
    return L._elimination.det


def signature(L: GramLattice) -> Signature:
    """Counts of positive/negative/zero eigenvalues: the kernel's inertia."""
    return L._elimination.inertia


class Definiteness(Enum):
    POSITIVE = "positive-definite"
    NEGATIVE = "negative-definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class Classification(NamedTuple):
    definiteness: Definiteness
    parity: Parity
    unimodular: bool


def classify(L: GramLattice) -> Classification:
    """(definiteness, parity, unimodularity) of the lattice.

    Even means every diagonal entry is even; unimodular means |det| = 1.
    The empty lattice classifies as positive definite, even, unimodular.
    """
    elim = L._elimination
    if elim.inertia.n_zero:
        d = Definiteness.DEGENERATE
    else:
        d = {1: Definiteness.POSITIVE, -1: Definiteness.NEGATIVE, None: Definiteness.INDEFINITE}[elim.inertia.sign]
    parity = Parity.EVEN if all(x % 2 == 0 for x in L.diagonal()) else Parity.ODD
    return Classification(d, parity, abs(elim.det) == 1)


def recognize_e8(L: GramLattice) -> Optional[int]:
    """+1 for the E8 form, -1 for -E8, None otherwise.

    Uses the classification of definite even unimodular rank-8 forms: rank 8,
    even, |det| = 1 and definiteness determine the form.
    """
    if L.rank != 8:
        return None
    if any(x % 2 for x in L.diagonal()):
        return None
    elim = L._elimination
    return elim.inertia.sign if abs(elim.det) == 1 else None


# ---------------------------------------------------------------------------
# Wu classes


def wu_class(L: GramLattice) -> tuple[int, ...]:
    """The unique 0/1 vector eps with ``G eps == diag(G) (mod 2)``.

    Raises :class:`SingularMod2Error` when det(G) is even (the mod-2 system
    is then singular and the solution is not unique).
    """
    return _wu(L._elimination, L.diagonal())


def _wu(elim, diag: Sequence[int]) -> tuple[int, ...]:
    """``wu_class`` of the Gram matrix G whose elimination is ``elim``, by
    either kernel (``_eliminate`` or ``plumbing._tree_eliminate``), and whose
    diagonal is ``diag``.

    For odd det, det G^{-1} is the adjugate, so x = G^{-1} (det diag G) is
    integral and eps = x mod 2 solves G eps == det diag(G) == diag(G) (mod 2).
    """
    if elim.det % 2 == 0:
        raise SingularMod2Error("Gram matrix is singular mod 2")
    return tuple(int(x) % 2 for x in elim.solve([elim.det * d for d in diag]))


def _negdef_unimodular(elim):
    """``elim`` (of either kernel) after the check every caller on a homology
    sphere makes: negative definite (else NotNegativeDefiniteError), then
    |det| = 1 (else NotUnimodularError).  Rank 0 passes."""
    if elim.inertia.n_plus or elim.inertia.n_zero:
        raise NotNegativeDefiniteError(f"the form is not negative-definite (inertia {tuple(elim.inertia)})")
    if abs(elim.det) != 1:
        raise NotUnimodularError(f"the negative-definite form has |det| = {abs(elim.det)}, not 1")
    return elim


# ---------------------------------------------------------------------------
# Exact quadratic-form enumeration (Fincke-Pohst in scaled integers)


class _Enumerator:
    """Exact enumeration over Q(x - center) for x in Z^n, in integers.

    G is definite, of sign ``sign = elim.inertia.sign`` (else NotDefiniteError),
    and Q = sign * G is read off the elimination of G, in the lattice's own
    coordinates (a definite G is pivoted in index order with no add and no
    null, by Sylvester's criterion): Q(y) = sum_i d_i (y_i + sum_j u_ij y_j)^2
    with d_i = sign * pivot_i.  It is scaled once per elimination: with Lu
    the lcm of the denominators of the u_ij and Dd that of the d_i, ``U``
    holds u_ij Lu and ``W`` holds d_i Dd, all integers.  A run takes a center
    as integer numerators C over one denominator den; with L = Lu den every
    value it handles is an integer scaled by S = Dd L^2 (``scale``), so no
    rational is built per node.

    Enumeration is depth-first from the last coordinate, visiting candidate
    values of each coordinate outward from the real-valued minimizer, which
    makes the first full assignment the Babai nearest point and gives strong
    exact pruning.
    """

    def __init__(self, elim: _Elimination):
        self.sign = sign = elim.inertia.sign
        if sign is None:
            raise NotDefiniteError(f"enumeration requires a definite lattice (inertia {tuple(elim.inertia)})")
        self.lu = lcm(*(u.denominator for row in elim.rows for _, u in row))
        self.dd = lcm(*(d.denominator for d in elim.pivots))
        self.W = [int(sign * d * self.dd) for d in elim.pivots]
        self.U = [[(q, int(u * self.lu)) for q, u in row] for row in elim.rows]

    def scale(self, den: int) -> int:
        """S = Dd (Lu den)^2: a run with denominator den reports Q * S."""
        return self.dd * (self.lu * den) ** 2

    def run(self, center: Sequence[int], den: int, bound: int, on_leaf: Callable[[list[int], int], Optional[int]]):
        """Visit every x with Q(x - center/den) * S <= bound, S = scale(den).

        ``on_leaf(x, value)`` gets the scaled value and may return a new
        (smaller) scaled bound to shrink the search on the fly, or None to
        keep the current bound.
        """
        n = len(self.W)
        if n == 0:
            on_leaf([], 0)
            return
        W, U, L = self.W, self.U, self.lu * den
        CL = [c * self.lu for c in center]
        x = [0] * n
        Y = [0] * n  # Y_j = x_j den - C_j = (x_j - center_j) den
        # the depth-first descent as a loop, so the recursion limit caps no
        # rank; per level above the leaves: its candidates, the next position,
        # its shifted center and the partial sum above it
        cands, pos, Zs, part = [()] * n, [0] * n, [0] * n, [0] * n
        state_bound = bound
        i, total = n - 1, 0
        while True:
            # open level i below the partial sum `total`
            order, Z, budget = (), 0, state_bound - total
            if budget >= 0:
                # shifted center z = Z/L for coordinate i given the choices above it
                Z = CL[i]
                for j, uij in U[i]:
                    Z -= uij * Y[j]
                # W (x L - Z)^2 <= budget  <=>  |x L - Z| <= s, as (x L - Z)^2 is an integer
                s = isqrt(budget // W[i])
                lo, hi = -((s - Z) // L), (Z + s) // L
                if lo <= hi:
                    # zigzag outward from the nearest integer floor(z + 1/2), lower value first on ties
                    base = min(max((2 * Z + L) // (2 * L), lo), hi)
                    order = [base]
                    for step in range(1, max(base - lo, hi - base) + 1):
                        if base - step >= lo:
                            order.append(base - step)
                        if base + step <= hi:
                            order.append(base + step)
            if i:
                cands[i], pos[i], Zs[i], part[i] = order, 0, Z, total
            else:  # the leaves, the busiest level, in one plain loop
                w = W[0]
                for xi in order:
                    t = xi * L - Z
                    leaf = total + w * t * t
                    if leaf <= state_bound:
                        x[0] = xi
                        new = on_leaf(x, leaf)
                        if new is not None and new < state_bound:
                            state_bound = new
                i = 1
            # the next candidate within the bound, backing up past exhausted levels
            while i < n:
                order, k = cands[i], pos[i]
                if k == len(order):
                    i += 1
                    continue
                pos[i] = k + 1
                xi = order[k]
                t = xi * L - Zs[i]
                total = part[i] + W[i] * t * t
                if total <= state_bound:
                    x[i] = xi
                    Y[i] = xi * den - center[i]
                    break
            else:
                return
            i -= 1


def _closest_point(enum: _Enumerator, center: Sequence[int], den: int) -> tuple[Fraction, tuple[int, ...]]:
    """Minimize Q(x - center/den) over integer x, for the positive definite
    Q = sign * G that ``enum`` enumerates; ``center`` holds integer numerators.

    Returns (minimum value, first minimizer in the deterministic search
    order).  The initial bound is the value at the coordinatewise rounding
    of the center, which is also the minimizer until a leaf beats it.
    """
    W, U, lu = enum.W, enum.U, enum.lu
    x0 = [(2 * c + den) // (2 * den) for c in center]
    Y = [x * den - c for x, c in zip(x0, center)]
    bound = sum(w * (Y[i] * lu + sum(u * Y[j] for j, u in U[i])) ** 2 for i, w in enumerate(W))
    best: list = [bound, tuple(x0)]

    def on_leaf(x: list[int], value: int):
        if value < best[0]:
            best[0] = value
            best[1] = tuple(x)
            return value
        return None

    enum.run(center, den, bound, on_leaf)
    return Fraction(best[0], enum.scale(den)), best[1]


# ---------------------------------------------------------------------------
# Short vectors, characteristic-vector maxima


def short_vectors(L: GramLattice, norm_target: int) -> list[tuple[int, ...]]:
    """All v with (v, v) = norm_target, one representative per +-pair.

    Requires L definite with norm_target of the matching sign (0 targets are
    rejected: definite forms have no nonzero null vectors).
    """
    return _short_vectors(_Enumerator(L._elimination), norm_target)


def _short_vectors(enum: _Enumerator, norm_target: int) -> list[tuple[int, ...]]:
    """``short_vectors`` on the lattice that ``enum`` enumerates."""
    n = len(enum.W)
    if not n or norm_target == 0 or (norm_target > 0) != (enum.sign > 0):
        return []
    target = abs(norm_target) * enum.scale(1)
    found: list[tuple[int, ...]] = []

    def on_leaf(x: list[int], value: int):
        if value == target and next(v for v in x if v) > 0:  # the +-pair representative
            found.append(tuple(x))
        return None

    enum.run([0] * n, 1, target, on_leaf)
    return sorted(found)


class CharMax(NamedTuple):
    square: int
    vector: tuple[int, ...]


def max_char_square(L: GramLattice) -> CharMax:
    """Maximum of (c, c) over characteristic vectors c, with a witness.

    Requires L negative definite and unimodular.  The search space is the
    classical pairing-value box: any c with some pairing (c, v) outside
    [ (v,v), -(v,v) ] is strictly improved by a +-2v move, so the box always
    contains a maximizer.  Computationally the lattice is first split as
    minimal (+) <-1>^N; each <-1> summand contributes exactly -1 (the
    direct-sum additivity of the characteristic maximum) and the minimal
    part is finished by exact closest-vector enumeration over its coset
    c0 + 2Z^n.  Agreement with literal box searches is property-tested.
    This enumeration is exponential in rank; it is the tests' oracle for
    ``lens.d_from_plumbing``.
    """
    _negdef_unimodular(L._elimination)
    n = L.rank
    split = minimalize(L)
    minimal = split.minimal._elimination
    c0 = _wu(minimal, split.minimal.diagonal())
    val, v = _closest_point(_Enumerator(minimal), [-c for c in c0], 2)
    # c = c0 + 2v on the minimal part, where c^T(-G)c = 4 * val, and 1 on each <-1>
    block_vec = [c + 2 * x for c, x in zip(c0, v)] + [1] * split.minus_ones
    B = split.basis_change
    cert = tuple(sum(B[r][j] * block_vec[j] for j in range(n)) for r in range(n))
    square = -4 * val - split.minus_ones
    assert square.denominator == 1 and L.norm(cert) == square
    return CharMax(int(square), cert)


# ---------------------------------------------------------------------------
# Minimalization (splitting off <+-1> summands)


def _kernel_basis(A: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """A basis of {x in Z^n : A x = 0} for an integer A of full row rank.

    Column-Euclid reduction: unimodular column operations on A stacked over
    the identity bring row r of A to one nonzero entry, in column r, for each
    row in turn.  Then A V = [H | 0] with V unimodular, and V's last n - k
    columns (k = rows of A) are the basis.
    """
    k = len(A)
    cols = [[row[c] for row in A] + [int(c == i) for i in range(n)] for c in range(n)]
    for r in range(k):
        while True:
            nz = [c for c in range(r, n) if cols[c][r]]
            piv = min(nz, key=lambda c: abs(cols[c][r]))
            if len(nz) == 1:
                break
            for c in nz:
                q = cols[c][r] // cols[piv][r]
                if c != piv and q:
                    cols[c] = [x - q * y for x, y in zip(cols[c], cols[piv])]
        cols[r], cols[piv] = cols[piv], cols[r]
    return [col[k:] for col in cols[k:]]


def _mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def _congruent(g: Sequence[Sequence[int]], U: Sequence[Sequence[int]]) -> list[list[int]]:
    """U^T g U for integer matrices."""
    return _mat_mul([list(col) for col in zip(*U)], _mat_mul(g, U))


class Minimalization(Frozen):
    """Result of splitting all <+-1> summands off a definite lattice.

    ``basis_change`` is a unimodular matrix B (columns are lattice vectors in
    the original basis) with B^T G B equal to the block matrix
    minimal (+) <+1>^plus_ones (+) <-1>^minus_ones, in that column order.
    """

    _fields = ("minimal", "plus_ones", "minus_ones", "basis_change")

    def __init__(self, minimal: GramLattice, plus_ones: int, minus_ones: int, basis_change: tuple[tuple[int, ...], ...]):
        self.__dict__.update(minimal=minimal, plus_ones=plus_ones, minus_ones=minus_ones, basis_change=basis_change)


def minimalize(L: GramLattice) -> Minimalization:
    """Split L as minimal (+) <+1>^a (+) <-1>^b with a unimodular certificate.

    In a definite lattice two unit vectors u != +-v are orthogonal: by
    Cauchy-Schwarz |(u, v)| < |(u, u)| = 1, and (u, v) is an integer.  So one
    enumeration finds every unit vector u_1..u_k (one per +-pair), they span
    an orthogonal <+-1>^k, and the minimal part is its orthogonal complement
    {x : (x, u_i) = 0 for all i}, which is unique.  Its basis comes from one
    ``_kernel_basis``, its Gram from one congruence.  A lattice without unit
    vectors is returned itself, with the identity as basis change.  The
    split columns follow the unit vectors in sorted order.
    """
    n, enum = L.rank, _Enumerator(L._elimination)  # raises NotDefiniteError unless L is definite
    units = _short_vectors(enum, enum.sign)
    if not units:
        z = (0,) * n  # the identity by tuple slicing, several times faster at rank 1000
        return Minimalization(L, 0, 0, tuple(z[:i] + (1,) + z[i + 1 :] for i in range(n)))
    # the complement: the kernel of x -> ((x, u_i))_i, whose matrix is (G U)^T
    K = _kernel_basis(list(zip(*_mat_mul(L.rows, list(zip(*units))))), n)
    minimal = GramLattice(tuple(map(tuple, _congruent(L.rows, list(zip(*K))))))
    plus = len(units) if enum.sign > 0 else 0
    return Minimalization(minimal, plus, len(units) - plus, tuple(zip(*K, *units)))


# ---------------------------------------------------------------------------
# Isometry testing (small ranks)


def isometric(L1: GramLattice, L2: GramLattice) -> Optional[tuple[tuple[int, ...], ...]]:
    """A base change U with U^T G1 U = G2, or None; definite lattices only.

    Backtracks over images of L2's basis vectors among vectors of the right
    norm in L1, under the isometric rank guard; invariant mismatches short-circuit to None.
    """
    guard("isometric rank", max(L1.rank, L2.rank))
    if L1.rank != L2.rank:
        return None
    e1, e2 = L1._elimination, L2._elimination
    s1, s2 = e1.inertia.sign, e2.inertia.sign
    if s1 is None or s2 is None:
        raise NotDefiniteError("isometric requires definite lattices")
    if s1 != s2 or e1.det != e2.det:
        return None
    if all(x % 2 == 0 for x in L1.diagonal()) != all(x % 2 == 0 for x in L2.diagonal()):
        return None
    n = L1.rank
    if n == 0:
        return ()
    targets = L2.diagonal()
    enum = _Enumerator(e1)
    candidates: dict[int, list[tuple[int, ...]]] = {}
    for t in set(targets):
        reps = _short_vectors(enum, t)
        signed = reps + [tuple(-x for x in v) for v in reps]
        candidates[t] = signed
        if not signed:
            return None
    assign: list[tuple[int, ...]] = []

    def ok(v: tuple[int, ...], idx: int) -> bool:
        for j, w in enumerate(assign):
            if L1.pairing(v, w) != L2.rows[idx][j]:
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        for v in candidates[targets[idx]]:
            if ok(v, idx):
                assign.append(v)
                if backtrack(idx + 1):
                    return True
                assign.pop()
        return False

    if not backtrack(0):
        return None
    U = tuple(tuple(assign[j][r] for j in range(n)) for r in range(n))
    # nonsingularity (hence |det U| = 1, as det G1 = det G2) is automatic,
    # but assert the congruence exactly for safety
    assert _congruent(L1.rows, U) == [list(r) for r in L2.rows], "isometry certificate fails U^T G1 U = G2"
    return U
