"""Heegaard Floer correction terms of lens spaces and plumbed spheres.

Recursion.  The engine is the classical exact descent

    R(p, q, j) = ((2j + 1 - p - q)^2 - p q) / (4 p q) - R(q, p mod q, j mod q)

for 0 <= j < p + q with R(1, 0, 0) = 0, whose labels j restricted to
0 <= j < p enumerate the p spin^c structures (R is p-periodic on the
overhang j in [p, p+q), which the tests verify).  Each call recomputes the
integers N = 4p R with no memo: one label per level for ``lens_d``, O(log p);
one flat list per level for all labels, q exact divisions and p - q additions
(``_level``).  ``d_surgery`` reads L(p, 1) in closed form, 4p R(p, 1, j) =
(2j - p)^2 - p, and L(p, q) label by label on a window.

Labeling convention (pinned, recorded).  The public ``lens_d(p, q, i)``
uses the surgery-style labeling in which the familiar affine
correspondence  i |-> k i + c,  c = (k+1+p)(k-1)/2 mod p  identifies the
spin^c structures of a p-surgery with those of the lens space L(p, q) it
produces (k the dual class of the surgery knot).  The two labelings are
related by the bijection

    lens_d(p, q, i) = R(p, q, (q (i + 1) - 1) mod p),

which is the identity for q = 1.  The map is pinned by two independent
anchors and is exercised by the test suite: (a) the multiset of all p
values agrees with the plumbing-based oracle below for every p <= 40;
(b) the published closed-form values for the surgery families
(e.g. d(L(23, 2)) = 81/46 at label 1) are reproduced exactly, and the
cross-method identity d_surgery == d_from_plumbing holds on the Brieskorn
families.  With this labeling the surgery maximum formula

    d(S) = max_i [ d(p, q, k i + c) - d(p, 1, i) ]

holds with k and c used literally.

Oracle.  ``lens_d_oracle`` computes the same multiset of correction terms by
a method sharing no code path with the recursion: it builds a
negative-definite linear plumbing for the lens space (choosing the shorter
of the two continued-fraction routes) and maximizes
(c^2 + rank)/4 over each coset of characteristic covectors by exact
closest-vector enumeration.  The p cosets share one elimination of the chain
and one integer enumerator built from it; their centres come from two solves.

Plumbed spheres.  ``d_from_plumbing`` scans Nemethi's tau-function (a convex
quadratic minus periodic tables) on a provable window around its vertex and
solves for K on the plumbing's integer tree kernel, with a certificate
re-checked against the tree's edges; ``lattice.max_char_square`` is the
tests' oracle.

Guards (``guards.GUARDS``).  The lens labels guard bounds all-labels work and
the labels ``d_surgery`` evaluates; a single ``lens_d`` label is not guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, compress, count, cycle, islice, repeat, takewhile
from math import gcd, isqrt, prod
from operator import add, floordiv, index, mod, mul, sub
from typing import NamedTuple, Optional

from .arith import NotCoprimeError, _hj_word, mod_inverse
from .guards import GUARDS, guard
from .lattice import _closest_point, _Enumerator, _negdef_unimodular
from .plumbing import BrieskornTriple, ChainDiagram, PlumbingGraph, _leg_continuants, brieskorn_seifert, chain_to_gram, negdef_plumbing, star_legs

TauWindow = tuple[int, int, int, int, list[list[int]]]  # (lo, hi, A, b, tables) of ``_tau_window``


# ---------------------------------------------------------------------------
# Lens spaces and the recursion


@dataclass(frozen=True)
class LensSpace:
    """L(p, q) = p/q surgery on the unknot; p = 1 (with q = 0) is S^3."""

    p: int
    q: int

    def __post_init__(self):
        p, q = index(self.p), index(self.q)
        if p < 1:
            raise ValueError("p must be >= 1")
        q %= p
        if p == 1:
            q = 0
        elif q == 0 or gcd(p, q) != 1:
            raise NotCoprimeError(f"L({p},{q}) needs 0 < q < p coprime to p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def _descent_label(p: int, q: int, j: int) -> int:
    """N = 4p R(p, q, j) for one label 0 <= j < p + q: N(p, q, j) = ((2j + 1 - p - q)^2
    - p q - p N(q, p mod q, j mod q)) / q, exact as c^2 lies in Z/p on a plumbing of det p."""
    levels = []
    while p != 1:
        levels.append((p, q, j))
        p, q, j = q, p % q, j % q
    n = 0
    for p, q, j in reversed(levels):
        n, rem = divmod((2 * j + 1 - p - q) ** 2 - p * q - p * n, q)
        if rem:
            raise AssertionError(f"4p R({p}, {q}, {j}) is not an integer")
    return n


def _level(p: int, q: int, below: list[int]) -> list[int]:
    """[N(p, q, j) for 0 <= j < p] from ``below``, the q values N(q, p mod q, r).

    V(j) = q N(j) = (2j + 1 - p - q)^2 - p q - p below[j mod q] has V(j + q) - V(j)
    = 4q (2j + 1 - p), so V(j) mod q depends on j mod q only: the q divisions of
    the residues r < q check the exactness of every label.  The rest is additions:
    N(j + q) = N(j) + 8j + 4 - 4p, summed m times N(j + mq) = N(j) + m (8j + 4 - 4p)
    + 4q m (m - 1), which doubles the filled prefix (a multiple mq of q) per step.
    """
    x = range(1 - p - q, q + 1 - p, 2)  # 2r + 1 - p - q for r < q
    v = list(map(sub, map(mul, x, x), map(mul, map(add, below, repeat(q)), repeat(p))))
    for r in compress(count(), map(mod, v, repeat(q))):
        raise AssertionError(f"4p R({p}, {q}, {r}) is not an integer")
    num = list(map(floordiv, v, repeat(q)))
    while len(num) < p:
        m = len(num) // q
        start = m * (4 - 4 * p) + 4 * q * m * (m - 1)
        num += list(map(add, num, range(start, start + 8 * m * (p - len(num)), 8 * m)))
    return num


def _descent_table(p: int, q: int) -> list[int]:
    """[4p R(p, q, j) for 0 <= j < p], one flat list per level of the Euclidean chain,
    at most about 1.44 log2(p) deep, under the lens labels guard."""
    guard("lens labels", p)
    return [0] if p == 1 else _level(p, q, _descent_table(q, p % q))


def lens_d(p: int, q: int, i: int) -> Fraction:
    """Correction term of L(p, q) at spin^c label ``i`` (surgery labeling), in O(log p)."""
    L = LensSpace(p, q)
    if not (0 <= i < L.p):
        raise ValueError(f"label {i} out of range for p = {L.p}")
    return Fraction(_descent_label(L.p, L.q, (L.q * (i + 1) - 1) % L.p), 4 * L.p)


def lens_d_numerators(p: int, q: int) -> tuple[int, list[int]]:
    """(4p, [4p d(L(p, q), i) for 0 <= i < p]): all correction terms as unreduced
    integer numerators over one denominator, by spin^c label."""
    L = LensSpace(p, q)
    num = _descent_table(L.p, L.q)
    return 4 * L.p, [num[(L.q * (i + 1) - 1) % L.p] for i in range(L.p)]


def lens_d_all(p: int, q: int) -> dict[int, Fraction]:
    """All p correction terms of L(p, q), keyed by spin^c label."""
    den, nums = lens_d_numerators(p, q)
    return {i: Fraction(n, den) for i, n in enumerate(nums)}


# ---------------------------------------------------------------------------
# Independent oracle via negative-definite linear plumbings


def _chain_route(p: int, q: int) -> tuple[tuple[int, ...], bool]:
    """Shorter of the two chain presentations of +-L(p, q): (all >= 2 expansion word, negate), where the
    chain with negated word bounds -L(p, x); x = p - q gives L(p, q), x = q gives -L(p, q), whose
    correction terms are negated.  The word of x^{-1} mod p is the word of x reversed, no shorter, so the
    inverses are not tried."""
    return min(((_hj_word(p, x), negate) for x, negate in ((p - q, False), (q, True))), key=lambda t: (len(t[0]), t[1]))


def lens_d_oracle(p: int, q: int) -> dict[int, Fraction]:
    """Correction terms of L(p, q) from a negative-definite chain plumbing.

    For each of the p cosets of characteristic covectors the maximum of
    c^2 is found by exact closest-vector enumeration, and
    d = (max c^2 + rank)/4 on the chain boundary.  Labels are the oracle's
    own canonical coset indices; only the multiset is comparable with
    ``lens_d_all`` (the two methods share no conventions, and no code).
    Guarded by the oracle lens order.
    """
    L = LensSpace(p, q)
    p, q = L.p, L.q
    guard("oracle lens order", p)
    if p == 1:
        return {0: Fraction(0)}
    word, negate = _chain_route(p, q)
    G = chain_to_gram(ChainDiagram(tuple(-c for c in word)))
    n = G.rank
    elim = G._elimination  # negative definite
    det = abs(elim.det)
    assert det == p
    # canonical coset functional: phi(u) = <a, u> mod p with a = det * G^{-1} e0, where a_0 is
    # +- the continuant of the chain past vertex 0, i.e. +-x, a unit mod p
    a_vec = elim.solve([det if i == 0 else 0 for i in range(n)])
    assert all(x.denominator == 1 for x in a_vec)
    a_int = [int(x) for x in a_vec]
    inv_a0 = mod_inverse(a_int[0], p)
    # coset s has t = diag(G) + 2 u_s e_0 with u_s = s / a_0 mod p, and centre
    # -G^{-1} t / 2 = -(base + 2 u_s a) / (2 det), base integral
    base = [int(det * x) for x in elim.solve(G.diagonal())]
    enum = _Enumerator(elim)
    out: dict[int, Fraction] = {}
    for s in range(p):
        u = (s * inv_a0) % p
        val, _ = _closest_point(enum, [-(b + 2 * u * a) for b, a in zip(base, a_int)], 2 * det)
        d_val = (n - 4 * val) / 4  # 4 val is the minimum of c^T(-G)c over the coset
        out[s] = -d_val if negate else d_val
    return out


# ---------------------------------------------------------------------------
# The surgery maximum formula


@dataclass(frozen=True)
class SurgeryDescriptor:
    """Lens surgery data: slope p, lens parameter q (reduced mod p) and dual
    class k coprime to p.  The affine constant ``c`` of the labels k i + c
    is derived from them."""

    p: int
    q: int
    k: int

    def __post_init__(self):
        p, k = index(self.p), index(self.k)
        if gcd(k, p) != 1:
            raise NotCoprimeError("dual class k must be coprime to p")
        object.__setattr__(self, "q", LensSpace(p, self.q).q)  # validated, 0 <= q < p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)

    @property
    def c(self) -> int:
        """(k+1+p)(k-1)/2 mod p; the product is even (k is odd when p is even)."""
        return (((self.k + 1 + self.p) * (self.k - 1)) // 2) % self.p


class SurgeryResult(NamedTuple):
    value: Fraction
    witness: int
    witnesses: tuple[int, ...]


def _chain_bounds(p: int, q: int) -> tuple[int, int]:
    """(lo, hi) with lo <= N(p, q, j) <= hi for 0 <= j < p, by the extremes of (2j + 1 - p - q)^2 per level."""
    if p == 1:
        return 0, 0
    lo, hi = _chain_bounds(q, p % q)
    return -((p * q + p * hi - (p + q + 1) % 2) // q), ((p + q - 1) ** 2 - p * q - p * lo) // q


def d_surgery(desc: SurgeryDescriptor) -> SurgeryResult:
    """max over 0 <= i < p of d(p, q, k i + c) - d(p, 1, i), with argmaxes.

    The L-space hypotheses behind the formula are the caller's responsibility.  With t = |2i - p| the
    gap 4p (d(p, q, k i + c) - d(p, 1, i)) + p is N(p, q, j) - t^2 <= N* - t^2, N* from ``_chain_bounds``:
    a gap >= best has t^2 <= N* - best, so labels visited by increasing t until t^2 > N* - best hold
    every argmax, not just a witness.  The lens labels guard counts the labels evaluated.
    """
    p, q, k, c = desc.p, desc.q, desc.k, desc.c
    limit = GUARDS["lens labels"].bound
    lo, top = _chain_bounds(p, q)
    best, gaps = lo - p * p, {}  # best starts below every gap and only grows, so the window only shrinks
    for t in takewhile(lambda t: t * t <= top - best, range(p % 2, p + 1, 2)):
        for i in {(p - t) // 2, (p + t) // 2 % p}:
            if len(gaps) == limit:
                guard("lens labels", limit + 1)
            gaps[i] = _descent_label(p, q, (q * (k * i + c + 1) - 1) % p) - t * t  # at label k i + c
            best = max(best, gaps[i])
    winners = sorted(i for i, g in gaps.items() if g == best)
    return SurgeryResult(Fraction(best + p, 4 * p), winners[0], tuple(winners))


# ---------------------------------------------------------------------------
# d-invariants of negative-definite plumbed homology spheres


class DFromPlumbing(NamedTuple):
    value: Fraction
    vector: tuple[int, ...]


def _tau_window(branches: list[tuple[int, int]]) -> TauWindow:
    """(lo, hi, A, b, tables) with every minimizer n of tau in [lo, hi].

    A = prod alpha_i and e0 + sum omega_i/alpha_i = -1/A split tau exactly: 2A tau(n) = n^2 + b n
    - sum T_i(n mod alpha_i), b = 2A - 1 - sum A (alpha_i - 1)/alpha_i, T_i (one table of alpha_i
    entries per leg) the partial sums of the mean-zero period (A/alpha_i) (2 ((-m omega_i) mod alpha_i)
    - alpha_i + 1).  With U = 2A tau at the vertex, a minimizer has (2n + b)^2 <= b^2 + 4 (U + sum
    max T_i).  Guarded by the multiplicity sum (the tables' size) and the tau window.
    """
    guard("multiplicity sum", sum(a for a, _ in branches))
    A = prod(a for a, _ in branches)
    tables = [list(accumulate(((A // a) * (2 * (-m * w % a) - a + 1) for m in range(a - 1)), initial=0)) for a, w in branches]
    b = 2 * A - 1 - sum(A - A // a for a, _ in branches)
    v = max(0, -b // 2)
    s = isqrt(b * b + 4 * (v * (v + b) - sum(T[v % len(T)] for T in tables) + sum(map(max, tables))))
    lo, hi = max(0, -((s + b) // 2)), (s - b) // 2
    guard("tau window", hi - lo + 1)
    return lo, hi, A, b, tables


def _tau_min(branches: list[tuple[int, int]], window: Optional[TauWindow] = None) -> tuple[int, int]:
    """(min tau(n), its first n) over n >= 0: the integer minimum of n (n + b) - sum T_i(n mod alpha_i)
    over ``_tau_window`` (or ``window``, if the caller has it) is 2A min tau exactly, or AssertionError."""
    lo, hi, A, b, tables = window or _tau_window(branches)
    quad = accumulate(count(2 * lo + 1 + b, 2), initial=lo * (lo + b))  # n (n + b), by its steps 2n + 1 + b
    scaled = reduce(partial(map, sub), (islice(cycle(T), lo % len(T), None) for T in tables), quad)  # minus each T_i
    best, n_star = min(zip(islice(scaled, hi - lo + 1), count(lo)))
    tau, rem = divmod(best, 2 * A)
    if rem:
        raise AssertionError(f"2A tau({n_star}) is not a multiple of 2A = {2 * A}")
    return tau, n_star


def d_from_plumbing(G: PlumbingGraph, window: Optional[TauWindow] = None) -> DFromPlumbing:
    """d of a negative-definite star-shaped plumbed homology sphere, with a characteristic vector c, (c, c) + rank = 4d.

    Nemethi (Geom. Topol. 9, 2005), as in Can-Karakurt (Pacific J. Math. 267, 2014): with center
    weight e0 and legs alpha_i/omega_i (weights <= -2), d = (K^2 + rank)/4 - 2 min tau, K = G^{-1} k,
    k_v = -w_v - 2, tau(0) = 0, tau(n+1) - tau(n) = 1 - e0 n - sum ceil(n omega_i/alpha_i).  Negative
    definiteness and |det| = 1, checked first, give e0 + sum omega_i/alpha_i = -1/A, the identity behind
    ``_tau_window``'s split, which alone drives the scan.  The certificate c = K + 2 x(n*) has x = n* at
    the center and ceil(n* m_j/alpha) on a leg vertex, m_j the continuant of the leg beyond it.  Raises
    ``NotNegativeDefiniteError``/``NotUnimodularError``, then ``guards.ScanGuardExceededError`` (see
    ``_tau_window``); a caller that has checked the guards already passes the window it got as ``window``.
    """
    center, legs = star_legs(G)
    conts = [_leg_continuants([G.weights[v] for v in leg]) for leg in legs]
    elim = _negdef_unimodular(G._elimination)
    best, n_star = _tau_min([(m[0], m[1]) for m in conts], window)
    k = [-w - 2 for w in G.weights]
    K = elim.solve(k)  # integral: G is unimodular
    d = Fraction(sum(map(mul, k, K)) + G.rank, 4) - 2 * best

    x = [0] * G.rank
    x[center] = n_star
    for leg, m in zip(legs, conts):
        for v, mj in zip(leg, m[1:]):
            x[v] = -(-n_star * mj // m[0])
    c = tuple(a + 2 * b for a, b in zip(K, x))
    gc = list(map(mul, G.weights, c))
    for a, b in G.edges:
        gc[a] += c[b]
        gc[b] += c[a]
    if any((g - w) % 2 for g, w in zip(gc, G.weights)) or sum(map(mul, c, gc)) + G.rank != 4 * d:
        raise AssertionError(f"the tau-window certificate of d = {d} fails its re-check")
    return DFromPlumbing(d, c)


def d_brieskorn(T: BrieskornTriple) -> DFromPlumbing:
    """``d_from_plumbing`` of Sigma(p, q, r)'s canonical plumbing (legs a/(a - b) for the Seifert
    branches (a, b)), guarded before it is built; the window the guard computes is the one it scans
    (the window does not depend on the order of the legs)."""
    window = _tau_window([(a, a - b) for a, b in brieskorn_seifert(T).branches])
    return d_from_plumbing(negdef_plumbing(T), window)
