"""Heegaard Floer correction terms of lens spaces and plumbed spheres.

Recursion.  The engine is the classical exact descent

    R(p, q, j) = ((2j + 1 - p - q)^2 - p q) / (4 p q) - R(q, p mod q, j mod q)

for 0 <= j < p + q with R(1, 0, 0) = 0, whose labels j restricted to
0 <= j < p enumerate the p spin^c structures (R is p-periodic on the
overhang j in [p, p+q), which the tests verify).  Each call recomputes the
integers N = 4p R with no memo, in loops down and up the Euclidean chain
(none recurses): one label per level for ``lens_d``, O(log p); for all labels,
one flat list per level, each from the one below read cyclically by
``_step``, p exact divisions checked at once.  ``d_surgery`` reads L(p, 1) in
closed form, 4p R(p, 1, j) = (2j - p)^2 - p, and L(p, q) on a window in blocks
of labels, one chain walk a block (``_descent_labels``, the same ``_step``); a
lone label costs 4x less on ``lens_d``'s walk.

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
a method sharing no code path with the recursion: it takes a negative-definite
linear plumbing for the lens space (the shorter of the two continued-fraction
routes) and maximizes (c^2 + rank)/4 over each coset of characteristic
covectors by one exact integer min-sum DP along the chain that serves all p
cosets at once (``_chain_minima``).  Each level tries only the values inside a
provable window around the vertex of a quadratic, a few per coset.

Plumbed spheres.  ``d_star`` (under ``d_brieskorn`` and ``d_from_plumbing``) reads d off
a star's centre weight and legs, with no graph: Nemethi's tau-function is evaluated only on
its window's semigroup points (``_tau_min``), K is read leg by leg, and a characteristic
vector re-checked on the star's edges.  ``lattice.max_char_square`` is the tests' oracle.

Guards (``guards.GUARDS``).  The lens labels guard bounds all-labels work and
the labels ``d_surgery`` evaluates; a single ``lens_d`` label is not guarded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, cycle, repeat
from math import gcd, isqrt, prod
from operator import add, index, mod, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .arith import Frozen, NotCoprimeError, _hj_word
from .guards import GUARDS, guard
from .plumbing import BrieskornTriple, PlumbingGraph, _leg_continuants, _star_det, brieskorn_star, star_legs


# ---------------------------------------------------------------------------
# Lens spaces and the recursion


class LensSpace(Frozen):
    """L(p, q) = p/q surgery on the unknot; p = 1 (with q = 0) is S^3."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        p, given = index(p), index(q)
        if p < 1:
            raise ValueError("p must be >= 1")
        q = given % p  # 0 at p = 1, the one q with gcd(p, q) = 1 there
        if gcd(p, q) != 1:
            raise NotCoprimeError(f"L({p},{given}) needs q coprime to p")
        self.__dict__.update(p=p, q=q)


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


def _euclid_chain(p: int, q: int) -> list[tuple[int, int]]:
    """The levels (p, q) -> (q, p mod q) -> ... above (1, 0), at most about 1.44 log2(p), bottom first."""
    levels = []
    while p != 1:
        levels.append((p, q))
        p, q = q, p % q
    return levels[::-1]


def _step(p: int, q: int, js: Sequence[int], below: Iterable[int]) -> list[int]:
    """[N(p, q, j) for j in js] from ``below``, N(q, p mod q, j mod q) for each j in turn, one division a label,
    all checked at once: each x - q (x // q) lies in [0, q), so all vanish iff their sum does."""
    a = 1 - p - q
    v = [(x := 2 * j + a) * x - p * (q + m) for j, m in zip(js, below)]
    n = [x // q for x in v]
    if sum(v) != q * sum(n):
        raise AssertionError(f"4p R({p}, {q}, {next(compress(js, map(mod, v, repeat(q))))}) is not an integer")
    return n


def _descent_labels(p: int, q: int, js: list[int]) -> list[int]:
    """[N(p, q, j) for j in js], 0 <= j < p, js not empty, in one chain walk: down to the first order at most
    len(js), whose flat table is read, reducing every j once per level; up, one ``_step`` per level."""
    levels = []
    while p > len(js):
        levels.append((p, q, js))
        p, q, js = q, p % q, [j % q for j in js]
    n = list(map(_descent_table(p, q).__getitem__, js))
    for p, q, js in reversed(levels):
        n = _step(p, q, js, n)
    return n


def _descent_table(p: int, q: int) -> list[int]:
    """[4p R(p, q, j) for 0 <= j < p], one flat list per level, bottom up, under the lens labels guard."""
    guard("lens labels", p)
    num = [0]
    for p, q in _euclid_chain(p, q):
        num = _step(p, q, range(p), cycle(num))
    return num


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


def _chain_minima(b: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """([H_0(u) for 0 <= u < m_0], m, Nb) for a chain of weights b_j >= 2 (Q = -G: b_j on the diagonal, -1
    beside it), with m_0, ..., m_{n+1} its tail continuants (m_n = 1, m_{n+1} = 0) and Nb_j = b_j m_{j+1} + Nb_{j+1}.

    H_0(u) = min f_u over Z^n, f_u(x) = sum_j b_j x_j (x_j + 1) - 2 sum_j x_j x_{j+1} - 2 u x_0, by the min-sum DP
    H_j(s) = min_y b_j y (y + 1) - 2 s y + H_{j+1}(y), H_n = 0 (f past vertex j - 1 given x_{j-1} = s).  Window:
    completing the square on the k = n - j - 1 vertices past j (det m_{j+1}, (Q^{-1})_{11} = m_{j+2}/m_{j+1},
    (Q^{-1} b)_1 = Nb_{j+1}/m_{j+1}) gives H_{j+1}(y) = -(m_{j+2}/m_{j+1}) y^2 + (Nb_{j+1}/m_{j+1}) y + const + D(y),
    D a closest-vector distance, 0 <= D <= D* = sum_{v>j} b_v / 4 + (k - 1)/2 (its value at the coordinatewise
    rounding; D* = 0 if k = 0).  As m_j = b_j m_{j+1} - m_{j+2}, the terms in y are ((2 m_j y - N)^2 - N^2) / (4 m_j
    m_{j+1}) + D(y), N = m_{j+1} (2s - b_j) - Nb_{j+1}; against the y nearest N / (2 m_j) a minimizer has
    (2 m_j y - N)^2 <= m_j^2 + 4 m_j m_{j+1} D*.  Windows hold that y and step by m_{j+1}/m_j < 1 in s, so the s
    asked of each level fill an interval."""
    n = len(b)
    m = _leg_continuants([-c for c in b]) + [0]
    nb = list(accumulate(map(mul, b[::-1], m[n:0:-1]), initial=0))[::-1]
    r = [isqrt(m[j] ** 2 + m[j] * m[j + 1] * (sum(b[j + 1 :]) + 2 * max(n - j - 2, 0))) for j in range(n)]

    def window(j: int, s: int) -> range:
        N = m[j + 1] * (2 * s - b[j]) - nb[j + 1]
        return range(-((r[j] - N) // (2 * m[j])), (N + r[j]) // (2 * m[j]) + 1)

    asked = [range(m[0])]
    for j in range(n):
        asked.append(range(window(j, asked[j][0]).start, window(j, asked[j][-1]).stop))
    H = [0] * len(asked[n])
    for j in reversed(range(n)):
        lo = asked[j + 1].start
        H = [min(b[j] * y * (y + 1) - 2 * s * y + H[y - lo] for y in window(j, s)) for s in asked[j]]
    return H, m, nb


def lens_d_oracle(p: int, q: int) -> dict[int, Fraction]:
    """Correction terms of L(p, q) from a negative-definite chain plumbing, by coset of characteristic covectors.

    With b the chain's weights (``_chain_route``) and Q = -G, the covectors c = -b + 2u e_0 - 2Qx of coset u have
    -c^2 / 4 = f_u(x) + (b - 2u e_0)^T Q^{-1} (b - 2u e_0) / 4 (``_chain_minima``), and (Q^{-1})_{00} = m_1 / p,
    (Q^{-1} b)_0 = Nb_0 / p, so 4p d = p n - 4p H_0(u) - p b^T Q^{-1} b + 4u Nb_0 - 4u^2 m_1, in integers; checked:
    m_0 = p and p Q^{-1} b solves Q (p z) = p b in integers.  Coset u carries the canonical label s = -u m_1 mod p
    (u a_0 for a = p G^{-1} e_0); only the multiset is comparable with ``lens_d_all`` (the two methods share
    no conventions, and no code).  Guarded by the oracle lens order.
    """
    L = LensSpace(p, q)
    p, q = L.p, L.q
    guard("oracle lens order", p)
    b, negate = _chain_route(p, q)
    H, m, nb = _chain_minima(b)
    pz = [0, nb[0]]  # p z_{-1} = 0, p z_0, ... for z = Q^{-1} b: row j of Q z = b is z_{j+1} = b_j (z_j - 1) - z_{j-1}
    for c in b:
        pz.append(c * (pz[-1] - p) - pz[-2])
    if m[0] != p or pz[-1]:  # z_n = 0: the last row holds
        raise AssertionError(f"the chain {b} of L({p}, {q}) has continuant {m[0]} or p Q^-1 b off Z^n")
    pbqb, sign = sum(map(mul, b, pz[1:])), -1 if negate else 1
    num = {-u * m[1] % p: p * len(b) - 4 * p * h - pbqb + 4 * u * nb[0] - 4 * u * u * m[1] for u, h in enumerate(H)}
    return {s: Fraction(sign * num[s], 4 * p) for s in range(p)}


# ---------------------------------------------------------------------------
# The surgery maximum formula


class SurgeryDescriptor(Frozen):
    """Lens surgery data: slope p, lens parameter q (reduced mod p) and dual
    class k coprime to p.  The affine constant ``c`` of the labels k i + c
    is derived from them."""

    _fields = ("p", "q", "k")

    def __init__(self, p: int, q: int, k: int):
        p, k = index(p), index(k)
        if gcd(k, p) != 1:
            raise NotCoprimeError("dual class k must be coprime to p")
        self.__dict__.update(p=p, q=LensSpace(p, q).q, k=k)  # q validated, 0 <= q < p

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
    lo = hi = 0
    for p, q in _euclid_chain(p, q):
        lo, hi = -((p * q + p * hi - (p + q + 1) % 2) // q), ((p + q - 1) ** 2 - p * q - p * lo) // q
    return lo, hi


def d_surgery(desc: SurgeryDescriptor) -> SurgeryResult:
    """max over 0 <= i < p of d(p, q, k i + c) - d(p, 1, i), with argmaxes.

    The L-space hypotheses behind the formula are the caller's responsibility.  With t = |2i - p| the
    gap 4p (d(p, q, k i + c) - d(p, 1, i)) + p is N(p, q, j) - t^2 <= N* - t^2, N* from ``_chain_bounds``,
    so a gap >= best has t^2 <= N* - best.  Labels are evaluated by increasing t, in blocks of 16, 32, ...,
    1024 t-steps (at most 2048 labels at a time), one ``_descent_labels`` walk each; each block is clipped
    to t^2 <= N* - best, best the largest gap of the blocks before it.  best only grows, so a label past a
    clip has a gap below the final best, and the blocks stop at the first t with t^2 > N* - best: they
    hold every argmax, not just a witness.  The lens labels guard refuses before a block that would take
    the labels evaluated past its bound.
    """
    p, q, k, c = desc.p, desc.q, desc.k, desc.c
    limit, step, j0 = GUARDS["lens labels"].bound, q * k, q * (c + 1) - 1  # i's recursion label: step i + j0 mod p
    lo, top = _chain_bounds(p, q)
    best, winners, done, t, width = lo - p * p, [], 0, p % 2, 16  # best starts below every gap and only grows
    while t <= p and t * t <= top - best:
        end = min(p, isqrt(top - best), t + 2 * width - 2)
        end -= (end - t) % 2  # the block's last t; its labels are (p -+ s) / 2, t <= s <= end, with i = p read as 0
        block = [*range((p - end) // 2, (p - t) // 2 + 1), *range((p + t) // 2 + (t == 0), min((p + end) // 2, p - 1) + 1)]
        if done + len(block) > limit:
            guard("lens labels", limit + 1)
        nums = _descent_labels(p, q, [(step * i + j0) % p for i in block])  # at labels k i + c
        gaps = [n - (2 * i - p) ** 2 for n, i in zip(nums, block)]
        if max(gaps) > best:
            best, winners = max(gaps), []
        winners += compress(block, map(best.__eq__, gaps))
        done, t, width = done + len(block), end + 2, min(2 * width, 1024)
    winners.sort()
    return SurgeryResult(Fraction(best + p, 4 * p), winners[0], tuple(winners))


# ---------------------------------------------------------------------------
# d-invariants of negative-definite plumbed homology spheres


class DFromPlumbing(NamedTuple):
    value: Fraction
    vector: tuple[int, ...]


def _tau_min(branches: list[tuple[int, int]]) -> tuple[int, int]:
    """(min tau(n), its first n) over n >= 0, on a window it proves holds every minimizer.

    A = prod alpha_i and e0 + sum omega_i/alpha_i = -1/A split tau exactly: 2A tau(n) = n^2 + b n - sum T_i(n mod
    alpha_i), b = 2A - 1 - sum A (alpha_i - 1)/alpha_i, T_i (one table of alpha_i entries per leg) the partial sums of
    the mean-zero period, one multiply-add and one mod a step: T_i(m + 1) - T_i(m) = 2 g_i (m u_i mod alpha_i) + g_i
    (1 - alpha_i), g_i = A/alpha_i, u_i = -omega_i mod alpha_i.  With U = 2A tau at the vertex, a minimizer has (2n +
    b)^2 <= b^2 + 4 (U + sum max T_i): the window [lo, hi], W points.  Guarded by the multiplicity sum, then W.

    tau(n + 1) - tau(n) = 1 + (n - N(n))/A, N(n) the least element of S = <g_i> congruent to n mod A: tau rises
    exactly on S (Can-Karakurt, Pacific J. Math. 267, 2014).  So 2A tau is read on S & [lo, hi] and at hi only; flat
    steps back from the first least point, fewer than min(W, g_0) (S holds s + g_0 with s), reach the first minimizer.
    With alpha_0 >= alpha_1 the largest multiplicities (1 if none), S is the rows t + c_1 g_1 + j g_0, j >= 0, c_1 <
    alpha_1, t <= hi the middle legs' partial sums (one per class mod h = g_0/alpha_1): the bases are the Apery set of
    g_0.  If W >= g_0, each base <= hi has a row point in the window (the first past lo is below lo + g_0 <= hi + 1):
    |S & [lo, hi]| points are read.  Else for each t, each window point n = t + M h is read once, in S exactly when
    t + c_1 g_1 <= n, c_1 = M alpha_0^-1 mod alpha_1: W points.  11-13% of W is read at the family tau limits.
    """
    guard("multiplicity sum", sum(a for a, _ in branches))
    A = prod(a for a, _ in branches)
    steps = [(a, -w % a, 2 * (A // a), A // a * (1 - a)) for a, w in branches]  # (alpha_i, u_i, 2 g_i, g_i (1 - alpha_i))
    tables = [list(accumulate((g2 * (m * u % a) + f for m in range(a - 1)), initial=0)) for a, u, g2, f in steps]
    b = 2 * A - 1 - sum(A - A // a for a, _ in branches)
    v = max(0, -b // 2)
    s = isqrt(b * b + 4 * (v * (v + b) - sum(T[v % len(T)] for T in tables) + sum(map(max, tables))))
    lo, hi = max(0, -((s + b) // 2)), (s - b) // 2
    W = hi - lo + 1
    guard("tau window", W)
    *rest, T1, T0 = sorted([[0], [0], *tables], key=len)
    a0, a1 = len(T0), len(T1)
    g0, g1, h, inv = A // a0, A // a1, A // a0 // a1, pow(a0, -1, a1)
    partials = [(0, 0)]  # (sum of c_i g_i over the middle legs so far, the T_i it reads)
    for T in rest:
        a, g = len(T), A // len(T)
        partials = [(t + c * g, k + T[c * g % a]) for t, k in partials for c in range(min(a, (hi - t) // g + 1))]
    best, n_star = hi * (hi + b) - sum(T[hi % len(T)] for T in tables), hi
    for t, k in partials:
        if W < g0:
            for n in range(lo + (t - lo) % h, hi + 1, h):
                if t + (n - t) // h * inv % a1 * g1 <= n:
                    x = n * (n + b) - T0[n % a0] - T1[n % a1] - k
                    if x < best or x == best and n < n_star:
                        best, n_star = x, n
            continue
        for base in range(t, min(t + a1 * g1, hi + 1), g1):
            k1 = k + T1[base % a1]
            for n in range(base if base >= lo else lo + (base - lo) % g0, hi + 1, g0):
                x = n * (n + b) - T0[n % a0] - k1
                if x < best or x == best and n < n_star:
                    best, n_star = x, n
    while n_star > lo and (n_star - 1) * (n_star - 1 + b) - sum(T[(n_star - 1) % len(T)] for T in tables) == best:
        n_star -= 1
    tau, rem = divmod(best, 2 * A)
    if rem:
        raise AssertionError(f"2A tau({n_star}) is not a multiple of 2A = {2 * A}")
    return tau, n_star


def d_star(center_weight: int, legs: Sequence[Sequence[int]]) -> DFromPlumbing:
    """d of a negative-definite star-shaped plumbed homology sphere from its centre weight e0 and legs (weights <= -2,
    read outward), with a characteristic c, (c, c) + s = 4d on its s vertices: the centre, then each leg outward.

    Nemethi (Geom. Topol. 9, 2005): 4d = K^2 + s - 8 min tau (``_tau_min``, split by |det| = 1, checked first), in
    integers, K = G^{-1} k, k_v = -w_v - 2, K^2 = -sum (w_v + 2) K_v.  A times the centre's row gives K_0 = A (e0 + 2)
    + sum (A/alpha_i)(1 + omega_i - alpha_i); on a leg of continuants m_j (m_0 = alpha, m_1 = omega), L = K + 1 has
    L_1 = (omega L_0 + 1)/alpha (rows 1..k telescoped), then L_{j+1} = -w_j L_j - L_{j-1} (row j) out to L_{k+1} = 1
    (row k): one division and one end, checked.  c = K + 2x, x = n* at the centre and ceil(n* m_j/alpha) on a leg,
    re-checked on the star's edges, proves d >= value (Ozsvath-Szabo, Adv. Math. 173, 2003, Thm 9.6); d <= value rests
    on ``_tau_min``'s window.
    """
    conts = [_leg_continuants(leg) for leg in legs]
    A = _star_det(center_weight, conts, unimodular=True)[0]
    tau, n_star = _tau_min([(m[0], m[1]) for m in conts])
    K0 = A * (center_weight + 2) + sum(A // m[0] * (1 + m[1] - m[0]) for m in conts)
    weights, K, c, starts = [center_weight], [K0], [K0 + 2 * n_star], []
    for leg, m in zip(legs, conts):
        a, prev = m[0], K0 + 1
        L, rem = divmod(m[1] * prev + 1, a)
        starts.append(len(c))
        for w, mj in zip(leg, m[1:]):
            K.append(L - 1)
            c.append(L - 1 - 2 * (n_star * mj // -a))
            prev, L = L, -w * L - prev
        if rem or L != 1:
            raise AssertionError(f"K is not an integral solution on the leg {list(leg)}")
        weights += leg
    before, after = [sum(c[i] for i in starts), *c[:-1]], [*c[1:], 0]  # G c's edges: the centre meets each leg's first
    for i in starts:
        before[i], after[i - 1] = c[0], 0
    gc = list(map(add, map(mul, weights, c), map(add, before, after)))
    four_d = len(c) - sum(map(mul, weights, K)) - 2 * sum(K) - 8 * tau
    if any(map(mod, map(sub, gc, weights), repeat(2))) or sum(map(mul, c, gc)) + len(c) != four_d:
        raise AssertionError(f"the tau-window certificate of d = {Fraction(four_d, 4)} fails its re-check")
    return DFromPlumbing(Fraction(four_d, 4), tuple(c))


def d_from_plumbing(G: PlumbingGraph) -> DFromPlumbing:
    """``d_star`` on the centre and legs of ``star_legs`` (NotStarShapedError), c in G's vertex order."""
    center, legs = star_legs(G)
    res = d_star(G.weights[center], [[G.weights[v] for v in leg] for leg in legs])
    vector = dict(zip([center, *(v for leg in legs for v in leg)], res.vector))
    return res._replace(vector=tuple(vector[v] for v in range(G.rank)))


def d_brieskorn(T: BrieskornTriple) -> DFromPlumbing:
    """``d_star`` of Sigma(p, q, r)'s star (``brieskorn_star`` guards p + q + r first), c in ``negdef_plumbing``'s order."""
    return d_star(*brieskorn_star(T))
