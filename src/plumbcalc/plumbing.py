"""Plumbing trees, linear chain diagrams, Seifert data and Brieskorn spheres.

A plumbing graph is a weighted tree; its Gram matrix has the weights on the
diagonal and a 1 for every edge.  Star-shaped trees present Seifert fibered
spaces S(e; (a1,b1), ..., (an,bn)) whose legs are the minus-convention
continued-fraction expansions of the ai/bi.  A Brieskorn sphere
Sigma(p, q, r) carries the unique Seifert data with
e - (p'/p + q'/q + r'/r) = -1/pqr, and its canonical negative-definite
plumbing is obtained by re-presenting every branch fraction below -1 and
expanding with all entries <= -2.

Determinant, inertia and solves of a plumbing tree come from one integer
kernel, ``_tree_eliminate``: leaves first, with subtree determinants as exact
integers and no ``Fraction`` per vertex, on the tree rooted at 0 that
``PlumbingGraph`` builds as its connectivity check.  Its result answers by
the same names as ``lattice._eliminate``'s (``det``, ``inertia`` with its
``sign``, ``solve``), so the Wu class (``lattice._wu``) and the check
"negative definite, |det| = 1" (``lattice._negdef_unimodular``) are written
once for both kernels.  Each graph runs it once (``_elimination``);
``negdef_plumbing``, ``mubar`` and ``ue_spin_bound`` read that one
elimination.  ``star_mubar``, ``star_unit_pairs`` and ``lens.d_star`` read a
star's centre weight and legs, with no graph and no elimination.

The unit vectors of a negative-definite star are counted at its centre
(``star_unit_pairs``) from one integer minimum table per leg, built along the
leg's continuants like the integer kernel, with no dense Gram.

Chain diagrams model linear surgery presentations with one marked link of
multiplicity k; ``twist_reduce`` applies, at the Gram-matrix level, the
reduction that trades a 0-framed component next to the marked link for a
k^2-twist of the component across it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod
from operator import index, mul, neg
from typing import NamedTuple, Optional, Sequence

from .arith import Frozen, NotCoprimeError, NotExpandableError, _hj_word, cf_eval
from .guards import guard
from .lattice import GramLattice, NotNegativeDefiniteError, NotUnimodularError, Signature, _negdef_unimodular, _wu


class NotStarShapedError(ValueError):
    """The plumbing graph has more than one vertex of degree > 2."""


class PatternNotFoundError(ValueError):
    """The chain does not contain the 0-framed twist-reduction pattern."""


# ---------------------------------------------------------------------------
# Plumbing graphs


class PlumbingGraph(Frozen):
    """A weighted tree on vertices 0..n-1.

    Invariants enforced: |E| = |V| - 1, no self loops, and every vertex
    reached from vertex 0, which makes it a tree.  That walk is kept as the
    tree rooted at 0: ``_adj`` (sorted adjacency lists), ``_order`` (breadth
    first, root first) and ``_parent`` (-1 at the root).
    """

    _fields = ("weights", "edges")

    def __init__(self, weights: Sequence[int], edges: Sequence[tuple[int, int]]):
        weights = tuple(map(index, weights))
        n = len(weights)
        if n == 0:
            raise ValueError("plumbing graph needs at least one vertex")
        pairs = []
        for a, b in edges:
            a, b = index(a), index(b)
            if a == b:
                raise ValueError("self-plumbings are not supported (tree graphs only)")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("edge endpoint out of range")
            pairs.append((a, b) if a < b else (b, a))
        if len(pairs) != n - 1:
            raise ValueError("a tree on n vertices has exactly n-1 edges")
        pairs.sort()
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in pairs:  # sorted, so every adjacency list is sorted
            adj[a].append(b)
            adj[b].append(a)
        parent, order = [-1] + [-2] * (n - 1), [0]  # -2: not reached yet
        for v in order:
            for c in adj[v]:
                if parent[c] == -2:
                    parent[c] = v
                    order.append(c)
        if len(order) != n:  # a repeated edge or a cycle leaves a vertex unreached
            raise ValueError("plumbing graph must be connected")
        self.__dict__.update(weights=weights, edges=tuple(pairs), _adj=adj, _order=order, _parent=parent)

    @cached_property
    def _elimination(self) -> "_TreeElimination":
        """``_tree_eliminate(self)``, run once per graph."""
        return _tree_eliminate(self)

    @property
    def rank(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": i, "weight": w} for i, w in enumerate(self.weights)],
            "edges": [[a, b] for a, b in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlumbingGraph":
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("vertices", "edges")):
            raise ValueError('a graph file holds one JSON object {"vertices": [...], "edges": [...]}')
        for v in data["vertices"]:
            if not isinstance(v, dict) or not {"id", "weight"} <= v.keys():
                raise ValueError(f"vertex {v!r} needs an id and a weight")
        ids = [v["id"] for v in data["vertices"]]
        endpoints = (e for edge in data["edges"] if isinstance(edge, list) for e in edge)  # other edges fail below
        for x in [*ids, *(v["weight"] for v in data["vertices"]), *endpoints]:
            if type(x) is not int:  # not a bool (an int subclass), not a float
                raise ValueError(f"graph file has {x!r} where an integer id, weight or endpoint belongs")
        order = {vid: k for k, vid in enumerate(sorted(ids))}
        if len(order) != len(ids):
            raise ValueError("duplicate vertex ids")
        weights = [0] * len(ids)
        for v in data["vertices"]:
            weights[order[v["id"]]] = v["weight"]
        for edge in data["edges"]:
            if not isinstance(edge, list) or len(edge) != 2 or not set(edge) <= order.keys():
                raise ValueError(f"edge {edge!r} does not join two vertex ids")
        edges = [(order[a], order[b]) for a, b in data["edges"]]
        return cls(tuple(weights), tuple(edges))


def graph_to_gram(G: PlumbingGraph) -> GramLattice:
    """The intersection form: weights on the diagonal, 1 per edge."""
    return GramLattice.from_edges(G.weights, [(a, b, 1) for a, b in G.edges])


def star_graph(center_weight: int, legs: Sequence[Sequence[int]]) -> PlumbingGraph:
    """Star-shaped tree: legs are weight sequences read from the center out."""
    weights = [center_weight]
    edges = []
    for leg in legs:
        prev = 0
        for w in leg:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingGraph(tuple(weights), tuple(edges))


# ---------------------------------------------------------------------------
# The integer tree kernel: determinant, inertia, solves


class _TreeElimination(NamedTuple):
    """Leaves-first elimination of a plumbing tree's intersection form, in integers.

    ``order`` lists the vertices children first and the root (vertex 0) last;
    ``parent[v]`` is -1 at the root.  Over its children c that carry a pivot
    (D_c != 0 and no zero child of their own), a vertex v has P_v = prod D_c
    and the subtree determinant D_v = w_v P_v - sum_c P_c (P_v / D_c), so its
    pivot is D_v / P_v (Neumann, Trans. AMS 268, 1981).  A child z with D_z = 0 pairs
    with its parent v, ``pair[v] = z``, into the unimodular block
    [[0, 1], [1, D_v / P_v]]: one + and one - in the inertia, det times -1, and
    no term in the grandparent's pivot (Jacobs-Trevisan, Linear Algebra Appl.
    434, 2011).  A further zero child of v, or a zero root, is a null direction.
    """

    order: list[int]
    parent: list[int]
    D: list[int]
    P: list[int]
    pair: list[int]
    det: int
    inertia: Signature

    def solve(self, rhs: Sequence[int]) -> list[int]:
        """The integer x with G x = rhs, for G nonsingular.

        With beta_v = r_v P_v - sum_c beta_c (P_v / D_c), x_root = beta_root /
        D_root and x_c = (beta_c - x_parent P_c) / D_c; a block (v, z) has x_v =
        beta_z / P_z and x_z = (beta_v - D_v x_v) / P_v - x_parent.  Every
        division is checked exact: an AssertionError means G x = rhs has no
        integral solution.
        """
        if not self.det:
            raise ZeroDivisionError("the Gram matrix is singular")
        order, parent, D, P, pair = self.order, self.parent, self.D, self.P, self.pair
        beta = list(map(mul, rhs, P))
        x = [0] * len(beta)
        for v in order:
            u = parent[v]
            if pair[v] >= 0:
                z = pair[v]
                x[v], rem = divmod(beta[z], P[z])
                if rem:
                    raise AssertionError(f"G x = rhs has no integral solution (vertex {v})")
                if u >= 0:
                    beta[u] -= x[v] * P[u]
            elif D[v] and u >= 0:
                beta[u] -= beta[v] * (P[u] // D[v])
        for v in reversed(order):
            u = parent[v]
            xu = x[u] if u >= 0 else 0
            if pair[v] >= 0:
                z = pair[v]
                x[z], rem = divmod(beta[v] - D[v] * x[v] - xu * P[v], P[v])
            elif D[v]:
                x[v], rem = divmod(beta[v] - xu * P[v], D[v])
            else:  # a zero child, solved with its parent's block
                continue
            if rem:
                raise AssertionError(f"G x = rhs has no integral solution (vertex {v})")
        return x


def _tree_eliminate(G: PlumbingGraph) -> _TreeElimination:
    """The integer elimination of G's intersection form, rooted at vertex 0, in O(rank)."""
    n, parent = G.rank, G._parent
    order = G._order[::-1]  # every child precedes its parent
    D, P, pair = list(G.weights), [1] * n, [-1] * n
    det, plus, nulls = 1, 0, 0
    for v in order:
        u, d = parent[v], D[v]
        if d and pair[v] < 0:  # the pivot D_v / P_v
            plus += (d > 0) == (P[v] > 0)
            if u < 0:
                det *= d
            else:
                D[u] = D[u] * d - P[u] * P[v]
                P[u] *= d
            continue
        det *= P[v]  # v has no pivot of its own, so its children's D_c stay in det
        if pair[v] >= 0:  # v and its zero child: one +, one -, det times -1
            det, plus = -det, plus + 1
        elif u < 0 or pair[u] >= 0:
            nulls += 1
        else:
            pair[u] = v
    return _TreeElimination(order, parent, D, P, pair, 0 if nulls else det, Signature(plus, n - nulls - plus, nulls))


# ---------------------------------------------------------------------------
# Chain diagrams


class ChainDiagram(Frozen):
    """Linear diagram: framings a1..aN, all consecutive links 1 except at
    most one marked position carrying an arbitrary multiplicity k."""

    _fields = ("framings", "marked")

    def __init__(self, framings: Sequence[int], marked: Optional[tuple[int, int]] = None):  # marked: (link index, k)
        framings = tuple(map(index, framings))
        if not framings:
            raise ValueError("chain diagram needs at least one component")
        if marked is not None:
            marked = index(marked[0]), index(marked[1])
            if not (0 <= marked[0] < len(framings) - 1):
                raise ValueError("marked link index out of range")
        self.__dict__.update(framings=framings, marked=marked)

    @property
    def rank(self) -> int:
        return len(self.framings)

    def link_weights(self) -> tuple[int, ...]:
        n = len(self.framings)
        w = [1] * (n - 1)
        if self.marked is not None:
            w[self.marked[0]] = self.marked[1]
        return tuple(w)


def chain_to_gram(C: ChainDiagram) -> GramLattice:
    """Tridiagonal Gram matrix: framings on the diagonal, link weights off it."""
    return GramLattice.from_edges(C.framings, [(i, i + 1, k) for i, k in enumerate(C.link_weights())])


def twist_reduce(C: ChainDiagram) -> ChainDiagram:
    """Collapse the pattern ``... q . n . 0 .(k) p ...`` to ``... q .(k) (p + n k^2) ...``.

    The 0-framed component must sit next to the marked link (on either side);
    the rank drops by 2.  Raises :class:`PatternNotFoundError` when the chain
    has no marked link or the 0-framed neighbour pattern is absent.
    """
    if C.marked is None:
        raise PatternNotFoundError("chain has no marked link")
    j, k = C.marked
    f = C.framings
    if f[j] == 0 and j >= 2:
        # ... q(j-2) n(j-1) 0(j) .(k) p(j+1) ...
        n_par = f[j - 1]
        p = f[j + 1]
        new = f[: j - 1] + (p + n_par * k * k,) + f[j + 2 :]
        return ChainDiagram(new, (j - 2, k))
    if f[j + 1] == 0 and j + 3 <= len(f) - 1:
        # ... p(j) .(k) 0(j+1) n(j+2) q(j+3) ...
        n_par = f[j + 2]
        p = f[j]
        new = f[:j] + (p + n_par * k * k,) + f[j + 3 :]
        return ChainDiagram(new, (j, k))
    raise PatternNotFoundError("no 0-framed component adjacent to the marked link")


# ---------------------------------------------------------------------------
# Seifert data


class SeifertData(Frozen):
    """Central weight e plus branch pairs (a, b) with a >= 1, gcd(a, b) = 1.

    A branch contributes -b/a to the euler number e - sum(b_i / a_i).
    """

    _fields = ("e", "branches")

    def __init__(self, e: int, branches: Sequence[tuple[int, int]] = ()):
        e, branches = index(e), tuple((index(a), index(b)) for a, b in branches)
        for a, b in branches:
            if a < 1:
                raise ValueError("branch multiplicity a must be >= 1")
            if gcd(a, abs(b)) != 1:
                raise ValueError(f"branch pair {(a, b)} is not coprime")
        self.__dict__.update(e=e, branches=branches)

    def euler_number(self) -> Fraction:
        return Fraction(self.e) - sum(Fraction(b, a) for a, b in self.branches)

    def normalized(self) -> "SeifertData":
        """Canonical window 0 < b < a, integer parts absorbed into e,
        multiplicity-1 branches absorbed entirely; branches sorted."""
        e = self.e
        branches = []
        for a, b in self.branches:
            if a == 1:
                e -= b
                continue
            t = b // a  # floor
            b2 = b - a * t
            if b2 == 0:
                raise AssertionError("coprime pair cannot normalize to b = 0")
            e -= t
            branches.append((a, b2))
        return SeifertData(e, tuple(sorted(branches)))

    def negated(self) -> "SeifertData":
        """Data of the orientation reversal: all of (e, b_i) change sign."""
        return SeifertData(-self.e, tuple((a, -b) for a, b in self.branches))


def seifert_to_plumbing(S: SeifertData) -> PlumbingGraph:
    """Star-shaped plumbing: central weight e, legs expanding each a/b.

    Branch values a/b > 1 expand with all entries >= 2 and values < -1 with
    all entries <= -2, in integers (``_hj_word``); multiplicity-1 branches are
    absorbed into the center (a data-level blow-down).  Values in [-1, 1]
    admit no expansion.
    """
    e = S.e
    legs = []
    for a, b in S.branches:
        if a == 1:
            e -= b
        elif 0 < b < a:
            legs.append(_hj_word(a, b))
        elif 0 < -b < a:  # negating every entry negates a minus-convention word's value
            legs.append([-c for c in _hj_word(a, -b)])
        else:
            raise NotExpandableError(f"branch fraction {a}/{b} not expandable in either sign mode")
    return star_graph(e, legs)


def star_legs(G: PlumbingGraph) -> tuple[int, list[list[int]]]:
    """The center of a star-shaped graph and its legs, each read outward.

    The center is the unique vertex of degree > 2 (for paths: the
    lowest-index endpoint; a single vertex has no legs).
    """
    n, adj = G.rank, G._adj
    degrees = [len(nbrs) for nbrs in adj]
    big = [v for v in range(n) if degrees[v] > 2]
    if len(big) > 1:
        raise NotStarShapedError("more than one vertex of degree > 2")
    center = big[0] if big else min(v for v in range(n) if degrees[v] < 2)
    legs = []
    for first in adj[center]:
        leg = [center, first]
        while degrees[leg[-1]] == 2:  # every vertex off the center has degree <= 2
            a, b = adj[leg[-1]]
            leg.append(b if a == leg[-2] else a)
        legs.append(leg[1:])
    return center, legs


def _leg_continuants(weights: list[int]) -> list[int]:
    """m_0, ..., m_k for a leg of weights -b_1, ..., -b_k read from the center:
    m_j is the continuant of [b_{j+1}, ..., b_k], so alpha/omega = m_0/m_1."""
    m = [0, 1]  # m_{k+1}, m_k, ..., m_0 as they are computed
    for w in reversed(weights):
        if w > -2:
            raise ValueError(f"leg weight {w} is above -2")
        m.append(-w * m[-1] - m[-2])
    return m[:0:-1]


def _star_det(center_weight: int, conts: list[list[int]], unimodular: bool = False) -> tuple[int, int]:
    """(A, D) of a star with legs of continuants ``conts``: D = |det| > 0, else NotNegativeDefiniteError, and
    D = 1 if ``unimodular``, else NotUnimodularError."""
    A = prod(m[0] for m in conts)
    D = -center_weight * A - sum(A // m[0] * m[1] for m in conts)
    if D <= 0:
        raise NotNegativeDefiniteError(f"the star has e0 A - sum omega_i A/alpha_i = {D} <= 0")
    if unimodular and D != 1:
        raise NotUnimodularError(f"the negative-definite star has |det| = {D}, not 1")
    return A, D


def _leg_minima(m: list[int]) -> dict[int, tuple[int, int]]:
    """{s: (F_0[s], N_0[s])} for the residues s mod m_0 with F_0[s] < m_0, from a leg's continuants m.

    Let Q_j be -G on the leg's vertices j+1..k, H_j(s) = min_y Q_j(y) - 2 s y_{j+1} the leg past
    vertex j coupled to a value s there, and N_j[s] the number of its minimizers.  Then

        m_j H_j(s) = -m_{j+1} s^2 + F_j[s],  F_j[s] = min_y ((m_j y - m_{j+1} s)^2 + m_j F_{j+1}[y]) / m_{j+1}

    over integers y, from F_k = 0 (m_k = 1, m_{k+1} = 0: nothing is past vertex k).  Proof:
    H_j(s) = min_y b_{j+1} y^2 - 2 s y + H_{j+1}(y); put in H_{j+1}, use m_j = b_{j+1} m_{j+1} - m_{j+2}
    and complete the square.  (s, y) -> (s + m_j, y + m_{j+1}) keeps each numerator, so F_j has
    period m_j (it is read mod m_j); F_j >= 0 as F_{j+1} >= 0; N_j[s] sums N_{j+1}[y] over minimizing y.

    Window.  Only s with F_j[s] < m_j (excess below 1) are kept.  A minimizer y of a kept s has the
    numerator m_{j+1} F_j[s] < m_j m_{j+1}, so F_{j+1}[y] < m_{j+1} (y is kept one level down) and
    (m_j y - m_{j+1} s)^2 < m_j (m_{j+1} - F_{j+1}[y]); and a numerator below m_j m_{j+1} makes s kept.
    So the s in that interval, for each kept y in [0, m_{j+1}), visit every minimizer of every kept s
    once (once per class of the shift above) and no other s.  Each division is checked exact.
    """
    table = {0: (0, 1)}
    for j in range(len(m) - 2, -1, -1):
        mj, mn, below, table = m[j], m[j + 1], table, {}
        for y, (f, count) in below.items():
            t, g = mj * y, mj * f
            r = isqrt(mj * mn - g - 1)
            for s in range(-((r - t) // mn), (t + r) // mn + 1):
                e = t - mn * s
                v, rem = divmod(e * e + g, mn)
                if rem:
                    raise AssertionError(f"F_{j}[{s}] is not an integer")
                key = s % mj
                old = table.get(key)
                if old is None or v < old[0]:
                    table[key] = (v, count)
                elif v == old[0]:
                    table[key] = (v, old[1] + count)
    return table


def star_unit_pairs(center_weight: int, legs: Sequence[Sequence[int]]) -> int:
    """The number of +-pairs of vectors of norm -1 in a negative-definite star with legs <= -2, read with no graph.

    Unit vectors of a definite lattice are pairwise orthogonal (``lattice.minimalize``), so
    this is the number of <-1> summands, and the minimal part has the star's rank minus it.
    With Q = -G, center weight -e0 and legs alpha_i/omega_i (``_leg_minima``), A = prod alpha_i:
    - x_0 = 0: each leg's Q is at least the even A_k form y_1^2 + sum (y_j - y_{j+1})^2 + y_k^2,
      so Q(x) >= 2 for x != 0.  One vector of each pair has x_0 = c > 0.
    - x_0 = c: the legs meet the center only through -2 c y_1, so min Q = e0 c^2 + sum H_i(c), and
      alpha_i H_i(c) = -omega_i c^2 + F_i[c] gives A min Q = D c^2 + sum (A/alpha_i) F_i[c mod alpha_i]
      with D = e0 A - sum omega_i A/alpha_i = |det G| (D > 0 is negative definiteness: the legs are
      definite and D/A is the center's Schur complement).  As F >= 0, min Q = 1 needs D c^2 <= A, so
      1 <= c <= isqrt(A // D), and (A/alpha_i) F_i < A, so c mod alpha_i is kept in every leg's table.
      A vector with x_0 = c has Q = 1 only if every leg is at its minimum: prod_i N_i of them.
    The leg tables guard counts sum over legs of sum_j m_j (each table's size bound) plus isqrt(A // D),
    checked before any table is built.  Raises ``NotNegativeDefiniteError`` if D <= 0.
    """
    conts = [_leg_continuants(leg) for leg in legs]
    A, D = _star_det(center_weight, conts)
    top = isqrt(A // D)
    guard("leg tables", sum(map(sum, conts)) + top)
    # (A/alpha) F and N by residue, the sparsest table first: the centres run over its kept residues
    tables = [({s: (A // m[0] * f, n) for s, (f, n) in _leg_minima(m).items()}, m[0]) for m in conts]
    tables.sort(key=lambda t: len(t[0]) / t[1])
    (first, step), *others = tables or [({0: (0, 1)}, 1)]  # a lone vertex: every c, nothing added
    pairs = 0
    for r, (f, n) in first.items():
        for c in range(r or step, top + 1, step):
            rest, count = A - D * c * c - f, n
            for table, a in others:
                row = table.get(c % a)
                if row is None:
                    break
                rest, count = rest - row[0], count * row[1]
            else:
                pairs += count if rest == 0 else 0
    return pairs


def plumbing_to_seifert(G: PlumbingGraph) -> SeifertData:
    """Read Seifert data off a star-shaped graph (center as in ``star_legs``).

    Each leg, read from the center outward, contributes the pair
    (|num|, sign(num) * den) of its continued-fraction value.
    """
    center, legs = star_legs(G)
    branches = []
    for leg in legs:
        value = cf_eval([G.weights[v] for v in leg])
        a = abs(value.numerator)
        b = value.denominator if value.numerator > 0 else -value.denominator
        branches.append((a, b))
    return SeifertData(G.weights[center], tuple(branches))


# ---------------------------------------------------------------------------
# Brieskorn spheres


class BrieskornTriple(Frozen):
    """Pairwise coprime multiplicities (p, q, r), each >= 2."""

    _fields = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int):
        p, q, r = index(p), index(q), index(r)
        for x in (p, q, r):
            if x < 2:
                raise ValueError("Brieskorn multiplicities must be >= 2")
        if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
            raise NotCoprimeError(f"{(p, q, r)} is not pairwise coprime")
        self.__dict__.update(p=p, q=q, r=r)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def product(self) -> int:
        return self.p * self.q * self.r


def _brieskorn_data(T: BrieskornTriple) -> tuple[int, list[tuple[int, int]]]:
    """(e, branches) of Sigma(p,q,r)'s standard Seifert data, branches (a, (A/a)^{-1} mod a) sorted, A = pqr.

    The residues lie in the window 0 < b < a (every a >= 2), and e = (sum b A/a - 1) / A is an exact integer.  Its
    remainder is the one check: e - sum b/a = -1/A, the euler number, by construction."""
    A = T.product()
    branches = sorted((a, pow(A // a, -1, a)) for a in T.as_tuple())
    e, rem = divmod(sum(A // a * b for a, b in branches) - 1, A)
    assert rem == 0, T
    return e, branches


def brieskorn_seifert(T: BrieskornTriple) -> SeifertData:
    """The Seifert data of Sigma(p,q,r) (``_brieskorn_data``), euler number -1/pqr, normalized to the window
    0 < b < a; ``.negated().normalized()`` is its orientation reversal, euler number +1/pqr."""
    return SeifertData(*_brieskorn_data(T))


def brieskorn_star(T: BrieskornTriple) -> tuple[int, list[list[int]]]:
    """Centre weight e - 3 and legs -HJ(a/(a - b)) <= -2 (branch a/(b - a) < -1) of Sigma(p,q,r)'s canonical star,
    from the standard data (e, (a, b)), 0 < b < a; the multiplicity sum, which bounds the legs, is guarded first."""
    guard("multiplicity sum", sum(T.as_tuple()))
    e, branches = _brieskorn_data(T)
    return e - 3, [list(map(neg, _hj_word(a, a - b))) for a, b in branches]


def negdef_plumbing(T: BrieskornTriple) -> PlumbingGraph:
    """Sigma(p,q,r)'s canonical negative-definite plumbing tree, ``brieskorn_star``'s star, checked: its one elimination
    (kept for ``mubar``) must be negative definite with |det| = 1, else an AssertionError names T."""
    G = star_graph(*brieskorn_star(T))
    try:
        _negdef_unimodular(G._elimination)
    except ValueError as exc:
        raise AssertionError(f"plumbing of {T.as_tuple()}: {exc}") from exc
    return G


# ---------------------------------------------------------------------------
# mu-bar, Rohlin, spin filling bound


def mubar(G: PlumbingGraph) -> Fraction:
    """Neumann-Siebenmann invariant (sigma(Gram) - w^T Gram w) / 8.

    Requires the tree to have odd determinant so the Wu class is unique;
    the value is an integer for homology spheres.  w^T Gram w is the sum of
    the Wu set's weights: the set spans no edge of the tree (``star_mubar``).
    """
    elim = G._elimination
    w = _wu(elim, G.weights)  # raises SingularMod2Error on even determinant
    return Fraction(elim.inertia.sigma - sum(map(mul, G.weights, w)), 8)


def _leg_wu(leg: Sequence[int], tip: int) -> tuple[int, int, int]:
    """(s_0, s_1, sum of the weights with s_j = 1) of a leg read outward, walked in from s_k = tip (``star_mubar``)."""
    s, nxt, share = tip, 0, 0
    for w in reversed(leg):
        s, nxt, share = (w * (1 + s) + nxt) % 2, s, share + w * s
    return s, nxt, share


def star_mubar(center_weight: int, legs: Sequence[Sequence[int]]) -> Fraction:
    """``mubar(star_graph(center_weight, legs))``, legs <= -2 (else ValueError), with no graph; checked: D = |det|
    must be 1 (``_star_det``).  The Wu set s has s_{j-1} == b_j (1 + s_j) + s_{j+1} (mod 2)
    at leg vertex j of weight -b_j, so each tip bit (s_{k+1} = 0) gives the centre bit s_0 a leg forces (``_leg_wu``).
    The centre's e s_0 + sum s_1 == e (mod 2) picks one combination (det is odd); mu-bar = (-rank - w.w) / 8, with w.w
    the sum of the set's weights: in the forest the set spans every degree is even (Wu condition), so it has no edge."""
    _star_det(center_weight, [_leg_continuants(leg) for leg in legs], unimodular=True)
    partial = [(s0, center_weight * (s0 - 1), center_weight * s0) for s0 in (0, 1)]  # (s_0, centre condition, w.w)
    for end in ([_leg_wu(leg, tip) for tip in (0, 1)] for leg in legs):
        partial = [(s0, c + s1, q + share) for s0, c, q in partial for t, s1, share in end if t == s0]
    squares = [q for _, c, q in partial if c % 2 == 0]
    assert len(squares) == 1, "an odd-determinant star has one Wu set"
    value = Fraction(-1 - sum(map(len, legs)) - squares[0], 8)
    assert value.denominator == 1
    return value


def rohlin(G: PlumbingGraph) -> int:
    """Rohlin invariant: mu-bar reduced mod 2 (mu-bar must be an integer)."""
    m = mubar(G)
    if m.denominator != 1:
        raise ValueError("Rohlin invariant needs an integral mu-bar (homology sphere)")
    return int(m) % 2


class SpinBound(NamedTuple):
    """Cap on b2 of a negative-definite spin filling: b2 <= -8 mu-bar, b2 == -8 mu-bar mod 16, 0 if mu-bar >= 0."""

    max_b2: int
    b2_mod16: int
    mubar: Fraction

    @classmethod
    def of(cls, m: Fraction) -> "SpinBound":
        assert m.denominator == 1  # an integral mu-bar
        return cls(max(0, -8 * int(m)), -8 * int(m) % 16, m)


def ue_spin_bound(G: PlumbingGraph) -> SpinBound:
    """The ``SpinBound`` from the mu-bar of G, a negative-definite star with |det| = 1 (ValueError otherwise)."""
    star_legs(G)  # raises NotStarShapedError if not a star
    _negdef_unimodular(G._elimination)
    return SpinBound.of(mubar(G))
