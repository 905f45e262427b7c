"""The twelve Brieskorn families and their verification procedures.

Each family is stored as closed-form polynomials in the parameter n >= 1
(triple, Seifert presentation, surgery-parameter table, dual class), so the
n-range is extensible and transcription slips are caught by cross-checks:

* the Seifert table row must normalize to the data derived from the triple,
* the 0/1-surgery lens orders must match determinants of the presentations
  (``surgery_presentation``; this cross-check runs in the tests),
* p = r + 1, all gcd conditions, and k^2 q == 1 mod p are enforced on
  construction,
* the dual classes for families (ii)-(iv) are derived from the third
  Seifert multiplicity, normalized so that k^2 q == 1 mod p; family (i)
  carries the published value 14n - 5, which the same normalization
  reproduces.

The paper's d formulas, proved and predicted, are one table (``_PAPER_D``).
Verification reports are plain data: one :class:`VerificationReport` per
(family, n) with named boolean clauses, serializable as JSON lines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable, Optional, TextIO

from .arith import Frozen, Record, _hj_word
from .guards import ScanGuardExceededError, guard
from .lattice import GramLattice, recognize_e8
from .lens import (
    SurgeryDescriptor,
    d_brieskorn,
    d_star,
    d_surgery,
    lens_d,
)
from .plumbing import (
    BrieskornTriple,
    ChainDiagram,
    PlumbingGraph,
    SeifertData,
    SpinBound,
    brieskorn_seifert,
    brieskorn_star,
    chain_to_gram,
    graph_to_gram,
    negdef_plumbing,
    seifert_to_plumbing,
    star_graph,
    star_mubar,
    star_unit_pairs,
    twist_reduce,
)

REPORT_SCHEMA = "plumbcalc-verification-report/2"

FAMILY_IDS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii")
SURGERY_FAMILIES = FAMILY_IDS[:4]  # (i)-(iv): the families with chains and surgery tables


class TableInvariantError(ValueError):
    """A stored family table row violates one of its structural invariants."""


def _check_family(fam: str, n: int) -> str:
    fam = fam.strip().lower().lstrip("(").rstrip(")")
    if fam not in FAMILY_IDS:
        raise ValueError(f"unknown family {fam!r}; expected one of {FAMILY_IDS}")
    if index(n) < 1:
        raise ValueError("family parameter n must be >= 1")
    return fam


# triples (multiplier, constant) per coordinate: value = a*n + b
_TRIPLES: dict[str, tuple[tuple[int, int], tuple[int, int], tuple[int, int]]] = {
    "i": ((0, 2), (8, -3), (14, -5)),
    "ii": ((0, 2), (14, 3), (24, 5)),
    "iii": ((0, 2), (16, 3), (26, 5)),
    "iv": ((0, 2), (10, -3), (16, -5)),
    "v": ((0, 5), (35, -2), (50, -3)),
    "vi": ((0, 5), (25, -2), (40, -3)),
    "vii": ((0, 3), (15, -2), (36, -5)),
    "viii": ((0, 3), (9, -2), (24, -5)),
    "ix": ((0, 3), (21, -4), (36, -7)),
    "x": ((0, 3), (27, -4), (48, -7)),
    "xi": ((0, 4), (28, -3), (64, -7)),
    "xii": ((0, 4), (32, -3), (76, -7)),
}


def family_triple(fam: str, n: int) -> BrieskornTriple:
    """The Brieskorn multiplicities of family ``fam`` at parameter n >= 1."""
    fam = _check_family(fam, n)
    coords = tuple(a * n + b for a, b in _TRIPLES[fam])
    try:
        return BrieskornTriple(*coords)
    except ValueError as exc:  # pragma: no cover - table rows are coprime
        raise TableInvariantError(str(exc)) from exc


# Seifert table rows S(1; (p1, 1), (p2, q2), (p3, q3)); entries (a, b) are
# linear polynomials a*n + b per component.
_SEIFERT_ROWS: dict[str, tuple[int, tuple[tuple[int, int], tuple[int, int]], tuple[tuple[int, int], tuple[int, int]]]] = {
    "i": (2, ((14, -5), (7, -6)), ((8, -3), (0, 2))),
    "ii": (2, ((14, 3), (7, -2)), ((24, 5), (0, 6))),
    "iii": (2, ((26, 5), (13, -4)), ((16, 3), (0, 4))),
    "iv": (2, ((10, -3), (5, -4)), ((16, -5), (0, 4))),
    "v": (5, ((35, -2), (28, -3)), ((50, -3), (0, 2))),
    "vi": (5, ((40, -3), (32, -4)), ((25, -2), (0, 1))),
    "vii": (3, ((15, -2), (10, -3)), ((36, -5), (0, 4))),
    "viii": (3, ((24, -5), (16, -6)), ((9, -2), (0, 1))),
    "ix": (3, ((21, -4), (14, -5)), ((36, -7), (0, 4))),
    "x": (3, ((48, -7), (32, -10)), ((27, -4), (0, 3))),
    "xi": (4, ((28, -3), (21, -4)), ((64, -7), (0, 4))),
    "xii": (4, ((76, -7), (57, -10)), ((32, -3), (0, 2))),
}


def family_seifert(fam: str, n: int) -> SeifertData:
    """The tabulated presentation S(1; (p1,1), (p2,q2), (p3,q3)) of the family.

    These rows carry euler number -1/(p q r): after normalization they agree
    with ``brieskorn_seifert(family_triple(fam, n))`` in its standard
    orientation, which ``verify_theorem_main`` checks.
    """
    fam = _check_family(fam, n)
    p1, *pairs = _SEIFERT_ROWS[fam]
    return SeifertData(1, ((p1, 1), *(tuple(x * n + y for x, y in pair) for pair in pairs)))


# ---------------------------------------------------------------------------
# Chain presentations for families (i)-(iv)


def family_chain(fam: str, n: int) -> ChainDiagram:
    """The pre-reduction chain with the 0-framed component next to the marked
    link; families (i)-(iv) only.  ``twist_reduce`` collapses it to the
    rank-8 endpoint chain independent of n.
    """
    fam = _check_family(fam, n)
    if fam not in SURGERY_FAMILIES:
        raise ValueError("chain presentations exist for families (i)-(iv) only")
    if fam == "i":
        # 2^[6] . n . 0 .(2) (4-4n) . 2
        framings = (2, 2, 2, 2, 2, 2, n, 0, 4 - 4 * n, 2)
        return ChainDiagram(framings, (7, 2))
    if fam == "ii":
        # 2^[5] . (2-4n) .(2) 0 . n . 4 . 2
        framings = (2, 2, 2, 2, 2, 2 - 4 * n, 0, n, 4, 2)
        return ChainDiagram(framings, (5, 2))
    if fam == "iii":
        # 2^[3] . 4 . n . 0 .(2) (2-4n) . 2^[3]
        framings = (2, 2, 2, 4, n, 0, 2 - 4 * n, 2, 2, 2)
        return ChainDiagram(framings, (5, 2))
    # (iv): 2^[4] . n . 0 .(2) (4-4n) . 2^[3]
    framings = (2, 2, 2, 2, n, 0, 4 - 4 * n, 2, 2, 2)
    return ChainDiagram(framings, (5, 2))


# The reduced endpoint of families (v)-(xii): the rank-8 star plumbing of
# S(2; (3,2), (4,3), (7,4)), euler number 1/84.  (The variant with branch
# (5,4) in place of (4,3) has determinant 4 and is rejected by the E8 tests.)
REDUCED_ENDPOINT_SEIFERT = SeifertData(2, ((3, 2), (4, 3), (7, 4)))


# The Gram each family's reduction ends at, the same at every n: (i) and (ii)
# share a chain, and (v)-(xii) share the star.  The tests prove each one +E8
# (``recognize_e8`` and an explicit isometry to ``e8_gram(1)``), so
# ``verify_theorem_main`` compares a member's final lattice with it in integers.
_CHAIN_E8 = chain_to_gram(ChainDiagram((2, 2, 2, 2, 2, 2, 4, 2), (5, 2)))
_E8_ENDPOINTS = {
    "i": _CHAIN_E8,
    "ii": _CHAIN_E8,
    "iii": chain_to_gram(ChainDiagram((2, 2, 2, 4, 2, 2, 2, 2), (3, 2))),
    "iv": chain_to_gram(ChainDiagram((2, 2, 2, 2, 4, 2, 2, 2), (3, 2))),
    **dict.fromkeys(FAMILY_IDS[4:], graph_to_gram(seifert_to_plumbing(REDUCED_ENDPOINT_SEIFERT))),
}


def family_final_lattice(fam: str, n: int) -> GramLattice:
    """The rank-8 Gram matrix ending the family's diagram reduction.

    Families (i)-(iv) reduce through their chains; families (v)-(xii) reduce
    to the star plumbing of ``REDUCED_ENDPOINT_SEIFERT``, returned as its
    stored ``_E8_ENDPOINTS`` entry, so on (v)-(xii) clause (b) of
    ``verify_theorem_main`` does not depend on n.  All twelve end at the
    positive E8 form.
    """
    fam = _check_family(fam, n)
    if fam in SURGERY_FAMILIES:
        return chain_to_gram(twist_reduce(family_chain(fam, n)))
    return _E8_ENDPOINTS[fam]


# ---------------------------------------------------------------------------
# Surgery parameters for families (i)-(iv)


class SurgeryParameters(Frozen):
    """Row of the 0/1-surgery table: lens orders r and p = r + 1, s and q,
    dual class k and witness index.  The affine constant c is the
    descriptor's (``descriptor().c``)."""

    _fields = ("family", "n", "r", "s", "p", "q", "k", "witness_i")

    def __init__(self, family: str, n: int, r: int, s: int, p: int, q: int, k: int, witness_i: int):
        self.__dict__.update(family=family, n=n, r=r, s=s, p=p, q=q, k=k, witness_i=witness_i)

    def descriptor(self) -> SurgeryDescriptor:
        return SurgeryDescriptor(self.p, self.q, self.k)

    def witness_label(self) -> int:
        """The tabulated witness re-based to the recursion labeling.

        The published witness indices count offsets from floor((q+1)/2) while
        the recursion labels count them from floor((p+1)/2); the shift is the
        recorded label-convention reconciliation.
        """
        shift = (self.p + 1) // 2 - (self.q + 1) // 2
        return (self.witness_i + shift) % self.p


_SURGERY_TABLE: dict[str, dict[str, tuple[int, int, int]]] = {
    # quadratic polynomials a*n^2 + b*n + c
    "i": {"r": (56, -41, 7), "s": (8, -7, 2), "q": (8, -7, 1), "k": (0, 14, -5)},
    "ii": {"r": (168, 71, 7), "s": (72, 27, 4), "q": (72, 27, 1), "k": (0, 14, 3)},
    "iii": {"r": (208, 79, 7), "s": (48, 17, 2), "q": (48, 17, 1), "k": (0, 26, 5)},
    "iv": {"r": (80, -49, 7), "s": (16, -13, 4), "q": (16, -13, 1), "k": (0, 10, -3)},
}


def _poly2(coeffs: tuple[int, int, int], n: int) -> int:
    a, b, c = coeffs
    return a * n * n + b * n + c


def surgery_parameters(fam: str, n: int) -> SurgeryParameters:
    """The (r, s, p, q, k, witness) row for families (i)-(iv) at n >= 1.

    p = r + 1 by construction; enforced are coprimality of both lens pairs,
    gcd(k, p) = 1 and k^2 q == 1 mod p (the dual-class normalization),
    witness_i = floor((q+1)/2) - n.
    """
    fam = _check_family(fam, n)
    if fam not in _SURGERY_TABLE:
        raise ValueError("surgery parameters exist for families (i)-(iv) only")
    row = _SURGERY_TABLE[fam]
    r = _poly2(row["r"], n)
    s = _poly2(row["s"], n)
    q = _poly2(row["q"], n)
    p = r + 1
    k = _poly2(row["k"], n) % p
    witness = (q + 1) // 2 - n
    if gcd(r, s) != 1 or gcd(p, q) != 1:
        raise TableInvariantError(f"({fam}, {n}): lens parameters not coprime")
    if gcd(k, p) != 1 or (k * k * q) % p != 1 % p:
        raise TableInvariantError(f"({fam}, {n}): dual class fails k^2 q == 1 mod p")
    if not (0 <= witness < p):
        raise TableInvariantError(f"({fam}, {n}): witness index out of range")
    return SurgeryParameters(fam, n, r, s, p, q, k, witness)


def surgery_presentation(fam: str, n: int, meridian_framing: int) -> PlumbingGraph:
    """Plumbing presentation of the w-framed surgery on the meridian of the
    multiplicity-2 fiber: the standard star with one extra leaf of weight w
    attached to the weight-2 leg.

    The determinant reproduces the lens orders of the surgery table
    (|det| = r for w = 0 and p for w = 1), which is the table's
    determinant-level cross-check.
    """
    fam = _check_family(fam, n)
    if fam not in _SURGERY_TABLE:
        raise ValueError("surgery presentations exist for families (i)-(iv) only")
    data = brieskorn_seifert(family_triple(fam, n))  # normalized: branches sorted, 0 < b < a
    if data.branches[0][0] != 2:
        raise TableInvariantError("expected a multiplicity-2 exceptional fiber")
    legs = [list(_hj_word(a, b)) for a, b in data.branches]
    # extend the multiplicity-2 leg (a single weight-2 vertex) by the meridian
    legs[0] = legs[0] + [meridian_framing]
    return star_graph(data.e, legs)


# ---------------------------------------------------------------------------
# Verification reports


class VerificationReport(Record):
    """Outcome of one verification task for one (family, n) pair; a default container is a fresh one."""

    _fields = ("kind", "family", "n", "checks", "values", "notes")

    def __init__(self, kind: str, family: str, n: int, checks: Optional[dict[str, bool]] = None,
                 values: Optional[dict[str, object]] = None, notes: Optional[list[str]] = None):
        self.kind, self.family, self.n = kind, family, n
        self.checks = {} if checks is None else checks
        self.values = {} if values is None else values
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, Fraction):  # an integer as a JSON number, else "p/q"
                return int(v) if v.denominator == 1 else str(v)
            if isinstance(v, tuple):
                return list(v)
            return v

        payload = {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "family": self.family,
            "n": self.n,
            "passed": self.passed,
            "checks": self.checks,
            "values": {k: enc(v) for k, v in self.values.items()},
            "notes": self.notes,
        }
        return json.dumps(payload, sort_keys=True)


def write_reports(reports: Iterable[VerificationReport], fh: TextIO) -> None:
    """Write reports to the open text file ``fh`` as JSON lines (one report per line)."""
    fh.writelines(rep.to_json() + "\n" for rep in reports)


def verify_theorem_main(fam: str, n: int) -> VerificationReport:
    """The E8-filling certificate for one family member.

    Clauses: (a) mu-bar of the canonical negative-definite plumbing is -1;
    (b) the reduced final lattice is the positive E8 form (the constructed
    filling bounds the reversed orientation, so the triple itself acquires a
    -E8-filling); (c) the spin-filling cap is b2 <= 8, pinning the E8-genus
    at 1; (d) the tabulated Seifert row normalizes to the data derived from
    the triple.  Clause (b) matches the final lattice against the family's
    stored +E8 endpoint (on (v)-(xii) it is that endpoint, whatever n); a
    mismatch is reported as ``recognize_e8`` of it.  Clauses (a) and (c) read
    mu-bar off the star's legs (``star_mubar``; ``brieskorn_star`` guards P+Q+R).
    """
    fam = _check_family(fam, n)
    triple = family_triple(fam, n)
    rep = VerificationReport("theorem-main", fam, n)
    rep.values["triple"] = triple.as_tuple()

    bound = SpinBound.of(star_mubar(*brieskorn_star(triple)))
    rep.values["mubar"] = bound.mubar
    rep.checks["mubar_is_minus_one"] = bound.mubar == -1

    final = family_final_lattice(fam, n)
    sign = 1 if final == _E8_ENDPOINTS[fam] else recognize_e8(final)
    rep.values["final_lattice_e8_sign"] = sign
    rep.checks["final_lattice_is_plus_e8"] = sign == 1

    rep.values["spin_b2_cap"] = bound.max_b2
    rep.values["spin_b2_mod16"] = bound.b2_mod16
    rep.checks["spin_cap_is_8"] = bound.max_b2 == 8 and bound.b2_mod16 == 8

    table = family_seifert(fam, n).normalized()
    derived = brieskorn_seifert(triple)
    rep.values["seifert_table"] = repr(table)
    rep.checks["seifert_table_matches_triple"] = table == derived
    return rep


# The paper's d formulas: d = a n + b, (a, b) = _PAPER_D[family][n % 2].  Rows (i)-(iv) are proved lower bounds
# (Theorem 1.3: 2 ceil(n/2), 2 ceil((n+1)/2)); rows (v)-(xii) are predicted (Remark 1.4: 6n, 2n, 4 (n/2 + ceil(n/2))).
_PAPER_D = {
    **dict.fromkeys(("i", "iv"), ((1, 0), (1, 1))),
    **dict.fromkeys(("ii", "iii"), ((1, 2), (1, 1))),
    **dict.fromkeys(("v", "vi"), ((6, 0), (6, 0))),
    **dict.fromkeys(("vii", "viii", "ix", "x"), ((2, 0), (2, 0))),
    **dict.fromkeys(("xi", "xii"), ((4, 0), (4, 2))),
}


def theorem_bound(fam: str, n: int) -> int:
    """The proven lower bound for d in families (i)-(iv)."""
    if _check_family(fam, n) not in SURGERY_FAMILIES:
        raise ValueError("the correction-term bound covers families (i)-(iv) only")
    return conjectured_d(fam, n)


def _family_i_closed_forms(n: int, p: int) -> tuple[Fraction, Fraction, int]:
    """Expected witness-label values for family (i): (top, bottom, gap)."""
    if n % 2 == 1:
        top = Fraction(224 * n**3 + 8 * n * n - 95 * n + 25, 4 * p)
        bottom = Fraction(-(52 * n * n - 37 * n + 7), 4 * p)
        return top, bottom, n + 1
    top = Fraction(224 * n**3 - 216 * n * n + 73 * n - 8, 4 * p)
    bottom = Fraction(-(52 * n * n - 41 * n + 8), 4 * p)
    return top, bottom, n


def verify_correction_bound(fam: str, n: int) -> VerificationReport:
    """Check the correction-term lower bound via the surgery maximum.

    For family (i) the closed-form values of both witness terms and the
    witness contribution (n+1 for odd n, n for even) are checked exactly;
    for (ii)-(iv) the theorem-level inequality plus the full maximum are
    checked (their witness patterns are implementer-derived machinery).
    """
    fam = _check_family(fam, n)
    params = surgery_parameters(fam, n)
    desc = params.descriptor()
    rep = VerificationReport("correction-bound", fam, n)
    res = d_surgery(desc)
    bound = theorem_bound(fam, n)
    rep.values["d_surgery"] = res.value
    rep.values["bound"] = bound
    rep.values["witnesses"] = res.witnesses[:8]
    rep.checks["d_at_least_bound"] = res.value >= bound

    w = params.witness_label()
    top_label = (params.k * w + desc.c) % params.p
    top = lens_d(params.p, params.q, top_label)
    bottom = lens_d(params.p, 1, w)
    rep.values["witness_label"] = w
    rep.values["witness_contribution"] = top - bottom
    rep.checks["witness_attained_by_max"] = res.value >= top - bottom
    if fam == "i":
        exp_top, exp_bottom, exp_gap = _family_i_closed_forms(n, params.p)
        expected_label = ((7 * n - 5) // 2) % params.p if n % 2 else (-(7 * n) // 2) % params.p
        rep.checks["witness_top_label_identity"] = top_label == expected_label
        rep.checks["witness_top_closed_form"] = top == exp_top
        rep.checks["witness_bottom_closed_form"] = bottom == exp_bottom
        rep.checks["witness_gap_pattern"] = top - bottom == exp_gap
    return rep


def verify_unbounded_gap(fam: str, n: int) -> VerificationReport:
    """Check rank(minimal part) >= 4 d, the lower-bound engine for the
    unbounded gap between the minimal-sublattice rank and the even-filling
    cap of 8 coming from the E8-filling.

    d and the unit vectors (``star_unit_pairs``: pairwise orthogonal, one
    <-1> summand each) are read off the family's star, legs <= -2, with no
    graph: the minimal part has the star's rank minus that count.  Guarded
    by the multiplicity sum, d's tau window, then the leg tables guard.
    """
    fam = _check_family(fam, n)
    rep = VerificationReport("unbounded-gap", fam, n)
    center, legs = brieskorn_star(family_triple(fam, n))
    d = d_star(center, legs)  # its tau-window guard fires before the leg tables are built
    pairs = star_unit_pairs(center, legs)
    bound = theorem_bound(fam, n)
    o_lower = 1 + sum(map(len, legs)) - pairs
    rep.values["d"] = d.value
    rep.values["minimal_rank"] = o_lower
    rep.values["split_minus_ones"] = pairs
    rep.values["theorem_bound"] = bound
    rep.checks["minimal_rank_at_least_4d"] = o_lower >= 4 * d.value
    rep.checks["gap_floor"] = o_lower - 8 >= 4 * bound - 8
    return rep


def conjectured_d(fam: str, n: int) -> int:
    """The conjectured exact d: the proven bound (conjectured sharp) on (i)-(iv), Remark 1.4's value on (v)-(xii)."""
    a, b = _PAPER_D[_check_family(fam, n)][n % 2]
    return a * n + b


def verify_conjecture(fam: str, n: int) -> VerificationReport:
    """Compare the computed correction term with Remark 1.4's conjectured value.

    The report has no clauses, so it always passes: a mismatch shows in
    ``values["matches"]``, never as a failure (these are conjectures).  A
    member past a guard of ``d_brieskorn`` is skipped with a note.
    """
    fam = _check_family(fam, n)
    triple = family_triple(fam, n)
    rep = VerificationReport("conjecture", fam, n)
    rep.values["triple"] = triple.as_tuple()
    rep.values["predicted"] = conjectured_d(fam, n)
    try:
        d_val = d_brieskorn(triple).value
    except ScanGuardExceededError as exc:
        rep.notes.append(f"skipped: {exc}")
    else:
        rep.values["computed"] = d_val
        rep.values["matches"] = d_val == rep.values["predicted"]
    return rep


def classify_e8_brieskorn(bound: int) -> list[tuple[int, int, int]]:
    """All coprime triples p < q < r <= bound whose canonical definite
    plumbing Gram is (+/-)E8 on the nose.

    Only the negative-definite plumbing is tested: the reversed orientation's
    star, from ``brieskorn_seifert(T).negated().normalized()``, is its
    negation (centre 3 - e and legs +HJ(a/(a - b)) against e - 3 and
    -HJ(a/(a - b)), same vertices and edges), so it is +E8 exactly when this
    one is -E8 (Neumann, Trans. AMS 268, 1981).  The leg at multiplicity a,
    whose partners multiply to m mod a, is -HJ(a/(a - m^-1 mod a)); the table
    ``even[a][m]`` holds its length if every entry is even, else 0 (also at m
    not prime to a).  It grows from the one-entry words: an even c prepended to
    a word of value a/d gives (c a - d)/a, a larger numerator.  Table reads
    reject a triple unless its legs are all even (every weight of -E8 is) with
    lengths summing to 7 (rank 8 = 1 + the leg lengths); an r sharing a factor
    with p or q reads 0.  Both conditions are necessary, so the list is the one
    that testing every coprime triple gives.  ``negdef_plumbing`` proves each
    survivor's star negative definite with |det| = 1, so at rank 8 it is -E8
    exactly when every weight, the centre's too, is even (no Gram is built).
    """
    guard("classify bound", bound)
    even = [[0] * a for a in range(bound + 1)]
    words = [(c, 1, 1) for c in range(2, bound + 1, 2)]  # (numerator a, denominator d, length) of a/d
    while words:
        a, d, n = words.pop()
        even[a][pow(a - d, -1, a)] = n
        words += [(c * a - d, a, n + 1) for c in range(2, (bound + d) // a + 1, 2)]
    out = []
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if gcd(p, q) != 1:
                continue
            for r in range(q + 1, bound + 1):
                lr = even[r][p * q % r]
                if lr and (lq := even[q][p * r % q]) and (lp := even[p][q * r % p]) and lp + lq + lr == 7:
                    if all(w % 2 == 0 for w in negdef_plumbing(BrieskornTriple(p, q, r)).weights):
                        out.append((p, q, r))
    return out
