import inspect
import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

import plumbcalc.families
from plumbcalc.lattice import isometric, e8_gram, recognize_e8, determinant
from plumbcalc.lens import d_from_plumbing, d_surgery, lens_d
from plumbcalc.plumbing import (
    BrieskornTriple,
    SeifertData,
    brieskorn_seifert,
    graph_to_gram,
    negdef_plumbing,
    seifert_to_plumbing,
)
from plumbcalc.families import (
    FAMILY_IDS,
    REDUCED_ENDPOINT_SEIFERT,
    SURGERY_FAMILIES,
    TableInvariantError,
    VerificationReport,
    _E8_ENDPOINTS,
    classify_e8_brieskorn,
    conjectured_d,
    family_chain,
    family_final_lattice,
    family_seifert,
    family_triple,
    surgery_parameters,
    surgery_presentation,
    theorem_bound,
    verify_conjecture,
    verify_correction_bound,
    verify_theorem_main,
    verify_unbounded_gap,
    write_reports,
)
from test_plumbing import brieskorn_rank


class TestTables:
    def test_triples(self):
        assert family_triple("i", 1).as_tuple() == (2, 5, 9)
        assert family_triple("ii", 1).as_tuple() == (2, 17, 29)
        assert family_triple("v", 1).as_tuple() == (5, 33, 47)
        assert family_triple("xii", 2).as_tuple() == (4, 61, 145)

    def test_all_triples_pairwise_coprime(self):
        for fam in FAMILY_IDS:
            for n in range(1, 7):
                p, q, r = family_triple(fam, n).as_tuple()
                assert gcd(p, q) == gcd(p, r) == gcd(q, r) == 1

    def test_seifert_rows(self):
        assert family_seifert("i", 1) == SeifertData(1, ((2, 1), (9, 1), (5, 2)))
        n = 3
        assert family_seifert("vi", n) == SeifertData(
            1, ((5, 1), (40 * n - 3, 32 * n - 4), (25 * n - 2, 1))
        )
        assert family_seifert("xii", n) == SeifertData(
            1, ((4, 1), (76 * n - 7, 57 * n - 10), (32 * n - 3, 2))
        )

    def test_seifert_rows_normalize_to_triple_data(self):
        # table-vs-formula cross-check for all twelve families, n = 1..5
        for fam in FAMILY_IDS:
            for n in range(1, 6):
                table = family_seifert(fam, n).normalized()
                derived = brieskorn_seifert(family_triple(fam, n)).normalized()
                assert table == derived, (fam, n)

    def test_seifert_rows_have_standard_euler_number(self):
        for fam in FAMILY_IDS:
            for n in (1, 4):
                triple = family_triple(fam, n)
                assert family_seifert(fam, n).euler_number() == Fraction(-1, triple.product())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_triple("xiii", 1)


# every public function of plumbcalc.families that takes the family parameter n
N_FUNCTIONS = [
    f
    for name, f in vars(plumbcalc.families).items()
    if inspect.isfunction(f) and f.__module__ == "plumbcalc.families"
    if not name.startswith("_") and "n" in inspect.signature(f).parameters
]


def test_n_functions_cover_the_family_api():
    names = {f.__name__ for f in N_FUNCTIONS}
    assert {"theorem_bound", "conjectured_d", "family_final_lattice", "family_triple", "verify_theorem_main"} <= names
    assert len(names) == 12


@pytest.mark.parametrize("fn", N_FUNCTIONS, ids=lambda f: f.__name__)
def test_family_functions_reject_n_below_one(fn):
    extra = [0] * (len(inspect.signature(fn).parameters) - 2)  # surgery_presentation's framing
    for fam in ("i", "v"):
        with pytest.raises(ValueError, match="n must be >= 1"):
            fn(fam, 0, *extra)
    with pytest.raises(ValueError, match="n must be >= 1"):
        fn("ii", -4, *extra)
    for fam, n in product(("i", "v"), (1.5, Fraction(7, 2))):  # refused, not rounded
        with pytest.raises(TypeError):
            fn(fam, n, *extra)


class TestFinalLattices:
    def test_families_i_to_iv_are_plus_e8_for_every_n(self):
        for fam in ("i", "ii", "iii", "iv"):
            for n in range(1, 6):
                assert recognize_e8(family_final_lattice(fam, n)) == 1

    def test_families_v_to_xii_endpoint(self):
        final = family_final_lattice("v", 1)
        assert recognize_e8(final) == 1
        for fam in ("vi", "vii", "viii", "ix", "x", "xi", "xii"):
            assert family_final_lattice(fam, 3) == final

    def test_endpoint_isometric_to_negated_e8_tree(self):
        final = family_final_lattice("i", 2)
        assert isometric(final, e8_gram(1)) is not None

    def test_literal_uncorrected_endpoint_data_fails(self):
        # the printed form of the reduced Seifert data, S(2; 2^[2], 2^[4],
        # 2.4), has branch fractions (3,2), (5,4), (7,4): its plumbing has
        # determinant 4, so it cannot be a homology-sphere endpoint; the
        # corrected branch (4,3) restores determinant 1 and the E8 form
        literal = SeifertData(2, ((3, 2), (5, 4), (7, 4)))
        gram = graph_to_gram(seifert_to_plumbing(literal))
        assert abs(determinant(gram)) == 4
        assert recognize_e8(gram) is None
        assert REDUCED_ENDPOINT_SEIFERT == SeifertData(2, ((3, 2), (4, 3), (7, 4)))
        corrected = graph_to_gram(seifert_to_plumbing(REDUCED_ENDPOINT_SEIFERT))
        assert abs(determinant(corrected)) == 1
        assert recognize_e8(corrected) == 1

    def test_stored_endpoints_are_plus_e8_and_end_every_reduction(self):
        """Each stored endpoint is +E8, by the classification and by an explicit
        isometry to the E8 tree, and each family's reduction ends at its own at
        n = 1..50: verify_theorem_main's clause (b) compares with it in integers."""
        assert len({E.rows for E in _E8_ENDPOINTS.values()}) == 4 and set(_E8_ENDPOINTS) == set(FAMILY_IDS)
        for E in {E.rows: E for E in _E8_ENDPOINTS.values()}.values():
            assert recognize_e8(E) == 1
            U, G = isometric(e8_gram(1), E), e8_gram(1).rows
            conj = [
                [sum(U[r][i] * G[r][c] * U[c][j] for r in range(8) for c in range(8)) for j in range(8)] for i in range(8)
            ]
            assert conj == [list(r) for r in E.rows]
        assert _E8_ENDPOINTS["v"] == graph_to_gram(seifert_to_plumbing(REDUCED_ENDPOINT_SEIFERT))
        for fam in FAMILY_IDS:
            for n in range(1, 51):
                assert family_final_lattice(fam, n) == _E8_ENDPOINTS[fam], (fam, n)


def test_theorem_main_reports_a_final_lattice_off_its_endpoint(monkeypatch):
    import plumbcalc.families

    # -E8, and the determinant-4 star of the uncorrected endpoint data
    wrong = graph_to_gram(seifert_to_plumbing(SeifertData(2, ((3, 2), (5, 4), (7, 4)))))
    for final, sign in [(e8_gram(-1), -1), (wrong, None)]:
        monkeypatch.setattr(plumbcalc.families, "family_final_lattice", lambda fam, n: final)
        rep = verify_theorem_main("i", 1)
        assert rep.values["final_lattice_e8_sign"] == sign and not rep.checks["final_lattice_is_plus_e8"]
        assert not rep.passed and all(v for k, v in rep.checks.items() if k != "final_lattice_is_plus_e8")


class TestSurgeryParameters:
    def test_family_i_n1_row(self):
        sp = surgery_parameters("i", 1)
        assert (sp.r, sp.s, sp.p, sp.q, sp.k, sp.descriptor().c, sp.witness_i) == (22, 3, 23, 2, 9, 17, 0)

    def test_family_ii_n1(self):
        sp = surgery_parameters("ii", 1)
        assert sp.p == 168 + 71 + 8 == 247
        assert sp.q == 72 + 27 + 1 == 100

    def test_family_iv_n2(self):
        sp = surgery_parameters("iv", 2)
        assert sp.p == 320 - 98 + 8 == 230
        assert sp.q == 64 - 26 + 1 == 39

    def test_invariants_hold_n_1_to_8(self):
        for fam in ("i", "ii", "iii", "iv"):
            for n in range(1, 9):
                sp = surgery_parameters(fam, n)
                assert sp.p == sp.r + 1
                assert gcd(sp.p, sp.q) == 1 and gcd(sp.r, sp.s) == 1
                assert (sp.k * sp.k * sp.q) % sp.p == 1 % sp.p
                assert sp.witness_i == (sp.q + 1) // 2 - n

    def test_family_i_paper_c_polynomial(self):
        for n in range(1, 9):
            sp = surgery_parameters("i", n)
            assert sp.descriptor().c == (42 * n * n - 29 * n + 4) % sp.p

    def test_surgery_presentation_determinants(self):
        # |H1| of the 0-surgery is r_n and of the 1-surgery is p_n: the
        # determinant-level cross-check of the whole table, n = 1..6
        for fam in ("i", "ii", "iii", "iv"):
            for n in range(1, 7):
                sp = surgery_parameters(fam, n)
                assert abs(determinant(graph_to_gram(surgery_presentation(fam, n, 0)))) == sp.r
                assert abs(determinant(graph_to_gram(surgery_presentation(fam, n, 1)))) == sp.p


class TestVerifyTheoremMain:
    def test_family_i_n_1_to_4(self):
        for n in range(1, 5):
            rep = verify_theorem_main("i", n)
            assert rep.passed, rep.checks

    def test_family_vii_n_1_to_3(self):
        for n in range(1, 4):
            rep = verify_theorem_main("vii", n)
            assert rep.passed, rep.checks

    def test_all_twelve_families_at_the_range_ends(self):
        for fam in FAMILY_IDS:
            for n in (1, 4):
                rep = verify_theorem_main(fam, n)
                assert rep.passed, (fam, n, rep.checks)

    def test_negative_control(self):
        # corrupting the (8n-3, 2) entry of the (i) table row to (8n-3, 3)
        # must fail the table-vs-triple clause
        n = 2
        corrupted = SeifertData(1, ((2, 1), (14 * n - 5, 7 * n - 6), (8 * n - 3, 3)))
        derived = brieskorn_seifert(family_triple("i", n)).normalized()
        assert corrupted.normalized() != derived

    def test_report_serialization(self, tmp_path):
        rep = verify_theorem_main("i", 1)
        path = tmp_path / "reports.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_reports([rep], fh)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["schema"].startswith("plumbcalc-verification-report/")
        assert payload["passed"] is True
        assert payload["checks"]["mubar_is_minus_one"] is True

    def test_report_writes_an_integral_rational_as_an_integer(self):
        rep = VerificationReport("k", "i", 1, values={"d": Fraction(6), "ratio": Fraction(81, 46), "n": 6})
        assert json.loads(rep.to_json())["values"] == {"d": 6, "ratio": "81/46", "n": 6}


class TestVerifyCorrectionBound:
    def test_family_i_n1(self):
        rep = verify_correction_bound("i", 1)
        assert rep.passed, rep.checks
        assert rep.values["d_surgery"] == 2
        assert rep.values["witness_contribution"] == 2  # n + 1 at n = 1

    def test_family_i_n2_even_branch(self):
        rep = verify_correction_bound("i", 2)
        assert rep.passed, rep.checks
        assert rep.values["witness_contribution"] == 2  # = n at n = 2

    def test_family_ii_n1(self):
        rep = verify_correction_bound("ii", 1)
        assert rep.passed
        assert rep.values["bound"] == 2

    def test_bounds_table(self):
        assert [theorem_bound("i", n) for n in range(1, 5)] == [2, 2, 4, 4]
        assert [theorem_bound("ii", n) for n in range(1, 5)] == [2, 4, 4, 6]
        assert [theorem_bound("iv", n) for n in range(1, 5)] == [2, 2, 4, 4]


def test_surgery_equals_plumbing_equals_the_bound_at_large_n():
    """d_surgery == d_from_plumbing == theorem_bound on (i)-(iv) at n = 50, 100 and 200."""
    for fam in ("i", "ii", "iii", "iv"):
        for n in (50, 100, 200):
            via_surgery = d_surgery(surgery_parameters(fam, n).descriptor()).value
            via_plumbing = d_from_plumbing(negdef_plumbing(family_triple(fam, n))).value
            assert via_surgery == via_plumbing == theorem_bound(fam, n), (fam, n)


class TestConjectures:
    def test_family_i_small(self):
        reps = [verify_conjecture("i", n) for n in range(1, 3)]
        assert [r.values["computed"] for r in reps] == [2, 2]
        assert all(r.values["matches"] for r in reps)
        assert all(r.values["computed"] >= theorem_bound("i", r.n) for r in reps)

    def test_family_v_reported_not_asserted(self):
        rep = verify_conjecture("v", 1)
        assert rep.values["predicted"] == 6
        assert "computed" in rep.values
        assert rep.kind == "conjecture" and rep.checks == {} and rep.passed

    def test_family_vii(self):
        rep = verify_conjecture("vii", 1)
        assert rep.values["predicted"] == 2
        assert rep.values["computed"] == 2

    def test_conjectured_values(self):
        assert conjectured_d("xi", 1) == 6
        assert conjectured_d("xi", 2) == 8
        assert conjectured_d("vi", 2) == 12
        # Remark 1.4 conjectures equality in the proven bounds for (i)-(iv)
        for fam in FAMILY_IDS[:4]:
            assert [conjectured_d(fam, n) for n in range(1, 21)] == [theorem_bound(fam, n) for n in range(1, 21)]

    def test_paper_formulas_match_their_closed_forms_to_n_200(self):
        """Theorem 1.3's bounds and Remark 1.4's predictions, written out, for every family at n = 1..200."""
        ceil_half = lambda m: -(-m // 2)
        closed = {
            **dict.fromkeys(("i", "iv"), lambda n: 2 * ceil_half(n)),
            **dict.fromkeys(("ii", "iii"), lambda n: 2 * ceil_half(n + 1)),
            **dict.fromkeys(("v", "vi"), lambda n: 6 * n),
            **dict.fromkeys(("vii", "viii", "ix", "x"), lambda n: 2 * n),
            **dict.fromkeys(("xi", "xii"), lambda n: 4 * n if n % 2 == 0 else 4 * n + 2),
        }
        assert closed.keys() == set(FAMILY_IDS)
        for fam in FAMILY_IDS:
            for n in range(1, 201):
                assert conjectured_d(fam, n) == closed[fam](n), (fam, n)
                if fam in SURGERY_FAMILIES:
                    assert theorem_bound(fam, n) == closed[fam](n), (fam, n)
                else:
                    with pytest.raises(ValueError, match=r"^the correction-term bound covers families \(i\)-\(iv\) only$"):
                        theorem_bound(fam, n)

    def test_remark_1_4_holds_to_n_20_on_every_family(self):
        """Every closed form of Remark 1.4 at n = 1..20: no member is skipped
        (the old full tau-scan stopped (v) at n = 15, (vi) at 20, (xi) at 16
        and (xii) at 14) and every computed d matches."""
        for fam in FAMILY_IDS:
            for n in range(1, 21):
                rep = verify_conjecture(fam, n)
                assert rep.notes == [] and rep.values["matches"], (fam, n)


def test_theorem_main_eliminates_no_tree(monkeypatch):
    """verify_theorem_main reads mu-bar, |det| = 1 and definiteness off the
    plumbing's star (``star_mubar``): no tree is built, nothing goes through
    the integer tree kernel or the dense one (the final lattice of the
    reduction is matched against its stored endpoint)."""
    import plumbcalc.lattice
    import plumbcalc.plumbing

    ranks = {"tree": [], "dense": []}
    tree_kernel, dense_kernel = plumbcalc.plumbing._tree_eliminate, plumbcalc.lattice._eliminate
    monkeypatch.setattr(plumbcalc.plumbing, "_tree_eliminate", lambda G: ranks["tree"].append(G.rank) or tree_kernel(G))
    monkeypatch.setattr(plumbcalc.lattice, "_eliminate", lambda rows: ranks["dense"].append(len(rows)) or dense_kernel(rows))
    monkeypatch.setattr(plumbcalc.plumbing, "star_graph", lambda *args: pytest.fail("the plumbing tree was built"))
    for fam, n in [("i", 3), ("v", 2), ("xii", 1)]:
        rep = verify_theorem_main(fam, n)
        assert rep.passed
        assert ranks == {"tree": [], "dense": []}, (fam, n)


class TestUnboundedGap:
    def test_family_i_n1(self):
        rep = verify_unbounded_gap("i", 1)
        assert rep.passed, rep.checks
        assert rep.values["minimal_rank"] >= 8
        # the known exact values: Sigma(2,5,9) has a rank-12 minimal lattice
        assert rep.values["minimal_rank"] == 12

    def test_family_i_n3(self):
        rep = verify_unbounded_gap("i", 3)
        assert rep.passed
        assert rep.values["minimal_rank"] >= 16


class TestClassifyE8:
    def test_bound_7(self):
        assert classify_e8_brieskorn(7) == [(2, 3, 5), (3, 4, 7)]

    def test_bound_4_empty(self):
        assert classify_e8_brieskorn(4) == []

    def test_guard(self):
        with pytest.raises(ValueError):
            classify_e8_brieskorn(401)

    def test_matches_brute_force_up_to_45(self):
        # the oracle ranks every coprime triple in integers, builds the star at
        # rank 8 and tests every weight; its list at B is its list at 45 cut to r <= B
        coprime = [T for T in combinations(range(2, 46), 3) if gcd(T[0], T[1]) == gcd(T[0], T[2]) == gcd(T[1], T[2]) == 1]
        found = [
            T
            for T in coprime
            if brieskorn_rank(*T) == 8 and all(w % 2 == 0 for w in negdef_plumbing(BrieskornTriple(*T)).weights)
        ]
        assert found == [(2, 3, 5), (3, 4, 7)]
        for bound in range(2, 46):
            assert classify_e8_brieskorn(bound) == [T for T in found if T[2] <= bound], bound

    def test_builds_few_stars(self, monkeypatch):
        # the leg tables leave 14 stars to check at bound 45, on their legs with no graph; testing every rank-8
        # triple checks 244
        built, graphs = [], []
        build, graph = plumbcalc.families.brieskorn_star, plumbcalc.plumbing.star_graph
        monkeypatch.setattr(plumbcalc.families, "brieskorn_star", lambda T: built.append(T) or build(T))
        monkeypatch.setattr(plumbcalc.plumbing, "star_graph", lambda *args: graphs.append(args) or graph(*args))
        assert classify_e8_brieskorn(45) == [(2, 3, 5), (3, 4, 7)]
        assert len(built) <= 20 and not graphs
