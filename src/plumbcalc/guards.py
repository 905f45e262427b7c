"""Work guards: every bound on the work a computation may do, in one table.

Each row of ``GUARDS`` names a guard, the unit it counts and its bound.  ``guard(name, size)`` is the
one check; it is called in the function whose cost the guard bounds, before that work is done.  The
CLI exits 3 on :class:`ScanGuardExceededError`.  Costs are measured with Python 3.11 on one Xeon core.
"""

from typing import NamedTuple


class ScanGuardExceededError(ValueError):
    """A work guard of ``GUARDS`` would be exceeded; the message names the guard, the size and the bound."""


class Guard(NamedTuple):
    unit: str
    bound: int


GUARDS: dict[str, Guard] = {
    # lens._tau_min, d's scan: family (v) at n = 263, 1.99M points, takes 0.65-0.95 s, 0.25-0.33 us a point.
    "tau window": Guard("window points", 2_000_000),
    # plumbing.brieskorn_star (before a leg is expanded) and lens._tau_min: the sum bounds the plumbing's
    # rank (rank <= sum) and the tau tables.  A unit costs d 3.0-3.4 us on the integer tree kernel and 10-14
    # window points (d 300 301 90299, rank 90600: 0.39 s end to end, median of 7 runs); 2,000,000 // 15 is safe.
    "multiplicity sum": Guard("sum of multiplicities", 133_333),
    # lens._descent_table (p labels, one division each at the top level) and lens.d_surgery (labels in its
    # window).  lens_d_all(599999, 370820) takes 1.9-2.2 s, mostly its p Fractions (its table 0.46-0.50 s);
    # d_surgery ties on all p at q = 1, k = +-1 (0.35 s at p = 599999).  A thm1.3 member takes about 45 n
    # labels (n = 1000: 0.08-0.12 s); (iii) passes the bound at n = 13277, refused after 1.6 s.
    "lens labels": Guard("labels evaluated", 600_000),
    # lens.lens_d_oracle, whose DP asks about p values of each level.  The worst q has a long -2 run ending
    # in one large weight, p mod q <= 3, q near sqrt(p): L(7922, 89) and L(7833, 89) take 1.5-1.8 s, the
    # worst found at p <= 8000; L(8000, 129) 0.9 s; past the bound L(8011, 90) 1.8 s, L(10000, 101) 2.4-2.8 s.
    "oracle lens order": Guard("lens order", 8000),
    # plumbing.star_unit_pairs, from the legs' continuants before any table is built: sum over legs of
    # sum_j m_j (each level's table has at most m_j entries) plus the isqrt(A // |det|) centres it may try.
    # The worst star found is a 13-leg Seifert sphere (alpha = 2, 3, ..., 37, 47): 18.7M units, dense
    # tables, 1.6-1.7 s (random stars and Brieskorn spheres cost at most 0.09 us a unit).  The last
    # family members inside are (i) n = 1117, (ii) 644, (iii) 789, (iv) 790, each under 0.03 s.
    "leg tables": Guard("table entries and centres", 20_000_000),
    # families.classify_e8_brieskorn: about bound^3 / 6 triples, rejected by table reads unless the legs are
    # all even with rank 8 (stars built: 14 at 45, 61 at 400); 0.6-1.0 s at the bound, 1.4-2.3 s at 500.
    "classify bound": Guard("classification bound", 400),
    # lattice.isometric backtracks over the vectors of each norm, exponentially in the rank: -E8 + -I4
    # (rank 12) against itself takes 1.9 s, E8 0.01 s.
    "isometric rank": Guard("lattice rank", 12),
}


def guard(name: str, size: int) -> None:
    """Raise :class:`ScanGuardExceededError` if ``size`` exceeds the bound of guard ``name``."""
    unit, bound = GUARDS[name]
    if size > bound:
        raise ScanGuardExceededError(f"{name} guard exceeded: {unit} {size} > {bound}")
