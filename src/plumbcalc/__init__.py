"""plumbcalc: exact-arithmetic invariants of plumbed 3-manifolds.

The package computes, with no floating point anywhere:

* negative continued fractions and Seifert presentations,
* exact invariants of integral lattices (determinant, signature, Wu class,
  characteristic-vector maxima, minimal parts, E8 recognition, isometry),
* Neumann-Siebenmann mu-bar and Rohlin invariants of plumbed spheres,
* Heegaard Floer correction terms of lens spaces and Brieskorn spheres,
* batch verification of twelve families of homology spheres that bound
  4-manifolds with E8 intersection form while their correction terms grow.
"""

from .arith import (
    NotCoprimeError,
    NotExpandableError,
    ZeroTailError,
    cf_eval,
    hj_expand,
    mod_inverse,
)
from .guards import ScanGuardExceededError
from .lattice import (
    CharMax,
    Classification,
    Definiteness,
    GramLattice,
    Minimalization,
    NotDefiniteError,
    NotNegativeDefiniteError,
    NotUnimodularError,
    Parity,
    Signature,
    SingularMod2Error,
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
from .plumbing import (
    BrieskornTriple,
    ChainDiagram,
    NotStarShapedError,
    PatternNotFoundError,
    PlumbingGraph,
    SeifertData,
    SpinBound,
    brieskorn_seifert,
    chain_to_gram,
    graph_to_gram,
    mubar,
    negdef_plumbing,
    plumbing_to_seifert,
    rohlin,
    seifert_to_plumbing,
    star_graph,
    star_mubar,
    star_unit_pairs,
    twist_reduce,
    ue_spin_bound,
)
from .lens import (
    DFromPlumbing,
    LensSpace,
    SurgeryDescriptor,
    SurgeryResult,
    d_brieskorn,
    d_from_plumbing,
    d_star,
    d_surgery,
    lens_d,
    lens_d_all,
    lens_d_oracle,
)
from .families import (
    FAMILY_IDS,
    REDUCED_ENDPOINT_SEIFERT,
    SURGERY_FAMILIES,
    SurgeryParameters,
    TableInvariantError,
    VerificationReport,
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

__version__ = "1.0.0"
