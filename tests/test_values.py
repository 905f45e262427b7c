"""Value semantics of the package's ten value classes.

Each is built by position and by keyword (defaults included), compares equal
to an equal instance and unequal to a different one, to the tuple of its
fields and to an instance of a subclass with the same fields, and prints the
``Name(field=value, ...)`` form that reports carry.  The nine frozen ones hash
by their fields and refuse assignment; ``VerificationReport`` is mutable,
unhashable and gets a fresh dict or list per default.
"""

import pytest

from plumbcalc.families import SurgeryParameters, VerificationReport
from plumbcalc.lattice import GramLattice, Minimalization
from plumbcalc.lens import LensSpace, SurgeryDescriptor
from plumbcalc.plumbing import BrieskornTriple, ChainDiagram, PlumbingGraph, SeifertData

E = GramLattice(((2,),))
ROWS = [  # class, positional arguments, the same by keyword, other arguments, repr
    (LensSpace, (7, 9), {"p": 7, "q": 9}, (7, 3), "LensSpace(p=7, q=2)"),
    (SurgeryDescriptor, (7, 9, 3), {"p": 7, "q": 9, "k": 3}, (7, 2, 5), "SurgeryDescriptor(p=7, q=2, k=3)"),
    (
        PlumbingGraph,
        ((-2, -3, -5), ((1, 0), (1, 2))),
        {"weights": (-2, -3, -5), "edges": ((0, 1), (2, 1))},
        ((-2, -3, -5), ((0, 1), (0, 2))),
        "PlumbingGraph(weights=(-2, -3, -5), edges=((0, 1), (1, 2)))",
    ),
    (ChainDiagram, ((1, 2, 3),), {"framings": (1, 2, 3), "marked": None}, ((1, 2, 3), (1, 4)), "ChainDiagram(framings=(1, 2, 3), marked=None)"),
    (ChainDiagram, ((1, 2, 3), (1, 4)), {"framings": [1, 2, 3], "marked": [1, 4]}, ((1, 2, 3), (0, 4)), "ChainDiagram(framings=(1, 2, 3), marked=(1, 4))"),
    (SeifertData, (-1,), {"e": -1, "branches": ()}, (-1, ((2, 1),)), "SeifertData(e=-1, branches=())"),
    (SeifertData, (1, [(2, 1), (5, 2)]), {"e": 1, "branches": ((2, 1), (5, 2))}, (1, ((2, 1),)), "SeifertData(e=1, branches=((2, 1), (5, 2)))"),
    (BrieskornTriple, (2, 3, 5), {"p": 2, "q": 3, "r": 5}, (2, 3, 7), "BrieskornTriple(p=2, q=3, r=5)"),
    (GramLattice, (((2, 1), (1, 2)),), {"rows": [[2, 1], [1, 2]]}, (((2, 1), (1, 3)),), "GramLattice(rows=((2, 1), (1, 2)))"),
    (
        Minimalization,
        (E, 1, 0, ((1, 0), (0, 1))),
        {"minimal": E, "plus_ones": 1, "minus_ones": 0, "basis_change": ((1, 0), (0, 1))},
        (E, 0, 1, ((1, 0), (0, 1))),
        "Minimalization(minimal=GramLattice(rows=((2,),)), plus_ones=1, minus_ones=0, basis_change=((1, 0), (0, 1)))",
    ),
    (
        SurgeryParameters,
        ("i", 1, 22, 3, 23, 2, 9, 0),
        {"family": "i", "n": 1, "r": 22, "s": 3, "p": 23, "q": 2, "k": 9, "witness_i": 0},
        ("i", 1, 22, 3, 23, 2, 9, 1),
        "SurgeryParameters(family='i', n=1, r=22, s=3, p=23, q=2, k=9, witness_i=0)",
    ),
    (
        VerificationReport,
        ("k", "i", 1),
        {"kind": "k", "family": "i", "n": 1, "checks": {}, "values": {}, "notes": []},
        ("k", "i", 2),
        "VerificationReport(kind='k', family='i', n=1, checks={}, values={}, notes=[])",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, other, text", ROWS, ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(ROWS)])
def test_value_semantics(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    fields = tuple(getattr(a, name) for name in kwargs)
    assert a == b and not a != b and repr(a) == repr(b) == text
    assert a != cls(*other) and a != fields and a != type("Twin", (cls,), {})(*args)
    if cls is VerificationReport:  # mutable: no hash, a fresh container per default
        fresh = cls(*args)
        assert cls.__hash__ is None and (a.checks, a.values, a.notes) == (fresh.checks, fresh.values, fresh.notes)
        assert a.checks is not fresh.checks and a.values is not fresh.values and a.notes is not fresh.notes
        a.n = 2
        assert a == cls(*other)
        return
    assert hash(a) == hash(b) == hash(fields)
    for name, value in zip(kwargs, fields):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text
