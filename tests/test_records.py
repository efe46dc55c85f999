"""The engine's value classes: construction, frozen fields, equality, hashing,
reprs and validation, and the package's public names and annotations."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
import typing

import pytest
from chow_reference import ChowClass

import sheafcalc
from sheafcalc.chow import P3, ChernData, ThreefoldData, threefold_to_dict
from sheafcalc.cohomology import CohomTable, DimEntry
from sheafcalc.dist import DistributionProfile, StabilityVerdict
from sheafcalc.errors import DomainError
from sheafcalc.sheafdsl import AtomO, AtomOmega1, AtomTX, Dual, NamedDecl, Sum, Twist

P3_REPR = (
    "ThreefoldData(name='p3', h3=1, cX=4, c2TX_H=6, c3TX=4, rhoX=2, gammaX=2, "
    "tx_stable='stable', h1_line_vanishing=True)"
)


@pytest.mark.parametrize("value, text", [
    (ChernData(2, -1, 11, 51), "ChernData(rank=2, c1=-1, n2=11, n3=51)"),
    (DimEntry(lo=0, hi=None), "DimEntry(lo=0, hi=None)"),
    (P3, P3_REPR),
    (Dual(AtomTX(), False), "Dual(base=AtomTX(), reflexive_rank2=False)"),
    (Sum(AtomO(1), Twist(AtomOmega1(), -2)),
     "Sum(left=AtomO(t=1), right=Twist(base=AtomOmega1(), t=-2))"),
    (ChowClass.of(1, 2), "ChowClass(a0=Fraction(1, 1), a1=Fraction(2, 1), "
                         "a2=Fraction(0, 1), a3=Fraction(0, 1))"),
    (DistributionProfile(P3, 0), f"DistributionProfile(X={P3_REPR}, f=0, generic=True)"),
    (StabilityVerdict("Stable", "TXStable"),
     "StabilityVerdict(status='Stable', reason='TXStable')"),
    (NamedDecl("F", ChernData(1, 0, 0, 0)),
     "NamedDecl(name='F', chern=ChernData(rank=1, c1=0, n2=0, n3=0), cohom_hints={})"),
    (CohomTable(P3, ChernData(1, 1, 0, 0)),
     f"CohomTable(X={P3_REPR}, chern=ChernData(rank=1, c1=1, n2=0, n3=0), lo=0, columns=[])"),
])
def test_repr_keeps_the_field_format(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("entry, status", [
    (DimEntry(2, 2), "known"),
    (DimEntry(1, 4), "bounded"),
    (DimEntry(0, None), "unknown"),
])
def test_dim_entry_status(entry, status):
    assert entry.status == status


def test_positional_keyword_and_default_construction():
    assert ChernData(2, -1, 11, 51) == ChernData(rank=2, c1=-1, n2=11, n3=51)
    assert ChernData(2, -1, n3=51, n2=11).n2 == 11
    assert ThreefoldData(**threefold_to_dict(P3)) == P3
    assert DistributionProfile(P3, 0).generic is True
    assert Dual(AtomTX()).reflexive_rank2 is False
    with pytest.raises(TypeError):
        ChernData(1, 2, 3)
    with pytest.raises(TypeError):
        ChernData(1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        ChernData(1, 2, 3, n3=4, bogus=5)
    with pytest.raises(TypeError):
        ChernData(1, 2, 3, 4, rank=1)


@pytest.mark.parametrize("value, field", [
    (ChernData(1, 2, 3, 4), "rank"),
    (DimEntry(3, 3), "lo"),
    (P3, "h3"),
    (AtomO(1), "t"),
    (DistributionProfile(P3, 0), "generic"),
    (CohomTable(P3, ChernData(1, 0, 0, 0), {(0, 0): (1, 1)}), "lo"),
])
def test_records_are_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_equality_needs_the_same_class():
    assert Dual(AtomTX(), False) != Twist(AtomTX(), 0)
    assert AtomTX() == AtomTX()
    assert AtomTX() != AtomOmega1()
    assert Twist(AtomTX(), 1) == Twist(AtomTX(), 1) != Twist(AtomTX(), 2)
    assert ChernData(1, 0, 0, 0) != (1, 0, 0, 0)
    # two distinct but equal profiles compare field by field
    assert ThreefoldData(**threefold_to_dict(P3)) is not P3


def test_equal_records_hash_equal_and_tables_stay_unhashable():
    pairs = [
        (ChernData(2, -1, 11, 51), ChernData(2, -1, 11, 51)),
        (DimEntry(0, None), DimEntry(0, None)),
        (ThreefoldData(**threefold_to_dict(P3)), P3),
        (Sum(AtomO(1), AtomTX()), Sum(AtomO(1), AtomTX())),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({AtomTX(), AtomTX(), AtomOmega1()}) == 2
    with pytest.raises(TypeError):
        hash(CohomTable(P3, ChernData(1, 0, 0, 0)))
    with pytest.raises(TypeError):  # its hints are a dict
        hash(NamedDecl("F", ChernData(1, 0, 0, 0)))


def test_cohom_tables_compare_by_value_and_are_frozen():
    a = CohomTable(P3, ChernData(1, 0, 0, 0), {(0, 0): (1, 1)})
    b = CohomTable(P3, ChernData(1, 0, 0, 0), {(0, 0): (1, 1)})
    assert a == b
    assert a != CohomTable.of_columns(P3, a.chern, 1, a.columns)
    with pytest.raises(AttributeError):
        b.lo = 1
    with pytest.raises(AttributeError):
        b.columns = []
    assert a == b


def test_each_named_declaration_gets_its_own_hints():
    c = ChernData(1, 0, 0, 0)
    first, second = NamedDecl("F", c), NamedDecl("G", c)
    assert first.cohom_hints == {} and first.cohom_hints is not second.cohom_hints
    hints = {(0, 0): 1}
    assert NamedDecl("F", c, hints).cohom_hints is hints


@pytest.mark.parametrize("build, message", [
    (lambda: ChernData(-1, 0, 0, 0), "rank must be >= 0, got -1"),
    (lambda: ChernData(1, 0.5, 0, 0), "c1 must be an integer"),
    (lambda: ChernData("2", 0, 0, 0), "rank must be an integer"),
    (lambda: DimEntry(-1, 0), "dimension lower bound must be >= 0"),
    (lambda: DimEntry(3, 2), "dimension interval is empty"),
    (lambda: DimEntry(1, None), "half-bounded entries are not representable"),
    (lambda: ThreefoldData("x", 0, 4, 6, 4), "h3 must be >= 1, got 0"),
    (lambda: ThreefoldData("x", 1, 4, 6, 4, rhoX=2, gammaX=1),
     "gammaX=1 < rhoX=2 is impossible"),
    (lambda: ThreefoldData("x", 1, 4, 6, 4, tx_stable="maybe"), "tx_stable must be one of"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(DomainError, match=message.replace("(", r"\(")):
        build()


PUBLIC = [
    "ChernData", "CohomTable", "ConnReport", "CurveFamilyReport",
    "DimEntry", "DistributionProfile", "EngineError", "ModuliReport", "NamedDecl",
    "P3", "PRESETS", "QUADRIC", "QUINTIC", "ResolutionReport", "SheafExpr",
    "SpectrumPoint", "StabilityVerdict", "SubfoliationReport", "ThreefoldData",
    "bott_h", "chern_of", "chi_at_twist", "chow",
    "cohom_of", "cohomology", "conn_components", "curve_family", "dist",
    "dist_chern", "dual_chern", "errors", "ext2_dim", "generic_dist_cohom",
    "global_gen_resolution", "les_chase", "line_chern", "load_threefold",
    "moduli_report", "modulispec", "normalize", "normalize_chern", "parse",
    "pic_act", "pretty",
    "reflexive_dual_rank2", "ses_third", "sheafdsl",
    "singular_length", "spectrum_point", "stability_classify",
    "subfoliation_analyze", "sum_chern", "threefold_from_dict",
    "threefold_to_dict", "twist_chern",
]


def test_package_public_names():
    # in a fresh interpreter, as importing a submodule adds it to the package
    code = (
        "import json, sheafcalc\n"
        "names = {}\n"
        "exec('from sheafcalc import *', names)\n"
        "print(json.dumps([sorted(n for n in names if n != '__builtins__'),\n"
        "                  [n for n in dir(sheafcalc) if not n.startswith('_')],\n"
        "                  names['chern_of'] is sheafcalc.sheafdsl.chern_of,\n"
        "                  sheafcalc.__version__]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert json.loads(out) == [PUBLIC, PUBLIC, True, "0.1.0"]
    assert len(PUBLIC) == 55
    with pytest.raises(AttributeError):
        sheafcalc.no_such_name


MODULES = ["sheafcalc"] + [
    f"sheafcalc.{info.name}" for info in pkgutil.iter_modules(sheafcalc.__path__)
]


def _defined_in(module):
    # every function, class, method and property getter the module defines
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            yield value
            for member in vars(value).values():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    # string annotations are evaluated in the module's namespace, where
    # every name they use must be bound
    defined = list(_defined_in(importlib.import_module(name)))
    assert defined
    for value in defined:
        typing.get_type_hints(value)
