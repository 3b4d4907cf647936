"""Package-wide properties: every exported name resolves, so a deleted
function cannot linger in __all__; every value type survives pickle and
copy, and every value record keeps the record contract; and no self-check
in src/ is a bare assert, which python -O drops."""

import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import fineselmer
import reachability
from fineselmer import cli
from fineselmer.cyclotomic import kinf_ramification
from fineselmer.elliptic import WeierstrassModel
from fineselmer.finitefield import FiniteField, FqPoly
from fineselmer.galoisimage import (classify_image, find_stable_subgroups,
                                    surjectivity_certificate)
from fineselmer.lambdabound import compute_lambda_bound
from fineselmer.localdata import (compute_place_sets, delta_v, reduction_over_K,
                                  tate_reduction)
from fineselmer.padic import PadicNumber, padic_roots
from fineselmer.polynomial import QPoly

SRC = Path(fineselmer.__file__).resolve().parent


def test_package_exports_resolve():
    missing = [n for n in fineselmer.__all__ if not hasattr(fineselmer, n)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(fineselmer.__path__):
        module = importlib.import_module(f"fineselmer.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []


def _model_with_ladder():
    model = WeierstrassModel(0, -1, 1, -10, -20)
    model.division_polynomial(5)
    return model


def _report():
    return compute_lambda_bound(_model_with_ladder(), 5, "Q(mu_p)")


# each value record as the package makes it; the id is the record's name
RECORDS = [
    pytest.param(lambda: cli.job_from_dict({"curve": [0, -1, 1, -10, -20], "p": 5}, "line 1"),
                 id="JobSpec"),
    pytest.param(lambda: kinf_ramification(5, "Q(mu_p)"), id="RamificationStatement"),
    pytest.param(lambda: find_stable_subgroups(_model_with_ladder(), 5)[0],
                 id="StableSubgroupWitness"),
    pytest.param(lambda: surjectivity_certificate(WeierstrassModel(0, 0, 1, -1, 0), 5),
                 id="SurjectivityCertificate"),
    pytest.param(lambda: classify_image(_model_with_ladder(), 5), id="ImageClassification"),
    pytest.param(lambda: _report().ledger[0], id="HypothesisEntry"),
    pytest.param(lambda: _report().global_invariants, id="GlobalInvariants"),
    pytest.param(lambda: _report().terms[0], id="LocalTerm"),
    pytest.param(lambda: _report().routes[0], id="RouteBound"),
    pytest.param(_report, id="LambdaBoundReport"),
    pytest.param(lambda: tate_reduction(_model_with_ladder(), 11), id="ReductionData"),
    pytest.param(lambda: reduction_over_K(_model_with_ladder(), 11, 5), id="KPlaceReduction"),
    pytest.param(lambda: compute_place_sets(_model_with_ladder(), 5, "Q(mu_p)").bad_places[0],
                 id="PlaceRecord"),
    pytest.param(lambda: compute_place_sets(_model_with_ladder(), 5, "Q(mu_p)"),
                 id="PlaceSets"),
    pytest.param(lambda: delta_v(_model_with_ladder(), 5), id="DeltaResult"),
    pytest.param(lambda: padic_roots(QPoly([-2, 0, 1]), 7), id="PadicRoots"),
]


@pytest.mark.parametrize("make", RECORDS + [
    pytest.param(_model_with_ladder, id="WeierstrassModel"),
    pytest.param(lambda: WeierstrassModel(0, "1/2", 1, -10, -20), id="WeierstrassModel-rational"),
    pytest.param(lambda: QPoly([3, Fraction(1, 3), 1]), id="QPoly"),
    pytest.param(lambda: FiniteField(7), id="FiniteField"),
    pytest.param(lambda: FiniteField(7).element(3), id="FqElem"),
    pytest.param(lambda: FqPoly(FiniteField(7), [1, 2, 3]), id="FqPoly"),
    pytest.param(lambda: PadicNumber(5, 1, 3, 10), id="PadicNumber"),
    pytest.param(lambda: PadicNumber(5, 10, 0, 10), id="PadicNumber-zero"),
])
def test_values_survive_pickle_and_copy(make):
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and repr(twin) == repr(value)
        if isinstance(value, FqPoly):  # compared by identity: read its parts
            assert (twin.field, twin.coeffs) == (value.field, value.coeffs)
        else:
            assert twin == value
        if isinstance(value, WeierstrassModel):
            # rebuilt by the checked constructor, with no ladder carried over
            assert twin._ladder is None and twin.b8 == value.b8


@pytest.mark.parametrize("make", RECORDS)
def test_records_are_immutable_hashable_tuples(make):
    # a record is a NamedTuple: frozen, hashed by its fields, and a tuple,
    # so it also equals the plain tuple of its values
    value = make()
    name = value._fields[0]
    for attribute in (name, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
    assert getattr(value, name) is value[0] and value == tuple(value)
    assert hash(value) == hash(copy.deepcopy(value))
    twin = value._replace(**{name: "changed"})
    assert type(twin) is type(value) and twin == ("changed", *value[1:])


def test_every_record_is_covered():
    # tests/reachability.py finds the records by their NamedTuple base for
    # CI's unread-field list; it and RECORDS must both see all of them
    found = {node.name for _, node in reachability.record_classes()}
    assert len(found) == 16
    assert found == {param.id for param in RECORDS}
    for param in RECORDS:
        assert type(param.values[0]()).__name__ == param.id


def test_record_reprs_keep_the_dataclass_format():
    model = _model_with_ladder()
    assert repr(delta_v(model, 5)) == (
        "DeltaResult(value=2, provenance='computed-exact', method='division-poly-root', "
        "notes=('certified torsion x-coordinate with a rational y over Q_p',))")
    assert repr(compute_place_sets(model, 5, "Q(mu_p)").bad_places[0]) == (
        "PlaceRecord(residue_char=11, residue_degree=1, count=4, category='multiplicative', "
        "split=True, kodaira='I5', in_S0=True)")


def test_no_bare_assert_in_src():
    # python -O drops assert statements; a self-check must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
