"""Package-wide properties: every exported name resolves, so a deleted
function cannot linger in __all__; every value type survives pickle and
copy; and no self-check in src/ is a bare assert, which python -O drops."""

import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import fineselmer
from fineselmer.elliptic import WeierstrassModel
from fineselmer.finitefield import FiniteField, FqPoly
from fineselmer.lambdabound import compute_lambda_bound
from fineselmer.padic import PadicNumber
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


@pytest.mark.parametrize("make", [
    pytest.param(_model_with_ladder, id="WeierstrassModel"),
    pytest.param(lambda: WeierstrassModel(0, "1/2", 1, -10, -20), id="WeierstrassModel-rational"),
    pytest.param(lambda: QPoly([3, Fraction(1, 3), 1]), id="QPoly"),
    pytest.param(lambda: FiniteField(7), id="FiniteField"),
    pytest.param(lambda: FiniteField(7).element(3), id="FqElem"),
    pytest.param(lambda: FqPoly(FiniteField(7), [1, 2, 3]), id="FqPoly"),
    pytest.param(lambda: PadicNumber(5, 1, 3, 10), id="PadicNumber"),
    pytest.param(lambda: PadicNumber(5, 10, 0, 10), id="PadicNumber-zero"),
    pytest.param(lambda: compute_lambda_bound(_model_with_ladder(), 5, "Q(mu_p)"),
                 id="LambdaBoundReport"),
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


def test_no_bare_assert_in_src():
    # python -O drops assert statements; a self-check must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
