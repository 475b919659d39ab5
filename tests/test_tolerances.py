import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import nuds
from nuds.tolerances import Tolerances


def test_default_values_are_pinned():
    # Each default is stated once, on its field; every emitted config
    # writes these values, so a change to one is a contract change.
    tol = Tolerances()
    assert {name: getattr(tol, name) for name in Tolerances.names()} == {
        "EIG_TOL": 1e-8, "SOLVE_TOL": 1e-8, "HERM_TOL": 1e-10, "FRAME_TOL": 1e-10,
        "BS_TOL": 1e-6, "RHO_MARGIN": 1e-6, "PIVOT_TOL": 1e-12,
    }
    for name in Tolerances.names():
        assert getattr(tol, name) > 0


def test_with_overrides():
    tol = Tolerances().with_overrides({"FRAME_TOL": 1e-6, "BS_TOL": 1e-3})
    assert tol.FRAME_TOL == 1e-6
    assert tol.BS_TOL == 1e-3
    assert tol.EIG_TOL == Tolerances().EIG_TOL  # untouched
    with pytest.raises(ValueError, match="unknown tolerance"):
        Tolerances().with_overrides({"NOT_A_TOL": 1.0})
    with pytest.raises(ValueError, match="positive"):
        Tolerances().with_overrides({"FRAME_TOL": 0.0})
    with pytest.raises(ValueError, match="positive"):
        Tolerances().with_overrides({"FRAME_TOL": -1e-9})


@pytest.mark.parametrize(
    "value", [float("inf"), "inf", 1e999], ids=["float", "string", "json-overflow"]
)
def test_with_overrides_rejects_an_infinite_threshold(value):
    # An infinite threshold turns off the check it names: BS_TOL = inf
    # would make every window "convergent".
    with pytest.raises(ValueError, match="tolerance BS_TOL must be finite, got inf"):
        Tolerances().with_overrides({"BS_TOL": value})


def test_frozen():
    tol = Tolerances()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tol.FRAME_TOL = 1.0


def test_tolerances_reach_call_sites_by_one_path():
    # The seven thresholds live on Tolerances only: no module, nuds.tolerances
    # included, binds one of their names (as a constant or an import), and no public
    # function or method takes a float threshold of its own instead of
    # the `tol` bundle.
    names = set(Tolerances.names())
    modules = [nuds] + [
        importlib.import_module(f"nuds.{info.name}")
        for info in pkgutil.iter_modules(nuds.__path__)
    ]
    for mod in modules:
        assert not names & set(vars(mod)), mod.__name__
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in filter(inspect.isfunction, members):
                if fn.__name__.startswith("_"):
                    continue
                knobs = [
                    p for p in inspect.signature(fn).parameters
                    if p.endswith("_tol") or p == "rho_margin"
                ]
                assert not knobs, (fn.__qualname__, knobs)
