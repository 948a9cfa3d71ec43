"""The public surface: every exported name resolves, and the tools that
only tests use live in tests/_tools.py, not in the package."""

import importlib
import inspect
import pkgutil

import pytest

import mcseries

MODULES = sorted(m.name for m in pkgutil.iter_modules(mcseries.__path__))

# module -> names that left it: deleted, or moved into tests/_tools.py
GONE = {
    "serialize": ("decomposition_to_json", "decomposition_from_json"),
    "gm_action": ("GmStratum", "FixedComponentStratum", "OrbitFamilyOverPoint",
                  "OrbitFamilyOverPuncturedLine", "GmDecomposition", "assemble_mc",
                  "colinear_blowup_data"),
    "monoid": ("canonicalize",),
    "toric": ("hirzebruch_fan", "weighted_p112_fan", "blowup_at_fixed_point"),
}
GONE_METHODS = (("monoid", "GradedMonoid", "elements_up_to"),
                ("series", "MonoidPolynomial", "scale"),
                ("series", "RationalSeries", "denominator_polynomial"),
                ("series", "RationalSeries", "is_monic"))
GONE_PARAMETERS = (("series", "certify_rational", "numerator_degree"),
                   ("gm_action", "colinear_mc_series", "ring"))


@pytest.mark.parametrize("name", [None, *MODULES])
def test_every_exported_name_resolves(name):
    module = mcseries if name is None else importlib.import_module(f"mcseries.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(GONE))
def test_removed_names_are_gone(name):
    module = importlib.import_module(f"mcseries.{name}")
    for n in GONE[name]:
        assert not hasattr(module, n)
        assert not hasattr(mcseries, n)


def test_removed_methods_and_parameters_are_gone():
    for name, cls, method in GONE_METHODS:
        assert not hasattr(getattr(importlib.import_module(f"mcseries.{name}"), cls),
                           method)
    for name, func, parameter in GONE_PARAMETERS:
        sig = inspect.signature(getattr(importlib.import_module(f"mcseries.{name}"), func))
        assert parameter not in sig.parameters
