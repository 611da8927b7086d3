"""Every exported name resolves, and each is exported once.

A name left in an __all__ after its definition is gone fails only at
`from module import *`; nothing else imports it, so it is checked here.
"""

import importlib
import pkgutil

import pytest

import genrabi

MODULES = ["genrabi"] + [
    f"genrabi.{info.name}" for info in pkgutil.iter_modules(genrabi.__path__)
    if hasattr(importlib.import_module(f"genrabi.{info.name}"), "__all__")]

# the single-point entry API, replaced by the series and ThetaEvaluator.solve
REMOVED = {
    "closed_forms": ("resonance_entries", "beta0_entries", "check_grid",
                     "last_entries", "_CHECK_SAMPLES"),
    "theta": ("general_entries", "phase_integrals", "PhaseIntegrals",
              "induced_detuning"),
    "observables": ("transition_probability", "sigma_z_expectation",
                    "sigma_xy_expectation"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_entry_names_stay_removed(owner):
    module = importlib.import_module(f"genrabi.{owner}")
    for name in REMOVED[owner]:
        assert not hasattr(module, name), name
        assert not hasattr(genrabi, name), name
