"""Shared fixtures for the test-suite."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

# The project is a src-layout package.  When it is not installed (plain
# ``python -m pytest`` from a fresh checkout), put ``<repo>/src`` on the
# path so the suite runs without the ``PYTHONPATH=src`` incantation; an
# installed ``repro`` (pip install -e .) always wins.
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.boolexpr import parse
from repro.core import synthesize_fc_dpdn
from repro.electrical import generic_180nm
from repro.network import build_genuine_dpdn

# --------------------------------------------------------------------------- hypothesis
#
# "deterministic" (the default) seeds every property test from a hash of
# the test and keeps no example database, so a checkout runs the same
# examples every time and a case found on one machine does not replay on
# another.  "randomized" draws fresh examples and keeps the local
# database; the nightly CI job selects it with HYPOTHESIS_PROFILE.
try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
else:
    hypothesis_settings.register_profile("deterministic", derandomize=True, database=None)
    hypothesis_settings.register_profile("randomized", derandomize=False)
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


# --------------------------------------------------------------------------- fixtures


@pytest.fixture
def and2():
    """The paper's AND-NAND function."""
    return parse("A & B")


@pytest.fixture
def oai22():
    """The paper's Fig. 5 design-example function."""
    return parse("((A | B) & (C | D))'")


@pytest.fixture
def and2_genuine(and2):
    return build_genuine_dpdn(and2, name="AND2_genuine")


@pytest.fixture
def and2_fc(and2):
    return synthesize_fc_dpdn(and2, name="AND2_fc")


@pytest.fixture
def technology():
    return generic_180nm()


# A small set of representative functions used by several test modules.
REPRESENTATIVE_FUNCTIONS = {
    "AND2": "A & B",
    "OR2": "A | B",
    "XOR2": "A ^ B",
    "AND3": "A & B & C",
    "AO21": "(A & B) | C",
    "OAI21": "((A | B) & C)'",
    "OAI22": "((A | B) & (C | D))'",
    "MAJ3": "(A & B) | (B & C) | (A & C)",
    "MUX2": "(S & A) | (~S & B)",
}


@pytest.fixture(params=sorted(REPRESENTATIVE_FUNCTIONS))
def representative_function(request):
    """Parametrised fixture yielding (name, expression) pairs."""
    name = request.param
    return name, parse(REPRESENTATIVE_FUNCTIONS[name])


# --------------------------------------------------------------------------- strategies
#
# Hypothesis strategies live in ``tests/strategies.py``; import them from
# there (``from strategies import expression_strategy``), not from this
# conftest, so that collection from the repository root is unambiguous.
