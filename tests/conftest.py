"""Shared fixtures: the reference run and its variants, computed once."""

import contextlib
import math
import tempfile
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rwcosmo import (IntegratorConfig, ModelParams, integrate, integrator,
                     make_initial_data)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and writes no .hypothesis/.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis caches the constants of the code under test, at collection,
    in its home directory: a temporary one for the session, not .hypothesis/
    in the working directory."""
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


REF_PARAMS = ModelParams(lam=1.0, mass=1.0)
REF_CONFIG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, t_end=10.0,
                              sample_dt=0.01, mode="paper")

#: nu for the reference data, from the defining formula.
REF_NU = math.sqrt((1.0 + 4.0 * math.pi) / 3.0)


def reference_initial():
    return make_initial_data(REF_PARAMS, a0=1.0, phi0=1.0, chi0=0.1,
                             rho0=0.05, branch="expanding")


@pytest.fixture(scope="session")
def ref_initial():
    return reference_initial()


@pytest.fixture(scope="session")
def ref_trajectory(ref_initial):
    return integrate(ref_initial, REF_PARAMS, REF_CONFIG)


@pytest.fixture(scope="session")
def kg_trajectory(ref_initial):
    return integrate(ref_initial, REF_PARAMS, replace(REF_CONFIG, mode="kg"))


@pytest.fixture(scope="session")
def truncated_trajectory(ref_initial):
    return integrate(ref_initial, REF_PARAMS, replace(REF_CONFIG, t_end=0.1))


@pytest.fixture(scope="session")
def radiation_trajectory():
    params = ModelParams(lam=0.0, mass=0.0)
    data = make_initial_data(params, a0=1.0, phi0=0.0, chi0=0.0, rho0=1.0,
                             branch="expanding")
    config = replace(REF_CONFIG, t_end=5.0, override_admissibility=True)
    return integrate(data, params, config)


@pytest.fixture(scope="session")
def stepped():
    """A context manager inside which every run steps through its frozen
    phase: integrator.nu_rate reads undefined, so integrate finds no closed
    form at the freeze and steps on from it, as from a frozen state with
    C_f = lambda + 4 pi m^2 phi_f^2 <= 0, which has no limit.  The stepped
    run is the reference the exact tail is held against."""
    @contextlib.contextmanager
    def stepping():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrator, "nu_rate", lambda params, phi0: None)
            yield
    return stepping


REFERENCE_INI = """\
[model]
lambda = 1
mass = 1

[initial]
a0 = 1
phi0 = 1
chi0 = 0.1
rho0 = 0.05
branch = expanding

[integrator]
rel_tol = 1e-10
abs_tol = 1e-10
t_end = 10
sample_dt = 0.01
mode = paper

[output]
directory = {directory}
overwrite = true
"""


def write_reference_config(path, directory, **edits):
    """Drop a reference run config at ``path``, with optional line edits."""
    text = REFERENCE_INI.format(directory=directory)
    for old, new in edits.items():
        key = old.replace("_", " ", 0)
        assert old in text, f"no line matching {old!r}"
        text = text.replace(old, new)
    path.write_text(text)
    return path
