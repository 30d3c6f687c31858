"""Shared fixtures: large ensembles are expensive, so they are built once
per session and reused by the module tests and the acceptance suite."""

from dataclasses import replace

import numpy as np
import pytest

from lentparticle import ensemble, scenarios
from lentparticle.prm import sample_path
from lentparticle.rng import RngStream

from oracles import LINEAR_BETA


@pytest.fixture(scope="session")
def ens_power_100k():
    """10^5 paths of the compound scenario with the u^2 form weight."""
    sc = scenarios.build("compound")
    return sc, ensemble.simple_ensemble(sc, 100_000, RngStream(seed=42), order=1)


@pytest.fixture(scope="session")
def ens_bump_100k():
    """10^5 paths of the compound scenario with the boundary-vanishing
    weight, tabulated for Z2."""
    sc = scenarios.build("compound", weight="bump")
    return sc, ensemble.simple_ensemble(sc, 100_000, RngStream(seed=102), order=2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def lone_mark_singular():
    """Builds compound-linear with I + D_x c = 0 at one mark that only one
    of paths 1 .. n takes (neighbouring paths share most marks), other than
    path 1; returns the scenario and that path's address."""
    def make(sc, seed, n):
        marks = [sample_path(sc.measure, sc.horizon, RngStream(seed=seed, path=i + 1)).marks
                 for i in range(n)]
        vals, counts = np.unique(np.concatenate(marks), return_counts=True)
        lone = vals[counts == 1]
        path = next(i for i in range(n - 1, 0, -1) if np.isin(marks[i], lone).any())
        mark = marks[path][np.isin(marks[path], lone)][0]

        def dx_c(s, x, u):
            u = np.asarray(u)[..., None, None]
            return np.where(u == mark, -1.0, LINEAR_BETA * u)

        return replace(sc, dx_c=dx_c), path + 1

    return make
