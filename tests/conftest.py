"""Shared fixtures."""

import pytest

from commlb import solver
from commlb.errors import SolverError


@pytest.fixture
def fail_float_simplex(monkeypatch):
    """A function that, once called, makes the float simplex raise
    SolverError, so rational mode runs the exact simplex from scratch."""
    simplex = solver._revised_simplex

    def float_fails(problem, exact):
        if not exact:
            raise SolverError("simplex stalled (pivot limit reached); try rational mode")
        return simplex(problem, exact)

    return lambda: monkeypatch.setattr(solver, "_revised_simplex", float_fails)
