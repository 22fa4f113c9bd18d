"""Independent oracles for the solver tests."""

from __future__ import annotations

import math

import numpy as np

from sspsim.lp import FEAS_TOL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, validate_program


class OracleSizeError(ValueError):
    """Brute-force grid would exceed the enumeration budget."""


def brute_force_verify(lp: LinearProgram, grid_step: float, max_points: int = 1_000_000) -> float:
    """Best objective over the regular feasibility grid; +inf when no grid point is feasible.

    Every variable must have finite bounds. This never consults the simplex,
    so `solve_lp` objectives can be asserted to be no worse than the grid's
    best value.
    """
    validate_program(lp)
    if grid_step <= 0:
        raise OracleSizeError("grid step must be positive")
    axes = []
    total = 1
    for var in lp.variables:
        if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
            raise OracleSizeError(f"variable {var.name!r} lacks finite bounds")
        count = int(math.floor((var.upper - var.lower) / grid_step + FEAS_TOL)) + 1
        axes.append(var.lower + grid_step * np.arange(count))
        total *= count
        if total > max_points:
            raise OracleSizeError(f"grid has more than {max_points} points")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    points = np.stack([m.ravel() for m in mesh]) if mesh else np.zeros((0, 1))
    npts = points.shape[1]
    feasible = np.ones(npts, dtype=bool)
    name_to_row = {v.name: k for k, v in enumerate(lp.variables)}
    for row in lp.constraints:
        lhs = np.zeros(npts)
        for name, c in row.coeffs.items():
            lhs += c * points[name_to_row[name]]
        if row.relation == LESS_EQUAL:
            feasible &= lhs <= row.rhs + FEAS_TOL
        elif row.relation == GREATER_EQUAL:
            feasible &= lhs >= row.rhs - FEAS_TOL
        else:
            feasible &= np.abs(lhs - row.rhs) <= FEAS_TOL
    if not feasible.any():
        return math.inf
    obj = np.zeros(npts)
    for name, c in lp.objective.items():
        obj += c * points[name_to_row[name]]
    return float(obj[feasible].min())
