"""Deterministic simulator for day-ahead distributed energy commitment among SSPs.

The package exports what the README's library example uses; everything else
is imported from its module (``sspsim.model``, ``sspsim.matching``, ...).
"""

from .coalition import meshed_map
from .matching import solve_centralized
from .model import utility_interaction
from .protocol import audit_privacy, calibrate_weights, run_engine
from .scenario import GeneratorSpec, generate_scenario

__version__ = "0.1.0"
