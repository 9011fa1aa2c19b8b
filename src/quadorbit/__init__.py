"""quadorbit: exact computation around semigroups of quadratic maps x^2 + c.

Orbit computation, irreducibility (stability) and maximal-subextension
certificates over Q and Q(t), classification of finite-orbit obstructions,
exact parity-property counting over coefficient boxes, the fixed-point
coin-flip process on the binary tree, and prime-divisor density scans.

The public names below load their submodule on first access (PEP 562), so
importing the package, or ``quadorbit.cli``, compiles none of the others.
"""

import importlib

__version__ = "0.1.0"

# Ring names of a GeneratorSet: Q, and Q(t) with constants in Z[t].
QQ = "q"
QT = "qt"

_EXPORTS = {
    "GeneratorSet": "dynamics",
    "OrbitCaps": "dynamics",
    "SequenceCoding": "dynamics",
    "classify_finite_orbit_obstruction": "dynamics",
    "critical_orbit": "dynamics",
    "escape_criterion": "dynamics",
    "orbit_contains_finite_orbit_point": "dynamics",
    "semigroup_orbit": "dynamics",
    "certify_chain": "certify",
    "level2_oracle": "certify",
    "tool_conditions": "certify",
    "bound_formula": "census",
    "convergence_experiment": "census",
    "exact_set_fraction": "census",
    "r_d": "census",
    "fpp_full_binary": "process",
    "sample_codings": "process",
    "simulate_process": "process",
    "density_profile": "primescan",
    "prime_divides_orbit": "primescan",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
