"""Exact arithmetic substrate: integers, rationals, and integer polynomials
standing for elements of Q[t] and Q(t).

The names in ``__all__`` load their submodule on first access (PEP 562), so
a caller that needs only ``intpoly`` never compiles ``ratpoly`` or
``factorint``.
"""

import importlib

_EXPORTS = {
    "factor_integer": "factorint",
    "is_probable_prime": "factorint",
    "IntPolynomial": "intpoly",
    "derivative_is_one_mod2": "intpoly",
    "render_poly": "intpoly",
    "PolynomialSyntaxError": "parse",
    "parse_poly": "parse",
    "is_square_int": "integers",
    "is_square_rational": "integers",
    "primes_in_range": "integers",
    "gcd_primitive": "ratpoly",
    "is_square": "ratpoly",
    "is_square_qt": "ratpoly",
    "is_squarefree": "ratpoly",
    "square_in_quadratic_extension": "ratpoly",
    "squarefree_decomposition": "ratpoly",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
