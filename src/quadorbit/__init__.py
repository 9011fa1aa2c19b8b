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


def _record(cls=None, /, *, frozen=False):
    """Give a class of annotated fields an ``__init__``, ``__repr__`` and ``__eq__``.

    Stands in for ``@dataclass``, whose import costs a command about 10 ms and
    which execs generated source for every class.  Fields are the class
    annotations in order; a class attribute of the same name is the default,
    and a list default is copied for each instance.  ``__post_init__`` runs
    after the fields are set.  Equality compares the fields of instances of
    the same class.  A frozen class hashes its fields and refuses assignment
    (``__post_init__`` may use ``object.__setattr__``); any other is
    unhashable.  Instances keep a ``__dict__``, so they pickle as they are.
    """
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes at most {len(names)} positional arguments")
        values = dict(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
                values[name] = value.copy() if type(value) is list else value
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple(self.__dict__[name] for name in names)

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        items = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{cls.__qualname__}({items})"

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls
