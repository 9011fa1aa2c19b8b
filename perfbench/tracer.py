"""Traced run of one quadorbit command, timed from outside the package.

    PYTHONPATH=src python3 perfbench/tracer.py [--id N] -- certify --ring qt --c t --depth 8

The tracer wraps the package's public functions (``TARGETS``), runs
``quadorbit.cli.main(argv)`` in-process with stdout captured, restores the
originals and prints one JSON object: the exit code, the report, the spans
(tagged with command id N), per-span call counts and self times, and the
work counts.

A wrapper replaces every binding of the wrapped function object across the
``quadorbit.*`` module namespaces and class dictionaries, so calls through
``from .x import f`` aliases and method slots such as ``__rmul__ = __mul__``
are caught too.  A self time is a span's duration minus the durations of the
wrapped calls made inside it, so per command the self times of all spans sum
to the root span.  High-frequency functions are aggregated into counters
only; the rest are also kept as spans in memory and written out at the end.
A target that does not resolve is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "cli.main"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _terms(poly) -> int:
    if isinstance(poly, int):
        return 1 if poly else 0
    return 0 if poly.is_zero() else poly.degree + 1


def _count_mul(args, kwargs, result):
    if result is NotImplemented:
        return {}
    return {"algebra.intpoly.mul.terms": _terms(args[0]) * _terms(args[1])}


def _count_factor(args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    return {"algebra.factorint.input_bits": abs(n).bit_length(), "algebra.factorint.incomplete": int(not result.complete)}


def _count_scan(args, kwargs, result):
    last = result.rows[-1]
    return {"primescan.primes_decided": last.pi_x, "primescan.members": last.in_p, "primescan.over_cap": len(result.over_cap)}


def _count_bytes(args, kwargs, result):
    return {"reporting.bytes": len(result.encode())}


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``attr`` may name a method as ``Class.method``."""

    module: str
    attr: str
    aggregate: bool = False  # high-frequency: counters only, no per-call span
    family: str | None = None  # counts ``<family>.yielded``; nested calls of a family time and count once
    count: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("reporting", "report_envelope"),
    Target("reporting", "canonical_json", count=_count_bytes),
    Target("reporting", "render_csv", count=_count_bytes),
    Target(
        "dynamics",
        "critical_orbit",
        count=lambda a, k, r: {"dynamics.critical_orbit.levels": _arg(a, k, 2, "n")},
    ),
    Target("dynamics", "classify_finite_orbit_obstruction"),
    Target("dynamics", "semigroup_orbit"),
    Target("dynamics", "orbit_contains_finite_orbit_point"),
    Target("dynamics", "eisenstein_stability"),
    Target("certify", "certify_chain"),
    Target("certify", "stability_certificate"),
    Target("certify", "maximality_qt"),
    Target("certify", "maximality_by_primitive_odd_prime"),
    Target("certify", "level2_oracle"),
    Target("certify", "tool_conditions"),
    Target("census", "convergence_experiment"),
    Target(
        "process",
        "simulate_process",
        count=lambda a, k, r: {"process.simulate.trials": _arg(a, k, 2, "trials")},
    ),
    Target(
        "process",
        "sample_codings",
        count=lambda a, k, r: {"process.sample.draws": _arg(a, k, 3, "samples") * _arg(a, k, 2, "length")},
    ),
    Target("process", "fpp_full_binary"),
    Target("process", "fpp_enclosure"),
    Target("primescan", "density_profile", count=_count_scan),
    Target("primescan", "fpp_comparison"),
    Target("primescan", "zero_pattern"),
    Target("primescan", "prime_divides_orbit", aggregate=True),
    Target("primescan", "primes_up_to", aggregate=True, family="primescan.sieve"),
    Target("primescan", "primes_in_range", aggregate=True, family="primescan.sieve"),
    Target("algebra.intpoly", "IntPolynomial.__mul__", aggregate=True, count=_count_mul),
    Target("algebra.intpoly", "render_poly"),
    Target("algebra.ratpoly", "gcd_primitive"),
    Target("algebra.ratpoly", "gcd_qt"),
    Target("algebra.ratpoly", "squarefree_decomposition"),
    Target("algebra.ratpoly", "is_squarefree"),
    Target("algebra.ratpoly", "is_square_qt"),
    Target("algebra.ratpoly", "is_square"),
    Target("algebra.factorint", "factor_integer", count=_count_factor),
    Target("algebra.factorint", "is_probable_prime", aggregate=True),
    Target("algebra.parse", "parse_poly"),
)


LAYERS = (
    "cli",
    "reporting",
    "dynamics",
    "certify",
    "census",
    "process",
    "primescan",
    "algebra.intpoly",
    "algebra.ratpoly",
    "algebra.factorint",
    "algebra.parse",
)

# Per-layer metric -> the spans whose self times it sums.
SELF_TIMES = {
    "dynamics.critical_orbit.self_s": ("dynamics.critical_orbit",),
    "dynamics.classify.self_s": ("dynamics.classify_finite_orbit_obstruction",),
    "dynamics.semigroup_orbit.self_s": ("dynamics.semigroup_orbit",),
    "process.simulate.self_s": ("process.simulate_process",),
    "process.sample.self_s": ("process.sample_codings",),
    "process.fpp.self_s": ("process.fpp_full_binary", "process.fpp_enclosure"),
    "primescan.sieve.self_s": ("primescan.primes_up_to", "primescan.primes_in_range"),
    "primescan.decide.self_s": ("primescan.density_profile", "primescan.prime_divides_orbit"),
    "primescan.zero_pattern.self_s": ("primescan.zero_pattern",),
    "algebra.intpoly.mul.self_s": ("algebra.intpoly.IntPolynomial.__mul__",),
    "algebra.ratpoly.gcd.self_s": ("algebra.ratpoly.gcd_primitive", "algebra.ratpoly.gcd_qt"),
    "algebra.ratpoly.squarefree.self_s": ("algebra.ratpoly.squarefree_decomposition", "algebra.ratpoly.is_squarefree"),
    "algebra.ratpoly.is_square.self_s": ("algebra.ratpoly.is_square", "algebra.ratpoly.is_square_qt"),
    "algebra.factorint.factor.self_s": ("algebra.factorint.factor_integer",),
}

# Per-layer metric -> the span whose calls it counts.
CALLS = {
    "dynamics.critical_orbit.calls": "dynamics.critical_orbit",
    "certify.maximality_qt.calls": "certify.maximality_qt",
    "certify.maximality_q.calls": "certify.maximality_by_primitive_odd_prime",
    "primescan.prime_divides_orbit.calls": "primescan.prime_divides_orbit",
    "algebra.intpoly.mul.calls": "algebra.intpoly.IntPolynomial.__mul__",
    "algebra.ratpoly.gcd.calls": "algebra.ratpoly.gcd_primitive",
    "algebra.factorint.factor.calls": "algebra.factorint.factor_integer",
}

# Work counts the wrappers compute from arguments and results.
COUNTS = (
    "reporting.bytes",
    "dynamics.critical_orbit.levels",
    "process.simulate.trials",
    "process.sample.draws",
    "primescan.sieve.yielded",
    "primescan.primes_decided",
    "primescan.members",
    "primescan.over_cap",
    "algebra.intpoly.mul.terms",
    "algebra.factorint.input_bits",
    "algebra.factorint.incomplete",
)


def layer_metrics(stats: dict, counts: dict) -> dict:
    """The additive per-layer metrics of one traced command."""
    out = {f"{layer}.self_s": sum(v[1] for k, v in stats.items() if k.startswith(layer + ".")) for layer in LAYERS}
    for name, spans in SELF_TIMES.items():
        out[name] = sum(stats[s][1] for s in spans if s in stats)
    for name, span in CALLS.items():
        out[name] = stats[span][0] if span in stats else 0
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    return out


def _resolve(target: Target):
    """The target's function, or None when it does not exist."""
    try:
        owner = importlib.import_module(f"quadorbit.{target.module}")
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
    except AttributeError:
        return None
    return fn if callable(fn) else None


class Tracer:
    """Wraps ``targets`` between ``install`` and ``uninstall``; one command per ``run``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, list] = {ROOT_SPAN: [0, 0.0]}  # span -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, command_id)
        self.absent: list[str] = []
        self.command_id = 0
        # Frames are [child_time, span_id, family]; the root frame is always present.
        self._stack: list[list] = [[0.0, None, None]]
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _add_counts(self, target: Target, args, kwargs, result) -> None:
        try:
            counts = target.count(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            if f"count of {target.span}" not in self.absent:
                self.absent.append(f"count of {target.span}")
            return
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap_call(self, target: Target, fn):
        stat = self.stats.setdefault(target.span, [0, 0.0])
        stack, spans, clock, counts = self._stack, self.spans, time.perf_counter, self.counts
        name, keep, count, family = target.span, not target.aggregate, target.count, target.family
        counter = f"{family}.yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = stack[-1][2] != family
            parent_id = stack[-1][1]
            span_id = len(spans) if keep else parent_id
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id, family]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if keep:
                    spans[span_id] = (span_id, name, start, end, parent_id, self.command_id)
            if count is not None:
                self._add_counts(target, args, kwargs, result)
            if family is not None and outermost and hasattr(result, "__len__"):
                # A family member that returns its items rather than yielding them.
                counts[counter] = counts.get(counter, 0) + len(result)
            return result

        wrapper.traced_span = target.span
        return wrapper

    def _wrap_generator(self, target: Target, fn):
        stat = self.stats.setdefault(target.span, [0, 0.0])
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        family = target.family or target.span
        counter = f"{family}.yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if target.count is not None:
                self._add_counts(target, args, kwargs, None)
            if stack[-1][2] == family:
                # Resumed from a generator of the same family, which times it already.
                yield from fn(*args, **kwargs)
                return
            iterator = iter(fn(*args, **kwargs))
            yielded = 0
            try:
                while True:
                    frame = [0.0, stack[-1][1], family]
                    stack.append(frame)
                    start = clock()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        duration = end - start
                        stack[-1][0] += duration
                        stat[1] += duration - frame[0]
                    yielded += 1
                    yield value
            finally:
                counts[counter] = counts.get(counter, 0) + yielded

        wrapper.traced_span = target.span
        return wrapper

    # -- install / restore ------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        """Point every binding of ``original`` in quadorbit modules and classes at ``replacement``."""
        owners = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "quadorbit" and not mod_name.startswith("quadorbit."):
                continue
            owners.append(module)
            owners.extend(
                v for v in vars(module).values() if isinstance(v, type) and v.__module__.startswith("quadorbit")
            )
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, replacement)
                    self._patches.append((owner, key, original))

    def install(self) -> None:
        import quadorbit.cli  # noqa: F401  (loads every module the commands reach)

        for target in self.targets:
            fn = _resolve(target)
            if fn is None:
                self.absent.append(target.span)
                continue
            # The function decides the wrapper: a generator is timed across its resumes.
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
            self._rebind(fn, wrap(target, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- one command ------------------------------------------------------
    def run(self, argv: list[str], command_id: int = 0) -> tuple[int, str, float]:
        """Run one command under the tracer: (exit code, report, root span seconds)."""
        from quadorbit import cli

        self.command_id = command_id
        root = self._stack[0]
        root[0] = 0.0
        root_id = len(self.spans)
        self.spans.append(None)
        root[1] = root_id
        captured, real_stdout = io.StringIO(), sys.stdout
        sys.stdout = captured
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            end = time.perf_counter()
            sys.stdout = real_stdout
        self.spans[root_id] = (root_id, ROOT_SPAN, start, end, None, command_id)
        stat = self.stats[ROOT_SPAN]
        stat[0] += 1
        stat[1] += (end - start) - root[0]
        return rc, captured.getvalue(), end - start


def main(argv: list[str]) -> int:
    command_id = 0
    if argv[:1] == ["--id"]:
        command_id, argv = int(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        rc, report, root_s = tracer.run(argv, command_id)
    finally:
        tracer.uninstall()
    json.dump(
        {
            "exit": rc,
            "report": report,
            "root_s": root_s,
            "stats": tracer.stats,
            "counts": tracer.counts,
            "metrics": layer_metrics(tracer.stats, tracer.counts),
            "spans": tracer.spans,
            "absent": tracer.absent,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
