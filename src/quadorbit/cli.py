"""Command-line surface.

Coding syntax is 'prefix|cycle' with 1-based generator indices, e.g. '|1'
(repeat the first map forever) or '1|2' (first map once, then the second
forever).  The first index names the OUTERMOST map of every composition:
level n evaluates map1(map2(...mapn(x)...)).  Exit codes: 0 success,
1 error, 2 inconclusive-dominated result (a cap exhausted, or out of
memory).  ``orbit --point`` reads its status and its finite-orbit answer
from one walk of the point's orbit.  Over Q that walk is exact and uncapped;
``--size-cap`` and ``--height-cap`` (both at least 1) bound it over Z[t], and
the command exits 2 only when a cap cut the walk before it found a value
with a finite orbit.

Each subcommand returns (config, result, exit code): a dict result goes into
the JSON envelope, a list of rows is written as CSV.  ``main`` renders and
writes every report.  Each subcommand imports, when it runs, only the modules
it calls, so a command's start-up compiles no other part of the package.

``main(argv)`` returns the exit code, for embedding.  The ``quadorbit``
command and ``python -m quadorbit.cli`` start through ``run``, which flushes
stdout and stderr and then ends the process with ``os._exit``, skipping the
interpreter's teardown of every loaded module.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import TYPE_CHECKING

from . import QQ, QT
from .reporting import canonical_json, render_csv, report_envelope

if TYPE_CHECKING:
    from .dynamics import GeneratorSet

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _gens(args) -> GeneratorSet:
    from .dynamics import GeneratorSet

    spec = args.set or args.c
    if spec is None:
        raise ValueError("provide --c or --set")
    return GeneratorSet.parse(spec, ring=args.ring)


def _cmd_classify(args):
    from .dynamics import classify_finite_orbit_obstruction

    gens = _gens(args)
    result = classify_finite_orbit_obstruction(gens)
    return (
        {"set": gens.canonical_name()},
        {
            "verdict": "Exceptional" if result.exceptional else "NotObstructed",
            "name": result.name or None,
            "witness_point": str(result.witness) if result.witness is not None else None,
        },
        EXIT_OK,
    )


def _cmd_orbit(args):
    from .dynamics import OrbitCaps, SequenceCoding, critical_orbit, semigroup_orbit

    gens = _gens(args)
    config = {"set": gens.canonical_name(), "ring": gens.ring}
    if args.point is None:
        coding = SequenceCoding.parse(args.coding)
        values = critical_orbit(gens, coding, args.depth)
        config.update(coding=coding.render(), depth=args.depth)
        return config, {"critical_orbit": [str(v) for v in values]}, EXIT_OK
    point = Fraction(args.point)
    status = semigroup_orbit(gens, point, OrbitCaps(max_points=args.size_cap, max_height=args.height_cap))
    answer = status.finite_orbit_answer()
    result = {
        "status": status.kind,
        "orbit": sorted(str(v) for v in status.orbit) if status.closed else None,
        "contains_finite_orbit_point": answer.kind,
        "witness": str(answer.witness) if answer.witness is not None else None,
    }
    unknown = status.kind == answer.kind == "unknown"
    return {**config, "point": str(point)}, result, EXIT_INCONCLUSIVE if unknown else EXIT_OK


def _cmd_certify(args):
    from .certify import certify_chain
    from .dynamics import SequenceCoding

    gens = _gens(args)
    coding = SequenceCoding.parse(args.coding)
    chain = certify_chain(gens, coding, args.depth, args.factor_budget)
    config = {"set": gens.canonical_name(), "ring": gens.ring, "coding": coding.render(), "depth": args.depth}
    return config, chain.to_dict(), EXIT_OK


def _cmd_census(args):
    from .census import convergence_experiment

    b_values = [int(b) for b in args.b_list.split(",")]
    report = convergence_experiment(args.d, args.s, b_values, args.variant)
    if args.format == "csv":
        return None, report.csv_rows(), EXIT_OK
    config = {"d": args.d, "s": args.s, "B": b_values, "variant": args.variant}
    return config, report.to_dict(), EXIT_OK


def _cmd_fpp(args):
    from .process import fpp_rows

    return {"depth": args.depth}, {"levels": fpp_rows(args.depth)}, EXIT_OK


def _cmd_simulate(args):
    from .process import parse_mask, simulate_process

    report = simulate_process(
        seed=args.seed,
        depth=args.depth,
        trials=args.trials,
        maximal_mask=parse_mask(args.mask, args.depth),
        nonmaximal_model=args.nonmaximal_model,
    )
    config = {
        "seed": args.seed,
        "depth": args.depth,
        "trials": args.trials,
        "mask": args.mask,
        "nonmaximal_model": args.nonmaximal_model,
    }
    return config, report.to_dict(), EXIT_OK


def _cmd_sample(args):
    from .process import sample_codings

    weights = [Fraction(w) for w in args.weights.split(",")]
    gens = _gens(args) if args.c or args.set else None
    report = sample_codings(
        weights=weights,
        seed=args.seed,
        length=args.length,
        samples=args.samples,
        gens=gens,
        certify_count=args.certify,
        certify_depth=args.certify_depth,
    )
    config = {
        "weights": [str(w) for w in weights],
        "seed": args.seed,
        "length": args.length,
        "samples": args.samples,
    }
    if args.certify > 0:
        # What the certificates were computed for; sample_codings has refused a missing set.
        config.update(
            set=gens.canonical_name(), ring=gens.ring, certify=args.certify, certify_depth=args.certify_depth
        )
    return config, report.to_dict(), EXIT_OK


def _cmd_primes(args):
    from .dynamics import SequenceCoding
    from .primescan import density_profile, fpp_comparison

    gens = _gens(args)
    coding = SequenceCoding.parse(args.coding)
    cutoffs = [int(x) for x in args.cutoffs.split(",")]
    if args.fpp_depth is not None and args.format == "csv":
        raise ValueError("--fpp-depth writes JSON only; drop --format csv")
    # The table is built first so that a bad depth fails before the scan.
    fpp = None
    if args.fpp_depth is not None:
        from .process import fpp_rows

        fpp = fpp_rows(args.fpp_depth)
    report = density_profile(gens, coding, Fraction(args.a0), cutoffs)
    code = EXIT_INCONCLUSIVE if report.over_cap else EXIT_OK
    config = {"set": gens.canonical_name(), "coding": coding.render(), "a0": report.a0}
    if fpp is not None:
        return config, fpp_comparison(report, fpp), code
    if args.format == "csv":
        return None, report.csv_rows(), code
    return {**config, "cutoffs": cutoffs}, report.to_dict(), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadorbit",
        description="Exact orbits, certificates, counting, and prime scans for sets of quadratic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, gens=False, coding=False, ring=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, ring=QQ)  # commands without --ring work over Q
        if gens:
            p.add_argument("--c", help="critical constants, e.g. '-2; -6' or 't^4+5t; -(7t^4+3)'")
            p.add_argument("--set", help="maps, e.g. 'x^2-2; x^2-6' (orbit operations accept general maps)")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if coding:
            p.add_argument("--coding", default="|1", help="prefix|cycle, 1-based indices (default '|1')")
        if ring:
            p.add_argument("--ring", choices=[QQ, QT], default=QQ)
        return p

    command("classify", _cmd_classify, "finite-orbit obstruction classification over Q", gens=True)

    p = command(
        "orbit", _cmd_orbit, "critical orbit values or semigroup orbit of a point", gens=True, coding=True, ring=True
    )
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--point", help="explore the semigroup orbit of this rational point")
    p.add_argument("--size-cap", type=int, default=4096)
    p.add_argument("--height-cap", type=int, default=10**60)

    p = command(
        "certify", _cmd_certify, "stability/maximality certificate chain", gens=True, coding=True, ring=True
    )
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--factor-budget", type=int, default=200_000, help="rho iterations per composite")

    p = command("census", _cmd_census, "exact parity-property counting over coefficient boxes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b-list", required=True, help="comma-separated increasing B values")
    p.add_argument("--variant", choices=["even", "odd", "monic"], required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("fpp", _cmd_fpp, "fixed-point proportion table (exact, enclosures beyond)")
    p.add_argument("--depth", type=int, default=12)

    p = command("simulate", _cmd_simulate, "Monte Carlo fixed-point count paths")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", default="all", help="'all', 'none', or a 0/1 string per level")
    p.add_argument("--nonmaximal-model", choices=["double", "hold"], default="double")

    p = command(
        "sample", _cmd_sample, "random codings under exact weights, with optional certification", gens=True, ring=True
    )
    p.add_argument("--weights", required=True, help="comma-separated positive rationals summing to 1")
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certify", type=int, default=0, help="certify this many sampled prefixes")
    p.add_argument("--certify-depth", type=int, default=None)

    p = command("primes", _cmd_primes, "prime-divisor scan of an orbit sequence", gens=True, coding=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--a0", default="0")
    p.add_argument("--cutoffs", default="1000,10000", help="comma-separated increasing cutoffs")
    p.add_argument("--fpp-depth", type=int, help="juxtapose with the fpp table up to this depth")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact reports legitimately carry very long decimal integers.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; a usage error is an error,
        # not an inconclusive result.  --help still exits 0.
        if exc.code == 0:
            raise
        return EXIT_ERROR
    if sys.stdout is None and not args.out:
        # The process started with stdout closed; the report has nowhere to go.
        print("error: stdout is closed; write the report to a file with --out", file=sys.stderr)
        return EXIT_ERROR
    try:
        config, result, code = args.func(args)
        if isinstance(result, list):
            text = render_csv(result)
        else:
            text = canonical_json(report_envelope(args.command, config, result))
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(text)
        return code
    except (OSError, ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        return EXIT_INCONCLUSIVE


def run() -> None:
    """The command's entry point: ``main``, then an exit without teardown.

    Nothing is left for teardown to do: no command registers an ``atexit``
    handler or starts a thread, ``--out`` files are closed by ``main``, and
    ``pool.parallel_map`` reaps its forked workers before it returns.  A
    stream closed when the process started is ``None`` and is skipped.  A
    failed flush is an error, exit 1; stdout's is printed to stderr as
    ``error: ...``.  An exception out of ``main`` (``--help``'s
    ``SystemExit`` among them) propagates unchanged.
    """
    import os

    code, message = main(), ""
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.write(message)
            stream.flush()
        except (OSError, ValueError) as exc:
            # stderr reports a failed stdout, unless main already reported
            # an error (a failed write leaves the text to flush again).
            if code != EXIT_ERROR:
                code, message = EXIT_ERROR, f"error: {exc}\n"
    os._exit(code)


if __name__ == "__main__":
    run()
