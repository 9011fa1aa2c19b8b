"""Command-line surface.

Coding syntax is 'prefix|cycle' with 1-based generator indices, e.g. '|1'
(repeat the first map forever) or '1|2' (first map once, then the second
forever).  The first index names the OUTERMOST map of every composition:
level n evaluates map1(map2(...mapn(x)...)).  Exit codes: 0 success,
1 error, 2 inconclusive-dominated result (budget or cap exhausted).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .algebra import FactorBudget, PolynomialSyntaxError
from .census import convergence_experiment
from .certify import certify_chain
from .dynamics import (
    GeneratorSet,
    OrbitCaps,
    SequenceCoding,
    classify_finite_orbit_obstruction,
    critical_orbit,
    orbit_contains_finite_orbit_point,
    semigroup_orbit,
)
from .primescan import density_profile, fpp_comparison
from .process import (
    MAX_EXACT_LEVEL,
    fpp_enclosure,
    fpp_full_binary,
    parse_mask,
    sample_codings,
    simulate_process,
)
from .reporting import canonical_json, render_csv, report_envelope

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gens(args) -> GeneratorSet:
    spec = args.set if getattr(args, "set", None) else args.c
    if spec is None:
        raise ValueError("provide --c or --set")
    return GeneratorSet.parse(spec, ring=getattr(args, "ring", "q"))


def _coding(args) -> SequenceCoding:
    return SequenceCoding.parse(args.coding)


def _cmd_classify(args) -> int:
    gens = _gens(args)
    result = classify_finite_orbit_obstruction(gens)
    payload = report_envelope(
        "classify",
        {"set": gens.canonical_name()},
        {
            "verdict": "Exceptional" if result.exceptional else "NotObstructed",
            "name": result.name or None,
            "witness_point": str(result.witness) if result.witness is not None else None,
        },
    )
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_orbit(args) -> int:
    gens = _gens(args)
    config = {"set": gens.canonical_name(), "ring": gens.ring}
    if args.point is not None:
        point = Fraction(args.point)
        caps = OrbitCaps(
            max_points=_env_int("QUADORBIT_ORBIT_POINTS", args.size_cap),
            max_height=args.height_cap,
        )
        status = semigroup_orbit(gens, point, caps)
        answer = orbit_contains_finite_orbit_point(gens, point, caps)
        payload = report_envelope(
            "orbit",
            {**config, "point": str(point)},
            {
                "status": status.kind,
                "orbit": sorted(str(v) for v in status.orbit) if status.closed else None,
                "contains_finite_orbit_point": answer.kind,
                "witness": str(answer.witness) if answer.witness is not None else None,
            },
        )
        _emit(args, canonical_json(payload))
        return EXIT_INCONCLUSIVE if status.kind == "unknown" and answer.kind == "unknown" else EXIT_OK
    coding = _coding(args)
    values = critical_orbit(gens, coding, args.depth)
    payload = report_envelope(
        "orbit",
        {**config, "coding": coding.render(), "depth": args.depth},
        {"critical_orbit": [str(v) for v in values]},
    )
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_certify(args) -> int:
    gens = _gens(args)
    coding = _coding(args)
    budget = FactorBudget(
        trial_bound=_env_int("QUADORBIT_FACTOR_TRIAL_BOUND", 10**6),
        rho_iterations=_env_int("QUADORBIT_FACTOR_RHO_ITERATIONS", args.factor_budget),
    )
    chain = certify_chain(gens, coding, args.depth, budget)
    payload = report_envelope(
        "certify",
        {
            "set": gens.canonical_name(),
            "ring": gens.ring,
            "coding": coding.render(),
            "depth": args.depth,
        },
        chain.to_dict(),
    )
    _emit(args, canonical_json(payload))
    return EXIT_INCONCLUSIVE if chain.inconclusive_levels else EXIT_OK


def _cmd_census(args) -> int:
    b_values = [int(b) for b in args.b_list.split(",")]
    report = convergence_experiment(args.d, args.s, b_values, args.variant)
    if args.format == "csv":
        _emit(args, render_csv(report.csv_rows()))
        return EXIT_OK
    payload = report_envelope(
        "census",
        {"d": args.d, "s": args.s, "B": b_values, "variant": args.variant},
        report.to_dict(),
    )
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_fpp(args) -> int:
    rows = []
    for n in range(1, args.depth + 1):
        if n <= MAX_EXACT_LEVEL:
            f = fpp_full_binary(n)
            rows.append({"n": n, "fpp_num": f.numerator, "fpp_den": f.denominator})
        else:
            lo, hi = fpp_enclosure(n)
            rows.append(
                {
                    "n": n,
                    "lower_num": lo.numerator,
                    "lower_den": lo.denominator,
                    "upper_num": hi.numerator,
                    "upper_den": hi.denominator,
                }
            )
    payload = report_envelope("fpp", {"depth": args.depth}, {"levels": rows})
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    mask = parse_mask(args.mask, args.depth)
    report = simulate_process(
        seed=args.seed,
        depth=args.depth,
        trials=args.trials,
        maximal_mask=mask,
        nonmaximal_model=args.nonmaximal_model,
        workers=args.workers,
    )
    payload = report_envelope(
        "simulate",
        {
            "seed": args.seed,
            "depth": args.depth,
            "trials": args.trials,
            "mask": args.mask,
            "nonmaximal_model": args.nonmaximal_model,
        },
        report.to_dict(),
    )
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_sample(args) -> int:
    weights = [Fraction(w) for w in args.weights.split(",")]
    gens = None
    if args.c or args.set:
        gens = _gens(args)
    report = sample_codings(
        weights=weights,
        seed=args.seed,
        length=args.length,
        samples=args.samples,
        gens=gens,
        certify_count=args.certify,
        certify_depth=args.certify_depth,
    )
    payload = report_envelope(
        "sample",
        {
            "weights": [str(w) for w in weights],
            "seed": args.seed,
            "length": args.length,
            "samples": args.samples,
        },
        report.to_dict(),
    )
    _emit(args, canonical_json(payload))
    return EXIT_OK


def _cmd_primes(args) -> int:
    gens = _gens(args)
    coding = _coding(args)
    cutoffs = [int(x) for x in args.cutoffs.split(",")]
    if cutoffs != sorted(set(cutoffs)):
        raise ValueError("cutoffs must be strictly increasing")
    if args.fpp_depth and args.format == "csv":
        raise ValueError("--fpp-depth writes JSON only; drop --format csv")
    report = density_profile(gens, coding, Fraction(args.a0), cutoffs)
    if args.fpp_depth:
        payload = report_envelope(
            "primes",
            {"set": gens.canonical_name(), "coding": coding.render(), "a0": args.a0},
            fpp_comparison(report, args.fpp_depth),
        )
        _emit(args, canonical_json(payload))
    elif args.format == "csv":
        _emit(args, render_csv(report.csv_rows()))
    else:
        payload = report_envelope(
            "primes",
            {
                "set": gens.canonical_name(),
                "coding": coding.render(),
                "a0": args.a0,
                "cutoffs": cutoffs,
            },
            report.to_dict(),
        )
        _emit(args, canonical_json(payload))
    return EXIT_INCONCLUSIVE if report.over_cap else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadorbit",
        description="Exact orbits, certificates, counting, and prime scans for sets of quadratic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, coding=False, ring=False):
        p.add_argument("--c", help="critical constants, e.g. '-2; -6' or 't^4+5t; -(7t^4+3)'")
        p.add_argument("--set", help="maps, e.g. 'x^2-2; x^2-6' (orbit operations accept general maps)")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if coding:
            p.add_argument("--coding", default="|1", help="prefix|cycle, 1-based indices (default '|1')")
        if ring:
            p.add_argument("--ring", choices=["q", "qt"], default="q")

    p = sub.add_parser("classify", help="finite-orbit obstruction classification over Q")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbit", help="critical orbit values or semigroup orbit of a point")
    common(p, coding=True, ring=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--point", help="explore the semigroup orbit of this rational point")
    p.add_argument("--size-cap", type=int, default=4096)
    p.add_argument("--height-cap", type=int, default=10**60)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("certify", help="stability/maximality certificate chain")
    common(p, coding=True, ring=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--factor-budget", type=int, default=200_000, help="rho iteration cap")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("census", help="exact parity-property counting over coefficient boxes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b-list", required=True, help="comma-separated increasing B values")
    p.add_argument("--variant", choices=["even", "odd", "monic"], required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("fpp", help="fixed-point proportion table (exact, enclosures beyond)")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fpp)

    p = sub.add_parser("simulate", help="Monte Carlo fixed-point count paths")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", default="all", help="'all', 'none', or a 0/1 string per level")
    p.add_argument("--nonmaximal-model", choices=["double", "hold"], default="double")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", help="random codings under exact weights, with optional certification")
    p.add_argument("--weights", required=True, help="comma-separated positive rationals summing to 1")
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c")
    p.add_argument("--set")
    p.add_argument("--ring", choices=["q", "qt"], default="q")
    p.add_argument("--certify", type=int, default=0, help="certify this many sampled prefixes")
    p.add_argument("--certify-depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("primes", help="prime-divisor scan of an orbit sequence")
    common(p, coding=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--a0", default="0")
    p.add_argument("--cutoffs", default="1000,10000", help="comma-separated increasing cutoffs")
    p.add_argument("--fpp-depth", type=int, default=0, help="juxtapose with the fpp table up to this depth")
    p.set_defaults(func=_cmd_primes)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact reports legitimately carry very long decimal integers.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolynomialSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
