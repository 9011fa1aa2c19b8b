"""The benchmark's workloads: fixed lists of quadorbit command lines.

Each workload stresses different layers of the package:

- ``scan``: prime-divisor scans, where primescan does nearly all the work.
  Walker-bound inputs (the flagship orbit from a0=0 and the two-map prefixed
  scan) sit beside the same orbit from a0=1, which takes the Brent walker,
  and a periodic orbit to 10^6, whose walks are O(1) per prime so that the
  sieve and per-prime set-up dominate.
- ``certify``: certificate chains, where dynamics and the algebra kernels do
  the work.  Polynomial multiply plus gcd, gcd alone, the derivative
  shortcut and integer factoring each dominate one command.
- ``session``: the README's example commands as a user types them, where
  interpreter start, import and per-call costs decide the wall time.

Scan and certify inputs are fixed because their cost depends sharply on the
constants; the workload seed only reaches the ``simulate`` and ``sample``
commands.
"""

from __future__ import annotations

from dataclasses import dataclass

FLAGSHIP_CUTOFFS = (1000, 10000, 100000)
# Criterion 13's frozen membership counts for c=1, coding |1, a0=0.
FLAGSHIP_COUNTS = {1000: 17, 10000: 39, 100000: 99}


@dataclass(frozen=True)
class Command:
    """One quadorbit invocation; ``key`` names it in the reference table."""

    key: str
    argv: tuple[str, ...]
    seeded: bool = False  # takes the workload seed; its reference digest is per seed


def _flagship(a0: str) -> tuple[str, ...]:
    cutoffs = ",".join(str(c) for c in FLAGSHIP_CUTOFFS)
    return ("primes", "--c", "1", "--coding", "|1", "--a0", a0, "--cutoffs", cutoffs, "--format", "csv")


def workload_commands(name: str, seed: int) -> list[Command]:
    """The command list of one workload, in the order a pass runs it."""
    if name == "scan":
        return [
            Command("scan.flagship_a0_0", _flagship("0")),
            Command("scan.flagship_a0_1", _flagship("1")),
            Command(
                "scan.two_map",
                ("primes", "--c", "1; 3", "--coding", "1|1,2", "--cutoffs", "30000", "--format", "csv"),
            ),
            Command(
                "scan.periodic_1e6",
                ("primes", "--c", "-1; 3", "--coding", "2|1", "--cutoffs", "1000000", "--format", "csv"),
            ),
        ]
    if name == "certify":
        return [
            Command("certify.qt_t_d11", ("certify", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "11")),
            Command(
                "certify.qt_t2p1_t_d10",
                ("certify", "--ring", "qt", "--c", "t^2+1; t", "--coding", "|1,2", "--depth", "10"),
            ),
            Command(
                "certify.qt_t4_d8",
                ("certify", "--ring", "qt", "--c", "t^4+5t; -(7t^4+3)", "--coding", "1|2", "--depth", "8"),
            ),
            Command("certify.q_m3_2_d9", ("certify", "--c", "-3; 2", "--coding", "1|2", "--depth", "9")),
        ]
    if name == "session":
        s = str(seed)
        return [
            Command("session.classify", ("classify", "--c", "-2; -6")),
            Command("session.orbit_critical", ("orbit", "--c", "-2", "--coding", "|1", "--depth", "3")),
            Command("session.orbit_point", ("orbit", "--set", "x^2+x; x^2-6x", "--point", "2")),
            Command("session.certify_qt_t", ("certify", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "6")),
            Command(
                "session.certify_qt_t4",
                ("certify", "--ring", "qt", "--c", "t^4+5t; -(7t^4+3)", "--coding", "1|2", "--depth", "6"),
            ),
            Command("session.certify_q_1", ("certify", "--c", "1", "--coding", "|1", "--depth", "6")),
            Command(
                "session.census",
                ("census", "--d", "2", "--s", "2", "--b-list", "1,2,4,8,16", "--variant", "even", "--format", "csv"),
            ),
            Command("session.fpp", ("fpp", "--depth", "16")),
            Command("session.simulate", ("simulate", "--depth", "12", "--trials", "100000", "--seed", s), seeded=True),
            Command(
                "session.sample",
                ("sample", "--weights", "1/4,3/4", "--length", "64", "--samples", "10000", "--seed", s),
                seeded=True,
            ),
            Command(
                "session.primes",
                ("primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "1000,10000", "--format", "csv"),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan", "certify", "session")
