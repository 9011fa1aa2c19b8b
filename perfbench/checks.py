"""Output checks for every command of every pass.

A report passes when its exit code and its digest match the reference table
recorded from the seed commit.  The table covers workload seeds
``range(seeds)``; ``run.py`` reduces every ``--seed`` into that range, so a
seeded command always has a recorded digest.  Cross-checks that need no
stored digest run on every pass as well.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from workloads import FLAGSHIP_COUNTS

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Exact reports carry integers far longer than the default parsing limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


def report_digest(text: str) -> str:
    """Truncated sha256 of a report, with the JSON envelope's ``version`` field left out."""
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("version", None)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_reference() -> dict:
    """The table: ``seeds`` (the workload seeds it covers) and ``commands``."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _csv_counts(text: str) -> dict[int, int]:
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return {int(row[0]): int(row[1]) for row in rows}


def _frozen_counts(text: str, expected: dict[int, int]) -> str | None:
    try:
        got = _csv_counts(text)
    except (ValueError, IndexError):
        return "unparsable scan CSV"
    if any(got.get(x) != n for x, n in expected.items()):
        return f"membership counts {got} differ from the frozen {expected}"
    return None


def within_three_sigma(positive: int, trials: int, p: Fraction) -> bool:
    """The exact test of quadorbit.process.within_three_sigma, kept independent."""
    p_hat = Fraction(positive, trials)
    return (p_hat - p) ** 2 <= 9 * p * (1 - p) / trials


def sigma_misses(text: str) -> list[int]:
    """Levels of a simulate report whose exact fpp is outside three sigma."""
    misses = []
    for level in json.loads(text)["result"]["levels"]:
        if level["fpp_num"] is not None:
            p = Fraction(level["fpp_num"], level["fpp_den"])
            if not within_three_sigma(level["positive"], level["trials"], p):
                misses.append(level["n"])
    return misses


def _sample_totals(text: str) -> str | None:
    result = json.loads(text)["result"]
    samples, length = result["samples"], result["length"]
    if sum(result["first_index_counts"].values()) != samples:
        return "first-index counts do not sum to the sample count"
    if sum(result["index_totals"].values()) != samples * length:
        return "index totals do not sum to samples x length"
    return None


class OutputChecker:
    """Checks one workload's reports against ``reference``, the table's ``commands``."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.seed = seed

    def check(self, cmd, rc: int | None, text: str) -> str | None:
        """None when the command's output is as expected, else the reason."""
        entry = self.reference.get(cmd.key)
        if entry is None:
            return "no reference entry"
        if rc is None:
            return "no exit status: timed out or crashed"
        if rc != entry["exit"]:
            return f"exit code {rc}, expected {entry['exit']}"
        try:
            digest = report_digest(text)
        except ValueError as exc:
            return f"unparsable report: {exc}"
        expected = entry["sha256"] if not cmd.seeded else entry["sha256_by_seed"][str(self.seed)]
        if digest != expected:
            return f"report digest {digest[:16]} differs from {expected[:16]}"
        return None

    def _simulate_sigma(self, text: str) -> str | None:
        # The seed commit's own misses at this seed are expected: with twelve
        # levels about 1% of seeds miss three sigma by chance.
        expected = self.reference.get("session.simulate", {}).get("sigma_misses", {}).get(str(self.seed), [])
        misses = sigma_misses(text)
        if misses != expected:
            return f"levels outside three sigma of the exact fpp: {misses}, expected {expected}"
        return None

    def cross_check(self, workload: str, texts: dict[str, str]) -> list[tuple[str, str]]:
        """Checks within one pass; ``texts`` maps command keys to their reports."""
        found: list[tuple[str, str]] = []

        def run(key: str, check, *args) -> None:
            if key not in texts:
                return
            try:
                reason = check(texts[key], *args)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unparsable report: {exc!r}"
            if reason:
                found.append((key, reason))

        if workload == "scan":
            run("scan.flagship_a0_0", _frozen_counts, FLAGSHIP_COUNTS)
            a0_0, a0_1 = texts.get("scan.flagship_a0_0"), texts.get("scan.flagship_a0_1")
            if a0_0 is not None and a0_1 is not None and a0_0 != a0_1:
                found.append(("scan.flagship_a0_1", "report differs from the a0=0 report of the same orbit"))
        if workload == "session":
            run("session.primes", _frozen_counts, {x: FLAGSHIP_COUNTS[x] for x in (1000, 10000)})
            run("session.simulate", self._simulate_sigma)
            run("session.sample", _sample_totals)
        return found
