"""The fixed-point count process on the full binary-tree automorphism groups.

At a maximal level the count evolves like flipping u fair coins with heads
worth 2 (an exact martingale step); composed from the root this reproduces
the fixed-point proportion of the full automorphism group, which satisfies
f(1) = 1/2 and f(n) = f(n-1) - f(n-1)^2/2.  The exact rationals square in
size every level, so large levels are handled by certified dyadic
enclosures instead of raw fractions.
"""

from __future__ import annotations

import hashlib
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .certify import certify_chain
from .dynamics import GeneratorSet, SequenceCoding

MAX_EXACT_LEVEL = 18  # the exact f(n) needs a 2^n-bit denominator
MAX_DYADIC_LEVEL = 24


def fpp_dyadic(n: int) -> tuple[int, int]:
    """Exact f(n) as (odd numerator, exponent) with f(n) = a / 2^e.

    Pure integer recursion: the step a/2^e -> (a 2^(e+1) - a^2) / 2^(2e+1)
    keeps the numerator odd, so no reduction is ever needed.  Sizes double
    per level; beyond the cap use fpp_enclosure.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_DYADIC_LEVEL:
        raise ValueError(
            f"exact value at level {n} needs a {2**n}-bit numerator; "
            "use fpp_enclosure for certified bounds"
        )
    a, e = 1, 1
    for _ in range(n - 1):
        a = a * (1 << (e + 1)) - a * a
        e = 2 * e + 1
    return a, e


def fpp_full_binary(n: int) -> Fraction:
    """Exact fixed-point proportion of the depth-n full group, by the recursion."""
    if n > MAX_EXACT_LEVEL:
        raise ValueError(
            f"Fraction construction above level {MAX_EXACT_LEVEL} is impractical; "
            "use fpp_dyadic or fpp_enclosure"
        )
    a, e = fpp_dyadic(n)
    return Fraction(a, 1 << e)


def _trunc_down(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(q.numerator * scale // q.denominator, scale)


def _trunc_up(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-q.numerator * scale) // q.denominator), scale)


def fpp_enclosure(n: int, bits: int = 256) -> tuple[Fraction, Fraction]:
    """Certified dyadic bounds lo <= f(n) <= hi.

    The step map x -> x - x^2/2 is increasing on [0, 1], so rounding the
    endpoints outward keeps the enclosure rigorous; endpoints are exact
    rationals throughout.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lo = hi = Fraction(1, 2)
    for _ in range(n - 1):
        lo = _trunc_down(lo - lo * lo / 2, bits)
        hi = _trunc_up(hi - hi * hi / 2, bits)
    return lo, hi


# ---------------------------------------------------------------------------
# Brute-force wreath products (small depths; used as the oracle in tests).

def wreath_elements(depth: int):
    """All automorphisms of the depth-n binary tree as nested (swap, left, right)."""
    if depth == 0:
        yield ()
        return
    subs = list(wreath_elements(depth - 1))
    for swap in (0, 1):
        for left in subs:
            for right in subs:
                yield (swap, left, right)


def fixed_leaf_count(element, depth: int) -> int:
    if depth == 0:
        return 1
    swap, left, right = element
    if swap:
        return 0
    return fixed_leaf_count(left, depth - 1) + fixed_leaf_count(right, depth - 1)


def fpp_brute_force(depth: int) -> Fraction:
    total = 0
    fixing = 0
    for g in wreath_elements(depth):
        total += 1
        if fixed_leaf_count(g, depth) > 0:
            fixing += 1
    return Fraction(fixing, total)


# ---------------------------------------------------------------------------
# Exact transition model.

def coin_transition(u: int) -> dict[int, Fraction]:
    """Distribution of the next count from u: P(2k) = C(u, k) / 2^u.

    Only even u occur in the process (u = 0 is absorbing); odd u rejected.
    """
    if u < 0 or u % 2 != 0:
        raise ValueError("u must be an even nonnegative integer")
    scale = 1 << u
    return {2 * k: Fraction(comb(u, k), scale) for k in range(u + 1)}


def martingale_check(u_values) -> bool:
    """Exact expectation identity: the coin step has mean u for every even u given."""
    for u in u_values:
        dist = coin_transition(u)
        expectation = sum(value * p for value, p in dist.items())
        if expectation != u:
            return False
    return True


def stay_probability_bound(u: int) -> Fraction:
    """P(stay at u) = C(u, u/2)/2^u, asserted <= 1/2 for even u >= 2."""
    if u < 2 or u % 2 != 0:
        raise ValueError("u must be an even integer >= 2")
    p = Fraction(comb(u, u // 2), 1 << u)
    if p > Fraction(1, 2):
        raise AssertionError(f"stay probability {p} exceeds 1/2 at u={u}")
    return p


# ---------------------------------------------------------------------------
# Monte Carlo simulation with worker-count-independent streams.

CHUNK = 2048
# A path counts as constant-tailed when its last CONSTANT_WINDOW values agree.
CONSTANT_WINDOW = 3

MODEL_DOUBLE = "double"
MODEL_HOLD = "hold"


@dataclass
class ProcessLevel:
    n: int
    positive: int
    trials: int
    exact_fpp: Fraction | None = None

    @property
    def p_hat(self) -> Fraction:
        return Fraction(self.positive, self.trials)

    def stderr(self) -> str:
        """sqrt(p_hat (1 - p_hat) / trials) to 12 decimals, rounded half to even.

        Exact: with s = 10^24 * positive * (trials - positive) / trials^3, the
        digits are the integer nearest sqrt(s), where isqrt(floor(s)) is the
        floor of sqrt(s) and comparing 4s with (2r + 1)^2 places the half.
        """
        num = 10**24 * self.positive * (self.trials - self.positive)
        den = self.trials**3
        r = math.isqrt(num // den)
        half = (2 * r + 1) ** 2 * den
        if 4 * num > half or (4 * num == half and r % 2 == 1):
            r += 1
        return f"{r // 10**12}.{r % 10**12:012d}"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "positive": self.positive,
            "trials": self.trials,
            "p_hat_num": self.p_hat.numerator,
            "p_hat_den": self.p_hat.denominator,
            "stderr": self.stderr(),
            "fpp_num": self.exact_fpp.numerator if self.exact_fpp is not None else None,
            "fpp_den": self.exact_fpp.denominator if self.exact_fpp is not None else None,
        }


@dataclass
class ProcessReport:
    seed: int
    depth: int
    trials: int
    maximal_mask: list[bool]
    nonmaximal_model: str
    levels: list[ProcessLevel] = field(default_factory=list)
    constant_window_count: int = 0

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "seed": self.seed,
            "depth": self.depth,
            "trials": self.trials,
            "maximal_mask": ["1" if m else "0" for m in self.maximal_mask],
            "nonmaximal_model": self.nonmaximal_model,
            "levels": [level.to_dict() for level in self.levels],
            "constant_window": CONSTANT_WINDOW,
            "constant_window_count": self.constant_window_count,
        }


def _chunk_seed(seed: int, chunk_index: int) -> int:
    digest = hashlib.sha256(f"quadorbit:{seed}:{chunk_index}".encode()).digest()
    return int.from_bytes(digest, "big")


def _paths(seed: int, chunk_index: int, count: int, mask: list[bool], model: str):
    """Yield ``count`` fixed-point count paths X_1..X_depth from one chunk's stream."""
    getrandbits = random.Random(_chunk_seed(seed, chunk_index)).getrandbits
    for _ in range(count):
        x = 1
        path = []
        for maximal in mask:
            if maximal:
                x = 2 * getrandbits(x).bit_count() if x else 0
            elif model == MODEL_DOUBLE:
                x = 2 * x
            # MODEL_HOLD keeps x
            path.append(x)
        yield path


def simulate_paths(
    seed: int,
    depth: int,
    trials: int,
    maximal_mask: list[bool] | None = None,
    nonmaximal_model: str = MODEL_DOUBLE,
) -> list[list[int]]:
    """Raw fixed-point count paths, one list X_1..X_depth per trial.

    Invariants of the model: X_1 is 0 or 2 when level 1 is maximal, X_n never
    exceeds 2^n, and 0 is absorbing.  All trials come from the stream of
    chunk 0, so up to CHUNK trials they are the paths simulate_process counts.
    """
    mask = [True] * depth if maximal_mask is None else list(maximal_mask)
    return list(_paths(seed, 0, trials, mask, nonmaximal_model))


def _run_chunk(seed, chunk_index, count, mask, model):
    positive = [0] * len(mask)
    constant = 0
    for path in _paths(seed, chunk_index, count, mask, model):
        for i, value in enumerate(path):
            if value > 0:
                positive[i] += 1
        tail = path[-CONSTANT_WINDOW:]
        if len(set(tail)) == 1:
            constant += 1
    return positive, constant


def simulate_process(
    seed: int,
    depth: int,
    trials: int,
    maximal_mask: list[bool] | None = None,
    nonmaximal_model: str = MODEL_DOUBLE,
    workers: int = 1,
) -> ProcessReport:
    """Monte Carlo paths of the fixed-point count model.

    Maximal levels apply the coin step; non-maximal levels either double the
    count (every fixed root lifts both children) or hold it, which is an
    explicit modeling knob.  Trials are split into fixed-size chunks with
    per-chunk derived streams, so the report does not depend on the worker
    count.
    """
    if trials < 1 or depth < 1:
        raise ValueError("need positive depth and trials")
    if nonmaximal_model not in (MODEL_DOUBLE, MODEL_HOLD):
        raise ValueError(f"unknown non-maximal model {nonmaximal_model!r}")
    mask = [True] * depth if maximal_mask is None else list(maximal_mask)
    if len(mask) != depth:
        raise ValueError("mask length must equal depth")
    chunks = []
    start = 0
    index = 0
    while start < trials:
        count = min(CHUNK, trials - start)
        chunks.append((index, count))
        start += count
        index += 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    lambda item: _run_chunk(seed, item[0], item[1], mask, nonmaximal_model),
                    chunks,
                )
            )
    else:
        results = [_run_chunk(seed, i, c, mask, nonmaximal_model) for i, c in chunks]
    positive = [0] * depth
    constant = 0
    for pos, const in results:
        constant += const
        for i, value in enumerate(pos):
            positive[i] += value
    report = ProcessReport(
        seed=seed,
        depth=depth,
        trials=trials,
        maximal_mask=mask,
        nonmaximal_model=nonmaximal_model,
        constant_window_count=constant,
    )
    all_maximal_prefix = True
    for n in range(1, depth + 1):
        all_maximal_prefix = all_maximal_prefix and mask[n - 1]
        exact = fpp_full_binary(n) if (all_maximal_prefix and n <= MAX_EXACT_LEVEL) else None
        report.levels.append(
            ProcessLevel(n=n, positive=positive[n - 1], trials=trials, exact_fpp=exact)
        )
    return report


def within_three_sigma(positive: int, trials: int, p: Fraction) -> bool:
    """Exact check |positive/trials - p|^2 <= 9 p (1-p) / trials."""
    p_hat = Fraction(positive, trials)
    return (p_hat - p) ** 2 <= 9 * p * (1 - p) / trials


# ---------------------------------------------------------------------------
# Random coding samples (product measure on index sequences).

@dataclass
class SampleReport:
    seed: int
    length: int
    samples: int
    weights: list[str]
    first_index_counts: dict[int, int]
    index_totals: dict[int, int]
    certificates: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "seed": self.seed,
            "length": self.length,
            "samples": self.samples,
            "weights": self.weights,
            "first_index_counts": {str(k): v for k, v in sorted(self.first_index_counts.items())},
            "index_totals": {str(k): v for k, v in sorted(self.index_totals.items())},
            "certificates": self.certificates,
        }


def sample_codings(
    weights: list[Fraction],
    seed: int,
    length: int,
    samples: int,
    gens: GeneratorSet | None = None,
    certify_count: int = 0,
    certify_depth: int | None = None,
) -> SampleReport:
    """Independent index draws per position under exact rational weights.

    Optionally certifies the first few sampled prefixes (as prefix-plus-
    constant-tail codings) and attaches the chain summaries.
    """
    if length < 1 or samples < 1:
        raise ValueError("need positive length and samples")
    if certify_count > 0 and gens is None:
        raise ValueError("certifying sampled prefixes needs a generator set (--c or --set)")
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be positive and sum to 1")
    denom = math.lcm(*(w.denominator for w in weights))
    thresholds = []
    acc = 0
    for w in weights:
        acc += int(w * denom)
        thresholds.append(acc)
    rng = random.Random(_chunk_seed(seed, 0))
    first_counts: dict[int, int] = {}
    totals: dict[int, int] = {}
    certificates = []
    for sample_index in range(samples):
        word = []
        for _ in range(length):
            roll = rng.randrange(denom)
            for idx, bound in enumerate(thresholds, start=1):
                if roll < bound:
                    word.append(idx)
                    break
        first_counts[word[0]] = first_counts.get(word[0], 0) + 1
        for idx in word:
            totals[idx] = totals.get(idx, 0) + 1
        if gens is not None and sample_index < certify_count:
            coding = SequenceCoding(tuple(word), (word[-1],))
            depth = length if certify_depth is None else certify_depth
            chain = certify_chain(gens, coding, depth)
            certificates.append(
                {
                    "coding": coding.render(),
                    "stable": chain.stable,
                    "maximal_levels": chain.maximal_levels,
                    "tool_guarantee": chain.tool_guarantee,
                }
            )
    return SampleReport(
        seed=seed,
        length=length,
        samples=samples,
        weights=[str(w) for w in weights],
        first_index_counts=first_counts,
        index_totals=totals,
        certificates=certificates,
    )


def parse_mask(text: str, depth: int) -> list[bool]:
    """'all', 'none', or a 0/1 string of exactly the depth's length."""
    if text == "all":
        return [True] * depth
    if text == "none":
        return [False] * depth
    if len(text) != depth or set(text) - {"0", "1"}:
        raise ValueError("mask must be 'all', 'none', or a 0/1 string matching the depth")
    return [c == "1" for c in text]
