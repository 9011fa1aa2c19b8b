"""The fixed-point count process on the full binary-tree automorphism groups.

X_n counts the fixed points at level n, from X_0 = 1.  At a maximal level each
fixed point lifts to 0 or 2 with probability 1/2 each (an exact martingale
step); at a non-maximal level it lifts to 2 (``double``) or to 1 (``hold``).
``survival`` gives P(X_n > 0) exactly or as a certified dyadic enclosure; with
every level maximal it is the fixed-point proportion of the full group,
f(1) = 1/2 and f(n) = f(n-1) - f(n-1)^2/2.  ``simulate_process`` samples it
chunk by chunk in the calling process and stops each path at its first 0.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING

from . import _record

if TYPE_CHECKING:
    from .dynamics import GeneratorSet

MAX_EXACT_LEVEL = 18  # an exact survival at level n needs up to a 2^n-bit denominator

MODEL_DOUBLE = "double"
MODEL_HOLD = "hold"


def survival_steps(mask, model: str = MODEL_DOUBLE, bits: int | None = None):
    """The bounds of ``survival`` after each level map, in the order the maps apply.

    The k-th triple covers the last k levels of the mask.  With every level
    maximal those levels are interchangeable, so the k-th triple is the
    survival at level k and one pass yields a whole fpp table.
    """
    lo = hi = 1
    e = 0
    for maximal in reversed(mask):
        if maximal or model != MODEL_HOLD:
            lo = (lo << (e + 1)) - lo * lo
            hi = lo if bits is None else (hi << (e + 1)) - hi * hi
            e = 2 * e + 1 if maximal else 2 * e
            if bits is not None and e > bits:
                lo >>= e - bits
                hi = -(-hi >> (e - bits))
                e = bits
        yield lo, hi, e


def survival(mask, model: str = MODEL_DOUBLE, bits: int | None = None) -> tuple[int, int, int]:
    """P(X_n > 0) for the n = len(mask) levels as dyadic bounds lo / 2^e <= P <= hi / 2^e.

    The survival f starts at 1 and takes the level maps from level n out to
    level 1 (composed generating functions): f - f^2/2 at a maximal level,
    2f - f^2 at a ``double`` one, f at a ``hold`` one.  On f = a / 2^e both real
    steps are a 2^(e+1) - a^2, over 2^(2e+1) or 2^(2e), with an odd numerator,
    so the exact value (lo == hi) needs no reduction but doubles in size each
    step.  ``bits`` caps e by rounding lo down and hi up, which is rigorous
    because every level map is increasing on [0, 1].
    """
    bounds = (1, 1, 0)
    for bounds in survival_steps(mask, model, bits):
        pass
    return bounds


def fpp_dyadic(n: int) -> tuple[int, int]:
    """Exact f(n) as (odd numerator, exponent) with f(n) = a / 2^e: the all-maximal survival."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_EXACT_LEVEL:
        raise ValueError(
            f"exact value at level {n} needs a {2**n}-bit numerator; "
            "use fpp_enclosure for certified bounds"
        )
    a, _, e = survival([True] * n)
    return a, e


def fpp_full_binary(n: int) -> Fraction:
    """Exact fixed-point proportion of the depth-n full group, by the recursion."""
    a, e = fpp_dyadic(n)
    return Fraction(a, 1 << e)


def fpp_enclosure(n: int) -> tuple[Fraction, Fraction]:
    """Certified dyadic bounds lo <= f(n) <= hi with 256-bit numerators."""
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi, e = survival([True] * n, bits=256)
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def fpp_rows(depth: int) -> list[dict]:
    """The fpp table for levels 1..depth: exact through MAX_EXACT_LEVEL, enclosures beyond.

    One exact chain and one 256-bit chain from level 1 give every row, with
    the values of ``fpp_full_binary`` and ``fpp_enclosure`` at each level.  An
    exact numerator is odd, so a / 2^e is already in lowest terms.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rows = []
    for n, (a, _, e) in enumerate(survival_steps([True] * min(depth, MAX_EXACT_LEVEL)), start=1):
        rows.append({"n": n, "fpp_num": a, "fpp_den": 1 << e})
    enclosures = islice(survival_steps([True] * depth, bits=256), MAX_EXACT_LEVEL, None)
    for n, (lo, hi, e) in enumerate(enclosures, start=MAX_EXACT_LEVEL + 1):
        lower, upper = Fraction(lo, 1 << e), Fraction(hi, 1 << e)
        rows.append(
            {
                "n": n,
                "lower_num": lower.numerator,
                "lower_den": lower.denominator,
                "upper_num": upper.numerator,
                "upper_den": upper.denominator,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo simulation with worker-count-independent streams.

CHUNK = 2048
# A path counts as constant-tailed when its last CONSTANT_WINDOW values agree.
CONSTANT_WINDOW = 3


@_record
class ProcessLevel:
    n: int
    positive: int
    trials: int
    # The exact survival fpp_num / 2^fpp_exp, already in lowest terms: the
    # numerator is odd or the exponent 0 (see ``survival``).
    fpp_num: int | None = None
    fpp_exp: int = 0

    @property
    def exact_fpp(self) -> Fraction | None:
        return None if self.fpp_num is None else Fraction(self.fpp_num, 1 << self.fpp_exp)

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
            "fpp_num": self.fpp_num,
            "fpp_den": 1 << self.fpp_exp if self.fpp_num is not None else None,
        }


@_record
class ProcessReport:
    seed: int
    depth: int
    trials: int
    maximal_mask: list[bool]
    nonmaximal_model: str
    levels: list[ProcessLevel] = []
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
    import hashlib  # about 3.6 MB of OpenSSL that only seeded commands need

    digest = hashlib.sha256(f"quadorbit:{seed}:{chunk_index}".encode()).digest()
    return int.from_bytes(digest, "big")


def _run_chunk(seed, mask, model, chunk):
    """(positive count per level, constant-window count) of one chunk's paths.

    A path stops at its first 0, which is absorbing and draws no bits, so the
    chunk's stream is read exactly as by full paths.  A path that dies at
    level d is positive before d, and its window is constant (all 0) when d
    is at or before the window's first level; a survivor's window is constant
    when every value in it equals the first.
    """
    chunk_index, count = chunk
    getrandbits = random.Random(_chunk_seed(seed, chunk_index)).getrandbits
    depth = len(mask)
    first = max(depth - CONSTANT_WINDOW, 0)  # index of the window's first level
    double = model == MODEL_DOUBLE
    levels = list(enumerate(mask))
    deaths = [0] * (depth + 1)  # deaths[i]: paths with X_(i+1) the first 0; deaths[depth]: survivors
    constant = 0
    for _ in range(count):
        x = 1
        for i, maximal in levels:
            if maximal:
                x = 2 * getrandbits(x).bit_count()
                if not x:
                    break
            elif double:
                x += x
            # MODEL_HOLD keeps x
            if i == first:
                steady = x
            elif i > first and x != steady:
                steady = 0  # a live value is positive, so 0 marks a window that changed
        else:
            i = depth
            constant += steady != 0
        deaths[i] += 1
    constant += sum(deaths[: first + 1])
    positive = []
    alive = count
    for dead in deaths[:depth]:
        alive -= dead
        positive.append(alive)
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
    count.  The chunks run in this process; ``workers`` above 1 hands them to
    up to that many worker processes instead.  Each level through
    MAX_EXACT_LEVEL carries the model's exact survival P(X_n > 0) from
    ``survival``, on every mask and model; deeper levels carry none.
    """
    if trials < 1 or depth < 1:
        raise ValueError("need positive depth and trials")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if nonmaximal_model not in (MODEL_DOUBLE, MODEL_HOLD):
        raise ValueError(f"unknown non-maximal model {nonmaximal_model!r}")
    mask = [True] * depth if maximal_mask is None else list(maximal_mask)
    if len(mask) != depth:
        raise ValueError("mask length must equal depth")
    chunks = [(index, min(CHUNK, trials - start)) for index, start in enumerate(range(0, trials, CHUNK))]
    run = partial(_run_chunk, seed, mask, nonmaximal_model)
    if workers > 1:
        from . import pool

        results = pool.parallel_map(run, chunks, workers)
    else:
        results = map(run, chunks)
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
    for n in range(1, depth + 1):
        level = ProcessLevel(n=n, positive=positive[n - 1], trials=trials)
        if n <= MAX_EXACT_LEVEL:
            level.fpp_num, _, level.fpp_exp = survival(mask[:n], nonmaximal_model)
        report.levels.append(level)
    return report


# ---------------------------------------------------------------------------
# Random coding samples (product measure on index sequences).

@_record
class SampleReport:
    seed: int
    length: int
    samples: int
    weights: list[str]
    first_index_counts: dict[int, int]
    index_totals: dict[int, int]
    certificates: list[dict] = []

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


# Draws decoded per getrandbits call in sample_codings: 2^14 groups of m words.
SAMPLE_BLOCK = 1 << 14
# Index code of a draw that its leading byte does not decide, and, once its
# words decide it, of an accepted draw whose index does not fit a byte.
_WIDE = 255


def _index_blocks(rng: random.Random, thresholds: list[int]):
    """Yield the outcomes of ``rng.randrange(denom)`` as index codes, a block at a time.

    denom is the last threshold, and an outcome r has the index of the first
    threshold above it.  ``randrange(denom)`` repeats ``r = getrandbits(k)``,
    with k = denom.bit_length(), until r < denom.  getrandbits(k) takes
    m = ceil(k / 32) outputs of the generator, fills r from its low word up and
    shifts the last output right by 32m - k; getrandbits(32 * m * SAMPLE_BLOCK)
    returns the same outputs in the same order, the first at the lowest bits.
    So each draw is m words of a block, and the top byte of its last word
    confines r to a range.  ``table`` gives each such byte the index of that
    range, 0 when the range lies at or above denom (a rejected draw), or
    _WIDE when it crosses a threshold or denom, or when the index does not
    fit a byte; those draws are decoded from their own words.

    Each block yields the codes of its accepted draws, one byte each, in
    order, and the indices of the draws coded _WIDE, in order.
    """
    denom = thresholds[-1]
    k = denom.bit_length()
    m = -(-k // 32)
    shift = 32 * m - k
    low = 32 * (m - 1)  # bits of r below the last word
    size = 4 * m  # bytes per draw

    def index(r):
        return bisect_right(thresholds, r) + 1 if r < denom else 0

    table = bytearray(256)
    for byte in range(256):
        first = index((byte << 24 >> shift) << low)
        last = index(((((byte << 24 | 0xFFFFFF) >> shift) + 1) << low) - 1)
        table[byte] = first if first == last and first < _WIDE else _WIDE
    getrandbits = rng.getrandbits
    while True:
        raw = getrandbits(8 * size * SAMPLE_BLOCK).to_bytes(size * SAMPLE_BLOCK, "little")
        codes = bytearray(raw[size - 1 :: size].translate(table))
        wide = []
        at = codes.find(_WIDE)
        while at >= 0:
            word = int.from_bytes(raw[at * size : (at + 1) * size], "little")
            code = index(word & ((1 << low) - 1) | word >> (low + shift) << low)
            if code < _WIDE:
                codes[at] = code
            else:
                wide.append(code)
            at = codes.find(_WIDE, at + 1)
        yield codes.translate(None, b"\0"), wide


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

    With denom the least common denominator of the weights, and thresholds
    the cumulative sums of weight * denom, position i of the samples laid end
    to end has the index of the first threshold above the i-th
    ``randrange(denom)`` draw from the stream of chunk 0.  The draws are
    decoded in blocks (``_index_blocks``).

    Optionally certifies the first few sampled prefixes (as prefix-plus-
    constant-tail codings) and attaches the chain summaries.
    """
    if length < 1 or samples < 1:
        raise ValueError("need positive length and samples")
    if certify_count < 0:
        raise ValueError(f"certify count must be >= 0, got {certify_count}")
    if certify_count > 0 and gens is None:
        raise ValueError("certifying sampled prefixes needs a generator set (--c or --set)")
    if certify_count > 0 and len(weights) > gens.size:
        # Refused before drawing: whether an index past the maps lands in a
        # certified prefix would otherwise depend on the seed.
        raise ValueError(
            f"certifying sampled prefixes needs a map per weight: {len(weights)} weights, {gens.size} maps"
        )
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be positive and sum to 1")
    denom = math.lcm(*(w.denominator for w in weights))
    thresholds = []
    acc = 0
    for w in weights:
        acc += int(w * denom)
        thresholds.append(acc)
    if certify_count:
        # Certifying is the only part of this module that needs the algebra.
        from .certify import certify_chain
        from .dynamics import SequenceCoding
    rng = random.Random(_chunk_seed(seed, 0))
    total = samples * length
    certified = min(certify_count, samples) * length  # positions in the samples to certify
    firsts = [0] * (len(weights) + 1)
    totals = [0] * (len(weights) + 1)
    prefix: list[int] = []  # the indices at those positions
    done = 0
    # The last block decodes draws past the last one needed.  That is
    # harmless, because nothing reads rng afterwards.
    for codes, wide in _index_blocks(rng, thresholds):
        codes = codes[: total - done]
        wide = wide[: codes.count(_WIDE)]
        heads = codes[-done % length :: length]  # the draws at positions 0 mod length
        for idx in range(1, min(len(weights), _WIDE - 1) + 1):
            totals[idx] += codes.count(idx)
            firsts[idx] += heads.count(idx)
        at = -1
        for idx in wide:
            at = codes.find(_WIDE, at + 1)
            totals[idx] += 1
            firsts[idx] += (done + at) % length == 0
        if len(prefix) < certified:
            wide_indices = iter(wide)
            prefix.extend(next(wide_indices) if c == _WIDE else c for c in codes[: certified - len(prefix)])
        done += len(codes)
        if done == total:
            break
    certificates = []
    for start in range(0, certified, length):
        word = prefix[start : start + length]
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
        first_index_counts={idx: n for idx, n in enumerate(firsts) if n},
        index_totals={idx: n for idx, n in enumerate(totals) if n},
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
