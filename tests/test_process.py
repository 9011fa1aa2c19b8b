import concurrent.futures
import random
import tracemalloc
from fractions import Fraction

import pytest

import quadorbit.process as process
from quadorbit import cli, pool
from quadorbit.process import (
    CHUNK,
    CONSTANT_WINDOW,
    MAX_EXACT_LEVEL,
    SAMPLE_BLOCK,
    ProcessLevel,
    fpp_dyadic,
    fpp_enclosure,
    fpp_full_binary,
    fpp_rows,
    parse_mask,
    sample_codings,
    simulate_process,
    survival,
)
from quadorbit.reporting import canonical_json

from conftest import (
    coin_transition,
    fixed_leaf_count,
    fpp_brute_force,
    sample_codings_oracle,
    simulate_paths,
    stay_probability_bound,
    within_three_sigma,
    wreath_elements,
)


class TestFpp:
    @pytest.mark.parametrize("n,expected", [(1, Fraction(1, 2)), (2, Fraction(3, 8)), (3, Fraction(39, 128))])
    def test_small_values(self, n, expected):
        assert fpp_full_binary(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        assert fpp_full_binary(n) == fpp_brute_force(n)

    def test_group_orders(self):
        assert sum(1 for _ in wreath_elements(3)) == 128
        assert sum(1 for _ in wreath_elements(2)) == 8

    def test_fixed_leaf_distribution_level2(self):
        counts = {}
        for g in wreath_elements(2):
            counts[fixed_leaf_count(g, 2)] = counts.get(fixed_leaf_count(g, 2), 0) + 1
        # swap at root: 4 elements fix nothing; identity root: (X via two leaves)
        assert counts == {0: 5, 2: 2, 4: 1}

    def test_strictly_decreasing_exact(self):
        values = [fpp_full_binary(n) for n in range(1, 17)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exact_guard(self):
        with pytest.raises(ValueError):
            fpp_full_binary(MAX_EXACT_LEVEL + 1)

    def test_dyadic_matches_fraction(self):
        for n in (1, 2, 3, 8, 12):
            a, e = fpp_dyadic(n)
            assert Fraction(a, 1 << e) == fpp_full_binary(n)
            assert a % 2 == 1

    def test_enclosure_contains_exact(self):
        for n in (1, 5, 10, 16):
            lo, hi = fpp_enclosure(n)
            exact = fpp_full_binary(n)
            assert lo <= exact <= hi

    def test_enclosure_matches_rational_rounding(self):
        # Oracle: step the Fractions exactly, then round outward to 2^-256.
        def floor_dyadic(q):
            return Fraction(q.numerator * 2**256 // q.denominator, 2**256)

        lo = hi = Fraction(1, 2)
        for n in range(1, 100):
            assert fpp_enclosure(n) == (lo, hi)
            lo = floor_dyadic(lo - lo * lo / 2)
            hi = -floor_dyadic(-(hi - hi * hi / 2))

    def test_rows_match_per_level_values(self, monkeypatch):
        # fpp_rows carries one exact and one 256-bit chain from level 1; the
        # per-level calls start each level from the root.
        def row(n):
            if n <= MAX_EXACT_LEVEL:
                f = fpp_full_binary(n)
                return {"n": n, "fpp_num": f.numerator, "fpp_den": f.denominator}
            lo, hi = fpp_enclosure(n)
            return {
                "n": n,
                "lower_num": lo.numerator,
                "lower_den": lo.denominator,
                "upper_num": hi.numerator,
                "upper_den": hi.denominator,
            }

        reference = [row(n) for n in range(1, 301)]
        steps = [0]
        chain = process.survival_steps

        def counted(*args, **kwargs):
            for bounds in chain(*args, **kwargs):
                steps[0] += 1
                yield bounds

        monkeypatch.setattr(process, "survival_steps", counted)
        for depth in range(1, 301):
            steps[0] = 0
            assert fpp_rows(depth) == reference[:depth], depth
            assert steps[0] <= 2 * depth, depth

    def test_enclosures_decrease_through_64(self):
        bounds = [fpp_enclosure(n) for n in range(1, 65)]
        for (lo_prev, hi_prev), (lo_cur, hi_cur) in zip(bounds, bounds[1:]):
            assert hi_cur < lo_prev  # certified strict decrease
        assert bounds[-1][1] < Fraction(1, 16)


def survival_oracle(mask, model):
    """P(X_n > 0) from the whole law of X_1..X_n, propagated level by level."""
    law = {1: Fraction(1)}
    for maximal in mask:
        nxt = {}
        for u, p in law.items():
            if maximal:
                step = coin_transition(u)
            else:
                step = {2 * u if model == "double" else u: Fraction(1)}
            for v, q in step.items():
                nxt[v] = nxt.get(v, 0) + p * q
        law = nxt
    return 1 - law.get(0, 0)


def random_masks(count, max_depth, seed):
    rng = random.Random(seed)
    return [[rng.random() < 0.5 for _ in range(rng.randint(1, max_depth))] for _ in range(count)]


def as_fraction(a, e):
    return Fraction(a, 1 << e)


class TestSurvival:
    @pytest.mark.parametrize("model", ["double", "hold"])
    def test_matches_distribution_oracle(self, model):
        for mask in random_masks(60, 8, seed=15) + [[False], [True, False], [False, True]]:
            lo, hi, e = survival(mask, model)
            assert lo == hi and lo % 2 == 1
            assert as_fraction(lo, e) == survival_oracle(mask, model), mask

    @pytest.mark.parametrize("model", ["double", "hold"])
    def test_enclosures_contain_exact(self, model):
        for mask in random_masks(30, MAX_EXACT_LEVEL, seed=7):
            a, _, e = survival(mask, model)
            exact = as_fraction(a, e)
            for bits in (4, 64, 256):
                lo, hi, cap = survival(mask, model, bits=bits)
                assert cap <= bits
                assert as_fraction(lo, cap) <= exact <= as_fraction(hi, cap), (mask, bits)
                # a level map at most doubles a width, and its rounding adds under two units
                assert hi - lo < 2 ** (len(mask) + 1)

    def test_hold_counts_maximal_levels(self):
        # Under hold only maximal levels act, so P(X_n > 0) = f(k) with k of them.
        for mask in random_masks(40, 24, seed=11):
            k = sum(mask)
            if k > MAX_EXACT_LEVEL:
                continue
            a, _, e = survival(mask, "hold")
            assert as_fraction(a, e) == (fpp_full_binary(k) if k else 1)

    @pytest.mark.parametrize("model", ["double", "hold"])
    @pytest.mark.parametrize("mask", ["110101110011", "101101011010", "011011101110", "100110010111"])
    def test_simulation_within_three_sigma(self, mask, model):
        report = simulate_process(
            seed=20250810, depth=12, trials=200_000, maximal_mask=parse_mask(mask, 12), nonmaximal_model=model
        )
        for level in report.levels:
            assert within_three_sigma(level.positive, level.trials, level.exact_fpp), level.n
        if (mask, model) == ("110101110011", "hold"):
            assert abs(report.levels[-1].exact_fpp - Fraction(16355, 10**5)) < Fraction(1, 2 * 10**5)


class TestCoinModel:
    def test_distributions(self):
        assert coin_transition(2) == {0: Fraction(1, 4), 2: Fraction(1, 2), 4: Fraction(1, 4)}
        assert coin_transition(0) == {0: Fraction(1)}
        assert coin_transition(4)[4] == Fraction(3, 8)

    def test_odd_counts(self):
        # The process starts from the odd count X_0 = 1; the formula holds for every u >= 0.
        assert coin_transition(1) == {0: Fraction(1, 2), 2: Fraction(1, 2)}
        assert coin_transition(3) == {0: Fraction(1, 8), 2: Fraction(3, 8), 4: Fraction(3, 8), 6: Fraction(1, 8)}
        with pytest.raises(ValueError):
            coin_transition(-1)

    def test_stay_probability(self):
        assert stay_probability_bound(2) == Fraction(1, 2)
        assert stay_probability_bound(4) == Fraction(3, 8)
        assert stay_probability_bound(10) == Fraction(63, 256)
        for u in range(4, 130, 2):
            assert stay_probability_bound(u) < Fraction(1, 2)


CHUNK_EDGES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


def every_mask_at_the_chunk_edges():
    """Every mask of depths 1-6 (1 and 2 are shorter than CONSTANT_WINDOW)
    under both models, each with its own seed.  The trial counts take turns
    at the chunk edges, so each model at each depth from 2 up meets all four;
    the last reads the streams of a second and a third chunk."""
    cases = [
        (model, format(bits, f"0{depth}b"))
        for model in ("double", "hold")
        for depth in range(1, 7)
        for bits in range(1 << depth)
    ]
    for case, (model, text) in enumerate(cases):
        trials = CHUNK_EDGES[case % 4]
        yield pytest.param(case, trials, parse_mask(text, len(text)), model, id=f"{model}-{text}-{trials}")


class TestSimulation:
    def test_within_three_sigma_of_exact_fpp(self):
        report = simulate_process(seed=20250810, depth=12, trials=100_000)
        for level in report.levels:
            assert within_three_sigma(level.positive, level.trials, level.exact_fpp)

    @pytest.mark.parametrize("model", ["double", "hold"])
    def test_reported_survival_is_in_lowest_terms(self, model):
        # fpp_num / fpp_den are the dyadic survival as it comes, with no gcd.
        for depth in range(1, 9):
            for bits in range(1 << depth):
                mask = [bool(bits >> i & 1) for i in range(depth)]
                report = simulate_process(seed=0, depth=depth, trials=1, maximal_mask=mask, nonmaximal_model=model)
                for level in report.to_dict()["levels"]:
                    a, _, e = survival(mask[: level["n"]], model)
                    exact = Fraction(a, 1 << e)
                    assert (level["fpp_num"], level["fpp_den"]) == (exact.numerator, exact.denominator)

    def test_all_nonmaximal_doubling_never_dies(self):
        report = simulate_process(seed=3, depth=8, trials=500, maximal_mask=[False] * 8)
        assert all(level.p_hat == 1 for level in report.levels)

    def test_hold_model(self):
        report = simulate_process(
            seed=3, depth=6, trials=400, maximal_mask=[False] * 6, nonmaximal_model="hold"
        )
        assert all(level.p_hat == 1 for level in report.levels)

    def test_mixed_mask(self):
        mask = [True, False, True, False]
        report = simulate_process(seed=9, depth=4, trials=2000, maximal_mask=mask)
        # non-maximal doubling cannot kill paths: positives never drop there
        assert report.levels[1].positive == report.levels[0].positive
        assert report.levels[3].positive == report.levels[2].positive

    def test_deterministic_across_workers(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)  # a real pool on any host
        one = simulate_process(seed=77, depth=10, trials=30_000, workers=1)
        eight = simulate_process(seed=77, depth=10, trials=30_000, workers=8)
        assert canonical_json(one.to_dict()) == canonical_json(eight.to_dict())

    def test_simulate_command_starts_no_pool(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a ProcessPoolExecutor was constructed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        assert cli.main(["simulate", "--depth", "12", "--trials", "100000", "--seed", "0"]) == 0
        assert '"trials":100000' in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate_process(seed=1, depth=4, trials=10, workers=workers)

    @pytest.mark.parametrize("trials", [10**3, 10**4, 3 * 10**4, 10**5])
    def test_exact_stderr_matches_float_formula(self, trials):
        # The float formula the reports used to print; every simulate report
        # prints one of these (positive, trials) pairs.
        for positive in range(trials + 1):
            p = Fraction(positive, trials)
            expected = f"{float(p * (1 - p) / trials) ** 0.5:.12f}"
            assert ProcessLevel(1, positive, trials).stderr() == expected

    def test_deterministic_rerun(self):
        a = simulate_process(seed=5, depth=6, trials=5_000)
        b = simulate_process(seed=5, depth=6, trials=5_000)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_mask_parsing(self):
        assert parse_mask("all", 3) == [True, True, True]
        assert parse_mask("none", 2) == [False, False]
        assert parse_mask("101", 3) == [True, False, True]
        with pytest.raises(ValueError):
            parse_mask("10", 3)

    def test_path_invariants(self):
        for path in simulate_paths(seed=13, depth=10, trials=400):
            assert path[0] in (0, 2)
            died = False
            for n, x in enumerate(path, start=1):
                assert 0 <= x <= 2**n
                assert x % 2 == 0
                if died:
                    assert x == 0
                died = died or x == 0

    @pytest.mark.parametrize(
        "seed,trials,mask,model",
        [
            (0, 1, None, "double"),
            (13, 500, None, "double"),
            (3, CHUNK, [True, False, True, True, False, True], "hold"),
            (8, 1000, [True, False, False, True, True], "double"),
            *every_mask_at_the_chunk_edges(),
        ],
    )
    def test_paths_match_process_counts(self, seed, trials, mask, model):
        # The chunk counter stops each path at its first zero; the oracle
        # builds every path in full from the same chunk streams.
        depth = 6 if mask is None else len(mask)
        paths = [
            path
            for index, start in enumerate(range(0, trials, CHUNK))
            for path in simulate_paths(seed, depth, min(CHUNK, trials - start), mask, model, chunk_index=index)
        ]
        report = simulate_process(seed, depth, trials, maximal_mask=mask, nonmaximal_model=model)
        from_paths = [sum(1 for path in paths if path[n] > 0) for n in range(depth)]
        assert from_paths == [level.positive for level in report.levels]
        constant = sum(1 for path in paths if len(set(path[-CONSTANT_WINDOW:])) == 1)
        assert constant == report.constant_window_count


class TestSampling:
    def test_uniform_first_index(self):
        report = sample_codings([Fraction(1, 2), Fraction(1, 2)], seed=1, length=64, samples=10_000)
        assert within_three_sigma(report.first_index_counts.get(1, 0), 10_000, Fraction(1, 2))

    def test_weighted_first_index(self):
        report = sample_codings([Fraction(1, 4), Fraction(3, 4)], seed=2, length=16, samples=10_000)
        assert within_three_sigma(report.first_index_counts.get(1, 0), 10_000, Fraction(1, 4))

    def test_position_totals(self):
        report = sample_codings([Fraction(1, 2), Fraction(1, 2)], seed=3, length=10, samples=500)
        assert sum(report.index_totals.values()) == 10 * 500

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            sample_codings([Fraction(1, 2), Fraction(1, 3)], seed=1, length=4, samples=2)

    def test_no_randrange_per_position(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("randrange called")

        monkeypatch.setattr(random.Random, "randrange", refuse)
        report = sample_codings([Fraction(1, 4), Fraction(3, 4)], seed=0, length=64, samples=100)
        assert sum(report.index_totals.values()) == 6400

    def test_memory_stays_within_a_block(self):
        # The draw stream of 3.2 M positions is decoded a block at a time.
        tracemalloc.start()
        try:
            report = sample_codings([Fraction(1, 4), Fraction(3, 4)], seed=0, length=64, samples=50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(report.index_totals.values()) == 64 * 50_000
        assert peak < 2 * 1024 * 1024

    def test_certified_samples_with_tool_set(self):
        from quadorbit.algebra import parse_poly
        from quadorbit.dynamics import QT, GeneratorSet

        gens = GeneratorSet.from_constants([parse_poly("t"), parse_poly("1")], ring=QT)
        report = sample_codings(
            [Fraction(1, 2), Fraction(1, 2)],
            seed=11,
            length=8,
            samples=40,
            gens=gens,
            certify_count=40,
        )
        for cert in report.certificates:
            word = [int(x) for x in cert["coding"].split("|")[0].split(",")]
            if word[0] == 1:  # outermost map is x^2+t: trick applies
                assert cert["stable"] is True
                assert cert["tool_guarantee"] is True
                for n in range(2, 9):
                    if word[n - 1] == 1:
                        assert n in cert["maximal_levels"]


# The leading byte of a draw decides it for denom < 256.  From 256 up it may
# not (k = 9, 10, 33, 41 bits), and 300 indices do not fit a byte code.
DIFFERENTIAL_WEIGHTS = {
    "one": [Fraction(1)],
    "halves": [Fraction(1, 2)] * 2,
    "quarter": [Fraction(1, 4), Fraction(3, 4)],
    "thirds": [Fraction(1, 3)] * 3,
    "sevenths": [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)],
    "k8": [Fraction(1, 255), Fraction(254, 255)],
    "k9": [Fraction(1, 256), Fraction(255, 256)],
    "k10": [Fraction(1, 1000), Fraction(999, 1000)],
    "300": [Fraction(1, 300)] * 300,
    "k33": [Fraction(1, 2**32), 1 - Fraction(1, 2**32)],
    "k41": [Fraction(1, 2**40 + 3), 1 - Fraction(1, 2**40 + 3)],
}


class TestSamplingAgainstOracle:
    @pytest.mark.parametrize("weights", DIFFERENTIAL_WEIGHTS.values(), ids=DIFFERENTIAL_WEIGHTS)
    def test_grid(self, weights):
        for seed in (0, 1, 7):
            for length in (1, 3, 64):
                for samples in (1, 7, 500):
                    report = sample_codings(weights, seed, length, samples)
                    assert report.to_dict() == sample_codings_oracle(weights, seed, length, samples).to_dict()

    @pytest.mark.parametrize(
        "weights,length,samples",
        [
            # No rejects: the draws are the positions, so these end one draw
            # below, at and above one block, and in the third block.
            *[(DIFFERENTIAL_WEIGHTS["halves"], 1, n) for n in (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1)],
            (DIFFERENTIAL_WEIGHTS["halves"], 1, 2 * SAMPLE_BLOCK + 1),
            # Samples that straddle a block carry their position across it.
            *[(DIFFERENTIAL_WEIGHTS["halves"], 7, SAMPLE_BLOCK // 7 + d) for d in (0, 1, 2)],
            # About half the draws are rejected.
            *[(DIFFERENTIAL_WEIGHTS["quarter"], 5, n) for n in (SAMPLE_BLOCK // 10 - 1, SAMPLE_BLOCK // 10 + 1)],
            (DIFFERENTIAL_WEIGHTS["k41"], 3, SAMPLE_BLOCK // 6 + 1),
        ],
    )
    def test_block_boundaries(self, weights, length, samples):
        for seed in (0, 5):
            report = sample_codings(weights, seed, length, samples)
            assert report.to_dict() == sample_codings_oracle(weights, seed, length, samples).to_dict()

    @pytest.mark.parametrize("weights", ["quarter", "k9", "k41", "300"])
    def test_certificates(self, weights):
        from quadorbit.dynamics import GeneratorSet

        weights = DIFFERENTIAL_WEIGHTS[weights]
        # A 2-map set, or for 300 weights 300 maps, so that indices past a byte code reach the words.
        gens = GeneratorSet.from_constants([-3, 2] if len(weights) == 2 else list(range(1, 301)))
        for seed in (0, 3):
            args = (weights, seed, 4, 9, gens, 5)
            report = sample_codings(*args, certify_depth=2)
            assert len(report.certificates) == 5
            assert report.to_dict() == sample_codings_oracle(*args, certify_depth=2).to_dict()
