import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import degree_law_check, discriminant_identity_check, gamma_value, primitive_odd_prime_oracle
import quadorbit.certify as certify
from quadorbit.algebra import (
    squarefree_decomposition,
    IntPolynomial,
    derivative_is_one_mod2,
    gcd_primitive,
    is_square,
    parse_poly,
)
from quadorbit.certify import (
    MAX_FAILS,
    MAX_ORACLE,
    MAX_PRIMITIVE,
    STAB_DERIVATIVE,
    STAB_FAILED,
    STAB_NON_SQUARE,
    certify_chain,
    level2_oracle,
    maximality_by_primitive_odd_prime,
    maximality_qt,
    stability_certificate,
    tool_conditions,
)
from quadorbit.algebra import factorint, ratpoly
from quadorbit.cli import main
from quadorbit.dynamics import QT, GeneratorSet, SequenceCoding, critical_orbit
from quadorbit.reporting import canonical_json

CONST = SequenceCoding.constant(1)
X2P1 = GeneratorSet.from_constants([1])


def qt_set(*texts):
    return GeneratorSet.from_constants([parse_poly(t) for t in texts], ring=QT)


class TestStability:
    def test_x2_plus_1(self):
        evidence = stability_certificate(X2P1, CONST, critical_orbit(X2P1, CONST, 4))
        assert all(e.kind == STAB_NON_SQUARE for e in evidence)

    def test_x2_fails_at_level_one(self):
        g = GeneratorSet.from_constants([0])
        evidence = stability_certificate(g, CONST, critical_orbit(g, CONST, 2))
        assert evidence[0].kind == STAB_FAILED

    def test_derivative_trick(self):
        g = qt_set("t")
        evidence = stability_certificate(g, CONST, critical_orbit(g, CONST, 5))
        assert all(e.kind == STAB_DERIVATIVE for e in evidence)

    def test_qt_without_trick_runs_square_tests(self):
        g = qt_set("t^2")
        evidence = stability_certificate(g, CONST, critical_orbit(g, CONST, 3))
        assert evidence[0].kind == STAB_NON_SQUARE  # -t^2 is not a square

    def test_eisenstein_fallback_over_z(self):
        # {x^2-2, x^2-3} hits the square value 1 in its orbit, where the
        # square test fails but Eisenstein still certifies the level.
        g = GeneratorSet.from_constants([-2, -3])
        coding = SequenceCoding((2,), (1,))  # gamma_1(0) = -3, gamma_2(0) = ...
        evidence = stability_certificate(g, coding, critical_orbit(g, coding, 4))
        assert all(e.ok for e in evidence)


class TestMaximalityQ:
    def test_witness_5(self):
        ev = maximality_by_primitive_odd_prime(X2P1, critical_orbit(X2P1, CONST, 3))
        assert ev.kind == MAX_PRIMITIVE and ev.witness == "5"

    def test_witness_13(self):
        ev = maximality_by_primitive_odd_prime(X2P1, critical_orbit(X2P1, CONST, 4))
        assert ev.kind == MAX_PRIMITIVE and ev.witness == "13"

    def test_criterion_fails_for_minus2(self):
        g = GeneratorSet.from_constants([-2])
        ev = maximality_by_primitive_odd_prime(g, critical_orbit(g, CONST, 3))
        assert ev.kind == MAX_FAILS

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            g = GeneratorSet.from_constants([-1])
            maximality_by_primitive_odd_prime(g, critical_orbit(g, CONST, 2))

    def test_tiny_budget_decides_with_the_residue(self, capsys):
        # No trial prime qualifies at level 9 and rho gives up at once, yet
        # the level is decided: the witness is |value| with every prime of
        # the earlier values stripped.
        code = main(["certify", "--c=-3; 2", "--coding", "1|2", "--depth", "9", "--factor-budget", "1"])
        levels = json.loads(capsys.readouterr().out)["result"]["levels"]
        assert code == 0
        values = [int(lc["orbit_value"]) for lc in levels]
        shared = math.prod(values[:-1]) ** values[-1].bit_length()
        assert levels[8]["maximality"]["kind"] == MAX_PRIMITIVE
        assert int(levels[8]["maximality"]["witness"]) == abs(values[-1]) // math.gcd(values[-1], shared)

    def test_decided_where_rho_cannot_split(self, capsys):
        # Level 6 of x^2 + 18 leaves a 35-digit cofactor rho cannot split.
        code = main(["certify", "--c", "18", "--coding", "|1", "--depth", "7"])
        levels = json.loads(capsys.readouterr().out)["result"]["levels"]
        assert code == 0
        assert levels[5]["maximality"]["kind"] == MAX_PRIMITIVE

    def test_trial_prime_witness_needs_no_rho(self, monkeypatch):
        # Factoring stops at the first trial prime that qualifies, so rho
        # never runs on the large cofactors of levels 1..8.
        def no_rho(*args):
            raise AssertionError("Pollard rho was called")

        monkeypatch.setattr(factorint, "_pollard_brent", no_rho)
        g = GeneratorSet.from_constants([-3, 2])
        chain = certify_chain(g, SequenceCoding((1,), (2,)), 8)
        assert chain.levels[7].maximality.witness == "313"

    def test_one_rho_call_per_composite(self, monkeypatch):
        # Level 6 leaves a 31-digit composite that rho does not split; it gets
        # one attempt, not a restart loop, and the residue is the witness.
        calls = []
        brent = factorint._pollard_brent

        def counting_rho(n, iterations, rng):
            calls.append(n)
            return brent(n, iterations, rng)

        monkeypatch.setattr(factorint, "_pollard_brent", counting_rho)
        g = GeneratorSet.from_constants([-12, -10])
        chain = certify_chain(g, SequenceCoding((1,), (2, 2)), 6)
        assert len(calls) == 1 and len(str(calls[0])) == 31
        assert [lc.maximality.kind for lc in chain.levels[1:]] == [MAX_PRIMITIVE] * 5

    def test_matches_trial_division_oracle(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            s = rng.randint(1, 3)
            g = GeneratorSet.from_constants(rng.sample(range(-6, 7), s))
            prefix = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 2)))
            coding = SequenceCoding(prefix, tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
            values = critical_orbit(g, coding, 7)
            for n in range(2, 8):
                if abs(values[n - 1]) > 10**12:
                    break
                if values[n - 1] == 0:
                    continue
                p = primitive_odd_prime_oracle(values[:n])
                ev = maximality_by_primitive_odd_prime(g, values[:n])
                assert (ev.kind, ev.witness) == ((MAX_PRIMITIVE, str(p)) if p else (MAX_FAILS, "")), (g, coding, n)
                checked += 1
        assert checked >= 100


def test_schema_kinds_are_the_constants():
    schema = json.loads((Path(certify.__file__).parent / "schemas" / "certificate_chain.schema.json").read_text())
    evidence = schema["properties"]["levels"]["items"]["properties"]
    for prefix, key in (("STAB_", "stability"), ("MAX_", "maximality")):
        constants = {v for name, v in vars(certify).items() if name.startswith(prefix)}
        assert set(evidence[key]["properties"]["kind"]["enum"]) == constants, key


class TestMaximalityQt:
    def test_level_2_witness(self):
        g = qt_set("t")
        ev = maximality_qt(g, critical_orbit(g, CONST, 2))
        assert ev.kind == MAX_PRIMITIVE and ev.witness == "t+1"

    def test_level_3_witness(self):
        g = qt_set("t")
        ev = maximality_qt(g, critical_orbit(g, CONST, 3))
        assert ev.kind == MAX_PRIMITIVE and ev.witness == "t^3+2t^2+t+1"

    def test_precondition(self):
        with pytest.raises(ValueError):
            g = qt_set("t^2")
            maximality_qt(g, critical_orbit(g, CONST, 1))


class TestToolConditions:
    def test_remark_pair(self):
        tool = tool_conditions(qt_set("t^4+5t", "-(7t^4+3)"))
        assert (tool.j, tool.k) == (1, 2)
        assert tool.all_k == (1, 2)

    def test_singleton(self):
        tool = tool_conditions(qt_set("t"))
        assert (tool.j, tool.k) == (1, 1)

    def test_no_indices(self):
        assert tool_conditions(qt_set("t^2")) is None


class TestLevel2Oracle:
    def test_examples(self):
        assert level2_oracle(X2P1, critical_orbit(X2P1, CONST, 2)) is True
        g = GeneratorSet.from_constants([3, 1])
        assert level2_oracle(g, critical_orbit(g, SequenceCoding((1,), (2,)), 2)) is False
        g = qt_set("t")
        assert level2_oracle(g, critical_orbit(g, CONST, 2)) is True

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            g = GeneratorSet.from_constants([-4])
            level2_oracle(g, critical_orbit(g, CONST, 2))  # -gamma_1(0) = 4 square
        with pytest.raises(ValueError):
            level2_oracle(X2P1, critical_orbit(X2P1, CONST, 1))

    def test_soundness_vs_valuation_criterion(self):
        # Whenever the sufficient criterion produces a witness at n = 2, the
        # exact oracle must agree (the converse is not asserted).
        rng = random.Random(23)
        hits = 0
        for _ in range(400):
            s = rng.randint(1, 3)
            cs = rng.sample([c for c in range(-20, 21)], s)
            g = GeneratorSet.from_constants(cs)
            coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
            first = -gamma_value(g, coding, Fraction(0), 1)
            if first == 0 or is_square(first):
                continue
            if gamma_value(g, coding, Fraction(0), 2) == 0:
                continue
            values = critical_orbit(g, coding, 2)
            ev = maximality_by_primitive_odd_prime(g, values)
            if ev.kind == MAX_PRIMITIVE:
                hits += 1
                assert level2_oracle(g, values) is True
        assert hits >= 50


class TestChains:
    def test_x2_plus_t_depth6(self):
        chain = certify_chain(qt_set("t"), CONST, 6)
        assert chain.stable and chain.tool_guarantee
        assert chain.maximal_levels == [1, 2, 3, 4, 5, 6]

    def test_remark_pair_depth5(self):
        g = qt_set("t^4+5t", "-(7t^4+3)")
        chain = certify_chain(g, SequenceCoding((1,), (2,)), 5)
        assert chain.stable
        assert chain.maximal_levels == [1, 2, 3, 4, 5]
        assert chain.tool_guarantee

    def test_x2_minus_2_over_q(self):
        chain = certify_chain(GeneratorSet.from_constants([-2]), CONST, 4)
        assert chain.stable
        assert all(n not in chain.maximal_levels for n in (2, 3, 4))

    def test_maximality_not_attempted_after_stability_break(self):
        chain = certify_chain(GeneratorSet.from_constants([0]), CONST, 3)
        assert chain.stable_through == 0
        assert chain.levels[1].maximality.kind == "not_attempted"

    def test_level2_oracle_recorded_when_criterion_fails(self):
        chain = certify_chain(GeneratorSet.from_constants([-2]), CONST, 2)
        assert chain.levels[1].maximality.kind == MAX_ORACLE
        assert chain.levels[1].maximality.oracle is False

    def test_rational_constants_use_oracle_only(self):
        # orbit of 0 under x^2 + 1/2: 1/2, 3/4, 17/16 (all non-squares)
        chain = certify_chain(GeneratorSet.from_constants([Fraction(1, 2)]), CONST, 3)
        assert chain.stable
        assert chain.levels[1].maximality.kind == MAX_ORACLE
        assert chain.levels[2].maximality.kind == "not_attempted"

    def test_chain_serialization_golden(self):
        chain = certify_chain(GeneratorSet.from_constants([1]), CONST, 2)
        payload = canonical_json(chain.to_dict())
        golden = (
            '{"coding":"|1","depth":2,"format_version":1,"generators":["x^2+1"],'
            '"levels":[{"level":1,"maximality":{"guaranteed":false,"kind":"level_one",'
            '"oracle":null,"witness":""},"orbit_value":"1","stability":{"detail":"",'
            '"kind":"non_square_witness","witness":"1"}},{"level":2,"maximality":'
            '{"guaranteed":false,"kind":"primitive_odd_prime","oracle":null,"witness":"2"},'
            '"orbit_value":"2","stability":{"detail":"","kind":"non_square_witness",'
            '"witness":"2"}}],"ring":"q","summary":{"maximal_levels":[1,2],"stable":true,'
            '"stable_through":2,"tool_guarantee":false}}\n'
        )
        assert payload == golden
        assert json.loads(payload)["summary"]["stable"] is True


@pytest.mark.parametrize(
    "gens, coding, depth, level2_kind",
    [
        (qt_set("t"), CONST, 6, MAX_PRIMITIVE),
        (qt_set("t^2+1", "t"), SequenceCoding((), (1, 2)), 5, MAX_PRIMITIVE),
        (X2P1, CONST, 5, MAX_PRIMITIVE),
        (GeneratorSet.from_constants([-2]), CONST, 4, MAX_ORACLE),
        (GeneratorSet.from_constants([Fraction(1, 2)]), CONST, 3, MAX_ORACLE),
    ],
    ids=["qt_derivative_shortcut", "qt_square_tests", "q_valuation", "q_criterion_fails", "q_rational"],
)
def test_chain_computes_the_critical_orbit_once(monkeypatch, gens, coding, depth, level2_kind):
    calls = []

    def counting_critical_orbit(*args):
        calls.append(args)
        return critical_orbit(*args)

    monkeypatch.setattr(certify, "critical_orbit", counting_critical_orbit)
    chain = certify_chain(gens, coding, depth)
    assert chain.levels[1].maximality.kind == level2_kind
    assert len(calls) == 1


@pytest.mark.parametrize(
    "gens, coding, depth, decomposed_levels",
    [
        (qt_set("t"), CONST, 6, []),
        (qt_set("2t^2+t"), CONST, 6, [2, 3, 4, 5, 6]),
        (qt_set("t^2+1", "t"), SequenceCoding((), (1, 2)), 5, [1, 2, 3, 4, 5]),
    ],
    ids=["qt_derivative_shortcut", "qt_shortcut_even_leading", "qt_square_tests"],
)
def test_chain_decomposes_each_orbit_value_once(monkeypatch, gens, coding, depth, decomposed_levels):
    # The square tests and the valuation criterion share one square-free
    # decomposition per level.  The derivative shortcut chain needs none at
    # level 1, and none at all where the leading coefficient is odd: the
    # mod-2 certificate reads it off.  2t^2+t passes the derivative test, but
    # its levels have even leading coefficients and take Yun's path.
    calls = []

    def counting_decomposition(f):
        calls.append(f)
        return squarefree_decomposition(f)

    monkeypatch.setattr(certify, "squarefree_decomposition", counting_decomposition)
    certify_chain(gens, coding, depth)
    values = critical_orbit(gens, coding, depth)
    assert calls == [values[n - 1] for n in decomposed_levels]


def test_chain_divides_by_each_gcd_once(monkeypatch):
    # gcd_primitive hands back the quotients of its trial division, so
    # neither Yun's loop nor the valuation criterion divides by a gcd again.
    divide = IntPolynomial.divmod_exact_or_none
    callers = []

    def counting_divide(self, divisor):
        callers.append(sys._getframe(1).f_code.co_name)
        return divide(self, divisor)

    monkeypatch.setattr(IntPolynomial, "divmod_exact_or_none", counting_divide)
    certify_chain(qt_set("t"), CONST, 8)
    assert "gcd_primitive" in callers
    assert [c for c in callers if c != "gcd_primitive"] == []


def _assert_chain_matches_full_strip(gens, coding, depth):
    """Every level the chain attempts has the maximality kind and witness of
    maximality_qt, which strips against every earlier level and runs Yun."""
    chain = certify_chain(gens, coding, depth)
    values = critical_orbit(gens, coding, depth)
    compared = 0
    for n in range(2, depth + 1):
        ev = chain.levels[n - 1].maximality
        if chain.stable_through < n - 1:
            assert ev.kind == "not_attempted"
            continue
        oracle = maximality_qt(gens, values[:n])
        assert (ev.kind, ev.witness) == (oracle.kind, oracle.witness), (gens.map_strings(), coding.render(), n)
        compared += 1
    return compared


SINGLE_MAPS = ["t", "-t", "t^2+1", "t^3-2t", "2t+1", "-(t^2+3)", "2t^2+t"]


@pytest.mark.parametrize("c", SINGLE_MAPS)
def test_single_map_strip_matches_full_strip(c):
    # |1, 1|1 and |1,1 apply one map at every level, so the chain strips each
    # level against its divisor levels only; the residue must not change.
    gens = qt_set(c)
    for coding, depth in ((CONST, 10), (SequenceCoding((1,), (1,)), 8), (SequenceCoding((), (1, 1)), 8)):
        assert _assert_chain_matches_full_strip(gens, coding, depth) == depth - 1


@pytest.mark.parametrize(
    "texts",
    [("t", "t^2+1"), ("2t+1", "-(t^2+3)"), ("2t^2+t", "t^3-2t"), ("t", "t^3-2t"), ("t", "-2"), ("t", "t+1")],
    ids="; ".join,
)
@pytest.mark.parametrize("coding", ["1|2", "2|1", "|1,2"])
def test_two_map_chain_matches_full_strip(texts, coding):
    # Two maps keep the full strip; the mod-2 certificate may still apply.
    # A divisor strip would change the witness for t; t^3-2t under 2|1,
    # t; -2 under 1|2 and t; t+1 under |1,2: there some level n shares a
    # factor with an earlier level whose index does not divide n.
    assert _assert_chain_matches_full_strip(qt_set(*texts), SequenceCoding.parse(coding), 7) > 0


@pytest.mark.parametrize("constants", [[-2], [-1], [1], [3], [-2, 1]])
def test_constant_qt_chain_matches_full_strip(constants):
    gens = GeneratorSet.from_constants([IntPolynomial((c,)) for c in constants], ring=QT)
    codings = ["|1", "1|1", "|1,1"] + (["1|2", "2|1", "|1,2"] if len(constants) == 2 else [])
    for coding in codings:
        _assert_chain_matches_full_strip(gens, SequenceCoding.parse(coding), 9)


def test_single_map_chain_work_counts(monkeypatch):
    # c = t, |1, depth 8: levels 2..8 have 12 proper divisors in all, so the
    # strip runs 12 gcds (28 against every earlier level), and the mod-2
    # certificate leaves Yun's decomposition nothing to do (7 gcds before).
    strip_calls, yun_calls = [], []

    def counting(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(certify, "gcd_primitive", counting(strip_calls, ratpoly.gcd_primitive))
    monkeypatch.setattr(ratpoly, "gcd_primitive", counting(yun_calls, ratpoly.gcd_primitive))
    certify_chain(qt_set("t"), CONST, 8)
    assert (len(strip_calls), len(yun_calls)) == (12, 0)


def _derivative_one_squares(seed, count):
    """z^2 + c for random z and random c whose derivative reduces to 1 mod 2,
    so f' = 1 mod 2; the leading coefficient may be even."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        c_coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        c_coeffs[1] = 2 * rng.randint(-4, 4) + 1  # odd linear coefficient
        for i in range(3, d + 1, 2):
            c_coeffs[i] = 2 * rng.randint(-4, 4)  # even odd-index coefficients
        c = IntPolynomial(c_coeffs)
        if not derivative_is_one_mod2(c):
            continue
        dz = rng.randint(max(1, (d + 1) // 2), 3)
        z_coeffs = [rng.randint(-9, 9) for _ in range(dz)] + [2 * rng.randint(0, 3) + 1]
        z = IntPolynomial(z_coeffs)
        yield z * z + c


class TestSquarefreeTrickProperties:
    def test_derivative_one_implies_squarefree(self):
        # random z, c with derivative-1 reduction and odd leading term give a
        # square-free z^2 + c
        for f in _derivative_one_squares(31, 60):
            if f.leading_coefficient() % 2 == 0:
                continue
            assert gcd_primitive(f, f.derivative())[0].is_constant()

    def test_mod2_certificate_is_yuns_decomposition(self, monkeypatch):
        # The chain's decomposer skips Yun exactly when the leading
        # coefficient is odd, and returns what Yun would have; -f and 3f
        # check the sign and size of the content.
        calls = []

        def counting_decomposition(f):
            calls.append(f)
            return squarefree_decomposition(f)

        monkeypatch.setattr(certify, "squarefree_decomposition", counting_decomposition)
        shortcuts = 0
        for f in _derivative_one_squares(53, 300):
            for value in (f, -f, 3 * f):
                calls.clear()
                got = certify._decomposer([value], mod2_squarefree=True)(1)
                assert got == squarefree_decomposition(value)
                odd = value.leading_coefficient() % 2 == 1
                assert calls == ([] if odd else [value])
                shortcuts += odd
        assert shortcuts >= 100

    def test_tool_levels_are_squarefree(self):
        rng = random.Random(37)
        checked = 0
        while checked < 12:
            d = rng.randint(1, 4)
            c1 = [rng.randint(-5, 5) for _ in range(d + 1)]
            c1[1] = 1
            for i in range(3, d + 1, 2):
                c1[i] = 0
            c1[d] = c1[d] | 1 if d % 2 == 0 else c1[d]
            cj = IntPolynomial(c1)
            if not derivative_is_one_mod2(cj):
                continue
            ck_coeffs = [rng.randint(-5, 5) for _ in range(d)] + [2 * rng.randint(0, 2) + 1]
            ck = IntPolynomial(ck_coeffs)
            if cj == ck:
                continue
            gens = GeneratorSet.from_constants([cj, ck], ring=QT)
            tool = tool_conditions(gens)
            if tool is None or 1 not in tool.all_j:
                continue
            checked += 1
            n = rng.randint(2, 6)
            coding = SequenceCoding((1,) + tuple(rng.randint(1, 2) for _ in range(n - 2)), (2,))
            value = critical_orbit(gens, coding, n)[-1]
            prim = value.primitive_part()
            assert gcd_primitive(prim, prim.derivative())[0].is_constant()


class TestIdentities:
    def test_disc_identity_example(self):
        g = GeneratorSet.from_constants([1])
        assert discriminant_identity_check(g, CONST, 2)

    def test_disc_identity_random(self):
        rng = random.Random(41)
        for _ in range(20):
            s = rng.randint(1, 3)
            cs = rng.sample(range(-9, 10), s)
            g = GeneratorSet.from_constants(cs)
            coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 3))))
            n = rng.randint(2, 4)
            if gamma_value(g, coding, Fraction(0), n) == 0:
                continue
            assert discriminant_identity_check(g, coding, n)

    def test_degree_law_examples(self):
        assert degree_law_check(qt_set("t"), CONST, 3)
        mixed = qt_set("t", "1")
        assert degree_law_check(mixed, SequenceCoding((), (1, 2)), 3)  # ends index 2: bound only
        pair = qt_set("-(7t^4+3)", "t^4+5t")
        assert degree_law_check(pair, SequenceCoding((), (1, 2)), 2)
        assert degree_law_check(pair, SequenceCoding((), (2, 1)), 2)

    def test_degree_law_random(self):
        rng = random.Random(43)
        for _ in range(40):
            s = rng.randint(1, 3)
            cs = []
            while len(cs) < s:
                d = rng.randint(0, 3)
                c = IntPolynomial([rng.randint(-5, 5) for _ in range(d)] + [rng.choice([1, -1, 3])] if d else [rng.randint(1, 5)])
                if c not in cs:
                    cs.append(c)
            if max(c.degree for c in cs) < 1:
                continue
            g = GeneratorSet.from_constants(cs, ring=QT)
            coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 3))))
            assert degree_law_check(g, coding, rng.randint(1, 6))
