import argparse
import functools
import hashlib
import json
import time

import jsonschema
import pytest

import quadorbit.cli as cli
import quadorbit.dynamics as dynamics
import quadorbit.primescan as primescan
import quadorbit.process as process
from quadorbit import pool
from quadorbit.cli import build_parser, main
from quadorbit.primescan import density_profile

SCHEMA_DIR = None


def _schema(name):
    global SCHEMA_DIR
    if SCHEMA_DIR is None:
        import quadorbit

        from pathlib import Path

        SCHEMA_DIR = Path(quadorbit.__file__).parent / "schemas"
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "c,witness",
    [("-2", "0"), ("-1", "0"), ("0", "0"), ("-2; -6", "-2"), ("-2; -3", "-2"), ("0; -1", "0")],
)
def test_classify_exceptional(capsys, c, witness):
    code, out = run_cli(capsys, "classify", "--c", c)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    result = payload["result"]
    assert (result["verdict"], result["witness_point"]) == ("Exceptional", witness)
    assert result["name"] == payload["config"]["set"]


# Two exceptional pairs inside one set of three maps; a pair that is not
# integral; family A at y = 7, an integral pair of the family outside its window.
@pytest.mark.parametrize("c", ["1", "-3; -2; -6", "1/4; -3/4", "-12; -20"])
def test_classify_plain(capsys, c):
    code, out = run_cli(capsys, "classify", "--c", c)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    assert payload["result"] == {"name": None, "verdict": "NotObstructed", "witness_point": None}


def test_classify_general_maps_is_an_error(capsys):
    code = main(["classify", "--set", "x^2+x; x^2-6x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: classification needs a critical-mode set over Q\n"


def test_certify_qt(capsys):
    code, out = run_cli(capsys, "certify", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], _schema("certificate_chain.schema.json"))
    assert payload["result"]["summary"]["tool_guarantee"] is True
    assert payload["result"]["summary"]["maximal_levels"] == [1, 2, 3, 4, 5, 6]


def test_certify_deterministic_bytes(capsys):
    _, first = run_cli(capsys, "certify", "--c", "1", "--coding", "|1", "--depth", "4")
    _, second = run_cli(capsys, "certify", "--c", "1", "--coding", "|1", "--depth", "4")
    assert first == second


def test_census_csv(capsys):
    code, out = run_cli(capsys, "census", "--d", "2", "--s", "2", "--b-list", "1,2", "--variant", "even", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,s,B,")
    assert len(lines) == 3


def test_census_json_schema(capsys):
    code, out = run_cli(capsys, "census", "--d", "2", "--s", "2", "--b-list", "1,2", "--variant", "even")
    payload = json.loads(out)
    jsonschema.validate(payload["result"], _schema("census_report.schema.json"))


def test_primes_csv(capsys):
    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "100,1000", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,in_P_count,pi_x,ratio_decimal_12dp"
    assert len(lines) == 3


def test_primes_long_prefix_csv_bytes(capsys):
    # 24 prefix maps x^2 + 1 before the same map forever give the levels of
    # "|1", so the CSV rows are that coding's, byte for byte.
    argv = ["primes", "--c", "1", "--cutoffs", "1000,10000", "--format", "csv"]
    code, out = run_cli(capsys, *argv, "--coding", ",".join(["1"] * 24) + "|1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("820ce9c69856d6d8")
    assert out == run_cli(capsys, *argv, "--coding", "|1")[1]


def test_primes_long_cycle_csv_bytes(capsys):
    # A cycle of 24 maps x^2 + 1 is the map itself forever, so the CSV rows
    # are those of "|1", byte for byte; the scan keeps no value of its
    # cycle's levels past the escape bound.
    argv = ["primes", "--c", "1", "--cutoffs", "1000", "--format", "csv"]
    code, out = run_cli(capsys, *argv, "--coding", "|" + ",".join(["1"] * 24))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("573319fd")
    assert out == run_cli(capsys, *argv, "--coding", "|1")[1]


@pytest.mark.parametrize("cutoffs", ["--cutoffs=0,1,2", "--cutoffs=-5"])
def test_primes_cutoffs_below_2_are_an_error(capsys, cutoffs):
    # A row's x is at least 2 in prime_scan.schema.json.
    code = main(["primes", "--c", "1", cutoffs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: cutoffs must be nonempty, strictly increasing and at least 2\n"


def test_primes_json_schema(capsys):
    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "100")
    payload = json.loads(out)
    jsonschema.validate(payload["result"], _schema("prime_scan.schema.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--weights", "1/2,1/2", "--length", "4", "--samples", "3", "--seed", "1"],
        ["sample", "--c", "-3; 2", "--weights", "1/2,1/2", "--length", "5", "--samples", "3", "--certify", "2", "--seed", "1"],
    ],
    ids=["plain", "certify"],
)
def test_sample_json_schema(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], _schema("sample_report.schema.json"))
    assert len(payload["result"]["certificates"]) == (2 if "--certify" in argv else 0)


def test_fpp_json_schema(capsys):
    # Depth 20 has exact rows through MAX_EXACT_LEVEL and enclosures past it.
    code, out = run_cli(capsys, "fpp", "--depth", "20")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], _schema("fpp_table.schema.json"))
    levels = payload["result"]["levels"]
    assert [row["n"] for row in levels] == list(range(1, 21))
    assert {"fpp_num" in row for row in levels} == {True, False}


def test_primes_fpp_depth_json_schema(capsys):
    # The fpp rows are fpp_table.schema.json's, reached by $ref through a
    # registry of the shipped schemas under their $ids.
    from referencing import Registry, Resource

    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--cutoffs", "1000", "--fpp-depth", "20")
    assert code == 0
    payload = json.loads(out)
    schema = _schema("fpp_comparison.schema.json")
    shipped = [json.loads(path.read_text()) for path in SCHEMA_DIR.glob("*.schema.json")]
    registry = Registry().with_resources((s["$id"], Resource.from_contents(s)) for s in shipped)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], schema, registry=registry)
    rows = payload["result"]["fpp"]
    assert [row["n"] for row in rows] == list(range(1, 21))
    assert {"fpp_num" in row for row in rows} == {True, False}
    del rows[0]["fpp_den"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload["result"], schema, registry=registry)


@pytest.mark.parametrize(
    "argv,verdict",
    [(["classify", "--c", "-2; -6"], "Exceptional"), (["classify", "--c", "1"], "NotObstructed")],
    ids=["session.classify", "not_obstructed"],
)
def test_classify_json_schema(capsys, argv, verdict):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    schema = _schema("classify_result.schema.json")
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], schema)
    assert payload["result"]["verdict"] == verdict
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**payload["result"], "witness_point": "0", "name": None}, schema)


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["orbit", "--c", "-2", "--coding", "|1", "--depth", "3"], 0),
        (["orbit", "--set", "x^2+x; x^2-6x", "--point", "2"], 0),
        (["orbit", "--c", "0", "--point", "1"], 0),
        (["orbit", "--c", "-1", "--point", "1/2"], 0),
        (["orbit", "--ring", "qt", "--c", "t", "--point", "1", "--size-cap", "1"], 2),
    ],
    ids=["session.orbit_critical", "session.orbit_point", "closed", "escaping", "qt_cap_cut"],
)
def test_orbit_json_schema(capsys, argv, expected_code):
    code, out = run_cli(capsys, *argv)
    assert code == expected_code
    payload = json.loads(out)
    schema = _schema("orbit_result.schema.json")
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    jsonschema.validate(payload["result"], schema)
    if "--point" in argv:
        # A walk that closed has an orbit; one that did not has none.
        flipped = {**payload["result"], "orbit": None if payload["result"]["orbit"] else ["0"]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(flipped, schema)


def run_simulate_on_one_and_two_cpus(capsys, monkeypatch, trials):
    args = ["simulate", "--depth", "6", "--trials", str(trials), "--seed", "9"]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        runs.append(run_cli(capsys, *args))
    return runs


def test_simulate_schema_and_determinism(capsys, monkeypatch):
    (code, out), two = run_simulate_on_one_and_two_cpus(capsys, monkeypatch, 4000)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload["result"], _schema("process_report.schema.json"))
    assert (code, out) == two


def test_simulate_bytes_do_not_depend_on_the_cpus(capsys, monkeypatch):
    # 25 chunks, the last one short.
    one, two = run_simulate_on_one_and_two_cpus(capsys, monkeypatch, 50_001)
    assert one == two
    assert one[0] == 0
    assert json.loads(one[1])["result"]["trials"] == 50_001


def test_simulate_prints_exact_survival_on_mixed_masks(capsys):
    code, out = run_cli(
        capsys, "simulate", "--depth", "6", "--mask", "101101", "--nonmaximal-model", "hold", "--trials", "100"
    )
    assert code == 0
    levels = json.loads(out)["result"]["levels"]
    exact = [(level["fpp_num"], level["fpp_den"]) for level in levels]
    assert exact == [(1, 2), (1, 2), (3, 8), (39, 128), (39, 128), (8463, 32768)]
    code, out = run_cli(capsys, "simulate", "--depth", "20", "--mask", "none", "--trials", "10")
    levels = json.loads(out)["result"]["levels"]
    assert [level["fpp_num"] for level in levels] == [1] * 18 + [None, None]


def test_sample(capsys):
    code, out = run_cli(capsys, "sample", "--weights", "1/4,3/4", "--length", "8", "--samples", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["result"]["first_index_counts"].values()) == 100


def test_sample_certify_config_names_what_was_certified(capsys):
    argv = ["sample", "--weights", "1/2,1/2", "--length", "3", "--samples", "4", "--seed", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == {"weights": ["1/2", "1/2"], "seed": 1, "length": 3, "samples": 4}
    configs = []
    for extra in (
        ["--c", "-3; 2", "--certify", "2"],
        ["--c", "-3; 1", "--certify", "2"],
        ["--c", "-3; 2", "--certify", "2", "--certify-depth", "2"],
        ["--c", "t; 1", "--ring", "qt", "--certify", "1"],
    ):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        configs.append(json.loads(out)["config"])
    assert configs[0] == {
        "weights": ["1/2", "1/2"],
        "seed": 1,
        "length": 3,
        "samples": 4,
        "set": "{x^2-3, x^2+2}",
        "ring": "q",
        "certify": 2,
        "certify_depth": None,
    }
    assert configs[1]["set"] == "{x^2-3, x^2+1}"
    assert configs[2]["certify_depth"] == 2
    assert (configs[3]["ring"], configs[3]["certify"]) == ("qt", 1)
    # --c without --certify certifies nothing, and the config does not name the set.
    code, out = run_cli(capsys, *argv, "--c", "-3; 2")
    assert json.loads(out)["config"] == {"weights": ["1/2", "1/2"], "seed": 1, "length": 3, "samples": 4}


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_sample_certify_depth_below_one_is_an_error(capsys, depth):
    # 0 is a depth like any other, not a stand-in for --length.
    argv = ["sample", "--weights", "1/2,1/2", "--length", "3", "--samples", "2", "--seed", "1"]
    code = main([*argv, "--c", "1; 2", "--certify", "1", "--certify-depth", depth])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 1\n"


def test_sample_negative_certify_count_is_an_error(capsys):
    argv = ["sample", "--weights", "1/2,1/2", "--length", "2", "--samples", "1", "--certify", "-1", "--c", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: certify count must be >= 0, got -1\n"


def test_sample_certify_without_generators_is_an_error(capsys, monkeypatch):
    # Refused before the sampling stream is even seeded.
    seeded = []
    monkeypatch.setattr(process, "_chunk_seed", lambda *args: seeded.append(args) or 0)
    argv = ["sample", "--weights", "1/2,1/2", "--length", "3", "--samples", "2", "--seed", "1", "--certify", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "generator set" in captured.err
    assert seeded == []


@pytest.mark.parametrize("seed", range(8))
def test_sample_certify_with_more_weights_than_maps_is_an_error(capsys, seed):
    # Refused whatever the seed, not only when index 2 is drawn into a
    # certified prefix.
    argv = ["sample", "--weights", "7/8,1/8", "--c", "-2", "--certify", "1", "--length", "2", "--samples", "2"]
    code = main([*argv, "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: certifying sampled prefixes needs a map per weight: 2 weights, 1 maps\n"


def test_sample_certify_with_fewer_weights_than_maps(capsys):
    argv = ["sample", "--weights", "1", "--c", "-2; 1", "--certify", "2", "--length", "3", "--samples", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    certificates = json.loads(out)["result"]["certificates"]
    assert [c["coding"] for c in certificates] == ["1,1,1|1", "1,1,1|1"]


def test_orbit_point(capsys):
    code, out = run_cli(capsys, "orbit", "--set", "x^2+x; x^2-6x", "--point", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["contains_finite_orbit_point"] == "yes"
    assert payload["result"]["witness"] == "0"


def test_orbit_critical_values(capsys):
    code, out = run_cli(capsys, "orbit", "--c", "-2", "--coding", "|1", "--depth", "3")
    assert json.loads(out)["result"]["critical_orbit"] == ["-2", "2", "2"]


def test_parse_error_exit_code(capsys):
    code = main(["certify", "--c", "t^", "--ring", "qt", "--coding", "|1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "position" in err


@pytest.mark.parametrize(
    "argv",
    [["census", "--bogus"], ["orbit", "--c", "1", "--depth", "x"], ["classify", "--ring", "qt", "--c", "t"]],
    ids=["unknown_option", "bad_int", "option_of_another_command"],
)
def test_usage_errors_exit_1(capsys, argv):
    # Exit 2 means inconclusive; a command line argparse rejects is an error.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quadorbit")
    assert "error:" in captured.err


def test_certify_without_generators_is_an_error(capsys):
    assert main(["certify", "--coding", "|1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: provide --c or --set\n"


def test_factor_budget_default_is_the_rho_budget():
    from quadorbit.algebra import factorint

    assert build_parser().parse_args(["certify", "--c", "1"]).factor_budget == factorint.RHO_ITERATIONS


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--factor-budget" in capsys.readouterr().out


def test_fpp_enclosures_beyond_exact(capsys):
    code, out = run_cli(capsys, "fpp", "--depth", "26")
    payload = json.loads(out)
    levels = payload["result"]["levels"]
    assert "fpp_num" in levels[0]
    assert "lower_num" in levels[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["fpp", "--depth", "0"],
        ["fpp", "--depth", "-3"],
        ["primes", "--c", "1", "--cutoffs", "100", "--fpp-depth", "-2"],
        ["primes", "--c", "1", "--cutoffs", "100", "--fpp-depth", "0"],
    ],
)
def test_fpp_depth_below_one_is_an_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 1\n"


def test_primes_fpp_depth_is_checked_before_the_scan(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("density_profile called")

    monkeypatch.setattr(primescan, "density_profile", refuse)
    code = main(["primes", "--c", "1", "--cutoffs", "100000", "--fpp-depth", "-2"])
    assert code == 1
    assert capsys.readouterr().err == "error: depth must be >= 1\n"


def test_primes_fpp_table_matches_fpp_beyond_exact(capsys):
    _, scan = run_cli(capsys, "primes", "--c", "1", "--cutoffs", "100", "--fpp-depth", "20")
    _, table = run_cli(capsys, "fpp", "--depth", "20")
    fpp = json.loads(scan)["result"]["fpp"]
    assert [row["n"] for row in fpp] == list(range(1, 21))
    assert fpp == json.loads(table)["result"]["levels"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["classify", "--c", "-1", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["result"]["verdict"] == "Exceptional"


def test_output_file_that_cannot_be_opened_is_an_error(tmp_path, capsys):
    code = main(["fpp", "--depth", "1", "--out", str(tmp_path / "missing" / "report.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_fpp_depth_rejects_csv(capsys):
    code = main(["primes", "--c", "1", "--coding", "|1", "--cutoffs", "100", "--fpp-depth", "2", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--fpp-depth" in captured.err and "--format csv" in captured.err


@pytest.mark.parametrize("fpp_depth", [[], ["--fpp-depth", "3"]], ids=["scan", "fpp_depth"])
def test_primes_over_cap_exits_inconclusive(capsys, monkeypatch, fpp_depth):
    # p = 101 needs more than 4 walker states (see TestProfiles.test_walker_budget).
    monkeypatch.setattr(primescan, "density_profile", functools.partial(density_profile, max_states=4))
    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--cutoffs", "1000,2000", *fpp_depth)
    assert json.loads(out)["result"]
    assert code == 2


@pytest.mark.parametrize("fpp_depth", [[], ["--fpp-depth", "3"]], ids=["scan", "fpp_depth"])
@pytest.mark.parametrize("a0,normalized", [("3/3", "1"), ("0.5", "1/2")])
def test_primes_reports_a0_once_normalized(capsys, fpp_depth, a0, normalized):
    code, out = run_cli(capsys, "primes", "--c", "-1; 3", "--coding", "2|1", "--a0", a0, "--cutoffs", "100", *fpp_depth)
    report = json.loads(out)
    assert code == 0
    assert report["config"]["a0"] == normalized
    if not fpp_depth:
        assert report["result"]["a0"] == normalized


@pytest.mark.parametrize("form", [["--format", "json"], ["--format", "csv"], ["--fpp-depth", "3"]])
@pytest.mark.parametrize("max_states", [1_000_000, 4], ids=["decided", "over_cap"])
def test_primes_bytes_do_not_depend_on_the_cpus(capsys, monkeypatch, form, max_states):
    # Above the pool threshold, so with two usable CPUs the scan runs in worker
    # processes; with max_states=4 some primes are over the cap and both runs exit 2.
    monkeypatch.setattr(primescan, "density_profile", functools.partial(density_profile, max_states=max_states))
    argv = ["primes", "--c", "1", "--coding", "|1", "--a0", "1/6", "--cutoffs", "1000,24999", *form]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        runs.append(run_cli(capsys, *argv))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if max_states == 4 else 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--c", "-1"],
        ["orbit", "--c", "-1"],
        ["certify", "--c", "1"],
        ["fpp"],
        ["simulate"],
        ["sample", "--weights", "1/2,1/2"],
    ],
)
def test_format_only_where_honoured(argv):
    # Only census and primes write CSV; the JSON-only commands take no --format.
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["--format", "json"])


def test_orbit_fractional_point_finishes(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "orbit", "--c", "-1", "--point", "1/2")
    assert time.perf_counter() - start < 5
    result = json.loads(out)["result"]
    assert result["status"] == "escaping"
    assert result["contains_finite_orbit_point"] == "no"
    assert code == 0


@pytest.mark.parametrize("point", ["0", "1/3"])
def test_orbit_escape_survives_large_denominators(capsys, point):
    # |v| clears the escape floor only after the denominators pass 10^60:
    # 1/3, 4/9, ..., v8 ~ 1.41 with denominator 3^128.
    code, out = run_cli(capsys, "orbit", "--c", "1/3", "--point", point)
    result = json.loads(out)["result"]
    assert result["status"] == "escaping"
    assert result["contains_finite_orbit_point"] == "no"
    assert code == 0


def test_orbit_qt_integral_point(capsys):
    code, out = run_cli(capsys, "orbit", "--ring", "qt", "--c", "t", "--point", "0")
    payload = json.loads(out)
    assert payload["config"]["point"] == "0"
    assert payload["result"]["status"] == "escaping"
    assert code == 0
    # 0 -> t, -1 -> 1+t, 0: t and 1+t reach degree 2, where the degree
    # doubles forever, so the walk ends and no point of it has a finite orbit.
    code, out = run_cli(capsys, "orbit", "--ring", "qt", "--c", "t; -1", "--point", "0", "--size-cap", "16")
    result = json.loads(out)["result"]
    assert (result["status"], result["contains_finite_orbit_point"]) == ("escaping", "no")
    assert code == 0
    # From 2, x^2 - 1 gives integers without bound and x^2 + t values of
    # degree 1, so the walk stops at integers beyond max|integer c| + 1.
    code, out = run_cli(capsys, "orbit", "--ring", "qt", "--c", "t; -1", "--point", "2", "--size-cap", "16")
    result = json.loads(out)["result"]
    assert (result["status"], result["contains_finite_orbit_point"]) == ("escaping", "no")
    assert code == 0


@pytest.mark.parametrize(
    "c,point,status,answer",
    [("0", "1", "closed", "yes"), ("0", "2", "escaping", "no"), ("5", "4", "escaping", "no")]
    + [(c, p, "escaping", "no") for c in ("t; -1", "t; 0") for p in ("2", "-2", "3", "-3")]
    + [("t^2; -2", "3", "escaping", "no"), ("t^2; -2", "-3", "escaping", "no")],
)
def test_orbit_qt_integer_constants(capsys, c, point, status, answer):
    # With integer constants, integers beyond max|c| + 1 grow as over Q.  So
    # they do beside constants of positive degree, where max|c| is over the
    # integer constants (0 among them) and no value has a finite orbit.
    code, out = run_cli(capsys, "orbit", "--ring", "qt", "--c", c, "--point", point)
    result = json.loads(out)["result"]
    assert (result["status"], result["contains_finite_orbit_point"]) == (status, answer)
    assert code == 0


def test_orbit_huge_constant_walks_only_the_orbit(capsys, monkeypatch):
    # The escape window [-B, B] has B = 10^400 + 1; enumerating it never ends.
    def refuse(gens):
        raise AssertionError("finite orbit points enumerated")

    monkeypatch.setattr(dynamics, "finite_orbit_points", refuse)
    code, out = run_cli(capsys, "orbit", "--c", "1e400", "--point", "0")
    result = json.loads(out)["result"]
    assert (result["contains_finite_orbit_point"], result["witness"]) == ("no", None)
    assert code == 0


def test_orbit_point_walks_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return closed_walk(*args)

    closed_walk = dynamics._closed_walk
    monkeypatch.setattr(dynamics, "_closed_walk", counted)
    code, out = run_cli(capsys, "orbit", "--set", "x^2+x; x^2-6x", "--point", "2")
    result = json.loads(out)["result"]
    assert (result["status"], result["contains_finite_orbit_point"], result["witness"]) == ("unknown", "yes", "0")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("ring", ["q", "qt"])
@pytest.mark.parametrize("cap", [["--size-cap", "0"], ["--height-cap", "0"], ["--size-cap", "-3"]])
def test_orbit_caps_below_one_are_errors(capsys, ring, cap):
    code = main(["orbit", "--ring", ring, "--c", "-2", "--point", "0", *cap])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: size and height caps must be at least 1\n"


def test_orbit_general_maps_over_qt_are_an_error(capsys):
    code = main(["orbit", "--ring", "qt", "--set", "x^2+x; x^2-2x", "--point", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: general maps work over Q only")


def test_orbit_qt_fractional_point_is_an_error(capsys):
    code = main(["orbit", "--ring", "qt", "--c", "t; -1", "--point", "1/2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_negative_option_values_after_equals(capsys):
    # "-1/2" and "-3;2" look like option names to argparse; "--opt=value" does not.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["orbit", "--c", "-1; -2", "--point", "-1/2"])
    code, out = run_cli(capsys, "orbit", "--c=-3;2", "--point=-1/2")
    assert json.loads(out)["config"]["point"] == "-1/2"
    assert code == 0


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (RuntimeError("gcd does not divide its argument"), 1, "error: gcd does not divide"),
        (MemoryError(), 2, "inconclusive:"),
    ],
    ids=["runtime_error", "memory_error"],
)
def test_internal_failures_exit_without_traceback(capsys, monkeypatch, exc, code, prefix):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_certify", failing)
    assert main(["certify", "--ring", "qt", "--c", "t"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("point,orbit", [("3/2", ["3/2"]), ("-3/2", ["-3/2", "3/2"])])
def test_orbit_capped_search_finds_a_finite_orbit_point(capsys, point, orbit):
    # 3/2 is a fixed point of x^2-3/4 and -3/2 maps onto it, so the first
    # point of the walk answers yes.
    code, out = run_cli(capsys, "orbit", "--c=-3/4", f"--point={point}")
    result = json.loads(out)["result"]
    assert result == {"status": "closed", "orbit": orbit, "contains_finite_orbit_point": "yes", "witness": point}
    assert code == 0


OUT_COMMANDS = [
    ["classify", "--c", "-2; -6"],
    ["orbit", "--c", "-2", "--coding", "|1", "--depth", "3"],
    ["orbit", "--ring", "qt", "--c", "t; -1", "--point", "0", "--size-cap", "16"],
    ["certify", "--c", "1", "--coding", "|1", "--depth", "4"],
    ["census", "--d", "2", "--s", "2", "--b-list", "1,2", "--variant", "even"],
    ["census", "--d", "2", "--s", "2", "--b-list", "1,2", "--variant", "even", "--format", "csv"],
    ["fpp", "--depth", "20"],
    ["simulate", "--depth", "4", "--trials", "100"],
    ["sample", "--weights", "1/4,3/4", "--length", "4", "--samples", "10"],
    ["primes", "--c", "1", "--cutoffs", "100,1000"],
    ["primes", "--c", "1", "--cutoffs", "100,1000", "--format", "csv"],
    ["primes", "--c", "1", "--cutoffs", "100,1000", "--fpp-depth", "3"],
]


def test_out_commands_cover_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in OUT_COMMANDS} == set(subparsers.choices)


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: "_".join(argv[:1] + argv[-1:]))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "report"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
