import functools
import json
import time

import jsonschema
import pytest

import quadorbit.cli as cli
import quadorbit.process as process
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


def test_classify_exceptional(capsys):
    code, out = run_cli(capsys, "classify", "--c", "-2; -6")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("envelope.schema.json"))
    assert payload["result"]["verdict"] == "Exceptional"
    assert payload["result"]["witness_point"] == "-2"


def test_classify_plain(capsys):
    code, out = run_cli(capsys, "classify", "--c", "1")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "NotObstructed"


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


def test_primes_json_schema(capsys):
    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "100")
    payload = json.loads(out)
    jsonschema.validate(payload["result"], _schema("prime_scan.schema.json"))


def test_simulate_schema_and_determinism(capsys):
    args = ["simulate", "--depth", "6", "--trials", "4000", "--seed", "9"]
    code, out1 = run_cli(capsys, *args, "--workers", "1")
    assert code == 0
    payload = json.loads(out1)
    jsonschema.validate(payload["result"], _schema("process_report.schema.json"))
    _, out8 = run_cli(capsys, *args, "--workers", "8")
    assert out1 == out8


def test_sample(capsys):
    code, out = run_cli(capsys, "sample", "--weights", "1/4,3/4", "--length", "8", "--samples", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["result"]["first_index_counts"].values()) == 100


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_sample_certify_depth_below_one_is_an_error(capsys, depth):
    # 0 is a depth like any other, not a stand-in for --length.
    argv = ["sample", "--weights", "1/2,1/2", "--length", "3", "--samples", "2", "--seed", "1"]
    code = main([*argv, "--c", "1; 2", "--certify", "1", "--certify-depth", depth])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 1\n"


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


def test_fpp_enclosures_beyond_exact(capsys):
    code, out = run_cli(capsys, "fpp", "--depth", "26")
    payload = json.loads(out)
    levels = payload["result"]["levels"]
    assert "fpp_num" in levels[0]
    assert "lower_num" in levels[-1]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["classify", "--c", "-1", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["result"]["verdict"] == "Exceptional"


def test_fpp_depth_rejects_csv(capsys):
    code = main(["primes", "--c", "1", "--coding", "|1", "--cutoffs", "100", "--fpp-depth", "2", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--fpp-depth" in captured.err and "--format csv" in captured.err


@pytest.mark.parametrize("fpp_depth", [[], ["--fpp-depth", "3"]], ids=["scan", "fpp_depth"])
def test_primes_over_cap_exits_inconclusive(capsys, monkeypatch, fpp_depth):
    # p = 1987 needs more than 4 walker states (see TestProfiles.test_walker_budget).
    monkeypatch.setattr(cli, "density_profile", functools.partial(density_profile, max_states=4))
    code, out = run_cli(capsys, "primes", "--c", "1", "--coding", "|1", "--cutoffs", "1000,2000", *fpp_depth)
    assert json.loads(out)["result"]
    assert code == 2


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
    code, out = run_cli(capsys, "orbit", "--ring", "qt", "--c", "t; -1", "--point", "0", "--size-cap", "16")
    assert json.loads(out)["result"]["status"] == "unknown"
    assert code == 2


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


def test_bad_environment_integer_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("QUADORBIT_ORBIT_POINTS", "abc")
    assert main(["orbit", "--c", "-2", "--point", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: QUADORBIT_ORBIT_POINTS must be an integer, got 'abc'\n"
