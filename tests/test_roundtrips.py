import json

from quadorbit.algebra import parse_poly, render_poly
from quadorbit.cli import main
from quadorbit.dynamics import QT, GeneratorSet, SequenceCoding, semigroup_orbit


def test_set_roundtrip_over_q():
    g = GeneratorSet.parse("x^2-2; x^2-6")
    again = GeneratorSet.parse("; ".join(g.map_strings()))
    assert again.constants == g.constants


def test_critical_shorthand_roundtrip_qt():
    g = GeneratorSet.parse("t^4+5t; -(7t^4+3)", ring=QT)
    rendered = "; ".join(render_poly(c) for c in g.constants)
    again = GeneratorSet.parse(rendered, ring=QT)
    assert again.constants == g.constants


def test_coding_roundtrip():
    for text in ["|1", "1|2", "1,2|2,1", "|1,2,3"]:
        coding = SequenceCoding.parse(text)
        assert SequenceCoding.parse(coding.render()) == coding


def test_poly_parse_render_fixpoint():
    for text in ["7t^4+3", "-(7t^4+3)", "t^2-3t+2", "-t", "5"]:
        p = parse_poly(text)
        assert parse_poly(render_poly(p)) == p


def test_config_embedded_in_reports(capsys):
    main(["classify", "--c", "-2; -6"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"set": "{x^2-2, x^2-6}"}
    assert payload["tool"] == "quadorbit"
    assert payload["version"]


def test_orbit_cli_qt_ring(capsys):
    code = main(["orbit", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["critical_orbit"] == ["t", "t^2+t", "t^4+2t^3+t^2+t"]


def test_primes_fpp_comparison_cli(capsys):
    code = main(["primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "1000", "--fpp-depth", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["fpp"][-1] == {"n": 3, "fpp_num": 39, "fpp_den": 128}


def test_semigroup_orbit_qt_degree_growth():
    g = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
    status = semigroup_orbit(g, parse_poly("t^2+1"))
    assert status.kind == "escaping"


def test_orbit_over_q_escapes_whatever_the_size_cap(capsys):
    # {x^2, x^2-2} from 1/3: the denominator grows under both maps, so the
    # walk over Q ends at once and no cap can cut it.
    for cap in ("1", "64"):
        code = main(["orbit", "--c", "0; -2", "--point", "1/3", "--size-cap", cap])
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["status"], result["contains_finite_orbit_point"]) == ("escaping", "no")
        assert code == 0
