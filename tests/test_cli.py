"""Command line interface: subcommands, formats, exit codes, files."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from kohnmult import catlin_dangelo, cli, groebner, kohn_effective3d, kohn_full_radical
from kohnmult.kohn_effective3d import run_effective3d
from kohnmult.multiplier_core import Derivation, SpecialDomain


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _domain_file(tmp_path, gens, name="domain.json"):
    return _write(
        tmp_path, name, {"variables": ["z1", "z2"], "generators": gens}
    )


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# -- multiplicity ------------------------------------------------------------

def test_multiplicity_json(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^2"])
    code, out = _run(capsys, ["multiplicity", dom])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "kohn-report/1"
    assert data["kind"] == "multiplicity"
    assert data["multiplicity"] == 4
    assert data["origin_isolated"] is True
    assert len(data["staircase"]) == 4


def test_multiplicity_table(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^2"])
    code, out = _run(capsys, ["multiplicity", dom, "--format", "table"])
    assert code == 0
    assert "multiplicity" in out and "4" in out


def test_multiplicity_infinite(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1*z2"])
    code, out = _run(capsys, ["multiplicity", dom])
    assert code == 0
    data = json.loads(out)
    assert data["multiplicity"] == "infinite"
    assert data["staircase"] is None


# -- full-radical ------------------------------------------------------------

def test_full_radical_linear(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    code, out = _run(capsys, ["full-radical", dom])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "kohn-trace/1"
    assert data["terminated"] is True
    assert data["order_bound"] == "1/4"
    assert [r["p"] for r in data["rounds"]] == [1]


def test_full_radical_cap_exit(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^3 + z2*z1^9"])
    code, out = _run(
        capsys, ["full-radical", dom, "--power-cap", "8"]
    )
    assert code == 3


def test_full_radical_deformed(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^3 + z2*z1^4"])
    code, out = _run(capsys, ["full-radical", dom])
    assert code == 0
    data = json.loads(out)
    assert [r["p"] for r in data["rounds"]] == [1, 6, 1]
    assert data["order_bound"] == "1/96"



def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; each call must still see only
    # its own arguments and defaults
    dom = _domain_file(tmp_path, ["z1^2", "z2^3 + z2*z1^9"])
    code, out = _run(capsys, ["full-radical", dom, "--power-cap", "8"])
    assert code == 3 and json.loads(out)["caps"]["power_cap"] == 8
    code, out = _run(capsys, ["full-radical", dom])
    assert code == 0 and json.loads(out)["caps"]["power_cap"] == 64
    with pytest.raises(SystemExit) as usage:
        cli.main(["full-radical", dom, "--power-cap", "eight"])
    assert usage.value.code == 2
    capsys.readouterr()
    code, out = _run(capsys, ["multiplicity", dom])
    assert code == 0 and json.loads(out)["kind"] == "multiplicity"
    assert cli.build_parser() is cli.build_parser()


# -- effective3d and verify --------------------------------------------------

def test_effective3d_writes_verifiable_certificate(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    cert_path = str(tmp_path / "cert.json")
    code, out = _run(
        capsys, ["effective3d", dom, "--out", cert_path]
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["kind"] == "effective3d"
    assert envelope["final_order"] == "1/4"
    assert os.path.exists(cert_path)
    assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]

    saved = json.loads(open(cert_path).read())
    assert saved["schema"] == "kohn-cert/1"

    code2, out2 = _run(
        capsys, ["verify", dom, cert_path]
    )
    assert code2 == 0
    assert "certificate ok" in out2


def test_effective3d_report_names_the_written_certificate_by_hash(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    code, out = _run(capsys, ["effective3d", dom])
    assert code == 0
    inline = json.loads(out)
    assert inline["certificate"]["schema"] == "kohn-cert/1"
    assert "certificate_sha256" not in inline

    cert_path = tmp_path / "cert.json"
    code, out = _run(capsys, ["effective3d", dom, "--out", str(cert_path)])
    assert code == 0
    report = json.loads(out)
    assert "certificate" not in report
    written = cert_path.read_bytes()
    assert report["certificate_sha256"] == hashlib.sha256(written).hexdigest()
    assert json.loads(written) == inline["certificate"]
    slim = {k: v for k, v in report.items() if k != "certificate_sha256"}
    assert slim == {k: v for k, v in inline.items() if k != "certificate"}


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    cert_path = str(tmp_path / "cert.json")
    _run(capsys, ["effective3d", dom, "--out", cert_path])
    data = json.loads(open(cert_path).read())
    for step in data["steps"]:
        if step["rule"] == "det":
            step["payload"] = ["z1"]
            break
    open(cert_path, "w").write(json.dumps(data))
    code, out = _run(
        capsys, ["verify", dom, cert_path]
    )
    assert code == 1
    assert "rejected" in out


def test_verify_rejects_foreign_domain(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    other = _domain_file(tmp_path, ["z1^2", "z2^2"], name="other.json")
    cert_path = str(tmp_path / "cert.json")
    _run(capsys, ["effective3d", dom, "--out", cert_path])
    code, out = _run(
        capsys, ["verify", other, cert_path]
    )
    assert code == 1


@pytest.fixture(scope="module")
def square_certificate():
    """Domain and certificate JSON of the q=4 run on z1^2, z2^2 (seed 0)."""
    dom = SpecialDomain.from_strings(("z1", "z2"), ["z1^2", "z2^2"])
    return dom.to_json(), run_effective3d(dom, seed=0).certificate.to_json()


def _order_1_over_0(cert):
    cert["steps"][-1]["order"] = "1/0"
    return cert


def _order_float(cert):
    cert["steps"][-1]["order"] = "__FLOAT__"  # written as the JSON number 1e400
    return cert


def _fractional_id(cert):
    cert["steps"][3]["id"] = 3.7
    return cert


def _inputs_as_string(cert):
    step = next(s for s in cert["steps"] if len(s["inputs"]) > 1)
    step["inputs"] = "".join(str(i) for i in step["inputs"])
    return cert


def _boolean_root_exponent(cert):
    step = next(s for s in cert["steps"] if s["rule"] == "root" and s["aux"]["m"] == 1)
    step["aux"]["m"] = True
    return cert


def _repeated_variable(cert):
    cert["domain"]["variables"].append("z1")
    return cert


def _variables_as_string(cert):
    # read as a list this would be the one-letter names z and w
    cert["domain"] = {"variables": "zw", "generators": ["z^2", "w^2"]}
    return cert


def _payload_as_string(cert):
    cert["steps"][0]["payload"] = cert["steps"][0]["payload"][0]
    return cert


def _certificate_in_a_list(cert):
    return [cert]


@pytest.mark.parametrize(
    "mutate, codes",
    [
        (_order_1_over_0, (1, 2)),
        (_order_float, (1, 2)),
        (_fractional_id, (1, 2)),
        (_inputs_as_string, (1, 2)),
        (_boolean_root_exponent, (1, 2)),
        (_repeated_variable, (2,)),
        (_variables_as_string, (2,)),
        (_payload_as_string, (2,)),
        (_certificate_in_a_list, (2,)),
    ],
    ids=["order-1/0", "order-1e400", "id-3.7", "inputs-string", "m-true",
         "variables-repeated", "variables-string", "payload-string", "json-array"],
)
def test_verify_rejects_mistyped_certificate_fields(
    tmp_path, capsys, square_certificate, mutate, codes
):
    domain, cert = square_certificate
    cert = mutate(json.loads(json.dumps(cert)))
    dom = _write(tmp_path, "domain.json", domain)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert).replace('"__FLOAT__"', "1e400"))
    code = cli.main(["verify", dom, str(cert_path)])
    captured = capsys.readouterr()
    assert code in codes
    assert "certificate ok" not in captured.out
    assert "internal error" not in captured.err


def _step_without_rule(cert):
    del cert["steps"][2]["rule"]
    return cert


def _step_as_number(cert):
    cert["steps"][2] = 7
    return cert


def _steps_as_object(cert):
    cert["steps"] = {"a": 1}
    return cert


def _steps_as_empty_object(cert):
    cert["steps"] = {}
    return cert


def _steps_empty(cert):
    cert["steps"] = []
    return cert


def _domain_as_number(cert):
    cert["domain"] = 5
    return cert


def _domain_without_generators(cert):
    del cert["domain"]["generators"]
    return cert


@pytest.mark.parametrize(
    "mutate, code, message",
    [
        (_step_without_rule, 2, "input error: step 2 has no field 'rule'"),
        (_step_as_number, 2, "input error: step 2 must be an object"),
        (_steps_as_object, 2, "input error: certificate steps must be a list of objects"),
        (_steps_as_empty_object, 2, "input error: certificate steps must be a list of objects"),
        (_steps_empty, 1, ""),
        (_domain_as_number, 2, "input error: certificate domain must be an object"),
        (_domain_without_generators, 2, "input error: generators must be a list of strings"),
    ],
    ids=["no-rule", "step-7", "steps-object", "steps-empty-object", "steps-empty-list",
         "domain-5", "domain-no-generators"],
)
def test_verify_names_the_malformed_part_of_a_certificate(
    tmp_path, capsys, square_certificate, mutate, code, message
):
    domain, cert = square_certificate
    cert = mutate(json.loads(json.dumps(cert)))
    dom = _write(tmp_path, "domain.json", domain)
    got = cli.main(["verify", dom, _write(tmp_path, "cert.json", cert)])
    captured = capsys.readouterr()
    assert got == code
    assert captured.err.strip() == message
    if code == 1:
        assert captured.out.startswith("certificate rejected at preamble")


def test_verify_rejects_deeply_nested_payload_at_its_step(tmp_path, capsys, square_certificate):
    domain, cert = square_certificate
    cert = json.loads(json.dumps(cert))
    cert["steps"][1]["payload"] = ["(" * 600 + cert["steps"][1]["payload"][0] + ")" * 600]
    dom = _write(tmp_path, "domain.json", domain)
    cert_path = _write(tmp_path, "cert.json", cert)
    code, out = _run(capsys, ["verify", dom, cert_path])
    assert code == 1
    assert out.startswith("certificate rejected at step 1:")
    assert "nested deeper than" in out


def test_verify_rejects_an_oversized_power_in_a_payload(tmp_path, capsys, square_certificate):
    domain, cert = square_certificate
    cert = json.loads(json.dumps(cert))
    cert["steps"][1]["payload"] = ["(1+z1+z2)^200"]
    dom = _write(tmp_path, "domain.json", domain)
    cert_path = _write(tmp_path, "cert.json", cert)
    code, out = _run(capsys, ["verify", dom, cert_path])
    assert code == 1
    assert out.startswith("certificate rejected at step 1:")
    assert "power may expand to more than 10000 terms (at position 9)" in out


def test_verify_rejects_an_oversized_number_in_a_payload(tmp_path, capsys, square_certificate):
    # 11 bytes that ask for a 400 MB integer, refused before it is built
    domain, cert = square_certificate
    cert = json.loads(json.dumps(cert))
    cert["steps"][1]["payload"] = ["9^999999999"]
    dom = _write(tmp_path, "domain.json", domain)
    cert_path = _write(tmp_path, "cert.json", cert)
    start = time.perf_counter()
    code, out = _run(capsys, ["verify", dom, cert_path])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out.startswith("certificate rejected at step 1:")
    assert "number may exceed 65536 bits (at position 1)" in out


# products of parenthesised powers that took 5 to 12 s to expand
COSTLY_PRODUCTS = [
    (["z1", "z2"], "(1+z1+z2)^100*(1+z1+z2)^100", "power may cost more than"),
    (["z1", "z2"], "(1+z1+z2)^60*(1+z1+z2)^60*(1+z1+z2)^60", "product may cost more than"),
    (["z1"], "(1+z1)^4000", "power may cost more than"),
]


@pytest.mark.parametrize("variables, text, message", COSTLY_PRODUCTS)
def test_verify_rejects_a_costly_product_in_a_payload(tmp_path, capsys, variables, text, message):
    dom = SpecialDomain.from_strings(variables, variables)
    der = Derivation(dom)
    der.init_premultipliers()
    cert = der.cert.to_json()
    cert["steps"][0]["payload"] = [text]
    start = time.perf_counter()
    code, out = _run(capsys, ["verify", _write(tmp_path, "domain.json", dom.to_json()),
                              _write(tmp_path, "cert.json", cert)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out.startswith("certificate rejected at step 0: payload parse error:")
    assert message in out


@pytest.mark.parametrize("variables, text, message", COSTLY_PRODUCTS)
def test_costly_product_in_a_domain_file_is_an_input_error(tmp_path, capsys, variables, text, message):
    dom = _write(tmp_path, "domain.json", {"variables": variables, "generators": [text]})
    start = time.perf_counter()
    code = cli.main(["multiplicity", dom])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("input error:")
    assert message in err


@pytest.mark.parametrize("payload", ["z1", "2"])
def test_verify_rejects_a_huge_root_exponent_at_its_step(tmp_path, capsys, square_certificate, payload):
    # payload^m is never built: z1 fails the degree bound, 2 the cofactor sum
    domain, cert = square_certificate
    cert = json.loads(json.dumps(cert))
    step = next(s for s in cert["steps"] if s["rule"] == "root")
    step["payload"] = [payload]
    step["aux"]["m"] = 10**9
    dom = _write(tmp_path, "domain.json", domain)
    cert_path = _write(tmp_path, "cert.json", cert)
    start = time.perf_counter()
    code, out = _run(capsys, ["verify", dom, cert_path])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out.startswith(f"certificate rejected at step {step['id']}: cofactor identity")


def test_effective3d_rejects_degenerate_family(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^3 + z2*z1^4"])
    code, _ = _run(capsys, ["effective3d", dom])
    assert code == 3


def test_effective3d_rejects_a_zero_away_from_the_origin(tmp_path, capsys):
    # V(z1 - z1^2, z2) = {0, (1, 0)}: the quotient is finite (q = 2), yet the
    # origin is not the only common zero
    dom = _domain_file(tmp_path, ["z1 - z1^2", "z2"])
    code = cli.main(["effective3d", dom])
    assert code == 2
    assert "origin as an isolated zero" in capsys.readouterr().err


def test_effective3d_rejects_failing_skoda_draws_quickly(tmp_path, capsys):
    # V(z1^2, z2^2 + z1*z2^2) = {0}, but (h2_hat, dh1/dw1) has zeros away from
    # the origin where h1 does not vanish, so every draw fails the Skoda
    # membership; each is rejected on normal forms before h1^(3q^2) is divided
    dom = _domain_file(tmp_path, ["z1^2", "z2^2 + z1*z2^2"])
    start = time.perf_counter()
    code = cli.main(["effective3d", dom])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "Skoda membership h1^(3q^2)" in capsys.readouterr().err
    assert elapsed < 30


# -- catlin-dangelo ----------------------------------------------------------

def test_catlin_dangelo_both_modes(tmp_path, capsys):
    code, out = _run(
        capsys, ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "catlin-dangelo"
    assert data["multiplicity"] == 6
    assert data["differentiation_counts"] == {
        "full_radical": 4, "effective": 5
    }


def test_catlin_dangelo_effective_mode(tmp_path, capsys):
    code, out = _run(
        capsys,
        ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "4",
         "--mode", "effective"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "effective-chain"
    assert data["final_order"] == "1/1024"


def test_catlin_dangelo_rejects_bad_params(tmp_path, capsys):
    code, _ = _run(
        capsys, ["catlin-dangelo", "--M", "3", "--N", "3", "--K", "2"]
    )
    assert code == 2


def test_catlin_dangelo_cap_exit(tmp_path, capsys):
    code, _ = _run(
        capsys,
        ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "9",
         "--mode", "ineffective", "--power-cap", "8"],
    )
    assert code == 3


def test_catlin_dangelo_capped_run_exits_3_in_both_modes(capsys):
    # the least power p1 >= M+K-2 = 5 lies above the cap of 3: a capped
    # run, not a verification failure, whichever halves run
    for mode in ("ineffective", "both"):
        code, out = _run(
            capsys,
            ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "5",
             "--mode", mode, "--power-cap", "3"],
        )
        assert code == 3, mode
        data = json.loads(out)
        trace = data["trace"] if mode == "both" else data
        assert trace["p1_exact"] is None, mode
        assert trace["p1_lower"] == 5, mode


def test_catlin_dangelo_capped_table_prints_the_benchmark_bound(capsys):
    code, out = _run(
        capsys,
        ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "5",
         "--mode", "ineffective", "--power-cap", "3", "--format", "table"],
    )
    assert code == 3
    assert "p1 lower bound    5" in out


# -- matrix-lab --------------------------------------------------------------

def test_matrix_lab_triangular_report(tmp_path, capsys):
    mat = _write(
        tmp_path,
        "mat.json",
        {
            "vars": ["z1", "z2", "z3"],
            "entries": [
                ["z1", "z3", "0"],
                ["0", "z2", "z1"],
                ["0", "0", "z3"],
            ],
        },
    )
    code, out = _run(capsys, ["matrix-lab", mat])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "triangular-comparison"
    assert data["narration_matches"] is False


def test_matrix_lab_general_report(tmp_path, capsys):
    mat = _write(
        tmp_path,
        "mat.json",
        {"vars": ["z1", "z2"], "entries": [["z1", "z2"], ["z2", "z1"]]},
    )
    code, out = _run(capsys, ["matrix-lab", mat])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "procedure-comparison"
    assert data["verdict"] == "reducible"


def test_matrix_lab_rejects_non_square(tmp_path, capsys):
    mat = _write(
        tmp_path,
        "mat.json",
        {"vars": ["z1", "z2"], "entries": [["z1", "z2"]]},
    )
    code, _ = _run(capsys, ["matrix-lab", mat])
    assert code == 2


@pytest.mark.parametrize(
    "names, entries",
    [
        (["z1", "z2"], []),
        (["z1", "z2"], [[]]),
        (["z1"], ["1"]),  # the string row must not read as the 1x1 matrix (1)
        (["z1", "z2"], "z1"),
        (["z1", "z2"], [["z1", "z2"], ["z1"]]),
        (["z1", "z1"], [["z1", "z1"], ["z1", "z1"]]),
    ],
    ids=["empty", "empty-row", "row-not-list", "entries-not-list", "ragged", "vars-repeated"],
)
def test_matrix_lab_malformed_entries_are_input_errors(tmp_path, capsys, names, entries):
    mat = _write(tmp_path, "mat.json", {"vars": names, "entries": entries})
    code = cli.main(["matrix-lab", mat])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


# -- error handling ----------------------------------------------------------

@pytest.mark.parametrize(
    "data, message",
    [
        ({"variables": ["z1", "z1"], "generators": ["z1^2"]}, "list of distinct names"),
        ({"variables": "zw", "generators": ["z^2", "w^2"]}, "list of distinct names"),
        ({"variables": ["x", "y z"], "generators": ["x^2"]}, "list of distinct names"),
        ({"variables": ["z"], "generators": "zz"}, "generators must be a list of strings"),
        ({"variables": ["z1", "z2"], "generators": ["z1", 2]}, "generators must be a list"),
        ([{"variables": ["z1", "z2"], "generators": ["z1", "z2"]}], "JSON object"),
        ({"variables": ["z1", "z2"], "generators": ["(" * 600 + "z1" + ")" * 600, "z2"]},
         "parentheses nested deeper than"),
        ({"variables": ["z1", "z2", "z3"], "generators": ["(1+z1+z2+z3)^60", "z2", "z3"]},
         "power may expand to more than"),
        ({"variables": ["z1", "z2"], "generators": ["9^999999999*z1", "z2"]},
         "number may exceed 65536 bits (at position 1)"),
    ],
    ids=["variables-repeated", "variables-string", "variable-not-a-name",
         "generators-string", "generator-not-a-string", "json-array", "nested-parentheses",
         "oversized-power", "oversized-number"],
)
def test_malformed_domain_files_are_input_errors(tmp_path, capsys, data, message):
    dom = _write(tmp_path, "domain.json", data)
    code = cli.main(["multiplicity", dom])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:")
    assert message in err



@pytest.mark.parametrize("path", ["nope.json", "file/x"], ids=["missing", "under-a-file"])
def test_missing_file_is_input_error(tmp_path, capsys, path):
    (tmp_path / "file").write_text("{}")
    code = cli.main(["multiplicity", str(tmp_path / path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, ["multiplicity", str(bad)])
    assert code == 2


def test_bad_polynomial_is_input_error(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1 +- 3"])
    code, _ = _run(capsys, ["multiplicity", dom])
    assert code == 2


def test_out_files_are_written_atomically(tmp_path, capsys):
    dom = _domain_file(tmp_path, ["z1^2", "z2^2"])
    out_path = str(tmp_path / "report.json")
    code, _ = _run(
        capsys, ["multiplicity", dom, "--out", out_path]
    )
    assert code == 0
    data = json.loads(open(out_path).read())
    assert data["multiplicity"] == 4
    assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]


@pytest.mark.parametrize(
    "argv",
    [["full-radical", "DOMAIN"], ["effective3d", "DOMAIN"], ["multiplicity", "DOMAIN"],
     ["catlin-dangelo", "--M", "2", "--N", "3", "--K", "3"]],
    ids=["full-radical", "effective3d", "multiplicity", "catlin-dangelo"],
)
@pytest.mark.parametrize(
    "out", ["missing/out.json", "file/out.json", "folder", "locked/out.json"],
    ids=["missing-directory", "under-a-file", "a-directory", "unwritable-directory"],
)
def test_unwritable_out_is_an_input_error_before_any_computation(
    tmp_path, capsys, monkeypatch, argv, out
):
    def engine(*_args, **_kwargs):
        raise AssertionError("the engine ran before --out was checked")

    for module, name in [(kohn_full_radical, "run_full_radical"),
                         (kohn_effective3d, "run_effective3d"),
                         (catlin_dangelo, "run"), (groebner, "groebner_basis"),
                         (cli, "groebner_basis")]:
        monkeypatch.setattr(module, name, engine)
    (tmp_path / "file").write_text("{}")
    (tmp_path / "folder").mkdir()
    (tmp_path / "locked").mkdir()
    access = os.access
    monkeypatch.setattr(
        cli.os, "access",
        lambda path, mode: not path.endswith("locked") and access(path, mode),
    )
    dom = _domain_file(tmp_path, ["z1^2", "z2^2"])
    argv = [dom if a == "DOMAIN" else a for a in argv]
    code = cli.main([*argv, "--out", str(tmp_path / out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: cannot write")


# -- console entry point -----------------------------------------------------

def test_console_script_is_wired(tmp_path):
    dom = _domain_file(tmp_path, ["z1", "z2"])
    proc = subprocess.run(
        [sys.executable, "-m", "kohnmult.cli", "multiplicity", dom],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["multiplicity"] == 1
