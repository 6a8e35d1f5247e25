import json
import os

import numpy as np
import pytest

import voltlift as vl
from voltlift import spectra, voltage
from voltlift.cli import run

from conftest import K2STAR_DOC

# bench seed 1's cube0: the cube graph (r = 8) over dihedral:32, undirected
CUBE_PATH = os.path.join(os.path.dirname(__file__), "data", "cube_dihedral32.json")
CUBE_VERIFY = ["verify", "--digraph", CUBE_PATH, "--group", "dihedral:32"]


@pytest.fixture()
def k2star_path(tmp_path):
    path = tmp_path / "k2star.json"
    path.write_text(json.dumps(K2STAR_DOC))
    return str(path)


def test_spectrum_text_output(k2star_path, capsys):
    code = run(
        ["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
         "--method", "repr", "--format", "text"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["3^1", "1^3", "0^4", "-1^3", "-3^1"]


@pytest.mark.parametrize("method", ["repr", "charsum", "bruteforce"])
def test_spectrum_json_all_methods(k2star_path, capsys, method):
    code = run(
        ["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
         "--method", method]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == method
    assert doc["order"] == 12
    mults = {round(e["re"]): e["mult"] for e in doc["eigenvalues"]}
    assert mults == {3: 1, 1: 3, 0: 4, -1: 3, -3: 1}


def test_verify_match(k2star_path, capsys):
    code = run(
        ["verify", "--digraph", k2star_path, "--group", "dihedral:3",
         "--format", "text"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "repr vs bruteforce: MATCH" in out
    assert "charsum vs repr: MATCH" in out


@pytest.mark.filterwarnings("ignore:power-sum degree")
def test_verify_cube_at_default_tol(capsys):
    # one irrep image has a 3-fold eigenvalue, which root recovery smears
    # by about eps**(1/3) = 6e-6; the charsum tolerance scales with that
    assert run(CUBE_VERIFY) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repr vs bruteforce"]["matched"]
    report = doc["charsum vs repr"]
    assert report["matched"] and report["root_multiplicity"] == 3
    assert report["worst_distance"] < report["tolerance"] < 1e-3


@pytest.mark.filterwarnings("ignore:power-sum degree")
def test_verify_cube_perturbed_charsum_root_is_mismatch(monkeypatch, capsys):
    roots = spectra.roots_from_power_sums
    calls = []

    def perturbed(p, *args):
        out = roots(p, *args)
        if not calls:
            out = out.copy()
            out.flat[0] += 1e-3
        calls.append(p.shape[-1])
        return out

    monkeypatch.setattr(spectra, "roots_from_power_sums", perturbed)
    assert run(CUBE_VERIFY) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["repr vs bruteforce"]["matched"]
    assert not doc["charsum vs repr"]["matched"]
    assert doc["charsum vs repr"]["worst_distance"] > 5e-4


@pytest.mark.filterwarnings("ignore:power-sum degree")
@pytest.mark.parametrize(
    "name, spec",
    [("k2star_dihedral3", "dihedral:3"), ("cube_dihedral32", "dihedral:32"),
     ("circ6_cyclic16", "cyclic:16")],
)
def test_verify_prints_the_library_reports(name, spec, capsys):
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    g = vl.build_builtin_group(spec)
    with open(path) as f:
        d = vl.parse_voltage_digraph(f.read(), g)
    reports = vl.verify(d, vl.builtin_irreps(g))
    assert list(reports) == ["repr vs bruteforce", "charsum vs repr"]
    argv = ["verify", "--digraph", path, "--group", spec]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        key: {"matched": report.matched, "worst_distance": report.worst_distance, **extra}
        for key, (report, extra) in reports.items()
    }
    assert run(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{key}: {report} at tol {extra['tolerance']:.1e}"
        for key, (report, extra) in reports.items()
    ]


def test_wrong_group_is_input_error(k2star_path, capsys):
    code = run(["spectrum", "--digraph", k2star_path, "--group", "cyclic:5"])
    assert code == 2
    assert "unknown voltage" in capsys.readouterr().err


def test_unknown_flag_exits_2(k2star_path):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--digraph", k2star_path, "--frobnicate"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    code = run(["spectrum", "--digraph", "/nonexistent.json", "--group", "cyclic:2"])
    assert code == 2


def test_lift_roundtrip_spectrum(k2star_path, tmp_path, capsys):
    # lift output re-read as a plain digraph must reproduce the spectrum
    lift_path = tmp_path / "lift.json"
    code = run(
        ["lift", "--digraph", k2star_path, "--group", "dihedral:3",
         "--out", str(lift_path)]
    )
    assert code == 0
    lifted = json.loads(lift_path.read_text())
    assert len(lifted["vertices"]) == 12
    plain = {
        "vertices": lifted["vertices"],
        "arcs": [
            {"from": a, "to": b, "voltage": "g^0"} for a, b in lifted["arcs"]
        ],
    }
    plain_path = tmp_path / "plain.json"
    plain_path.write_text(json.dumps(plain))
    code = run(
        ["spectrum", "--digraph", str(plain_path), "--group", "cyclic:1",
         "--method", "bruteforce", "--tol", "1e-7"]
    )
    assert code == 0
    brute = json.loads(capsys.readouterr().out)
    code = run(
        ["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
         "--method", "repr", "--tol", "1e-7"]
    )
    assert code == 0
    by_repr = json.loads(capsys.readouterr().out)

    def as_multiset(doc):
        return vl.cluster_spectrum(
            [
                complex(e["re"], e["im"])
                for e in doc["eigenvalues"]
                for _ in range(e["mult"])
            ],
            1e-7,
        )

    rep = vl.spectra_equal(as_multiset(brute), as_multiset(by_repr), 1e-7)
    assert rep.matched


def test_walks_oracle(k2star_path, capsys):
    code = run(
        ["walks", "--digraph", k2star_path, "--group", "dihedral:3",
         "--length", "2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_checked"] and doc["oracle_match"]
    aa = next(e for e in doc["entries"] if e["from"] == "a" and e["to"] == "a")
    assert aa["coeffs"] == {"r^0": 2, "r^1": 2, "r^2": 1}


def test_walks_exact_past_int64(k2star, k2star_path, capsys):
    # length-45 coefficients exceed 2**63 and must reach the JSON exactly
    code = run(
        ["walks", "--digraph", k2star_path, "--group", "dihedral:3",
         "--length", "45", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_checked"] and doc["oracle_match"]
    d3 = k2star.group
    power = vl.algebra_matrix_power(vl.associated_matrix(k2star), 45, d3)
    got = {
        (e["from"], e["to"], name): c for e in doc["entries"] for name, c in e["coeffs"].items()
    }
    want = {
        (k2star.vertices[u], k2star.vertices[v], d3.element_names[g]): power[u, v, g]
        for u in range(2) for v in range(2) for g in range(d3.order) if power[u, v, g]
    }
    assert got == want
    assert all(type(c) is int for c in got.values())
    assert max(got.values()) > 2**63


def test_walks_oracle_identity_not_first(tmp_path, capsys):
    # a custom group whose identity is element 1, not element 0
    group_path = tmp_path / "z2.json"
    group_path.write_text(json.dumps({"elements": ["a", "e"], "mul": [[1, 0], [0, 1]]}))
    digraph_path = tmp_path / "loop.json"
    digraph_path.write_text(json.dumps(
        {"vertices": ["v"], "arcs": [{"from": "v", "to": "v", "voltage": "a"}]}
    ))
    for length in range(4):
        code = run(["walks", "--digraph", str(digraph_path), "--group", str(group_path),
                    "--length", str(length)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["oracle_checked"] and doc["oracle_match"]
        assert doc["entries"][0]["coeffs"] == {"e" if length % 2 == 0 else "a": 1}


def test_default_tol_is_the_library_default(k2star_path, monkeypatch, capsys):
    received = []
    original = spectra.lift_spectrum_repr

    def spy(d, s, tol=None):
        received.append(tol)
        return original(d, s, tol)

    monkeypatch.setattr(spectra, "lift_spectrum_repr", spy)
    code = run(["spectrum", "--digraph", k2star_path, "--group", "dihedral:3"])
    assert code == 0
    assert received == [None]
    code = run(["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
                "--tol", "1e-7"])
    assert code == 0
    assert received == [None, 1e-7]


def test_library_key_error_is_not_an_input_error(k2star_path, monkeypatch, capsys):
    # the parsers raise only their own error types, so a KeyError from the
    # library is a bug: it must surface, not exit 2 as bad input
    def broken(*args, **kwargs):
        raise KeyError("library bug")

    monkeypatch.setattr(spectra, "lift_spectrum_repr", broken)
    with pytest.raises(KeyError, match="library bug"):
        run(["spectrum", "--digraph", k2star_path, "--group", "dihedral:3"])
    assert "input" not in capsys.readouterr().err


def test_validate(capsys):
    code = run(["validate", "--group", "dihedral:3", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "order 6" in out and "3 conjugacy classes" in out


def test_validate_bad_group_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["e", "a"], "mul": [[0, 0], [1, 1]]}))
    code = run(["validate", "--group", str(path)])
    assert code == 2
    assert "Latin square" in capsys.readouterr().err


def test_group_file_with_boolean_is_input_error(tmp_path, capsys):
    # [[false, 1], [1, 0]] would pass as an order-2 group if false became 0
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"elements": ["e", "a"], "mul": [[False, 1], [1, 0]]}))
    code = run(["validate", "--group", str(path)])
    assert code == 2
    assert "square array of integers" in capsys.readouterr().err


def test_json_output_deterministic(k2star_path, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = run(
            ["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
             "--out", str(p)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "doc",
    [
        [K2STAR_DOC],
        {"vertices": ["a", "b"], "arcs": [["a", "b", "r^0"]]},
        {"vertices": ["a", "b"], "arcs": [{"from": "a", "to": "b"}]},
    ],
)
def test_malformed_digraph_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run(["verify", "--digraph", str(path), "--group", "dihedral:3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("voltlift: error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, doc",
    [
        ("--irreps", {"dim": 1, "matrices": {}}),
        ("--irreps", [{"dim": 1, "matrices": {"r^0": [[[1, 0], [0]]]}}]),
        ("--chars", [["r^0"]]),
        ("--chars", {"classes": [["r^0"]], "rows": [[1, 0]]}),
    ],
)
def test_malformed_irreps_or_chars_is_input_error(k2star_path, tmp_path, capsys, flag, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run(["spectrum", "--digraph", k2star_path, "--group", "dihedral:3",
                "--method", "charsum" if flag == "--chars" else "repr", flag, str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("voltlift: error:") and "Traceback" not in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize(
    "command",
    [["spectrum", "--method", m] for m in ("repr", "charsum", "bruteforce")] + [["verify"]],
)
def test_non_finite_tol_is_input_error(k2star_path, capsys, command, tol):
    code = run(command + ["--digraph", k2star_path, "--group", "dihedral:3", "--tol", tol])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive and finite" in captured.err


def test_verify_inf_tol_cannot_hide_a_wrong_oracle(k2star_path, monkeypatch, capsys):
    # a bruteforce spectrum 5.5e2 off must fail verify; at tol inf every
    # value would cluster into one entry, so inf is refused instead
    original = spectra.lift_spectrum_bruteforce

    def shifted(d, tol=None):
        sp = original(d, tol)
        return vl.SpectrumMultiset(tuple((v + 550, m) for v, m in sp.entries))

    monkeypatch.setattr(spectra, "lift_spectrum_bruteforce", shifted)
    argv = ["verify", "--digraph", k2star_path, "--group", "dihedral:3"]
    assert run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["repr vs bruteforce"]["matched"]
    assert run(argv + ["--tol", "inf"]) == 2


@pytest.mark.parametrize("tol", ["1e3", "8", "6"])
@pytest.mark.parametrize(
    "command",
    [["spectrum", "--method", m] for m in ("repr", "charsum", "bruteforce")] + [["verify"]],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_tol_that_merges_the_spectrum_is_input_error(capsys, command, tol, fmt):
    # every cube eigenvalue lies within the max in-degree 3 of 0: at tol 1e3
    # spectrum printed 0^512 and verify printed MATCH, both exiting 0
    argv = command + ["--digraph", CUBE_PATH, "--group", "dihedral:32", "--tol", tol,
                      "--format", fmt]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "merges the whole spectrum" in captured.err
    if command == ["verify"]:
        # the benchmark's tolerance stays valid
        assert run(argv[:-4] + ["--tol", "1e-4"]) == 0


@pytest.mark.parametrize(
    "command, option",
    [(cmd, opt) for cmd in ("lift", "walks") for opt in ("--irreps", "--chars", "--tol")]
    + [("validate", "--tol")],
)
def test_unread_option_exits_2(k2star_path, tmp_path, command, option):
    argv = [command, "--group", "dihedral:3", "--out", str(tmp_path / "out.json")]
    if command != "validate":
        argv += ["--digraph", k2star_path]
    if command == "walks":
        argv += ["--length", "2"]
    assert run(argv) == 0
    value = "1e-9" if option == "--tol" else k2star_path
    with pytest.raises(SystemExit) as exc:
        run(argv + [option, value])
    assert exc.value.code == 2


def _clique_with_loops_doc(n_rot, r):
    # arc (i, j) for every ordered pair, loops included, with voltage
    # r^((i + 2j) mod n_rot) in dihedral:n_rot
    vertices = [f"v{i}" for i in range(r)]
    return {
        "vertices": vertices,
        "arcs": [
            {"from": vertices[i], "to": vertices[j], "voltage": f"r^{(i + 2 * j) % n_rot}"}
            for i in range(r) for j in range(r)
        ],
    }


def test_walks_oracle_catches_a_wrong_coefficient_at_the_cap(tmp_path, monkeypatch, capsys):
    # 4 vertices over dihedral:25: 200 lift vertices, the largest the oracle checks
    path = tmp_path / "clique.json"
    path.write_text(json.dumps(_clique_with_loops_doc(25, 4)))
    argv = ["walks", "--digraph", str(path), "--group", "dihedral:25", "--length", "3"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_checked"] and doc["oracle_match"]

    power = voltage.algebra_matrix_power

    def off_by_one(b, ell, group):
        out = power(b, ell, group)
        out[1, 2, 7] += 1
        return out

    monkeypatch.setattr(voltage, "algebra_matrix_power", off_by_one)
    assert run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_checked"] and doc["oracle_match"] is False


def test_walks_oracle_skipped_past_the_cap(tmp_path, monkeypatch, capsys):
    # 3 vertices over cyclic:67: 201 lift vertices, so the lift is never built
    doc = {"vertices": ["a", "b", "c"], "arcs": [
        {"from": "a", "to": "b", "voltage": "g^1"},
        {"from": "b", "to": "c", "voltage": "g^5"},
        {"from": "c", "to": "a", "voltage": "g^0"},
    ]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))

    def no_lift(d):
        raise AssertionError("lift built")

    monkeypatch.setattr(voltage, "build_lift", no_lift)
    code = run(["walks", "--digraph", str(path), "--group", "cyclic:67", "--length", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_checked"] is False
    assert doc["entries"][0]["from"] == "a" and doc["entries"][0]["to"] == "a"
    assert doc["entries"][0]["coeffs"] == {"g^6": 1}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_lift_never_builds_the_adjacency(k2star, k2star_path, monkeypatch, capsys, fmt):
    def no_lift(d):
        raise AssertionError("lift built")

    monkeypatch.setattr(voltage, "build_lift", no_lift)
    code = run(["lift", "--digraph", k2star_path, "--group", "dihedral:3", "--format", fmt])
    assert code == 0
    # the lift by its definition: base arc (u, v, x) gives (u, g) -> (v, g*x)
    g = k2star.group
    labels = [f"{u}.{e}" for u in k2star.vertices for e in g.element_names]
    arcs = [
        [f"{k2star.vertices[u]}.{g.element_names[h]}",
         f"{k2star.vertices[v]}.{g.element_names[g.mul[h, x]]}"]
        for u, v, x in k2star.arcs for h in range(g.order)
    ]
    out = capsys.readouterr().out
    if fmt == "json":
        assert out == json.dumps({"vertices": labels, "arcs": arcs}, indent=2) + "\n"
    else:
        assert out == "\n".join(f"{a} -> {b}" for a, b in arcs) + "\n"
