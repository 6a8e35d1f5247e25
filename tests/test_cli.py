import json

import numpy as np
import pytest

import voltlift as vl
from voltlift.cli import run

from conftest import K2STAR_DOC


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
