"""CLI surface: exit codes, JSON reports, schema conformance, determinism."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from ybt import cli, factorized, fusion, subspace_solver
from ybt.cli import dispatch
from ybt.formats import (
    load_json, load_operator, operator_to_obj, pretty_dumps, save_operator, subspace_from_obj,
)
from ybt import Operator, apply_twist, catalog, fuse_r, identity

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "ybt" / "data" / "report.schema.json"
VALIDATOR = Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))


def run(capsys, *argv):
    code = dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    report = json.loads(out)
    VALIDATOR.validate(report)
    return code, report, err


def test_verify_ybe_catalog_ref(capsys):
    code, report, _ = run_json(capsys, "verify-ybe", "catalog:perm")
    assert code == 0
    assert report["residuals"]["ybe"] == "0"
    assert report["verdict"] is True


def test_verify_ybe_exit_one_on_failure(capsys, tmp_path):
    bad = identity(2, 2) + identity(2, 2)
    rows = [list(r) for r in bad.rows]
    rows[0][1] = rows[1][2] = rows[0][0]
    from ybt import Operator

    op = Operator.from_rows(2, 2, rows)
    path = tmp_path / "bad.json"
    save_operator(op, path)
    code, report, _ = run_json(capsys, "verify-ybe", path)
    assert code == 1
    assert report["verdict"] is False
    assert report["residuals"]["ybe"] != "0"


def test_check_pair_pipeline(capsys):
    code, report, _ = run_json(
        capsys, "check-pair", "catalog:identity", "--pair", "catalog:jordanian"
    )
    assert code == 0
    for key in ("cond2", "cond3", "aux", "ybe_r_twisted"):
        assert report["residuals"][key] == "0"


def test_check_pair_from_files(capsys, tmp_path):
    entry = catalog.get("jordanian")
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    save_operator(entry.twist.f, fp)
    save_operator(entry.twist.g, gp)
    code, report, _ = run_json(
        capsys, "check-pair", "catalog:identity", "--pair", f"{fp},{gp}"
    )
    assert code == 0 and report["verdict"] is True


def test_check_split_both_variants(capsys):
    code, report, _ = run_json(
        capsys, "check-split", "catalog:six_vertex", "catalog:six_vertex",
        "--variant", "A",
    )
    assert code == 0
    assert set(report["residuals"]) == {"A1", "A2", "A3"}
    code, report, _ = run_json(
        capsys, "check-split", "catalog:jordanian", "catalog:jordanian",
        "--variant", "B",
    )
    assert code == 0
    assert set(report["residuals"]) == {"B1", "B2"}


def test_twist_writes_output(capsys, tmp_path):
    out = tmp_path / "twisted.json"
    code, report, _ = run_json(
        capsys, "twist", "catalog:identity", "catalog:jordanian", "-o", out
    )
    assert code == 0
    assert report["outputs"]["path"] == str(out)
    entry = catalog.get("jordanian")
    assert load_operator(out) == apply_twist(entry.r, entry.twist.f)


def test_fuse_embeds_operator(capsys):
    code, report, _ = run_json(capsys, "fuse", "catalog:six_vertex", "-m", 2, "-n", 1)
    assert code == 0
    entry = catalog.get("six_vertex")
    assert report["outputs"]["operator"] == operator_to_obj(fuse_r(entry.r, 2, 1))


def test_rsym_reports_dimension(capsys):
    code, report, _ = run_json(capsys, "rsym", "catalog:perm", "-n", 2)
    assert code == 0
    assert report["outputs"]["dimension"] == 16


def test_intertwine_no_certificate_exits_one(capsys):
    code, report, _ = run_json(
        capsys, "intertwine", "catalog:identity", "catalog:perm",
        "-n", 2, "--budget", 50, "--seed", 7,
    )
    assert code == 1
    assert report["verdict"] is False
    assert report["outputs"]["dimension"] == 12
    assert any("no invertible certificate" in note for note in report["notes"])


def test_intertwine_writes_an_empty_space_that_reads_back(capsys, tmp_path):
    out = tmp_path / "f.json"
    code, report, _ = run_json(
        capsys, "intertwine", "catalog:six_vertex", "catalog:perm", "-n", 2, "-o", out,
    )
    assert (code, report["outputs"]["dimension"]) == (1, 0)
    back = subspace_from_obj(load_json(out))
    assert (back.dimension, back.site_dim, back.legs) == (0, 2, 2)


def test_intertwine_finds_certificate(capsys):
    code, report, _ = run_json(
        capsys, "intertwine", "catalog:six_vertex", "catalog:six_vertex",
        "-n", 2, "--budget", 5, "--seed", 0,
    )
    assert code == 0
    assert report["outputs"]["certificate"]["coefficients"]


def test_omega_matches_library(capsys):
    from ybt import omega_split_B

    code, report, _ = run_json(
        capsys, "omega", "catalog:jordanian", "-n", 3, "--variant", "B"
    )
    assert code == 0
    entry = catalog.get("jordanian")
    assert report["outputs"]["operator"] == operator_to_obj(
        omega_split_B(entry.twist.f, 3)
    )


def test_te1_with_catalog_components(capsys):
    code, report, _ = run_json(
        capsys, "te1", "catalog:jordanian", "-m", 2, "-n", 1, "-k", 1
    )
    assert code == 0
    assert report["residuals"]["te1"] == "0"


def test_te1_with_component_file(capsys, tmp_path):
    from ybt import f_components_from_omega, omega_split_B
    from ybt.formats import components_to_obj

    entry = catalog.get("jordanian")
    omegas = {j: omega_split_B(entry.twist.f, j) for j in (2, 3)}
    comps = {
        (m, n): f_components_from_omega(omegas, m, n)
        for m, n in ((1, 1), (1, 2), (2, 1))
    }
    path = tmp_path / "components.json"
    path.write_text(pretty_dumps(components_to_obj(comps)))
    code, report, _ = run_json(capsys, "te1", path, "-m", 1, "-n", 1, "-k", 1)
    assert code == 0 and report["residuals"]["te1"] == "0"


@pytest.mark.parametrize("m, n, k", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_te1_below_two_legs_agrees_on_catalog_and_component_file(capsys, tmp_path, m, n, k):
    from ybt import f_components_from_omega, omega_split_B
    from ybt.formats import components_to_obj

    omegas = {2: omega_split_B(catalog.get("jordanian").twist.f, 2)}
    path = tmp_path / "components.json"
    path.write_text(pretty_dumps(components_to_obj({(1, 1): f_components_from_omega(omegas, 1, 1)})))
    # under a cap of one leg, the catalog route still builds the 2-leg F^{1,1}
    for cap in ("6", "1"):
        got = [run_json(capsys, "te1", ref, "-m", m, "-n", n, "-k", k, "--max-legs", cap)
               for ref in ("catalog:jordanian", path)]
        (code, report, _), (file_code, file_report, _) = got
        assert code == file_code == 0
        assert report["residuals"] == file_report["residuals"] == {"te1": "0"}
        assert report["verdict"] is file_report["verdict"] is True


def test_te1_refuses_legs_over_the_cap(capsys):
    # 7 legs against the default cap of 6
    code, out, err = run(capsys, "te1", "catalog:jordanian", "-m", 3, "-n", 2, "-k", 2)
    assert code == 2 and out == ""
    assert "te1 on 7 legs is above the cap 6" in err
    # refused before the components are resolved: the file is never opened
    code, out, err = run(
        capsys, "te1", "missing.json", "-m", 2, "-n", 1, "-k", 1, "--max-legs", 3
    )
    assert code == 2 and out == ""
    assert "te1 on 4 legs is above the cap 3" in err


def test_fuse_refuses_legs_over_the_cap(capsys, monkeypatch):
    resolved = []
    monkeypatch.setattr(cli, "_resolve_entry", lambda ref: resolved.append(ref))
    # 7 legs against the default cap of 6, refused before the entry is built
    code, out, err = run(capsys, "fuse", "catalog:six_vertex", "-m", 4, "-n", 3)
    assert code == 2 and out == ""
    assert "fuse on 7 legs is above the cap 6" in err
    assert resolved == []
    # refused before R is resolved: the file is never opened
    code, out, err = run(capsys, "fuse", "missing.json", "-m", 2, "-n", 2, "--max-legs", 3)
    assert code == 2 and out == ""
    assert "fuse on 4 legs is above the cap 3" in err


@pytest.mark.parametrize("argv", [("rsym", "R"), ("intertwine", "R", "R")])
def test_solvers_refuse_legs_over_the_cap_before_resolving(capsys, monkeypatch, tmp_path, argv):
    command = argv[0]
    resolved = []
    monkeypatch.setattr(cli, "_resolve_entry", lambda ref: resolved.append(ref))
    refs = ["catalog:six_vertex" if a == "R" else a for a in argv]
    code, out, err = run(capsys, *refs, "-n", 7)
    assert code == 2 and out == ""
    assert f"{command} on 7 legs is above the cap 6" in err
    assert resolved == []
    # refused before R is resolved: the file is never opened
    refs = ["missing.json" if a == "R" else a for a in argv]
    code, out, err = run(capsys, *refs, "-n", 4, "--max-legs", 3)
    assert code == 2 and out == ""
    assert f"{command} on 4 legs is above the cap 3" in err
    # a site_dim-1 R has side 1 on any number of legs, and is refused all the same
    path = tmp_path / "r1.json"
    save_operator(Operator.from_rows(1, 2, [[1]]), path)
    refs = [path if a == "R" else a for a in argv]
    code, out, err = run(capsys, *refs, "-n", 7)
    assert code == 2 and out == ""
    assert f"{command} on 7 legs is above the cap 6" in err
    assert run(capsys, *refs, "-n", 7, "--max-legs", 7)[0] == 0


def test_te1_refuses_negative_indices_before_building(capsys, monkeypatch):
    built = []
    for name in ("omega_split_A", "omega_split_B"):
        monkeypatch.setattr(factorized, name, lambda f, j: built.append(j))
    monkeypatch.setattr(fusion, "f_components_from_omega", lambda *a: built.append(a))
    # m + n + k = 0 passes the leg cap, but (n, k) = (10, 10) would need omega_20
    code, out, err = run(
        capsys, "te1", "catalog:jordanian", "-m", -20, "-n", 10, "-k", 10
    )
    assert code == 2 and out == ""
    assert "indices must be non-negative" in err
    assert built == []


@pytest.mark.parametrize("argv", [
    ("twist", "catalog:identity", "catalog:perm"),
    ("check-pair", "catalog:identity", "--pair", "catalog:perm"),
])
def test_catalog_entry_without_twist_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "carries no twist" in err


def test_te1_at_the_cap_still_runs(capsys):
    code, report, _ = run_json(
        capsys, "te1", "catalog:jordanian", "-m", 1, "-n", 1, "-k", 1, "--max-legs", 3
    )
    assert code == 0 and report["residuals"]["te1"] == "0"


def test_te1_builds_only_the_components_it_reads(capsys, monkeypatch):
    built = []
    original = fusion.f_components_from_omega

    def counted(omegas, m, n):
        built.append((m, n))
        return original(omegas, m, n)

    monkeypatch.setattr(fusion, "f_components_from_omega", counted)
    code, report, _ = run_json(
        capsys, "te1", "catalog:jordanian", "-m", 2, "-n", 2, "-k", 2
    )
    assert code == 0 and report["residuals"]["te1"] == "0"
    # te1_residual(2, 2, 2) reads F^{4,2}, F^{2,2} (twice) and F^{2,4}
    assert len(built) <= 4
    assert sorted(built) == [(2, 2), (2, 4), (4, 2)]


def test_catalog_list_and_get(capsys):
    code, report, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert report["outputs"]["names"] == catalog.names()
    code, report, _ = run_json(capsys, "catalog", "get", "six_vertex?q=5/2")
    assert code == 0
    assert report["outputs"]["entry"]["params"]["q"] == "5/2"


def test_complex_backend_with_tolerance_flag(capsys, tmp_path):
    entry = catalog.get("six_vertex")
    rows = [[complex(float(v), 0.0) for v in row] for row in entry.r.rows]
    rows = [list(row) for row in rows]
    rows[1][2] += 1e-12
    from ybt import COMPLEX64, Operator

    op = Operator.from_rows(2, 2, rows, backend=COMPLEX64)
    path = tmp_path / "approx.json"
    save_operator(op, path)
    code, report, _ = run_json(capsys, "verify-ybe", path)
    assert code == 0 and report["verdict"] is True
    assert isinstance(report["residuals"]["ybe"], float)
    code, report, _ = run_json(capsys, "verify-ybe", path, "--tol", "1e-15")
    assert code == 1 and report["verdict"] is False


def test_malformed_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"scalar": "rational", "site_dim": 2,')
    code, out, err = run(capsys, "verify-ybe", bad)
    assert code == 2
    assert out == ""
    assert "broken.json" in err and ":1:" in err


def test_semantic_file_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "short.json"
    bad.write_text('{"scalar": "rational", "site_dim": 2, "legs": 2, "rows": [["1"]]}')
    code, out, err = run(capsys, "verify-ybe", bad)
    assert code == 2
    assert "rows" in err


@pytest.mark.parametrize("case", ["read directory", "read binary", "write directory"])
def test_unreadable_paths_exit_two(capsys, tmp_path, case):
    # exit 1 means "a check failed"; a path that cannot be read is an input error
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    argv = {
        "read directory": ["verify-ybe", tmp_path],
        "read binary": ["verify-ybe", binary],
        "write directory": ["fuse", "catalog:six_vertex", "-m", 1, "-n", 1, "-o", tmp_path],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if case == "read binary":
        assert "binary.json:byte 0" in err


@pytest.mark.parametrize("budget", [0, -3])
def test_intertwine_refuses_a_budget_below_one_before_solving(capsys, monkeypatch, budget):
    monkeypatch.setattr(subspace_solver, "intertwiner_space", lambda *a, **k: 1 / 0)
    code, out, err = run(capsys, "intertwine", "catalog:six_vertex", "catalog:six_vertex",
                         "-n", 2, "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: --budget must be >= 1, got {budget}\n"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify-ybe")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "catalog", "get", "nope")[0] == 2


@pytest.mark.parametrize("stage", ["r_symmetric_space", "canonical_dumps"])
def test_out_of_memory_exits_two_without_stdout(capsys, monkeypatch, stage):
    # exit 1 means "a check failed", so a resource failure must not use it
    def exhausted(*args, **kwargs):
        raise MemoryError

    # each stage is patched where cli reads it when the handler runs
    owner = subspace_solver if stage == "r_symmetric_space" else cli
    monkeypatch.setattr(owner, stage, exhausted)
    code, out, err = run(capsys, "rsym", "catalog:perm", "-n", 2)
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_quiet_suppresses_summary(capsys):
    _, _, err = run(capsys, "verify-ybe", "catalog:perm", "--quiet")
    assert err == ""
    _, _, err = run(capsys, "verify-ybe", "catalog:perm")
    assert "verify-ybe" in err


def test_reports_are_byte_deterministic(capsys):
    invocations = [
        ("verify-ybe", "catalog:six_vertex"),
        ("check-pair", "catalog:identity", "--pair", "catalog:jordanian"),
        ("intertwine", "catalog:identity", "catalog:perm", "-n", 2,
         "--budget", 10, "--seed", 7),
        ("rsym", "catalog:identity", "-n", 2),
        ("catalog", "list"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[1] == second[1]
        assert first[0] == second[0]


def test_parser_is_built_once_and_reused(capsys):
    argv = ("rsym", "catalog:perm", "-n", 2, "--quiet")
    first = run(capsys, *argv)
    assert cli._parser() is cli._parser()
    second = run(capsys, *argv)
    assert first == second and first[0] == 0
    assert run(capsys, "rsym", "catalog:perm")[0] == 2
    assert run(capsys, *argv) == first


# sha256 of the stdout bytes; these reports are pinned byte for byte, so a
# change to the solver or the serialisation that alters them shows here
RSYM_STDOUT_SHA256 = {
    ("six_vertex", 5): "d235bcbc6705aa11792ee520d1cad2f60282eb13083f5dce3a63dbe90d7f6d32",
    ("jordanian", 4): "4d8e73692f17385e615e48f2ad9ca6abe16d32c308957e23f7af5f10d7e1f080",
    ("perm", 4): "7208d87fdd0c7037f087846a159c917a07e978b431e8bd6e4389c76bc2c74a1b",
    ("identity", 3): "92292b3db8ec94d9be001cbabf7cd09b3c11450819b5be9e6bbb9f6db0ac73de",
    ("diag_twist", 4): "469c96409645cad9fb60ac98cd87c3f2d4b115835478a080aa679f25720f442b",
}


def sha256(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("entry, n", sorted(RSYM_STDOUT_SHA256))
def test_rsym_stdout_is_pinned(capsys, entry, n):
    code, out, _ = run(capsys, "rsym", f"catalog:{entry}", "-n", n, "--quiet")
    assert code == 0
    assert sha256(out) == RSYM_STDOUT_SHA256[entry, n]


def test_intertwine_file_and_stdout_are_pinned(capsys, tmp_path):
    twisted, basis = tmp_path / "tw.json", tmp_path / "basis.json"
    run(capsys, "twist", "catalog:diag_twist", "catalog:diag_twist", "-o", twisted)
    code, out, _ = run(
        capsys, "intertwine", "catalog:diag_twist", twisted,
        "-n", 4, "--seed", 7, "-o", basis, "--quiet",
    )
    assert code == 0
    assert sha256(basis.read_bytes()) == (
        "a1a0c272c69bc2b1cd7535e99de62fe04b15a359ea4ba511b1d56e6a145d906e"
    )
    assert sha256(out.replace(str(tmp_path), "<tmp>")) == (
        "d7e2651f056c46c97d80e427cd8b69101f773b1ced2df6d0df5547848ce407d3"
    )


# Every subcommand's stdout (and -o file) pinned byte for byte, the temp dir
# masked as <tmp>.  Each case: argv with "{tmp}" for the temp dir, the exit
# code, the sha256 of stdout and the sha256 of "{tmp}/out.json" when -o is given.
PINNED = {
    "verify_ybe": (
        ("verify-ybe", "catalog:six_vertex"), 0,
        "2da31617bda13447923b7147132323017127207220986dcf7f15a73e44bd0bf0",
        None),
    "verify_ybe_fail": (
        ("verify-ybe", "{tmp}/bad.json"), 1,
        "b2e075617e8d96a1ab702b3fb747cf9996132b9271d43ef2ba4ef28d494cf176",
        None),
    "twist": (
        ("twist", "catalog:identity", "catalog:jordanian"), 0,
        "4182660eda245aaf38207cefae91b4cfa2608f2d77983e8c9111e32cea09dd0c",
        None),
    "twist_out": (
        ("twist", "catalog:identity", "catalog:jordanian", "-o", "{tmp}/out.json"),
        0,
        "c7ad01bf4f588e2a9cd02771497dd722f765bc80bb6a4dfdb08780e7f709f270",
        "28a48d872b2c5188327c2e397c8242615dd69eed1132e72ada5dfb792c1f387d"),
    "check_pair_catalog": (
        ("check-pair", "catalog:identity", "--pair", "catalog:jordanian"), 0,
        "5abadbfd46cf391940e9f426132ea06abde6e95113189083ed8888521a78cbd4",
        None),
    "check_pair_files": (
        ("check-pair", "catalog:identity", "--pair", "{tmp}/f.json,{tmp}/g.json"),
        0,
        "9d35e1f4804a5363d47f7dac310dbb1b9484df0504b390f19faf11ccb2c1a0e2",
        None),
    "check_pair_fail": (
        ("check-pair", "catalog:six_vertex", "--pair", "catalog:jordanian"), 1,
        "c52c735ddcbcc7003e3e061d24bb26e82b23d7a71bc5ecda0f4e10004a779e25",
        None),
    "check_split_A": (
        ("check-split", "catalog:six_vertex", "catalog:six_vertex", "--variant", "A"),
        0,
        "31dca7382da304fa55bc501b4e7a102e1697779bdd3342cd5f4e070f499da803",
        None),
    "check_split_B": (
        ("check-split", "catalog:identity", "catalog:jordanian", "--variant", "B"),
        0,
        "b9c5fd25c02b19d34bd48a30a449f1f73030f8521bfe0018ccc528e31139b5bc",
        None),
    "check_split_A_fail": (
        ("check-split", "catalog:identity", "catalog:jordanian", "--variant", "A"),
        1,
        "8f25d39a475578058da42718cce0ba901928b45c4ef6df47f673b4132f875445",
        None),
    "fuse": (
        ("fuse", "catalog:six_vertex", "-m", "2", "-n", "1"), 0,
        "cd1cf3f1e82fdcdf81ae37c35cc846f80456709136774bf2cb951fbde961ce65",
        None),
    "fuse_out": (
        ("fuse", "catalog:six_vertex", "-m", "2", "-n", "1", "-o", "{tmp}/out.json"),
        0,
        "ab37253287e52f7bf8b41567c81f948e5cbac8e9062a0b5686b295c7cbce9b83",
        "f11bc761f1d87651e2d97e6229b83fa687aa46bfb1f214d471b4bd6ac4236fd7"),
    "omega": (
        ("omega", "catalog:jordanian", "-n", "3", "--variant", "B"), 0,
        "0f83260ad42afc025ace88b20aa91b4ec8fcc33248f8fd1b9b8ffb626e470eef",
        None),
    "omega_out": (
        ("omega", "catalog:jordanian", "-n", "3", "--variant", "B",
         "-o", "{tmp}/out.json"), 0,
        "ea322b19ea6b668686b1b57ee4be6cc984ec9fd69c8ff4b52ff708b55ce47ec8",
        "e2eb26ab308585a8079f306c6cf7e5b02e3b4d26ce8b0da27fe141c483e420b3"),
    "te1": (
        ("te1", "catalog:jordanian", "-m", "2", "-n", "1", "-k", "1"), 0,
        "0590cacab9331f00db4b4e9dc70b737ed5ff419dcfdc7e009f027ae21d8705eb",
        None),
    "catalog_list": (
        ("catalog", "list"), 0,
        "8a74c786a5021c4b34198a6741794ea6fa8263fc500d0d5eac0b7e46e091e72f",
        None),
    "catalog_get": (
        ("catalog", "get", "six_vertex?q=5/2"), 0,
        "43e7ef59c3f3302d2b3ca3c908496e4f37e4a03b085fdf4d79a689f46ae41434",
        None),
    "catalog_get_out": (
        ("catalog", "get", "six_vertex?q=5/2", "-o", "{tmp}/out.json"), 0,
        "0f19ad6ec4c4ad2aea3d7e160eb9561a8f81b2d1b6dd964286e68da1010a9f5c",
        "fb761787ac2480b962f20342e5a45c53cf75ee6ed5ae08c96ac123636bfe5b4e"),
    "intertwine_no_certificate": (
        ("intertwine", "catalog:identity", "catalog:perm", "-n", "2", "--budget", "3"),
        1,
        "62ef48086fa432d0b83c0d2fe920c0cc7b46f9a458480231e2fa1870b6fdd272",
        None),
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_stdout_and_files_are_pinned(capsys, tmp_path, label):
    entry = catalog.get("jordanian")
    save_operator(entry.twist.f, tmp_path / "f.json")
    save_operator(entry.twist.g, tmp_path / "g.json")
    rows = [[2, 2, 0, 0], [0, 2, 2, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    save_operator(Operator.from_rows(2, 2, rows), tmp_path / "bad.json")
    argv, expected, stdout_sha, file_sha = PINNED[label]
    code, out, _ = run(capsys, *(a.format(tmp=tmp_path) for a in argv), "--quiet")
    assert code == expected
    assert sha256(out.replace(str(tmp_path), "<tmp>")) == stdout_sha
    if file_sha is not None:
        assert sha256((tmp_path / "out.json").read_bytes()) == file_sha
