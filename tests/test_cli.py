import hashlib
import json
import subprocess
import sys

from deflab import cli, linalg


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "deflab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_parse_corpus():
    proc = run_cli("parse", "corpus:torus")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["generators"] == ["a", "b"]


def test_parse_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("< x, y | x^2, y^3 >")
    proc = run_cli("parse", str(f))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == ["x", "y"]


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("< x y | >")
    proc = run_cli("parse", str(f))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_subgroups():
    proc = run_cli("subgroups", "corpus:free2", "--max-index", "2")
    data = json.loads(proc.stdout)
    assert len(data) == 4  # whole group + three of index 2
    assert all(d["index"] in (1, 2) for d in data)
    assert data[0]["transversal"] == ["1"]


def test_schreier():
    proc = run_cli("schreier", "corpus:torus", "--index-spec", "2")
    data = json.loads(proc.stdout)
    assert len(data) == 3
    for entry in data:
        assert entry["index"] == 2


def test_homology():
    proc = run_cli("homology", "corpus:genus2", "--quotient", "trivial")
    data = json.loads(proc.stdout)
    assert data["betti"] == [1, 4, 1]
    proc = run_cli("homology", "corpus:c5", "--quotient", "trivial", "--field", "5")
    data = json.loads(proc.stdout)
    assert data["betti"] == [1, 1, 1]


def test_homology_rejects_prime_too_large_for_int64():
    # primality is certified only below 2^64; 2^64 + 13 is the first prime above
    proc = run_cli("homology", "corpus:torus", "--field", str(2**64 + 13))
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "2^64" in lines[0]
    over_q = json.loads(run_cli("homology", "corpus:torus").stdout)
    proc = run_cli("homology", "corpus:torus", "--field", "4294967311")  # 2^32 + 15
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["betti"] == over_q["betti"] == [1, 2, 1]


def test_internal_check_failure_exits_3(monkeypatch, capsys, tmp_path):
    # d2 = diag(2, 3) has no +-1 entry, so phase 2 pivots on 2, which divides
    # its row but not the 3, and adds the 3's row to its own.  A search that
    # returns the first row, here the pivot's own, doubles the pivot row and
    # its L row, so L @ A @ R no longer holds the recorded 2; one that misses
    # the 3 finalises 2 and then 3.  verify catches both.
    f = tmp_path / "c6.txt"
    f.write_text("< a, b | a^2, b^3, [a, b] >")
    for fake, message in (
        (lambda m, v: next(iter(m)), "L @ A @ R is not the Smith diagonal"),
        (lambda m, v: None, "divisibility fails: [2, 3]"),
    ):
        calls = []
        monkeypatch.setattr(linalg, "_non_multiple_row", lambda m, v: calls.append(v) or fake(m, v))
        assert cli.main(["homology", str(f)]) == 3
        assert calls == [2, 3]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal check failed: {message}\n"


def test_deficiency(tmp_path):
    # simplification turns the second input into the torus, whose one
    # relator certifies the point, as it does for the stability report's base
    exposed = tmp_path / "exposed.txt"
    exposed.write_text("< a, b, c | c, [a, b] >")
    for spec in ("corpus:trefoil", str(exposed)):
        data = json.loads(run_cli("deficiency", spec).stdout)
        assert data == {"lower": 1, "upper": 1, "certificate": "aspherical-validated-one-relator"}
        report = json.loads(run_cli("stability", spec, "--max-index", "1").stdout)
        assert report["base_interval"] == data


def test_a_certificate_below_an_achieved_lower_bound_exits_1(capsys):
    # redundant simplifies to deficiency 1, above 1 - chi = 0 of the asserted
    # complex, so the complex cannot be aspherical
    for argv in (
        ["deficiency", "corpus:redundant", "--aspherical"],
        ["stability", "corpus:redundant", "--max-index", "2", "--aspherical"],
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: certificate contradicts an achieved lower bound; "
            "the complex cannot be aspherical\n"
        )
    # on the boundary: f2xf2's lower end equals the certified value 0
    assert cli.main(["deficiency", "corpus:f2xf2", "--aspherical"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"lower": 0, "upper": 0, "certificate": "aspherical-asserted"}


def test_stability_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    csvf = tmp_path / "rows.csv"
    proc = run_cli(
        "stability", "corpus:torus", "--max-index", "2",
        "--out", str(out), "--csv", str(csvf),
    )
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "certified-holds"
    lines = csvf.read_text().strip().splitlines()
    assert len(lines) == len(data["rows"]) + 1  # header + rows
    assert lines[0].startswith("group,index,ordinal,class_size,")


# sha256 of the --csv file; re-recorded when the report went to one row per
# conjugacy class, with a class_size column
CSV_DIGESTS = {
    ("redundant", "4"): (0, "9934c7eaa256beaf6f7b427b392d9c5473510abde05b3869301febb22e9393f0"),
    ("dup_relator", "6"): (2, "43451717c02df680a8fb798e49d24410402a278398b82342c0a4a2d30262ee10"),
}


def test_stability_csv_bytes(tmp_path):
    for (name, k), (code, digest) in CSV_DIGESTS.items():
        out, csvf = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        args = ["--max-index", k, "--out", str(out), "--csv", str(csvf)]
        assert cli.main(["stability", f"corpus:{name}", *args]) == code
        assert hashlib.sha256(csvf.read_bytes()).hexdigest() == digest, name
    # dup_relator's rows carry torsion lists, joined by ';'
    assert ",3;3;3," in csvf.read_text()


def test_stability_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("stability", "corpus:trefoil", "--max-index", "2", "--out", str(a))
    run_cli("stability", "corpus:trefoil", "--max-index", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cert(tmp_path):
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"rho": [[["1", 1]], [["1", -1]]]}))
    proc = run_cli("cert", "corpus:dup_relator", "--witness", str(witness))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["drop_bound_u"] == 1
    assert data["mu2_bound"] == 0
    assert data["subgroup_index"] == 1


def test_cert_rejects_malformed_witness_files(tmp_path):
    rho = [[["1", 1]], [["1", -1]]]
    malformed = (
        [rho], {"rho": rho, "max_index": "6"}, {"rho": rho, "quotient": 5},
        {"rho": [5]}, {"rho": [[[1, 1]], [["1", -1]]]}, {"rho": [[["1", 1.5]], [["1", -1.5]]]},
    )
    for i, data in enumerate(malformed):
        witness = tmp_path / f"w{i}.json"
        witness.write_text(json.dumps(data))
        proc = run_cli("cert", "corpus:dup_relator", "--witness", str(witness))
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_cert_names_a_witness_max_index_below_1(tmp_path):
    rho = [[["1", 1]], [["1", -1]]]
    for bound in (0, -3):
        witness = tmp_path / f"w{bound}.json"
        witness.write_text(json.dumps({"rho": rho, "max_index": bound}))
        proc = run_cli("cert", "corpus:dup_relator", "--witness", str(witness))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: witness 'max_index' must be an index >= 1, not {bound}\n"


def test_modp():
    proc = run_cli("modp", "corpus:free1", "-p", "2", "--normal-index", "2")
    data = json.loads(proc.stdout)
    assert len(data) == 1
    assert data[0]["dims"][:2] == [1, 1]
    # the cap of 64 bounds only jbar_dim's route, which needs a finite group
    proc = run_cli("modp", "corpus:free1", "-p", "2", "--normal-index", "65")
    assert proc.returncode == 0, proc.stderr
    (report,) = json.loads(proc.stdout)
    assert report["index"] == 65 and report["dims"] == [1, 1, 0] and report["jbar_dim"] is None


def test_the_group_with_no_generators_has_a_trivial_core(tmp_path):
    f = tmp_path / "trivial.txt"
    f.write_text("< | >")
    proc = run_cli("modp", str(f), "-p", "2", "--normal-index", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        {"dims": [1, 0, 0], "h2_label": "h2 of the truncated dual complex", "index": 1, "jbar_dim": 0, "p": 2}
    ]
    proc = run_cli("homology", str(f), "--quotient", "core:1:1")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["betti"] == [1, 0, 0] and data["quotient_order"] == 1


def test_unknown_corpus_and_bad_specs():
    assert run_cli("parse", "corpus:nope").returncode == 1
    assert run_cli("homology", "corpus:torus", "--quotient", "bogus").returncode == 1
    assert (
        run_cli("homology", "corpus:torus", "--quotient", "core:2:99").returncode == 1
    )
    empty = run_cli("schreier", "corpus:torus", "--index-spec", "3-2")
    assert empty.returncode == 1 and "'3-2' names no index" in empty.stderr


def test_malformed_specs_are_named_in_the_error():
    for command, option, spec in (
        ("homology", "--quotient", "core:2"),
        ("homology", "--quotient", "core:a:1"),
        ("schreier", "--index-spec", "2,"),
        ("schreier", "--index-spec", "3-x"),
        ("homology", "--quotient", "core:0:1"),
        ("schreier", "--index-spec", "0-2"),
        ("schreier", "--index-spec", "1-2,5-4"),
        ("schreier", "--index-spec", "2-"),
    ):
        proc = run_cli(command, "corpus:torus", option, spec)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and repr(spec) in proc.stderr, proc.stderr


def test_non_numeric_field_is_named_in_the_error():
    proc = run_cli("homology", "corpus:torus", "--field", "x")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--field 'x'" in proc.stderr, proc.stderr


def test_usage_errors_exit_1_not_the_inconclusive_code():
    for args, named in (
        (("modp", "corpus:torus", "-p", "x", "--normal-index", "2"), "argument -p"),
        (("modp", "corpus:torus", "-p", "2", "--normal-index", "0"), "argument --normal-index"),
        (("stability", "corpus:torus"), "--max-index"),
        (("stability", "corpus:torus", "--max-index", "0"), "argument --max-index"),
        (("subgroups", "corpus:torus", "--max-index", "two"), "argument --max-index"),
        (("subgroups", "corpus:torus", "--max-index", "0"), "argument --max-index"),
        (("nonesuch", "corpus:torus"), "nonesuch"),
        ((), "command"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert proc.stderr.startswith("usage: deflab"), proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert "error:" in last and named in last, proc.stderr
    for args in (("--help",), ("stability", "--help"), ("--version",)):
        proc = run_cli(*args)
        assert proc.returncode == 0 and proc.stdout, args


def test_numeric_non_primes_are_named_in_the_error():
    for args, option in (
        (("homology", "corpus:torus", "--field", "4"), "--field 4"),
        (("homology", "corpus:torus", "--field", "1"), "--field 1"),
        (("modp", "corpus:torus", "-p", "4", "--normal-index", "2"), "-p 4"),
        (("modp", "corpus:torus", "-p", "0", "--normal-index", "2"), "-p 0"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert proc.stderr == f"error: {option} is not prime\n", proc.stderr
