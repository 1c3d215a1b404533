import json

import pytest

from posetsat.cli import main
from posetsat.constructs import construct_b3
from posetsat.setfam import family_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, family, name="fam.json"):
    path = tmp_path / name
    path.write_text(json.dumps(family_to_json(family)))
    return str(path)


class TestConstruct:
    def test_2ck_c1_size(self, capsys, tmp_path):
        out_path = tmp_path / "f.json"
        code, _, _ = run(
            capsys,
            "construct", "--family", "2ck-c1", "--n", "8", "--k", "3",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["sets"]) == 28
        assert doc["generator"]["kind"] == "2ck-c1"

    def test_stdout_is_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "b3", "--n", "5")
        assert code == 0
        assert len(json.loads(out)["sets"]) == 13

    def test_boolean_with_drop(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "--family", "boolean", "--k", "4",
            "--drop", "empty-and-full",
        )
        assert code == 0
        assert len(json.loads(out)["sets"]) == 14

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "mck", "--n", "12")
        assert code == 2
        assert "--m" in err

    def test_out_of_range_parameter_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "construct", "--family", "b3", "--n", "3")
        assert code == 2


class TestVerify:
    def test_saturated_family_passes(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, out, _ = run(
            capsys, "verify", "--family", path, "--poset", "B3",
            "--require-saturated",
        )
        assert code == 0
        assert "induced-free: yes" in out

    def test_json_report_is_single_document(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, out, _ = run(
            capsys, "verify", "--family", path, "--poset", "B3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_free"] is True
        assert doc["exception_count"] == 0
        assert doc["budget_exceeded"] is False

    def test_not_free_fails(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, _, _ = run(capsys, "verify", "--family", path, "--poset", "C2")
        assert code == 1

    def test_free_but_unsaturated(self, capsys, tmp_path):
        doc = {"n": 2, "sets": [[1]]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "verify", "--family", str(path), "--poset", "C2",
            "--list-exceptions", "--json",
        )
        assert code == 0  # free; saturation not demanded
        assert json.loads(out)["exceptions"] == [[2]]
        code, _, _ = run(
            capsys, "verify", "--family", str(path), "--poset", "C2",
            "--require-saturated",
        )
        assert code == 1

    def test_budget_exceeded_exit(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, _, _ = run(
            capsys, "verify", "--family", path, "--poset", "B3",
            "--node-budget", "3",
        )
        assert code == 3

    def test_round_trip_with_construct(self, capsys, tmp_path):
        out_path = tmp_path / "b3.json"
        run(capsys, "construct", "--family", "b3", "--n", "5", "--out", str(out_path))
        code, _, _ = run(
            capsys, "verify", "--family", str(out_path), "--poset", "B3",
            "--require-saturated",
        )
        assert code == 0

    def test_ground_cap_error_names_the_flag(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 17, "sets": [[1]]}))
        code, _, err = run(capsys, "verify", "--family", str(path), "--poset", "C2")
        assert code == 2
        assert "--max-n" in err and "max_ground" in err

    def test_duplicate_sets_strict_vs_lenient(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"n": 2, "sets": [[1], [1]]}))
        code, _, _ = run(capsys, "verify", "--family", str(path), "--poset", "C2")
        assert code == 2
        code, _, _ = run(
            capsys, "verify", "--family", str(path), "--poset", "C2", "--lenient",
        )
        assert code == 0


class TestSaturate:
    def test_completes_and_passes_verification(self, capsys, tmp_path):
        fam_path = tmp_path / "start.json"
        fam_path.write_text(json.dumps({"n": 2, "sets": [[1]]}))
        out_path = tmp_path / "done.json"
        code, _, _ = run(
            capsys, "saturate", "--family", str(fam_path), "--poset", "C2",
            "--out", str(out_path),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", "--family", str(out_path), "--poset", "C2",
            "--require-saturated",
        )
        assert code == 0


class TestFindCopy:
    def test_found(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 2, "sets": [[1], [1, 2]]}))
        code, out, _ = run(
            capsys, "find-copy", "--family", str(path), "--poset", "C2", "--json",
        )
        assert code == 0
        assert json.loads(out)["images"] == [[1], [1, 2]]

    def test_none(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 2, "sets": [[1], [2]]}))
        code, out, _ = run(
            capsys, "find-copy", "--family", str(path), "--poset", "C2",
        )
        assert code == 1
        assert out.strip() == "none"

    def test_seeded_copy_still_valid(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, out, _ = run(
            capsys, "find-copy", "--family", str(path), "--poset", "C2",
            "--seed", "5", "--json",
        )
        assert code == 0
        images = json.loads(out)["images"]
        assert set(images[0]) <= set(images[1])


class TestSolve:
    def test_exact_two_chain(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "2", "--poset", "C2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "exact"
        assert doc["value"] == 1

    def test_budget_exceeded_exit(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--n", "3", "--poset", "2C1",
            "--node-budget", "0", "--json",
        )
        assert code == 3


class TestBollobas:
    def test_passing_system(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"n": 2, "pairs": [{"x": [1], "y": [2]}, {"x": [2], "y": [1]}]})
        )
        code, out, _ = run(capsys, "bollobas", "--pairs", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_bollobas"] and doc["is_skew_bollobas"]
        assert doc["within_bound"]

    def test_skew_only_system(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"n": 3, "pairs": [{"x": [1], "y": [3]}, {"x": [2], "y": [1]}]})
        )
        code, _, _ = run(capsys, "bollobas", "--pairs", str(path))
        assert code == 1
        code, _, _ = run(capsys, "bollobas", "--pairs", str(path), "--skew")
        assert code == 0

    def test_invariant_violation_fails(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "pairs": [{"x": [1], "y": [1]}]}))
        code, _, err = run(capsys, "bollobas", "--pairs", str(path))
        assert code == 1
        assert "intersect" in err


class TestUsageErrors:
    def test_bad_poset_spec(self, capsys, tmp_path):
        path = write_family(tmp_path, construct_b3(5))
        code, _, _ = run(capsys, "verify", "--family", path, "--poset", "Q3")
        assert code == 2

    def test_missing_family_file(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "/nope.json", "--poset", "C2")
        assert code == 2

    def test_malformed_family_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{, not json")
        code, _, _ = run(capsys, "find-copy", "--family", str(path), "--poset", "C2")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["verify", "saturate", "find-copy", "solve"])
    def test_negative_node_budget(self, capsys, tmp_path, command):
        # A negative budget is a usage error, not a search that overran.
        if command == "solve":
            target = ["--n", "3", "--poset", "C2"]
        else:
            target = ["--family", write_family(tmp_path, construct_b3(5)), "--poset", "C2"]
        code, out, err = run(capsys, command, *target, "--node-budget", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--node-budget" in err

    @pytest.mark.parametrize("command", ["verify", "find-copy"])
    def test_zero_node_budget_still_runs(self, capsys, tmp_path, command):
        path = write_family(tmp_path, construct_b3(5))
        code, _, err = run(capsys, command, "--family", path, "--poset", "B3",
                           "--node-budget", "0")
        assert code == 3
        assert not err.startswith("error:")
