"""End-to-end runs of the command-line interface, in process."""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from frcodes import cli, groupsearch, storage
from frcodes.fsc import document_to_states, parse_fsc
from frcodes.storage import _short_hash
from frcodes.subspace import CapExceeded

DATA = pathlib.Path(__file__).parent / "data"
BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"


def fixture(name):
    return str(DATA / name)


class TestVerify:
    def test_good_fixture(self, capsys):
        assert cli.main(["verify", fixture("example1.fsc")]) == 0
        out = capsys.readouterr().out
        assert "collections checked: 4" in out
        assert "repair property holds" in out

    def test_corrupted_fixture(self, capsys):
        assert cli.main(["verify", fixture("example1_bad.fsc")]) == 2
        out = capsys.readouterr().out
        assert "FAIL no valid newcomer" in out

    def test_json_output(self, capsys):
        assert cli.main(["verify", fixture("example1.fsc"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": "pass", "states": 4}

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "broken.fsc"
        bad.write_text("FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2 1\n"
                       "subspace A\n  row 1 0\nend\n")
        assert cli.main(["verify", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["verify", fixture("nope.fsc")]) == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_state_line_fails(self, tmp_path, capsys):
        # a state line is a checked certificate: U1 is not a valid newcomer
        # of C0, though a search would find U0
        doc = tmp_path / "wrong.fsc"
        doc.write_text(pathlib.Path(fixture("example1.fsc")).read_text()
                       .replace("state C0 -> U0", "state C0 -> U1"))
        declared = _short_hash(parse_fsc(doc.read_text()).subspaces["U1"].key)
        line = f"FAIL declared newcomer {declared} does not check"
        assert cli.main(["verify", str(doc)]) == 2
        out = capsys.readouterr().out
        assert "failures: 1" in out and line in out
        assert cli.main(["simulate", str(doc), "--data", "1011", "--steps", "3"]) == 2
        assert line in capsys.readouterr().out

    def test_certified_codes_verify_without_a_search(self, tmp_path, monkeypatch, capsys):
        # every collection of these documents has a state line, and the
        # family closure certifies each collection as it adds it
        found = tmp_path / "search.fsc"
        family = tmp_path / "family.fsc"
        assert cli.main(["search", str(BENCH_DATA / "seed56.fsc"), "--group-cap", "5000",
                         "--orbit-cap", "500", "--out", str(found)]) == 0

        def no_search(*args, **kwargs):
            raise AssertionError("a newcomer was searched for")

        monkeypatch.setattr(storage, "_newcomer_search", no_search)
        assert cli.main(["family", "--r", "2", "--s", "1", "--q", "3",
                         "--out", str(family)]) == 0
        for path in [BENCH_DATA / "code56.fsc", DATA / "example1.fsc", found, family]:
            assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.count("repair property holds") == 4

    def test_semantic_error_exit(self, tmp_path, capsys):
        doc = tmp_path / "short.fsc"
        doc.write_text("FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2 1\n"
                       "subspace A\n  row 1 0 0 0\n  row 0 1 0 0\nend\n"
                       "collection C A\n")
        assert cli.main(["verify", str(doc)]) == 1
        assert "members" in capsys.readouterr().err


class TestFamily:
    def test_no_mds_repair_code_fails_cleanly(self, capsys):
        # repair in the (4, 1) family needs a [4,2,3] MDS code, and none
        # is binary
        assert cli.main(["family", "--r", "4", "--s", "1", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert "no [4,2,3] MDS code over GF(2)" in err[0]

    def test_no_mds_construction_code_fails_cleanly(self, capsys):
        # building the (4, 2) family needs a [4,2,3] MDS code at its
        # second level: a missing code is a verdict, not a usage error
        assert cli.main(["family", "--r", "4", "--s", "2", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert "no [4,2,3] MDS code over GF(2)" in err[0]

    def test_family_run(self, tmp_path, capsys):
        out = tmp_path / "family.fsc"
        code = cli.main(["family", "--r", "2", "--s", "1", "--q", "2",
                         "--steps", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "good (2, 1) collection" in text
        assert "5 replacement steps kept the collection good" in text
        assert "9 collections" in text
        doc = parse_fsc(out.read_text())
        states = document_to_states(doc)
        assert len(states) == 9
        assert states.verify().ok


class TestGoodCheck:
    def test_not_good(self, capsys):
        assert cli.main(["good-check", fixture("notgood.fsc"),
                         "--r", "3", "--s", "1"]) == 2
        assert "T: not good" in capsys.readouterr().out

    def test_good(self, tmp_path, capsys):
        out = tmp_path / "family.fsc"
        assert cli.main(["family", "--r", "2", "--s", "1", "--q", "2",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["good-check", str(out), "--r", "2", "--s", "1"]) == 0
        text = capsys.readouterr().out
        assert text.count(": good") == 9


class TestSearch:
    def test_exact_seed(self, tmp_path, capsys):
        out = tmp_path / "found.fsc"
        code = cli.main(["search", fixture("example1_seed.fsc"),
                         "--json", "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["verdict"] == "pass"
        assert payload["group_order"] == 4
        assert payload["orbit_size"] == 4
        found = document_to_states(parse_fsc(out.read_text()))
        assert len(found) == 4
        assert found.verify().ok

    @pytest.mark.parametrize("flag,value", [("--group-cap", "-1"), ("--orbit-cap", "0")])
    def test_cap_below_one_is_a_usage_error(self, flag, value, capsys):
        assert cli.main(["search", str(BENCH_DATA / "seed56.fsc"), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {flag[2:].replace('-', '_')} must be at least 1, got {value}"]

    def test_seed_of_wrong_dimension_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(groupsearch, "stabilizer", no_work)
        doc = tmp_path / "lines.fsc"
        doc.write_text("FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2 1\n"
                       "subspace L\n  row 1 0 0 0\nend\n"
                       "collection C L L L\nstate C -> L\n")
        assert cli.main(["search", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the seed's members and newcomer must have "
                                "dimension alpha = 2\n")

    def test_seed_without_state_line(self, tmp_path, capsys):
        doc = tmp_path / "seed.fsc"
        doc.write_text(pathlib.Path(fixture("example1_seed.fsc")).read_text()
                       .replace("state C0 -> U0\n", ""))
        assert cli.main(["search", str(doc)]) == 1
        assert "state line" in capsys.readouterr().err


class TestPartition:
    def test_partition_output(self, tmp_path, capsys):
        out = tmp_path / "partition.fsc"
        assert cli.main(["partition", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "56 states verified, unique newcomer per collection" in text
        states = document_to_states(parse_fsc(out.read_text()))
        assert len(states) == 56

    def test_partition_max_check(self, capsys):
        assert cli.main(["partition", "--max-check"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines() == [
            "56 states verified, unique newcomer per collection",
            "maximum collection size: 8",
        ]


class TestSimulate:
    def test_simulate_and_transcript(self, tmp_path, capsys):
        transcript = tmp_path / "events.log"
        args = ["simulate", fixture("example1.fsc"), "--data", "1011",
                "--steps", "12", "--seed", "3", "--transcript", str(transcript)]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "integrity: ok" in out
        first = transcript.read_text()
        assert first.count("event ") == 12
        assert "failed" in first and "stored" in first
        # identical seeds give byte-identical transcripts
        assert cli.main(args) == 0
        capsys.readouterr()
        assert transcript.read_text() == first

    def test_simulate_json(self, capsys):
        assert cli.main(["simulate", fixture("example1.fsc"), "--data", "0110",
                         "--steps", "7", "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert payload["downloads"] == 7 * 3
        assert 1 <= payload["states"] <= 4

    def test_document_without_collections(self, tmp_path, capsys):
        doc = tmp_path / "empty.fsc"
        doc.write_text("FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2 1\n")
        assert cli.main(["simulate", str(doc), "--data", "1011", "--steps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: no verified collection to start from: the code is empty\n")

    def test_bad_data(self, capsys):
        assert cli.main(["simulate", fixture("example1.fsc"), "--data", "10a1",
                         "--steps", "1"]) == 1
        assert "base-2" in capsys.readouterr().err
        assert cli.main(["simulate", fixture("example1.fsc"), "--data", "10",
                         "--steps", "1"]) == 1


class TestCutset:
    def test_bound_with_family_comparison(self, capsys):
        assert cli.main(["cutset", "--k", "3", "--r", "3",
                         "--alpha", "2", "--beta", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "5"
        assert "message dimension for r=3, s=1: 5" in lines[1]
        assert "matches" in lines[1]

    def test_bound_without_comparison(self, capsys):
        assert cli.main(["cutset", "--k", "2", "--r", "3",
                         "--alpha", "2", "--beta", "2"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_beta_above_alpha_is_a_usage_error(self, capsys):
        assert cli.main(["cutset", "--k", "3", "--r", "2",
                         "--alpha", "1", "--beta", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: beta=2 exceeds alpha=1"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["simulate", fixture("example1.fsc")]) == 1
        assert "error" in capsys.readouterr().err
        assert cli.main(["frobnicate"]) == 1

    def test_cap_exceeded_maps_to_three(self, monkeypatch, capsys):
        def blow_up(args):
            raise CapExceeded("too big")

        monkeypatch.setattr(cli, "cmd_verify", blow_up)
        assert cli.main(["verify", fixture("example1.fsc")]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_negative_steps_is_a_usage_error(self, capsys):
        runs = [["simulate", fixture("example1.fsc"), "--data", "1011",
                 "--steps", "-3", "--seed", "1"],
                ["family", "--r", "2", "--s", "1", "--q", "2", "--steps", "-1"]]
        for argv in runs:
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert "steps" not in captured.out
            err = captured.err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("error: steps must be non-negative")


class TestPinnedOutputs:
    # sha256 of the standard output of two seeded runs, recorded when
    # every listed collection's newcomers came from enumerating all of
    # its obtainable spaces: the completion search must agree byte for byte
    def _digest(self, argv, capsys):
        assert cli.main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_search_json_is_pinned(self, capsys):
        argv = ["search", str(BENCH_DATA / "seed56.fsc"), "--group-cap", "5000",
                "--orbit-cap", "500", "--json"]
        assert self._digest(argv, capsys) == \
            "a4c9d22e802fd929ced90d19970935de285d15dbb58614c64005291a7e9818f1"

    def test_search_text_is_pinned(self, capsys):
        argv = ["search", str(BENCH_DATA / "seed56.fsc"), "--group-cap", "5000",
                "--orbit-cap", "500"]
        assert self._digest(argv, capsys) == \
            "4caa52a800d7b9de4a95ac1f6ac8c03010691536bbfdf43b8a4eccb5ba6933c9"

    @pytest.mark.parametrize("argv, digest", [
        (["search", str(BENCH_DATA / "seed56.fsc"), "--group-cap", "5000",
          "--orbit-cap", "500"],
         "27616ee8f9bc18a2aa8e88209bf7b585f3bb55159d9e30ea45fc934bc1e1d946"),
        (["search", fixture("example1_seed.fsc")],
         "5a0d576e7a8d09e2ef29a4c3910b6b6058aea2d4a2c727a04a81801d5b7bd9c8"),
    ], ids=["seed56-capped", "example1"])
    def test_search_out_file_is_pinned(self, argv, digest, tmp_path, capsys):
        out = tmp_path / "found.fsc"
        assert cli.main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_simulate_is_pinned(self, capsys):
        argv = ["simulate", str(BENCH_DATA / "code56.fsc"), "--data", "10110",
                "--steps", "200", "--seed", "7"]
        assert self._digest(argv, capsys) == \
            "36a8416380f98fe30de9a72dbf94d32f1ce7c1f6ad9433f7f09fe5e8d2adb632"
