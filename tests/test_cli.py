"""End-to-end runs of the command-line interface, in process."""

from __future__ import annotations

import hashlib
import json
import pathlib
import time

import pytest

from frcodes import cli, groupsearch, storage
from frcodes.fsc import FscParseError, document_to_states, parse_fsc
from frcodes.storage import _short_hash
from frcodes.subspace import CapExceeded

DATA = pathlib.Path(__file__).parent / "data"
BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"


def fixture(name):
    return str(DATA / name)


HEADER = "FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2 1\n"
# lines 5 to 8
PLANE = "subspace A\n  row 1 0 0 0\n  row 0 1 0 0\nend\n"

# one malformed text per parse diagnostic: text, line, column, message
PARSE_ERRORS = [
    ("FSC 1\nfield two 1\n", 2, 7, "p must be an integer, got 'two'"),
    ("FSC 1\nambient 4\n", 2, 1, "expected field line, got 'ambient'"),
    ("FSC 1\nfield 2\n", 2, 1, "field line needs p and e"),
    ("FSC 1\nfield 2 1\nambient 4 5\n", 3, 1, "ambient line needs one dimension"),
    ("FSC 1\nfield 2 1\nambient 4\nparams 4 2 3 2\n", 4, 1,
     "params line needs n k r alpha beta"),
    (HEADER + "subspace\n", 5, 1, "subspace needs a name"),
    (HEADER + "subspace 9A\nend\n", 5, 10, "invalid name '9A'"),
    (HEADER + "subspace A B\nend\n", 5, 12, "unexpected token after subspace name"),
    (HEADER + "subspace A\n  row 1 0 0 0\nend now\n", 7, 5, "unexpected token after end"),
    (HEADER + "subspace A\n  rows 1 0 0 0\nend\n", 6, 3, "expected row or end, got 'rows'"),
    (HEADER + PLANE + "collection C A\ncollection C A\n", 10, 12, "duplicate collection 'C'"),
    (HEADER + PLANE + "collection C\n", 9, 12, "collection needs at least one member"),
    (HEADER + PLANE + "collection C A\nstate C A\n", 10, 1,
     "state line must read: state COLLECTION -> SUBSPACE"),
    (HEADER + PLANE + "collection C A\nstate C -> B\n", 10, 12, "undefined subspace 'B'"),
    (HEADER + PLANE + "collection C A\nstate C -> A\nstate C -> A\n", 11, 7,
     "duplicate state for 'C'"),
]


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

    @pytest.mark.parametrize("text, line, col, message", PARSE_ERRORS)
    def test_parse_diagnostics(self, text, line, col, message, tmp_path, capsys):
        with pytest.raises(FscParseError) as info:
            parse_fsc(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"line {line}, col {col}: {message}"
        doc = tmp_path / "broken.fsc"
        doc.write_text(text)
        assert cli.main(["verify", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: line {line}, col {col}: {message}\n"

    def test_field_order_past_the_maximum_fails_fast(self, tmp_path, capsys):
        # the order is checked before p is tested by trial division
        doc = tmp_path / "huge.fsc"
        doc.write_text("FSC 1\nfield 2305843009213693951 1\nambient 4\nparams 4 2 3 2 1\n")
        start = time.perf_counter()
        assert cli.main(["verify", str(doc)]) == 1
        assert time.perf_counter() - start < 5
        assert "exceeds the supported maximum" in capsys.readouterr().err

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
        # family closure certifies each collection as it adds it, so
        # verify checks each declared newcomer alone
        found = tmp_path / "search.fsc"
        family = tmp_path / "family.fsc"
        assert cli.main(["search", str(BENCH_DATA / "seed56.fsc"), "--group-cap", "5000",
                         "--orbit-cap", "500", "--out", str(found)]) == 0
        assert cli.main(["family", "--r", "2", "--s", "1", "--q", "3",
                         "--out", str(family)]) == 0

        def no_search(*args, **kwargs):
            raise AssertionError("a newcomer was searched for")

        # neither an enumeration nor a listing of completions
        monkeypatch.setattr(storage, "iter_obtainable", no_search)
        monkeypatch.setattr(storage.StateSet, "_completions", no_search)
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


    def test_field_order_past_the_maximum_fails_fast(self, capsys):
        # the order is checked before q is factored by trial division
        start = time.perf_counter()
        assert cli.main(["family", "--r", "2", "--s", "1", "--q", "1000000007"]) == 1
        assert time.perf_counter() - start < 5
        assert "exceeds the supported maximum" in capsys.readouterr().err


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


    def test_document_without_collections(self, tmp_path, capsys):
        doc = tmp_path / "plane.fsc"
        doc.write_text(HEADER + PLANE)
        assert cli.main(["good-check", str(doc), "--r", "3", "--s", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no collections in document\n"


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

    def test_cap_defaults_are_the_library_caps(self):
        args = cli.build_parser().parse_args(["search", "seed.fsc"])
        assert (args.group_cap, args.orbit_cap) == (groupsearch.GROUP_CAP,
                                                    groupsearch.ORBIT_CAP)

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

    def test_json_verdict_when_no_orbit_verifies(self, capsys):
        # an orbit cap below 56 skips every order-168 orbit of the seed
        assert cli.main(["search", str(BENCH_DATA / "seed56.fsc"),
                         "--orbit-cap", "55", "--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"verdict": "fail", "group_order": 0,
                                            "orbit_size": 0}
        assert captured.err == ""

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

    def test_data_with_commas(self, capsys):
        args = ["simulate", fixture("example1.fsc"), "--steps", "7", "--seed", "5"]
        assert cli.main(args + ["--data", "1011"]) == 0
        digits = capsys.readouterr().out
        assert cli.main(args + ["--data", "1, 0,1 ,1"]) == 0
        assert capsys.readouterr().out == digits

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

    @pytest.mark.parametrize("argv,work", [
        (["family", "--r", "2", "--s", "1", "--q", "2", "--steps", "-1"], "construct_good"),
        (["simulate", fixture("example1.fsc"), "--data", "1011", "--steps", "-1"],
         "_read_document"),
        (["simulate", fixture("example1.fsc"), "--data", "1011", "--steps", "-3",
          "--seed", "1"], "_read_document"),
    ], ids=["family", "simulate", "simulate-seeded"])
    def test_negative_steps_fail_before_any_work(self, argv, work, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, no_work)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        steps = argv[argv.index("--steps") + 1]
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: steps must be non-negative, got {steps}"]


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

    @pytest.mark.parametrize("q, digest", [
        ("3", "07c4abf034637f39b2eacc38c0f3faf1cabd585244f508e425331ffd93b042c6"),
        ("4", "f7906a0c154d2c6b0b6aa9666064d513147dcff17c2d31a646906ae60fffab35"),
    ])
    def test_family_out_file_over_larger_fields_is_pinned(self, q, digest, tmp_path, capsys):
        out = tmp_path / "family.fsc"
        assert cli.main(["family", "--r", "2", "--s", "1", "--q", q, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_simulate_is_pinned(self, capsys):
        argv = ["simulate", str(BENCH_DATA / "code56.fsc"), "--data", "10110",
                "--steps", "200", "--seed", "7"]
        assert self._digest(argv, capsys) == \
            "36a8416380f98fe30de9a72dbf94d32f1ce7c1f6ad9433f7f09fe5e8d2adb632"

    def test_simulate_transcript_is_pinned(self, tmp_path, capsys):
        # every helper row, download, newcomer row and rebuilt symbol of
        # 200 repairs, recorded when each repair redid its linear algebra
        out = tmp_path / "transcript.txt"
        argv = ["simulate", str(BENCH_DATA / "code56.fsc"), "--data", "10110",
                "--steps", "200", "--seed", "7", "--transcript", str(out)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "8aa97f6b81d0a7e8a44ae8e848ffe49ea04864cdd9608d3aa43d1551cf9931e5"

    def test_simulate_fast_is_pinned(self, capsys):
        argv = ["simulate", str(BENCH_DATA / "code56.fsc"), "--data", "10110",
                "--steps", "200", "--seed", "7", "--fast"]
        assert self._digest(argv, capsys) == \
            "da422ceee1ee7e8ca417c211591f443de072614581c426b9fe040bf3a1f3fdd7"


class TestOutputPath:
    # each command that writes a file, the option naming the file, and
    # the call of cli that starts its computation
    COMMANDS = {
        "search": (["search", str(BENCH_DATA / "seed56.fsc")], "--out", "symmetry_search"),
        "family": (["family", "--r", "2", "--s", "1", "--q", "2"], "--out",
                   "construct_good"),
        "partition": (["partition"], "--out", "build_partition"),
        "simulate": (["simulate", fixture("example1.fsc"), "--data", "1011",
                      "--steps", "1"], "--transcript", "run_random"),
    }

    def _no_work(self, monkeypatch, name):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(cli, name, no_work)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_path_fails_before_the_computation(self, command, where,
                                                          tmp_path, monkeypatch, capsys):
        argv, option, work = self.COMMANDS[command]
        self._no_work(monkeypatch, work)
        path = tmp_path / "absent" / "x.fsc" if where == "missing-directory" else tmp_path
        assert cli.main(argv + [option, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_writable_path_is_not_touched_before_the_result(self, command,
                                                            tmp_path, monkeypatch):
        argv, option, work = self.COMMANDS[command]
        self._no_work(monkeypatch, work)
        path = tmp_path / "kept.fsc"
        path.write_text("earlier output\n")
        with pytest.raises(AssertionError, match=f"{work} ran"):
            cli.main(argv + [option, str(path)])
        assert path.read_text() == "earlier output\n"
