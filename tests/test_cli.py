"""Tests for the command line front end."""

import json

import pytest

from zerosum.cli import main as cli_main


def run_cli(capsys, *args):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(list(args))
    out, err = capsys.readouterr()
    code = excinfo.value.code
    return (0 if code is None else code), out, err


class TestInfo:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info", "--group", "2^4",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 16
        assert data["rank"] == 4
        assert data["exponent"] == 2
        assert data["invariant_factors"] == [2, 2, 2, 2]

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info", "--group", "3,9")
        assert code == 0
        assert "order: 27" in out
        assert "exponent: 9" in out

    def test_trivial_group_literal(self, capsys):
        code, out, _ = run_cli(capsys, "group", "info", "--group", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == 1

    def test_bad_group_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "group", "info", "--group", "banana")
        assert code == 1
        assert err


class TestCompute:
    def test_davenport_with_verification(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "davenport", "--group", "3^2",
                               "--format", "json", "--verify")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 5
        assert data["verified"] is True

    def test_dk_exact_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "dk", "--group", "2^3", "--k", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == 11

    def test_dk_bracket_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "dk", "--group", "2^5", "--k", "3",
                               "--format", "json")
        assert code == 2
        data = json.loads(out)
        assert data["interval"] == {"lo": 13, "hi": 14}
        assert "value" not in data

    def test_sle_infinite_serializes_as_inf(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "sle", "--group", "5", "--k", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == "inf"

    def test_eta(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "eta", "--group", "2^3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == 8

    def test_davenport_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "davenport", "--group", "3^2", "--verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "D(3^2) = 5"
        assert "verified: yes" in lines

    def test_zero_budget_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "davenport", "--group", "3^2",
                               "--budget", "0")
        assert code == 1
        assert "--budget" in err

    def test_exhausted_budget_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "davenport", "--group", "3^3",
                               "--budget", "50")
        assert code == 1
        assert "zero-sum-free search (cap 27) on 3^3" in err
        assert "after 50 nodes" in err

    def test_exhausted_elementary_two_budget_is_usage_error(self, capsys):
        # s_le(C_2^5, 4) is the one C_2^r threshold that is searched
        code, _, err = run_cli(capsys, "compute", "sle", "--group", "2^5", "--k", "4",
                               "--budget", "1")
        assert code == 1
        assert "short-zero-sum search (cap 4) on 2^5 exhausted its budget after 1 nodes" in err

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_rank5_dk_budget_is_kept(self, capsys, budget):
        # the C_2^5 rows run no search that takes a budget; the search
        # behind s_le(C_2^5, 4) keeps the one it is given
        code, _, err = run_cli(capsys, "compute", "sle", "--group", "2^5", "--k", "4",
                               "--budget", budget)
        assert code == 1
        assert "(cap 4) on 2^5 exhausted its budget after %s nodes" % budget in err

    @pytest.mark.parametrize("k,value", [("1", 6), ("2", 10)])
    def test_rank5_dk_rows_take_no_budget(self, capsys, k, value):
        code, out, _ = run_cli(capsys, "compute", "dk", "--group", "2^5", "--k", k,
                               "--budget", "1")
        assert code == 0
        assert out.splitlines()[0] == "D_%s(2^5) = %d" % (k, value)

    def test_eta_past_rank_nine_is_a_rule(self, capsys, tmp_path):
        # eta(C_2^10) = 2^10 from the Hamming code, with no search to overflow
        code, out, _ = run_cli(capsys, "compute", "eta", "--group", "2^10")
        assert code == 0
        assert out.splitlines()[0] == "eta(2^10) = 1024"
        code, out, _ = run_cli(capsys, "compute", "eta", "--group", "2^10", "--format", "json")
        assert code == 0
        path = tmp_path / "eta.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--cert", str(path))
        assert (code, out.strip()) == (0, "ok")

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "dk", "--group", "2^3")
        assert code == 1

    def test_nonpositive_k_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "dk", "--group", "2^3", "--k", "0")
        assert code == 1

    def test_timing_flag_adds_elapsed(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "davenport", "--group", "2^2",
                            "--format", "json", "--timing")
        assert "elapsed_ms" in json.loads(out)

    def test_no_timing_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "davenport", "--group", "2^2",
                            "--format", "json")
        assert "elapsed_ms" not in json.loads(out)

    def test_text_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "dk", "--group", "2^5", "--k", "3")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "D_3(2^5) in [13, 14]"
        assert lines[1].endswith("(length 13, rule max-disjoint)")
        assert lines[2] == (
            "chain: ub.e2g_d -> ub.e2g_sphere -> ub.recursion -> ub.recursion"
            " -> ub.recursion -> ub.squarefree_caps"
        )
        assert lines[3:] == ["digest: cc0ee01207055375"]

    def test_text_threshold_label(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "sle", "--group", "2^3", "--k", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s_le_2(2^3) = 8"
        assert lines[1].endswith("(length 7, rule short-free)")
        assert lines[2:] == ["chain: ub.e2g_sphere", "digest: 778e886495fb217b"]

    def test_json_output_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "dk", "--group", "2^4", "--k", "3",
                              "--format", "json")
        _, second, _ = run_cli(capsys, "compute", "dk", "--group", "2^4", "--k", "3",
                               "--format", "json")
        assert first == second
        assert first == json.dumps(json.loads(first), sort_keys=True) + "\n"


class TestStabilize:
    def test_certified_group(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "stabilize", "--group", "3^2",
                               "--kmax", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["d0"] == 2
        assert data["k_onset"] == 1
        assert data["certified"] is True

    def test_inputs_option_is_gone(self, capsys, tmp_path):
        # a caller's table no longer certifies a tail
        path = tmp_path / "upper.json"
        path.write_text(json.dumps({str(k): 3 + 2 * k for k in range(1, 6)}))
        code, out, err = run_cli(capsys, "compute", "stabilize", "--group", "2^3",
                                 "--kmax", "5", "--inputs", str(path))
        assert code == 1
        assert out == ""
        assert "No such option '--inputs'" in err

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "stabilize", "--group", "3^2",
                               "--kmax", "3")
        assert code == 0
        assert out.splitlines() == [
            "group: 3^2",
            "k=1: 5",
            "k=2: 8",
            "k=3: 11",
            "offset: 2",
            "onset: 1",
            "certified: yes",
            "method: threshold criterion: table depth 3 >= 2 and offset "
            "matches the complement constant",
        ]


class TestBound:
    def test_collects_rules_from_inputs(self, capsys, tmp_path):
        path = tmp_path / "known.json"
        path.write_text(json.dumps({"D": 4, "s_le": {"2": 8, "3": 8}}))
        code, out, _ = run_cli(capsys, "bound", "all", "--group", "2^3", "--k", "2",
                               "--inputs", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        rules = {b["rule"] for b in data["bounds"]}
        assert "lb.dstar" in rules
        assert "ub.recursion" in rules
        lowers = [b["value"] for b in data["bounds"] if b["direction"] == "lower"]
        uppers = [b["value"] for b in data["bounds"] if b["direction"] == "upper"]
        assert max(lowers) <= min(uppers)

    def test_text_lines(self, capsys, tmp_path):
        path = tmp_path / "known.json"
        path.write_text(json.dumps({"D": 4, "s_le": {"2": 8, "3": 8}}))
        code, out, _ = run_cli(capsys, "bound", "all", "--group", "2^3", "--k", "2",
                               "--inputs", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lower lb.dstar           6"
        assert "upper ub.recursion       7" in lines
        assert lines[-1] == "upper ub.e2g_d2          7"

    def test_without_inputs_still_reports_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "all", "--group", "3^3", "--k", "2",
                               "--format", "json")
        assert code == 0
        rules = {b["rule"] for b in json.loads(out)["bounds"]}
        assert "lb.dstar" in rules


class TestConstruct:
    def test_elb_witness_text(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "elb-witness", "--group", "3^3",
                               "--s", "3", "--t", "1", "--k", "2", "--verify")
        assert code == 0
        assert out.splitlines() == [
            "witness: 0,0,1^2; 0,1,0^2; 0,1,1^2; 1,0,0^2; 1,0,1; 1,1,0",
            "length: 10",
            "lower_bound: 11",
            "verified: yes",
        ]

    def test_paige_text(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "paige", "--rank", "2", "--verify")
        assert code == 0
        assert out.splitlines() == [
            "00 -> 00", "01 -> 11", "10 -> 01", "11 -> 10", "verified: yes",
        ]

    def test_maxfull_text(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "maxfull", "--rank", "3", "--verify")
        assert code == 0
        assert out.splitlines() == [
            "blocks: 2",
            "0,0,1; 0,1,1; 1,0,1; 1,1,1",
            "0,1,0; 1,0,0; 1,1,0",
            "verified: yes",
        ]

    def test_paige_pairs_cover_the_group(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "paige", "--rank", "4",
                               "--format", "json")
        assert code == 0
        pairs = json.loads(out)["pairs"]
        assert len(pairs) == 16
        sources = {tuple(p[0]) for p in pairs}
        doubled = {tuple(a ^ b for a, b in zip(p[0], p[1])) for p in pairs}
        assert len(sources) == 16
        assert len(doubled) == 16  # g + image(g) hits every element

    def test_maxfull_block_count(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "maxfull", "--rank", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["blocks"] == 5  # floor(15 / 3)

    def test_elb_witness(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "elb-witness", "--group", "3^3",
                               "--s", "3", "--t", "1", "--k", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 10
        assert data["lower_bound"] == 11

    def test_infeasible_parameters_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "elb-witness", "--group", "3^3",
                             "--s", "9", "--t", "1", "--k", "2")
        assert code == 1

    def test_paige_rank_one_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "paige", "--rank", "1")
        assert code == 1

    def test_verify_flags(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "maxfull", "--rank", "4",
                               "--verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["verified"] is True
        code, out, _ = run_cli(capsys, "construct", "paige", "--rank", "5",
                               "--verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["verified"] is True
        code, out, _ = run_cli(capsys, "construct", "elb-witness", "--group", "2^4",
                               "--s", "2", "--t", "1", "--k", "2", "--verify",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestTable:
    def test_text_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "2^5", "--kmax", "4")
        assert code == 2
        assert out.splitlines() == [
            "group: 2^5  exponent: 2",
            "k=1: 6",
            "k=2: 10  step 4",
            "k=3: 13..14  step 3..4",
            "k=4: 16..17  step 2..4",
            "stabilization: offset None from k=None, certified no",
        ]

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "2^3", "--kmax", "5",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,dk,dk_minus_kexp,step,certified"
        assert len(lines) == 6
        assert lines[1] == "1,4,2,,true"
        assert lines[2] == "2,7,3,3,true"
        assert lines[5] == "5,13,3,2,true"

    def test_bracket_rows_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "2^5", "--kmax", "4",
                               "--format", "csv")
        assert code == 2
        lines = out.strip().splitlines()
        assert lines[3].startswith("3,13..14,")
        assert lines[4].startswith("4,16..17,")

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "4", "--kmax", "3",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["lo"], r["hi"]) for r in rows] == [(4, 4), (8, 8), (12, 12)]
        assert all(r["certified"] for r in rows)

    def test_stabilization_summary_attached(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "2^2", "--kmax", "4",
                               "--format", "json")
        assert code == 0
        summary = json.loads(out)["stabilization"]
        assert summary["d0"] == 1
        assert summary["k_onset"] == 1
        assert summary["certified"] is True

    def test_trivial_group_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dk", "--group", "1", "--kmax", "3",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1:] == ["1,1,0,,true", "2,2,0,1,true", "3,3,0,1,true"]


class TestVerify:
    def make_cert_file(self, capsys, tmp_path, tamper=None):
        _, out, _ = run_cli(capsys, "compute", "dk", "--group", "2^4", "--k", "2",
                            "--format", "json")
        data = json.loads(out)
        if tamper:
            tamper(data)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_good_certificate(self, capsys, tmp_path):
        path = self.make_cert_file(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--cert", path)
        assert code == 0
        assert out.strip() == "ok"

    def test_tampered_certificate(self, capsys, tmp_path):
        def bump(data):
            data["value"] += 1

        path = self.make_cert_file(capsys, tmp_path, tamper=bump)
        code, out, _ = run_cli(capsys, "verify", "--cert", path, "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["problems"]

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "verify", "--cert", path)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--cert", "/nonexistent/cert.json")
        assert code == 1


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "compute" in out

    def test_compute_dk_help_has_no_workers_option(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "dk", "--help")
        assert code == 0
        assert "--k" in out
        assert "--workers" not in out
