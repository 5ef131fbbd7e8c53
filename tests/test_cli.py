"""Tests for the command line front end."""

import hashlib
import json
import re
import sys

import pytest

from zerosum.cli import main as cli_main


def run_cli(capsys, *args):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(list(args))
    out, err = capsys.readouterr()
    code = excinfo.value.code
    return (0 if code is None else code), out, err


EMPTY = hashlib.sha256(b"").hexdigest()[:16]

# Every command in each format, with and without --verify, its usage
# errors and its --help: (id, zs arguments, what the {inputs} file holds,
# (exit code, first 16 hex digits of stdout's sha256, stderr's last line)).
# The file holds json.dumps of a value, or the stdout of the zs command a
# string names. Of the bound-* inputs after bound-missing-inputs, D = 0 was
# refused by ub.k_times_d and level -2 was read; each other once died in a
# traceback or was silently coerced.
OUTPUT_PINS = [
    ("info-json", "group info --group 2^4 --format json", None, (0, "fbcc253e2ae598f2", "")),
    ("info-text", "group info --group 3,9", None, (0, "72b6a2f7bb1b476d", "")),
    ("info-trivial-json", "group info --group 1 --format json", None, (0, "9bdaa99db0fa1ae4", "")),
    ("info-trivial-text", "group info --group 1", None, (0, "c455a01bb698c2ce", "")),
    ("info-bad-group", "group info --group banana", None,
     (1, EMPTY, "Error: expected integer group factor (at position 0)")),
    ("davenport-json", "compute davenport --group 3^2 --format json", None,
     (0, "b5f420f0760f7385", "")),
    ("davenport-json-verify", "compute davenport --group 3^2 --format json --verify", None,
     (0, "2f45a63ac4bf2229", "")),
    ("davenport-text", "compute davenport --group 3^2", None, (0, "f6f96c2164408383", "")),
    ("davenport-text-verify", "compute davenport --group 3^2 --verify", None,
     (0, "f45870750b6cfd51", "")),
    ("davenport-zero-budget", "compute davenport --group 3^2 --budget 0", None,
     (1, EMPTY, "Error: Invalid value for '--budget': 0 is not in the range x>=1.")),
    ("davenport-exhausted", "compute davenport --group 2,2,6 --budget 50", None,
     (1, EMPTY, "Error: zero-sum-free search (cap 24) on 2^2,6 exhausted its budget after 50 "
                "nodes")),
    ("dk-json", "compute dk --group 2^3 --k 4 --format json", None, (0, "55012e75915e5d06", "")),
    ("dk-json-verify", "compute dk --group 2^3 --k 4 --format json --verify", None,
     (0, "f1fff7466fbcfbac", "")),
    ("dk-text", "compute dk --group 2^3 --k 4", None, (0, "f8f6d475b4b04d41", "")),
    ("dk-text-verify", "compute dk --group 2^3 --k 4 --verify", None, (0, "27605bde68b2c9af", "")),
    ("dk-bracket-json", "compute dk --group 2^5 --k 3 --format json", None,
     (2, "38a2c6996700ad38", "")),
    ("dk-bracket-json-verify", "compute dk --group 2^5 --k 3 --format json --verify", None,
     (2, "1018b78796ea8250", "")),
    ("dk-bracket-text", "compute dk --group 2^5 --k 3", None, (2, "d923e0f9e2268aa8", "")),
    ("dk-bracket-text-verify", "compute dk --group 2^5 --k 3 --verify", None,
     (2, "a3f7bf2a51f19a53", "")),
    ("dk-missing-k", "compute dk --group 2^3", None, (1, EMPTY, "Error: Missing option '--k'.")),
    ("dk-k0", "compute dk --group 2^3 --k 0", None, (1, EMPTY, "Error: k must be at least 1")),
    ("sle-json", "compute sle --group 2^3 --k 2 --format json", None, (0, "29120d4917528e54", "")),
    ("sle-json-verify", "compute sle --group 2^3 --k 2 --format json --verify", None,
     (0, "568b681709846cdf", "")),
    ("sle-text", "compute sle --group 2^3 --k 2", None, (0, "529409e1e906c8ca", "")),
    ("sle-text-verify", "compute sle --group 2^3 --k 2 --verify", None,
     (0, "4d1f79c4a3b5815a", "")),
    ("sle-inf-json", "compute sle --group 5 --k 2 --format json", None,
     (0, "616661d0496f2894", "")),
    ("sle-exhausted", "compute sle --group 2^5 --k 4 --budget 1", None,
     (1, EMPTY, "Error: short-zero-sum search (cap 4) on 2^5 exhausted its budget after 1 nodes")),
    ("sle-k0", "compute sle --group 2^3 --k 0", None, (1, EMPTY, "Error: k must be at least 1")),
    ("eta-json", "compute eta --group 2^3 --format json", None, (0, "7894e6aa56144c8b", "")),
    ("eta-json-verify", "compute eta --group 2^3 --format json --verify", None,
     (0, "296650c265f28123", "")),
    ("eta-text", "compute eta --group 2^3", None, (0, "b16023262e63b4d3", "")),
    ("eta-text-verify", "compute eta --group 2^3 --verify", None, (0, "a338a784d51c432b", "")),
    ("stabilize-json", "compute stabilize --group 3^2 --kmax 3 --format json", None,
     (0, "b2d1a7d3978bdc36", "")),
    ("stabilize-text", "compute stabilize --group 3^2 --kmax 3", None,
     (0, "eedcc8b9644acc25", "")),
    ("stabilize-bracket-text", "compute stabilize --group 2^5 --kmax 4", None,
     (2, "fae6dcb00195ecb0", "")),
    ("stabilize-bracket-json", "compute stabilize --group 2^5 --kmax 4 --format json", None,
     (2, "0ff6395f9a369d94", "")),
    ("stabilize-kmax0", "compute stabilize --group 3^2 --kmax 0", None,
     (1, EMPTY, "Error: kmax must be at least 1")),
    ("stabilize-inputs-gone", "compute stabilize --group 2^3 --kmax 5 --inputs {inputs}", {"1": 5},
     (1, EMPTY, "Error: No such option '--inputs'.")),
    ("2^5-k2-inputs", "bound all --group 2^5 --k 2 --inputs {inputs} --format json",
     {"D": 6, "s_le": {"2": 32, "3": 17}},
     (0, "de4a632580c2b50e", "")),
    ("3^3-k3", "bound all --group 3^3 --k 3 --format json", None, (0, "5c30395a70e2ef5c", "")),
    ("2,4,8-k4", "bound all --group 2,4,8 --k 4 --format json", None, (0, "8167d144f2ad5cd4", "")),
    ("bound-inputs-json", "bound all --group 2^3 --k 2 --inputs {inputs} --format json",
     {"D": 4, "s_le": {"2": 8, "3": 8}},
     (0, "f6e11fae2dbd3d01", "")),
    ("bound-inputs-text", "bound all --group 2^3 --k 2 --inputs {inputs}",
     {"D": 4, "s_le": {"2": 8, "3": 8}},
     (0, "a7fd276bc6108523", "")),
    ("bound-inf-inputs-text", "bound all --group 5 --k 3 --inputs {inputs}",
     {"D": 5, "s_le": {"2": "inf", "5": 9}},
     (0, "888adf9906e33ccf", "")),
    ("bound-text", "bound all --group 3^3 --k 2", None, (0, "635d7fba524d26c9", "")),
    ("bound-k0", "bound all --group 3^3 --k 0", None, (1, EMPTY, "Error: k must be at least 1")),
    ("bound-trivial", "bound all --group 1 --k 2", None,
     (1, EMPTY, "Error: trivial group is handled by direct computation")),
    ("bound-missing-inputs", "bound all --group 2^3 --k 2 --inputs /nonexistent/known.json", None,
     (1, EMPTY, "Error: cannot read /nonexistent/known.json: [Errno 2] No such file or directory: "
                "'/nonexistent/known.json'")),
    ("bound-D-str", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": "x"},
     (1, EMPTY, "Error: --inputs D must be a positive int, not 'x'")),
    ("bound-key-str", "bound all --group 2^3 --k 2 --inputs {inputs}", {"s_le": {"a": 3}},
     (1, EMPTY, "Error: --inputs s_le level must be a decimal int, not 'a'")),
    ("bound-s_le-list", "bound all --group 2^3 --k 2 --inputs {inputs}", {"s_le": [1]},
     (1, EMPTY, "Error: --inputs must be an object whose s_le is an object")),
    ("bound-list", "bound all --group 2^3 --k 2 --inputs {inputs}", [1],
     (1, EMPTY, "Error: --inputs must be an object whose s_le is an object")),
    ("bound-D-inconsistent", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": 1},
     (1, EMPTY, "Error: D_k: lower lb.dstar=6 exceeds upper ub.k_times_d=2")),
    ("bound-D-bool", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": True},
     (1, EMPTY, "Error: --inputs D must be a positive int, not True")),
    ("bound-D-float", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": 3.9},
     (1, EMPTY, "Error: --inputs D must be a positive int, not 3.9")),
    ("bound-value-str", "bound all --group 2^3 --k 2 --inputs {inputs}", {"s_le": {"2": "7"}},
     (1, EMPTY, "Error: --inputs s_le level 2: expected an integer or the literal 'inf', got "
                "'7'")),
    ("bound-value-float", "bound all --group 2^3 --k 2 --inputs {inputs}", {"s_le": {"2": 7.5}},
     (1, EMPTY, "Error: --inputs s_le level 2: expected an integer or the literal 'inf', got "
                "7.5")),
    ("bound-D-zero", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": 0},
     (1, EMPTY, "Error: --inputs D must be a positive int, not 0")),
    ("bound-D-inf", "bound all --group 2^3 --k 2 --inputs {inputs}", {"D": "inf"},
     (1, EMPTY, "Error: --inputs D must be a positive int, not 'inf'")),
    ("bound-key-signed", "bound all --group 2^3 --k 2 --inputs {inputs}", {"s_le": {"-2": 8}},
     (1, EMPTY, "Error: --inputs s_le level must be a decimal int, not '-2'")),
    ("elb-text", "construct elb-witness --group 3^3 --s 3 --t 1 --k 2", None,
     (0, "e93d9ad82922e3b0", "")),
    ("elb-text-verify", "construct elb-witness --group 3^3 --s 3 --t 1 --k 2 --verify", None,
     (0, "e2a9612fe69fb48e", "")),
    ("elb-json", "construct elb-witness --group 3^3 --s 3 --t 1 --k 2 --format json", None,
     (0, "e4280fb62e7abcae", "")),
    ("elb-json-verify",
     "construct elb-witness --group 2^4 --s 2 --t 1 --k 2 --verify --format json",
     None,
     (0, "eec91fb81d43e75f", "")),
    ("elb-infeasible", "construct elb-witness --group 3^3 --s 9 --t 1 --k 2", None,
     (1, EMPTY, "Error: pair patterns exceed available coordinates")),
    ("paige-text", "construct paige --rank 2", None, (0, "0f2eb2f501dba6f0", "")),
    ("paige-text-verify", "construct paige --rank 2 --verify", None, (0, "2b3a0888eb8588b7", "")),
    ("paige-json", "construct paige --rank 4 --format json", None, (0, "8bf184a319b7be52", "")),
    ("paige-json-verify", "construct paige --rank 5 --verify --format json", None,
     (0, "8a845616a552a10b", "")),
    ("paige-rank1", "construct paige --rank 1", None, (1, EMPTY, "Error: need rank at least 2")),
    ("maxfull-text", "construct maxfull --rank 3", None, (0, "d1bd939344990505", "")),
    ("maxfull-text-verify", "construct maxfull --rank 3 --verify", None,
     (0, "bb8f5c8993a95cb6", "")),
    ("maxfull-json", "construct maxfull --rank 4 --format json", None,
     (0, "65560c9b43537663", "")),
    ("maxfull-json-verify", "construct maxfull --rank 4 --verify --format json", None,
     (0, "83e5efa3c69b46c2", "")),
    ("maxfull-rank1", "construct maxfull --rank 1", None,
     (1, EMPTY, "Error: need rank at least 2")),
    ("table-text", "table dk --group 2^3 --kmax 5", None, (0, "afb7f02b8a799f9c", "")),
    ("table-csv", "table dk --group 2^3 --kmax 5 --format csv", None, (0, "d724a66690b867ef", "")),
    ("table-json", "table dk --group 2^3 --kmax 5 --format json", None,
     (0, "6b04235edf459273", "")),
    ("table-bracket-text", "table dk --group 2^5 --kmax 4", None, (2, "e3f7507bbd033aa6", "")),
    ("table-bracket-csv", "table dk --group 2^5 --kmax 4 --format csv", None,
     (2, "70b8fe3d599871c6", "")),
    ("table-bracket-json", "table dk --group 2^5 --kmax 4 --format json", None,
     (2, "96c3fe34af25baa3", "")),
    ("table-cyclic-json", "table dk --group 4 --kmax 3 --format json", None,
     (0, "ccd562f98e997f2a", "")),
    ("table-trivial-csv", "table dk --group 1 --kmax 3 --format csv", None,
     (0, "bc7059e941176ddf", "")),
    ("table-kmax0", "table dk --group 2^3 --kmax 0", None,
     (1, EMPTY, "Error: kmax must be at least 1")),
    ("verify-text", "verify --cert {inputs}", "compute dk --group 2^4 --k 2 --format json",
     (0, "dc51b8c96c2d745d", "")),
    ("verify-json", "verify --cert {inputs} --format json",
     "compute dk --group 2^4 --k 2 --format json",
     (0, "4781be4bc0d8289b", "")),
    ("verify-list", "verify --cert {inputs}", [1, 2],
     (1, EMPTY, "Error: malformed certificate: list indices must be integers or slices, not str")),
    ("verify-missing", "verify --cert /nonexistent/cert.json", None,
     (1, EMPTY, "Error: cannot read /nonexistent/cert.json: [Errno 2] No such file or directory: "
                "'/nonexistent/cert.json'")),
    ("unknown-command", "frobnicate", None, (1, EMPTY, "Error: No such command 'frobnicate'.")),
    ("help", "--help", None, (0, "12ae7e26da805c6b", "")),
    ("group-help", "group --help", None, (0, "b807b826f132a07e", "")),
    ("compute-help", "compute --help", None, (0, "8a593fe55becd542", "")),
    ("bound-help", "bound --help", None, (0, "d50110766179180d", "")),
    ("construct-help", "construct --help", None, (0, "cd6a719eadf593f7", "")),
    ("table-help", "table --help", None, (0, "1952fd59d543523b", "")),
    ("info-help", "group info --help", None, (0, "9eeb7092638faaf9", "")),
    ("davenport-help", "compute davenport --help", None, (0, "e4ecc3f8c526613c", "")),
    ("dk-help", "compute dk --help", None, (0, "6ecc2873e1f74631", "")),
    ("sle-help", "compute sle --help", None, (0, "9a21957ab28f3d16", "")),
    ("eta-help", "compute eta --help", None, (0, "637ce685ffa82723", "")),
    ("stabilize-help", "compute stabilize --help", None, (0, "fb241cc283d4967c", "")),
    ("bound-all-help", "bound all --help", None, (0, "944747554f6e7830", "")),
    ("elb-help", "construct elb-witness --help", None, (0, "a1136d0ca431d8a4", "")),
    ("paige-help", "construct paige --help", None, (0, "e1962f5f0384147a", "")),
    ("maxfull-help", "construct maxfull --help", None, (0, "0ea62d43618a5ab4", "")),
    ("table-dk-help", "table dk --help", None, (0, "70ba9911ecae6b23", "")),
    ("verify-help", "verify --help", None, (0, "e7a9b945e26106a1", "")),
]


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
        # C_2 + C_2 + C_6 is neither a p-group nor of rank <= 2, so its D
        # is searched
        code, _, err = run_cli(capsys, "compute", "davenport", "--group", "2,2,6",
                               "--budget", "50")
        assert code == 1
        assert "zero-sum-free search (cap 24) on 2^2,6" in err
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
        assert lines[3:] == ["digest: f929bd1e1aeb10d2"]

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

    @pytest.mark.parametrize("args,inputs,pin", [case[1:] for case in OUTPUT_PINS],
                             ids=[case[0] for case in OUTPUT_PINS])
    def test_json_bytes_pinned(self, capsys, tmp_path, monkeypatch, args, inputs, pin):
        # bound all's JSON digests take every calculator's step and its
        # labels; the other pins hold every command's output in place
        monkeypatch.setattr(sys, "argv", ["zs"])  # so --help names the program zs
        monkeypatch.setattr(sys.modules["__main__"], "__package__", None, raising=False)
        args = args.split()
        if inputs is not None:
            path = tmp_path / "inputs.json"
            if isinstance(inputs, str):
                path.write_text(run_cli(capsys, *inputs.split())[1])
            else:
                path.write_text(json.dumps(inputs))
            args = [str(path) if arg == "{inputs}" else arg for arg in args]
        code, out, err = run_cli(capsys, *args)
        assert "Traceback" not in err
        last = err.splitlines()[-1] if err else ""
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16], last) == pin

    def test_without_inputs_still_reports_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "all", "--group", "3^3", "--k", "2",
                               "--format", "json")
        assert code == 0
        rules = {b["rule"] for b in json.loads(out)["bounds"]}
        assert "lb.dstar" in rules


TIMED = [
    "compute davenport --group 2^2",
    "compute dk --group 2^3 --k 2",
    "compute sle --group 2^3 --k 2",
    "compute eta --group 2^3",
    "compute stabilize --group 3^2 --kmax 2",
    "bound all --group 3^3 --k 2",
    "table dk --group 2^3 --kmax 2",
]


class TestTiming:
    @pytest.mark.parametrize("args", TIMED, ids=[" ".join(a.split()[:2]) for a in TIMED])
    def test_elapsed_ms_comes_last(self, capsys, args):
        args = args.split()
        _, plain, _ = run_cli(capsys, *args)
        _, timed, _ = run_cli(capsys, *args, "--timing")
        assert re.fullmatch(r"elapsed_ms: \d+", timed.splitlines()[-1])
        assert timed.splitlines()[:-1] == plain.splitlines()
        _, plain, _ = run_cli(capsys, *args, "--format", "json")
        _, timed, _ = run_cli(capsys, *args, "--format", "json", "--timing")
        timed = json.loads(timed)
        assert type(timed.pop("elapsed_ms")) is int
        assert timed == json.loads(plain)

    def test_csv_has_no_elapsed_line(self, capsys):
        args = ("table", "dk", "--group", "2^3", "--kmax", "2", "--format", "csv")
        assert run_cli(capsys, *args, "--timing") == run_cli(capsys, *args)


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
    def make_cert_file(self, capsys, tmp_path, tamper=None, group="2^4", k="2"):
        _, out, _ = run_cli(capsys, "compute", "dk", "--group", group, "--k", k,
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

    @pytest.mark.parametrize("field,label", [("direction", "lower"), ("constant", "s_le")])
    def test_relabelled_step_is_malformed(self, capsys, tmp_path, field, label):
        # a step's direction and constant are its rule's, whatever the file says
        def relabel(data):
            del data["digest"]  # so only the label can object
            data["upper_chain"][-1][field] = label

        path = self.make_cert_file(capsys, tmp_path, tamper=relabel)
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err

    @pytest.mark.parametrize("k", ["1", None, 1.0, True], ids=["str", "null", "float", "bool"])
    def test_k_of_another_type_is_malformed(self, capsys, tmp_path, k):
        # D_1(C_3^2) with its k retyped and its digest dropped: each once
        # verified or died in a traceback
        def retype(data):
            del data["digest"]
            data["k"] = k

        path = self.make_cert_file(capsys, tmp_path, tamper=retype, group="3^2", k="1")
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err

    def test_forgery_is_refused(self, capsys, tmp_path, forged):
        # a witness rule that does not bound the constant, under a digest
        # recomputed for the forged claim
        cert, problem = forged
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_json()))
        code, out, _ = run_cli(capsys, "verify", "--cert", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "problems": [problem]}

    def test_malformed_json_is_refused(self, capsys, tmp_path, malformed):
        data, message = malformed
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert out == ""
        assert err.strip() == "Error: malformed certificate: " + message

    @pytest.mark.parametrize("end", ["13", 13.0, 13.7, True], ids=["str", "float", "fraction", "bool"])
    def test_interval_end_of_another_type_is_malformed(self, capsys, tmp_path, end):
        # D_3(C_2^5) = [13, 14] with its lower end retyped and its digest
        # dropped: each was once read as int(end), so all but true verified
        def retype(data):
            del data["digest"]
            data["interval"]["lo"] = end

        path = self.make_cert_file(capsys, tmp_path, tamper=retype, group="2^5", k="3")
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err

    @pytest.mark.parametrize("shape", ["witness_check", "params", "upper_chain"])
    def test_object_of_another_type_is_malformed(self, capsys, tmp_path, shape):
        # D_2(C_2^4) with one JSON object retyped and its digest dropped:
        # each once died in an AttributeError traceback
        def retype(data):
            del data["digest"]
            if shape == "witness_check":
                data["witness_check"] = "atom"
            elif shape == "params":
                data["witness_check"]["params"] = [8]
            else:
                data["upper_chain"][0] = "ub.e2g_d"

        path = self.make_cert_file(capsys, tmp_path, tamper=retype)
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err
        assert "must be an object" in err

    @pytest.mark.parametrize("field,value", [("group", 5), ("group", [2, 2]), ("rule", 5)],
                             ids=["group-int", "group-list", "rule-int"])
    def test_field_of_another_type_is_malformed(self, capsys, tmp_path, field, value):
        # D_2(C_2^4) with its group or a step's rule retyped and its digest
        # dropped: each once died in an AttributeError traceback
        def retype(data):
            del data["digest"]
            if field == "group":
                data["group"] = value
            else:
                data["upper_chain"][0]["rule"] = value

        path = self.make_cert_file(capsys, tmp_path, tamper=retype)
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err
        assert "must be a " in err

    @pytest.mark.parametrize("inputs", [[1], ["r"], "r"], ids=["list-int", "list-str", "str"])
    def test_step_inputs_of_another_type_are_malformed(self, capsys, tmp_path, inputs):
        # D_2(C_2^4) with its first step's inputs retyped and its digest
        # dropped: [1] once died in an IndexError traceback, the others
        # printed raw TypeError text
        def retype(data):
            del data["digest"]
            data["upper_chain"][0]["inputs"] = inputs

        path = self.make_cert_file(capsys, tmp_path, tamper=retype)
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate: upper_chain[0] inputs must be an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("split", [False, True], ids=["bool", "negative"])
    def test_witness_multiplicity_is_checked(self, capsys, tmp_path, split):
        # one copy of a witness element as "mult": true, or as -1 and 2
        # copies: each was once read as one copy, and the certificate verified
        def retype(data):
            entry = next(e for e in data["witness"] if e["mult"] == 1)
            if split:
                entry["mult"] = -1
                data["witness"].append({"coords": entry["coords"], "mult": 2})
            else:
                entry["mult"] = True

        path = self.make_cert_file(capsys, tmp_path, tamper=retype)
        code, out, err = run_cli(capsys, "verify", "--cert", path)
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err

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
