"""Suite-wide fixtures."""

import json
from dataclasses import replace

import pytest

from zerosum import cache, invariants
from zerosum.groups import make_group
from zerosum.invariants import davenport_k, s_le


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_dir(tmp_path_factory):
    """Point the search cache at a fresh directory, never the user's own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(cache.ENV_VAR, str(tmp_path_factory.mktemp("zs-cache")))
        yield


def _forged_d3_c25():
    # 14 ids of the top coset: no zero-sum of length <= 3, but no
    # zero-sum at all, so nothing about D_3 (13 in the paper)
    G = make_group((2,) * 5)
    return replace(
        davenport_k(G, 3), value=14, interval=None,
        witness=invariants._ids_to_sequence(G, range(16, 30)),
        witness_check={"rule": "short-free", "params": {}},
    ), "witness: rule 'short-free' does not bound D_k"


def _forged_sle4_c26():
    # a zero-sum of 10 ids with at most 4 disjoint blocks, which holds the
    # 3-term zero-sum 1, 2, 3: it bounds D_4, not s_le (9 by the bitmask search)
    G = make_group((2,) * 6)
    return replace(
        s_le(G, 4), value=11, interval=None,
        witness=invariants._ids_to_sequence(G, (1, 2, 4, 8, 16, 32, 3, 5, 9, 48)),
        witness_check={"rule": "max-disjoint", "params": {}},
    ), "witness: rule 'max-disjoint' does not bound s_le"


@pytest.fixture(params=[_forged_d3_c25, _forged_sle4_c26], ids=["D_3(2^5)=14", "s_le4(2^6)=11"])
def forged(request):
    """A library certificate given a claim under a witness rule that does
    not bound its constant, and the one problem the verifier reports."""
    return request.param()


def _retyped_input(build, i, name, value):
    def edit(data):
        step = data["upper_chain"][i]
        assert step["rule"].startswith("search.")
        step["inputs"][name]["value"] = value

    message = "upper_chain[%d] input %s must be an int, a string or a list of these, not %r"
    return build, edit, message % (i, name, value)


def _row8_c25():
    return davenport_k(make_group((2,) * 5), 8)


def _sle4_c33():
    return s_le(make_group((3, 3, 3)), 4)


def _c24_dk2():
    return davenport_k(make_group((2,) * 4), 2)


def _dropped(build, path, message):
    """A case that deletes the key at the end of path in the JSON of build()."""

    def edit(data):
        *parents, key = path
        for part in parents:
            data = data[part]
        del data[key]

    return build, edit, message


def _row3_c25():
    return davenport_k(make_group((2,) * 5), 3)


MALFORMED = {
    # a search step's numbers retyped: a digest formats them with %d and a
    # sweep's are compared by equality, so each of these once verified.
    # Row 8 of C_2^5 holds its c = 3 sweep at chain[11], its c = 8 sweep
    # at chain[15]; s_le(C_3^3, 4) holds its search.sle step at chain[0]
    "sweep8-instances-float": _retyped_input(_row8_c25, 15, "instances", 4.0),
    "sweep3-instances-bool": _retyped_input(_row8_c25, 11, "instances", True),
    "sweep3-pieces-float": _retyped_input(_row8_c25, 11, "pieces", 9.0),
    "sle-max_free-float": _retyped_input(_sle4_c33, 0, "max_free", 9.0),
    "sle-cap-float": _retyped_input(_sle4_c33, 0, "cap", 4.0),
    "unknown-constant": (
        _c24_dk2, lambda data: data.update(constant="zeta"), "unknown constant 'zeta'"
    ),
    "no-value-or-interval": (
        _c24_dk2, lambda data: data.pop("value"), "certificate carries neither value nor interval"
    ),
    # a key deleted: each was once read with no check, and refused as a bare
    # KeyError naming neither the step nor the input. D_2(C_2^4) holds
    # ub.e2g_d, with the one input r, at chain[0]; D_3(C_2^5) is [13, 14]
    "step-no-value": _dropped(_c24_dk2, ("upper_chain", 0, "value"), "upper_chain[0] has no value"),
    "step-no-direction": _dropped(
        _c24_dk2, ("upper_chain", 0, "direction"), "upper_chain[0] has no direction"
    ),
    "step-no-rule": _dropped(_c24_dk2, ("upper_chain", 0, "rule"), "upper_chain[0] has no rule"),
    "input-no-value": _dropped(
        _c24_dk2, ("upper_chain", 0, "inputs", "r", "value"), "upper_chain[0] input r has no value"
    ),
    "interval-no-lo": _dropped(_row3_c25, ("interval", "lo"), "interval has no lo"),
    "interval-no-hi": _dropped(_row3_c25, ("interval", "hi"), "interval has no hi"),
}


@pytest.fixture(params=list(MALFORMED), ids=list(MALFORMED))
def malformed(request):
    """The JSON of a library certificate, its digest dropped, with one
    field edited so that Certificate.from_json must refuse it, and the
    message it refuses it with."""
    build, edit, message = MALFORMED[request.param]
    data = json.loads(json.dumps(build().to_json()))
    del data["digest"]
    edit(data)
    return data, message
