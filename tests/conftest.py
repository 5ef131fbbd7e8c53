"""Suite-wide fixtures."""

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
