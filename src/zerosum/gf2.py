"""Search engines for elementary 2-groups on integer bitmasks.

Elements of C_2^r are ids 1..2^r-1 (the coordinate vector read as a
big-endian binary number, matching element_index). A squarefree
sequence is a set of ids; its sum is the XOR. Minimal zero-sum supports
of size >= 3 are called circuits here.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .bounds import evaluate_rule


def reduce_mod_basis(v: int, basis: List[int]) -> int:
    for b in basis:
        v = min(v, v ^ b)
    return v


def mask_rank(ids) -> int:
    basis: List[int] = []
    for v in ids:
        v = reduce_mod_basis(v, basis)
        if v:
            basis.append(v)
    return len(basis)


def xor_all(ids) -> int:
    out = 0
    for v in ids:
        out ^= v
    return out


# ---------------------------------------------------------------------------
# Circuit enumeration


def _circuit_dfs(pool, cap: int) -> List[Tuple[int, ...]]:
    """Circuits of length <= cap inside the id set `pool`, each exactly once.

    A circuit minus its largest element is independent, so ascending
    independent prefixes closed by their XOR (when the XOR exceeds the
    prefix maximum and lies in the pool) generate every circuit once.
    The span of a prefix is kept as a bitmask over element values.
    """
    pool = sorted(set(pool))
    members = 0
    for v in pool:
        members |= 1 << v
    out: List[Tuple[int, ...]] = []

    def dfs(start: int, prefix: List[int], span: int, elems: List[int], xr: int) -> None:
        extend = len(prefix) + 2 < cap
        for i in range(start, len(pool)):
            x = pool[i]
            if (span >> x) & 1:
                continue
            y = xr ^ x
            if prefix and y > x and (members >> y) & 1:
                out.append(tuple(prefix) + (x, y))
            if extend:
                shifted = [e ^ x for e in elems]
                grown = span
                for e in shifted:
                    grown |= 1 << e
                dfs(i + 1, prefix + [x], grown, elems + shifted, y)

    if cap >= 3:
        dfs(0, [], 1, [0], 0)
    return out


def circuits(r: int, max_len: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All circuits of C_2^r as ascending id tuples, each exactly once."""
    cap = (r + 1) if max_len is None else min(max_len, r + 1)
    return _circuit_dfs(range(1, 1 << r), cap)


def is_circuit(ids) -> bool:
    ids = list(ids)
    if len(ids) < 3 or len(set(ids)) != len(ids) or 0 in ids:
        return False
    return xor_all(ids) == 0 and mask_rank(ids) == len(ids) - 1


def ids_to_mask(ids) -> int:
    """Bitmask over bit (id - 1) of a set of nonzero ids."""
    mask = 0
    for v in ids:
        mask |= 1 << (v - 1)
    return mask


class CircuitTable:
    """The circuits of C_2^r lying inside an id set, as bitmasks.

    Bit (id - 1) stands for an id. by_low[v][size] lists the masks of
    the circuits of that size whose lowest id is v. Any circuit inside a
    subset that contains the subset's lowest id v has v as its lowest
    id, so one bucket is all a search pinned at v needs to scan.
    Circuits longer than max_len, when given, are left out.
    """

    def __init__(self, ids, r: int, max_len: Optional[int] = None):
        ids = sorted(set(ids))
        if ids and not (0 < ids[0] and ids[-1] < 1 << r):
            raise ValueError("ids must lie in 1..%d" % ((1 << r) - 1))
        self.r = r
        self.mask = ids_to_mask(ids)
        self.by_low: List[List[List[int]]] = [
            [[] for _ in range(r + 2)] for _ in range(1 << r)
        ]
        cap = r + 1 if max_len is None else min(max_len, r + 1)
        for circ in _circuit_dfs(ids, cap):
            self.by_low[circ[0]][len(circ)].append(ids_to_mask(circ))

    def partition(self, avail: int, pieces: int) -> Optional[List[int]]:
        """Split the subset mask `avail` into exactly `pieces` circuits.

        Returns the circuit masks, or None when no such partition exists.
        Pinning the lowest remaining id plus memoizing failed residuals
        keeps the search exact.
        """
        by_low = self.by_low
        top = self.r + 1
        fail: set = set()

        def solve(avail: int, n: int, pieces: int) -> Optional[List[int]]:
            if pieces == 0:
                return None if avail else []
            if not (3 * pieces <= n <= top * pieces):
                return None
            key = (avail, pieces)
            if key in fail:
                return None
            buckets = by_low[(avail & -avail).bit_length()]
            for size in range(3, min(top, n - 3 * (pieces - 1)) + 1):
                for circ in buckets[size]:
                    if circ & avail == circ:
                        sub = solve(avail ^ circ, n - size, pieces - 1)
                        if sub is not None:
                            sub.append(circ)
                            return sub
            fail.add(key)
            return None

        parts = solve(avail, bin(avail).count("1"), pieces)
        return None if parts is None else parts[::-1]


@lru_cache(maxsize=None)
def universe_table(r: int) -> CircuitTable:
    """Every circuit of C_2^r, built once per process."""
    return CircuitTable(range(1, 1 << r), r)


# ---------------------------------------------------------------------------
# Exact max-factorization-length engine for small rank


class SmallRankEngine:
    """Exhaustive per-subset data for C_2^r, intended for r <= 4.

    Subsets of the 2^r - 1 nonzero ids are bitmasks over bit (id - 1).
    For a zero-sum subset, maxl is the largest number of parts in a
    partition into circuits; f_caps[j] is the largest zero-sum subset
    size achievable with maxl <= j.
    """

    def __init__(self, r: int):
        if r > 4:
            raise ValueError("full subset enumeration is meant for rank <= 4")
        self.r = r
        self.n_ids = (1 << r) - 1
        self._by_low = universe_table(r).by_low
        self._maxl: Dict[int, int] = {0: 0}
        self.f_caps, self.f_examples = self._build_tables()
        self.jmax = max(self.f_caps)

    def maxl(self, subset_mask: int) -> int:
        """Parts in the longest circuit partition of a zero-sum subset."""
        memo = self._maxl
        hit = memo.get(subset_mask)
        if hit is not None:
            return hit
        low = (subset_mask & -subset_mask).bit_length()  # id of lowest element
        best = -1
        for bucket in self._by_low[low]:
            for circ_mask in bucket:
                if circ_mask & subset_mask == circ_mask:
                    sub = self.maxl(subset_mask ^ circ_mask)
                    if sub + 1 > best:
                        best = sub + 1
        if best < 0:
            raise ValueError("subset %x is not zero-sum" % subset_mask)
        memo[subset_mask] = best
        return best

    def _build_tables(self):
        exact: Dict[int, int] = {}
        example: Dict[int, int] = {}
        for mask in range(1, 1 << self.n_ids):
            xr = 0
            m = mask
            while m:
                low = m & -m
                xr ^= low.bit_length()
                m ^= low
            if xr:
                continue
            j = self.maxl(mask)
            size = bin(mask).count("1")
            if size > exact.get(j, -1):
                exact[j] = size
                example[j] = mask
        # close upward: f(j) is a max over maxl <= j
        caps: Dict[int, int] = {0: 0}
        examples: Dict[int, int] = {0: 0}
        best, best_mask = 0, 0
        for j in range(1, max(exact) + 1):
            if j in exact and exact[j] > best:
                best, best_mask = exact[j], example[j]
            caps[j] = best
            examples[j] = best_mask
        return caps, examples

    def ids_of_mask(self, subset_mask: int) -> Tuple[int, ...]:
        return tuple(
            i + 1 for i in range(self.n_ids) if (subset_mask >> i) & 1
        )

    def dk(self, k: int) -> int:
        return evaluate_rule("ub.squarefree_caps", {"k": k, "caps": self.f_caps.items()})

    def dk_witness(self, k: int) -> Tuple[Tuple[int, ...], int]:
        """Ids of a squarefree core and the number of doubled elements."""
        best, arg = 0, 0
        for j in range(0, min(k, self.jmax) + 1):
            value = self.f_caps[j] + 2 * (k - j)
            if value > best:
                best, arg = value, j
        return self.ids_of_mask(self.f_examples[arg]), k - arg

    def eventual_offset(self) -> Tuple[int, int]:
        """(offset, onset): dk(k) = offset + 2k for all k >= onset."""
        offset = max(self.f_caps[j] - 2 * j for j in self.f_caps)
        k = 1
        while self.dk(k) != offset + 2 * k:
            k += 1
        return offset, k


# ---------------------------------------------------------------------------
# Canonical subset enumeration (greedy basis form)

# The DFS explores ascending id tuples whose running span obeys: every
# candidate is either inside the span of the chosen prefix (id < 2^rank)
# or exactly the next fresh basis vector 2^rank. Any subset can be
# mapped by a linear automorphism to one of these tuples, so the family
# covers all GL(r,2) orbits; it is a covering, not a transversal, which
# is all the sweeps and the short-zero-sum search need.


def canonical_zero_sum_subsets(r: int, size: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def dfs(chosen: List[int], last: int, rank: int, xr: int) -> None:
        if len(chosen) == size:
            if xr == 0:
                out.append(tuple(chosen))
            return
        limit = 1 << rank
        if size - len(chosen) == 1:
            x = xr
            if x > last and (x < limit or (x == limit and rank < r)):
                out.append(tuple(chosen + [x]))
            return
        for x in range(last + 1, limit):
            dfs(chosen + [x], x, rank, xr ^ x)
        if rank < r:
            dfs(chosen + [limit], limit, rank + 1, xr ^ limit)

    dfs([], 0, 0, 0)
    return out


def max_independent_size(r: int) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset with no zero-sum subset at all, and one such subset."""
    return max_set_without_short_zero_sums(r, r + 1)


def max_set_without_short_zero_sums(
    r: int, length_cap: int
) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset with no zero-sum subset of size <= length_cap.

    This is the one exhaustive C_2^r search behind D and s_le. A cap
    above r + 1 is clipped to r + 1: every zero-sum set of nonzero ids
    contains a circuit, and a circuit has at most r + 1 ids, so with the
    cap at r + 1 the result is a largest zero-sum-free (independent) set.

    The DFS runs over ascending ids in greedy basis form, as in
    canonical_zero_sum_subsets. sums_by_size[j] holds the XORs of all
    j-element subsets of the chosen prefix; candidate x closes a
    (j+1)-term zero-sum iff x appears in sums_by_size[j].
    """
    length_cap = min(length_cap, r + 1)
    n_total = (1 << r) - 1
    best = [0]
    best_set: List[Tuple[int, ...]] = [()]

    def dfs(
        chosen: List[int], last: int, rank: int, sums_by_size: List[FrozenSet[int]]
    ) -> None:
        if len(chosen) > best[0]:
            best[0] = len(chosen)
            best_set[0] = tuple(chosen)
        if len(chosen) + (n_total - last) <= best[0]:
            return
        limit = 1 << rank
        candidates = list(range(last + 1, limit))
        if rank < r:
            candidates.append(limit)
        for x in candidates:
            if any(x in sums_by_size[j] for j in range(1, length_cap)):
                continue
            new_sums = [sums_by_size[0]]
            for j in range(1, length_cap):
                new_sums.append(
                    sums_by_size[j] | {s ^ x for s in sums_by_size[j - 1]}
                )
            dfs(
                chosen + [x],
                x,
                rank + (1 if x == limit else 0),
                new_sums,
            )

    dfs([], 0, 0, [frozenset([0])] + [frozenset()] * (length_cap - 1))
    return best[0], best_set[0]


# ---------------------------------------------------------------------------
# Circuit partitions


def find_circuit_partition(
    ids, pieces: int, r: int
) -> Optional[List[FrozenSet[int]]]:
    """Partition the id set into exactly `pieces` disjoint circuits.

    Returns the parts, or None when no such partition exists. Only the
    circuits inside the id set that leave room for the other parts are
    enumerated.
    """
    ids = set(ids)
    table = CircuitTable(ids, r, max_len=len(ids) - 3 * (pieces - 1))
    parts = table.partition(table.mask, pieces)
    if parts is None:
        return None
    return [frozenset(i + 1 for i in range(1 << r) if (circ >> i) & 1) for circ in parts]


def squarefree_max_length_at_most(ids, bound: int, r: int) -> bool:
    """Certify maxl(set) <= bound for a zero-sum squarefree 0-free set.

    Any factorization of a set splits it into disjoint circuits covering
    everything, each of size in [3, r+1]; refuting every feasible part
    count above the bound settles the claim.
    """
    ids = list(ids)
    if 0 in ids or len(set(ids)) != len(ids):
        raise ValueError("input must be a 0-free set of distinct ids")
    if xor_all(ids) != 0:
        raise ValueError("input set is not zero-sum")
    counts = range(bound + 1, len(ids) // 3 + 1)
    if not counts:
        return True
    # the fewest parts leave room for the longest one
    table = CircuitTable(ids, r, max_len=len(ids) - 3 * (counts[0] - 1))
    for k in counts:
        if table.partition(table.mask, k) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# Complement sweeps for rank 5


@dataclass(frozen=True)
class SweepRecord:
    """Completed exhaustive partition sweep, identified by its digest.

    A record with zero failures proves: every zero-sum squarefree 0-free
    subset of C_2^r of size (2^r - 1 - complement_size) splits into at
    least `pieces` disjoint circuits.
    """

    r: int
    complement_size: int
    pieces: int
    instances: int
    failures: int
    elapsed_ms: int

    @property
    def digest(self) -> str:
        text = "partition-sweep:r=%d:c=%d:pieces=%d:instances=%d:failures=%d" % (
            self.r,
            self.complement_size,
            self.pieces,
            self.instances,
            self.failures,
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def set_size(self) -> int:
        return (1 << self.r) - 1 - self.complement_size


# minimal sweep targets proving the rank-5 size caps; complement size ->
# pieces forced in the complement's complement
RANK5_SWEEP_PIECES = {3: 9, 4: 9, 5: 8, 6: 8, 7: 8, 8: 7, 9: 7, 10: 6, 11: 6}


def run_sweep(r: int, complement_size: int, pieces: int) -> SweepRecord:
    started = time.monotonic()
    table = universe_table(r)
    instances = canonical_zero_sum_subsets(r, complement_size)
    failures = 0
    for inst in instances:
        if table.partition(table.mask ^ ids_to_mask(inst), pieces) is None:
            failures += 1
    elapsed = int((time.monotonic() - started) * 1000)
    return SweepRecord(
        r=r,
        complement_size=complement_size,
        pieces=pieces,
        instances=len(instances),
        failures=failures,
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# Named witness sets over C_2^5


def top_coset_ids(r: int) -> Tuple[int, ...]:
    return tuple(range(1 << (r - 1), 1 << r))


def lex_least_coset_zero_sum(r: int, size: int) -> Tuple[int, ...]:
    """Lexicographically least zero-sum size-subset of the top coset."""
    ids = top_coset_ids(r)

    def dfs(chosen: List[int], start: int, xr: int):
        if len(chosen) == size:
            return tuple(chosen) if xr == 0 else None
        for i in range(start, len(ids)):
            if len(ids) - i < size - len(chosen):
                return None
            got = dfs(chosen + [ids[i]], i + 1, xr ^ ids[i])
            if got is not None:
                return got
        return None

    found = dfs([], 0, 0)
    if found is None:
        raise ValueError("no zero-sum subset of size %d in the coset" % size)
    return found


def full_set_minus(r: int, removed) -> Tuple[int, ...]:
    removed = set(removed)
    return tuple(v for v in range(1, 1 << r) if v not in removed)


# cores of the known rank-5 extremal sequences: maxl 3 at size 13,
# maxl 4 at size 16, maxl 5 at size 19
RANK5_CORE_MAXL3 = tuple(sorted(set(range(16, 32)) - {16, 17, 18, 20} | {7}))
RANK5_CORE_MAXL4 = top_coset_ids(5)
RANK5_CORE_MAXL5 = tuple(sorted(set(range(16, 32)) | {1, 2, 3}))
