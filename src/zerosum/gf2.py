"""Circuit tables, partition sweeps and code witnesses for elementary
2-groups, on integer bitmasks.

Elements of C_2^r are ids 1..2^r-1 (the coordinate vector read as a
big-endian binary number, matching element_index). A squarefree
sequence is a set of ids; its sum is the XOR. Minimal zero-sum supports
of size >= 3 are called circuits here.

The library searches no C_2^r threshold here: D and s_le of C_2^r come
from counting rules met by the code witnesses of code_ids, and
invariants' generic search covers the one threshold they leave open.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .bounds import evaluate_rule
from .groups import format_group, make_group


class SearchError(RuntimeError):
    """A requested exhaustive search exceeded its feasibility guard."""


def budget_exhausted(group: str, cap: int, zero_sum_free: bool, nodes: int) -> SearchError:
    """The error of a search on `group` that ran out of its budget of `nodes`."""
    return SearchError(
        "%s search (cap %d) on %s exhausted its budget after %d nodes"
        % ("zero-sum-free" if zero_sum_free else "short-zero-sum", cap, group, nodes)
    )


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


def circuits(r: int, max_len: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All circuits of C_2^r of length <= max_len (all when None), as
    ascending id tuples in lexicographic order."""
    table, ids = universe_table(r), range(1, 1 << r)
    top = r + 1 if max_len is None else min(max_len, r + 1)
    masks = [m for v in ids for size in range(3, top + 1) for m in table.bucket(v, size)]
    return sorted(tuple(v for v in ids if (m >> (v - 1)) & 1) for m in masks)


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
    id, so one bucket is all a search pinned at v needs to scan. A
    bucket of size >= 3 is None until it is first read, through bucket()
    or a partition search, and is then filled for good. `refuted` holds
    the residuals (avail, pieces) that partition searches passed it have
    found to have no partition; like the buckets, it only grows.
    """

    def __init__(self, ids, r: int):
        ids = sorted(set(ids))
        if ids and not (0 < ids[0] and ids[-1] < 1 << r):
            raise ValueError("ids must lie in 1..%d" % ((1 << r) - 1))
        self.r = r
        self.ids = ids
        self.mask = ids_to_mask(ids)
        self.by_low: List[List[Optional[List[int]]]] = [
            [[], [], []] + [None] * (r - 1) for _ in range(1 << r)
        ]
        self.refuted: Set[Tuple[int, int]] = set()

    def bucket(self, v: int, size: int) -> List[int]:
        """by_low[v][size]: the circuits of `size` ids with lowest id v, in
        the lexicographic order of their ascending id tuples.

        A circuit minus its largest id is independent, so the ascending
        independent tuples of size - 1 ids from v, closed by their XOR
        when it exceeds their last id and lies in the table, give each
        such circuit once. The span of a tuple is kept as a bitmask over
        element values.
        """
        out = self.by_low[v][size]
        if out is not None:
            return out
        out = self.by_low[v][size] = []
        members = self.mask
        pool = [x for x in self.ids if x > v] if (members >> (v - 1)) & 1 else []

        def dfs(start: int, depth: int, elems: List[int], span: int, xr: int, mask: int) -> None:
            # the tuple so far has `depth` ids; each x leaves room for the rest
            for i in range(start, len(pool) - size + depth + 1):
                x = pool[i]
                if (span >> x) & 1:
                    continue
                if depth == size - 2:
                    y = xr ^ x
                    if y > x and (members >> (y - 1)) & 1:
                        out.append(mask | 1 << (x - 1) | 1 << (y - 1))
                else:
                    shifted = [e ^ x for e in elems]
                    grown = span
                    for e in shifted:
                        grown |= 1 << e
                    dfs(i + 1, depth + 1, elems + shifted, grown, xr ^ x, mask | 1 << (x - 1))

        dfs(0, 1, [0, v], 1 | 1 << v, v, 1 << (v - 1))
        return out

    def partition(
        self, avail: int, pieces: int, fail: Optional[Set[Tuple[int, int]]] = None
    ) -> Optional[List[int]]:
        """Split the subset mask `avail` into exactly `pieces` circuits.

        Returns the circuit masks, or None when no such partition exists.
        A node with n ids left and p parts to go scans circuits of at
        most n - 3(p - 1) ids, the most one part can hold when every
        other holds at least 3. That bound only shrinks down the search
        tree, so only the buckets a question can use are ever filled.

        Pinning the lowest remaining id keeps the search exact. `fail`
        is a set of residuals (avail, pieces) known to have no partition;
        the search skips them and adds the ones it refutes. Those answers
        depend only on the table, so one set may serve every question
        asked of the table, for as long as the table lives: when None,
        it is self.refuted. The set only prunes subtrees that fail: it
        never turns a failure into a success, and the first partition
        found is the same with or without it.
        """
        if fail is None:
            fail = self.refuted
        by_low = self.by_low
        top = self.r + 1

        def solve(avail: int, n: int, pieces: int) -> Optional[List[int]]:
            if pieces == 0:
                return None if avail else []
            if not (3 * pieces <= n <= top * pieces):
                return None
            key = (avail, pieces)
            if key in fail:
                return None
            low = (avail & -avail).bit_length()
            buckets = by_low[low]
            for size in range(3, min(top, n - 3 * (pieces - 1)) + 1):
                bucket = buckets[size]
                if bucket is None:
                    bucket = self.bucket(low, size)
                for circ in bucket:
                    if circ & avail == circ:
                        sub = solve(avail ^ circ, n - size, pieces - 1)
                        if sub is not None:
                            sub.append(circ)
                            return sub
            fail.add(key)
            return None

        parts = solve(avail, bin(avail).count("1"), pieces)
        return None if parts is None else parts[::-1]


# one table of C_2^r per rank, for the process; its buckets fill as read
_UNIVERSE: Dict[int, CircuitTable] = {}


def universe_table(r: int) -> CircuitTable:
    """The table of every circuit of C_2^r, kept once per rank."""
    table = _UNIVERSE.get(r)
    if table is None:
        table = _UNIVERSE[r] = CircuitTable(range(1, 1 << r), r)
    return table


# ---------------------------------------------------------------------------
# Exact max-factorization-length engine for small rank


class SmallRankEngine:
    """Exhaustive per-subset data for C_2^r, intended for r <= 4.

    Subsets of the 2^r - 1 nonzero ids are bitmasks over bit (id - 1).
    For a zero-sum subset, maxl is the largest number of parts in a
    partition into circuits; f_caps[j] is the largest zero-sum subset
    size achievable with maxl <= j.

    No library code builds it: the tests use it as the oracle for the
    caps and rows of C_2^2..C_2^4, and perfbench's tracer wraps it by
    name.
    """

    def __init__(self, r: int):
        if r > 4:
            raise ValueError("full subset enumeration is meant for rank <= 4")
        self.r = r
        self.n_ids = (1 << r) - 1
        self._table = universe_table(r)
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
        for size in range(3, self.r + 2):
            for circ_mask in self._table.bucket(low, size):
                if circ_mask & subset_mask == circ_mask:
                    sub = self.maxl(subset_mask ^ circ_mask)
                    if sub + 1 > best:
                        best = sub + 1
        if best < 0:
            raise ValueError("subset %x is not zero-sum" % subset_mask)
        memo[subset_mask] = best
        return best

    def _zero_sum_masks(self) -> List[int]:
        """The nonempty zero-sum subset masks, in increasing order.

        Any subset of the ids other than the basis ids 2^b is closed to a
        zero-sum by exactly one set of basis ids, those of its XOR, so
        the zero-sum subsets number 2^(2^r - 1 - r).
        """
        closing = [0] * (1 << self.r)  # the basis ids of each XOR, as a mask
        for x in range(1, 1 << self.r):
            low = x & -x
            closing[x] = closing[x ^ low] | 1 << (low - 1)
        subsets = [(0, 0)]
        for v in range(1, self.n_ids + 1):
            if v & (v - 1):  # not a basis id
                bit = 1 << (v - 1)
                subsets += [(mask | bit, xr ^ v) for mask, xr in subsets]
        return sorted(mask | closing[xr] for mask, xr in subsets[1:])

    def _build_tables(self):
        exact: Dict[int, int] = {}
        example: Dict[int, int] = {}
        for mask in self._zero_sum_masks():
            j = self.maxl(mask)
            size = bin(mask).count("1")
            if size > exact.get(j, -1):
                exact[j] = size
                example[j] = mask
        # close upward: f(j) is a max over maxl <= j
        caps: Dict[int, int] = {0: 0}
        examples: Dict[int, int] = {0: 0}
        best, best_mask = 0, 0
        for j in range(1, max(exact, default=0) + 1):
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
    r: int, length_cap: int, budget: Optional[int] = None
) -> Tuple[int, Tuple[int, ...]]:
    """Largest subset with no zero-sum subset of size <= length_cap.

    No library code calls it: the tests check D and s_le of C_2^r
    against it, and perfbench's tracer wraps it by name. A cap
    above r + 1 is clipped to r + 1: every zero-sum set of nonzero ids
    contains a circuit, and a circuit has at most r + 1 ids, so with the
    cap at r + 1 the result is a largest zero-sum-free (independent) set.

    The DFS runs over ascending ids in greedy basis form, as in
    canonical_zero_sum_subsets. sums_by_size[j] holds the XORs of all
    j-element subsets of the chosen prefix; candidate x closes a
    (j+1)-term zero-sum iff x appears in sums_by_size[j].

    Each DFS call is a node; past `budget` nodes (None: no limit) the
    search raises SearchError, as the generic search does.
    """
    cap, length_cap = length_cap, min(length_cap, r + 1)
    n_total = (1 << r) - 1
    best = [0]
    best_set: List[Tuple[int, ...]] = [()]
    nodes = 0

    def dfs(
        chosen: List[int], last: int, rank: int, sums_by_size: List[FrozenSet[int]]
    ) -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise budget_exhausted(format_group(make_group((2,) * r)), cap, cap > n_total, budget)
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
    circuits inside the id set that the search scans are enumerated.
    """
    table = CircuitTable(ids, r)
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
    table = CircuitTable(ids, r)  # its refuted set serves every count
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
    """Try to split the complement of every covering instance into `pieces`.

    The instances are canonical_zero_sum_subsets(r, complement_size),
    which meet every GL(r, 2) orbit; failures counts the complements
    with no partition into exactly `pieces` circuits. The search uses
    the kept universe table and its refuted set, so a residual refuted
    by one instance, or by an earlier sweep of the same rank, is not
    searched again. The record is the same as with a fresh set; only
    the work to reach it shrinks.
    """
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
# Named witness sets


def _golay_columns() -> Tuple[int, ...]:
    """x^i mod g(x) for i = 0..22, with g(x) = x^11 + x^10 + x^6 + x^5 +
    x^4 + x^2 + 1, a degree-11 factor of x^23 + 1 over F_2: the
    parity-check columns of the binary Golay code."""
    g, v, out = 0b110001110101, 1, []
    for _ in range(23):
        out.append(v)
        v <<= 1
        if v >> 11:
            v ^= g
    return tuple(out)


GOLAY_IDS = _golay_columns()


def basis_plus_sum(r: int) -> Tuple[int, ...]:
    """The basis ids 1, 2, 4, ..., 2^(r-1) and their sum: the parity-check
    columns of the repetition code of length r + 1, whose one zero-sum is
    the whole set."""
    return tuple(1 << i for i in range(r)) + ((1 << r) - 1,)


def code_ids(r: int, cap: int) -> List[Tuple[int, ...]]:
    """Id sets of C_2^r with no zero-sum of length <= cap, for cap >= 2.

    Each is the set of parity-check columns of a binary code of minimum
    distance > cap, since a zero-sum of the columns is the support of a
    codeword (MacWilliams-Sloane, The Theory of Error-Correcting Codes,
    1977, ch. 1). One set per code that applies:
      - every nonzero id: the Hamming code, distance 3, cap 2;
      - the top coset: the extended Hamming code, distance 4, cap <= 3;
      - GOLAY_IDS: the Golay code, distance 7, cap <= 6 and r >= 11;
      - GOLAY_IDS shifted up one bit with the parity bit 1 set, plus the
        id 1: the extended Golay code, distance 8, cap <= 7 and r >= 12;
      - basis_plus_sum: the repetition code, distance r + 1, cap <= r.
    """
    out: List[Tuple[int, ...]] = []
    if cap <= 2:
        out.append(tuple(range(1, 1 << r)))
    if cap <= 3:
        out.append(top_coset_ids(r))
    if cap <= 6 and r >= 11:
        out.append(GOLAY_IDS)
    if cap <= 7 and r >= 12:
        out.append((1,) + tuple(v << 1 | 1 for v in GOLAY_IDS))
    if cap <= r:
        out.append(basis_plus_sum(r))
    return out


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
