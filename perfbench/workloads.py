"""Workload inputs and the reference table the benchmark checks against.

Inputs are plain data (group factor tuples and coordinate tuples) made
with the standard library only, so the orchestrator can build and
digest them without importing zerosum. Only ``small_queries`` draws on
the seed; the two cold workloads are fixed.
"""

import hashlib
import json
import math
import random

WORKLOADS = ("e2r5_rows", "c3r3_dk2", "small_queries")

C25 = (2, 2, 2, 2, 2)
C33 = (3, 3, 3)

# Rows 5-7 are left out: their sweeps c = 10 and c = 11 take minutes,
# and rows 8-10 already drive the same sweep code through c = 3..9.
E2R5_KS = (1, 2, 3, 4, 8, 9, 10)

TABLE_GROUPS = tuple((n,) for n in range(2, 13)) + (
    (2, 2),
    (2, 2, 2),
    (2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2),
    (2, 4),
    (2, 6),
    (3, 3),
    (4, 4),
    (3, 6),
    (2, 2, 4),
    (2, 8),
)
TABLE_KMAX = 6

QUERY_GROUPS = (
    (2, 2, 2, 2),
    (3, 3),
    (6,),
    (2, 4),
    (4, 4),
    (2, 2, 2),
    (5,),
    (8,),
    (3, 6),
    (2, 6),
)
QUERY_SEQUENCES = 3000
QUERY_MAX_FREE = 10  # free elements before the closing one, so length <= 11
POOL_SEED = 0  # the pool of sequences the seed's automorphisms act on


def cert_ops(workload):
    """Certificate queries as (constant, factors, k); k is None for D."""
    if workload == "e2r5_rows":
        return [("D_k", C25, k) for k in E2R5_KS]
    if workload == "c3r3_dk2":
        # D_2 first, from cold; the rest are the memoized searches it ran.
        return [("D_k", C33, 2), ("D", C33, None)] + [("s_le", C33, l) for l in (3, 4, 5)]
    if workload == "small_queries":
        ops = []
        for factors in TABLE_GROUPS:
            ops.append(("D", factors, None))
            ops.extend(("D_k", factors, k) for k in range(1, TABLE_KMAX + 1))
            exp = max(factors)
            ops.extend(("s_le", factors, l) for l in range(exp, exp + 3))
        return ops
    raise ValueError("unknown workload %r" % workload)


def zero_sum_sequences(workload, seed):
    """Seeded zero-sum sequences as (factors, [coordinate tuples]).

    A fixed pool is drawn first. Every group gets the same number of
    sequences of each length 2..11, since the cost of a query grows steeply
    with length. The seed then maps each group's sequences through a random
    automorphism of the group and shuffles every sequence. An automorphism
    keeps which subsequences sum to zero, so the inputs change with the
    seed while the work they make does not: pools drawn afresh for each
    seed moved the pass time by up to 7%.
    """
    if workload != "small_queries":
        return []
    rng = random.Random(seed)
    autos = {factors: random_automorphism(factors, rng) for factors in QUERY_GROUPS}
    out = []
    for factors, items in _pool():
        image = [autos[factors](x) for x in items]
        rng.shuffle(image)
        out.append((factors, image))
    return out


def _pool():
    rng = random.Random(POOL_SEED)
    per_cell = QUERY_SEQUENCES // (len(QUERY_GROUPS) * QUERY_MAX_FREE)
    out = []
    for free in range(1, QUERY_MAX_FREE + 1):
        for factors in QUERY_GROUPS:
            for _ in range(per_cell):
                items = [tuple(rng.randrange(n) for n in factors) for _ in range(free)]
                total = [sum(c) % n for c, n in zip(zip(*items), factors)]
                items.append(tuple((-c) % n for c, n in zip(total, factors)))
                out.append((factors, items))
    return out


def random_automorphism(factors, rng):
    """A random automorphism of the group, as a map on coordinate tuples.

    It is block diagonal: the coordinates of each cyclic order n form a
    block, and an invertible matrix over Z/n acts on each block.
    """
    blocks = {}
    for i, n in enumerate(factors):
        blocks.setdefault(n, []).append(i)
    maps = []
    for n, index in blocks.items():
        while True:
            matrix = [[rng.randrange(n) for _ in index] for _ in index]
            if math.gcd(_det(matrix), n) == 1:
                break
        maps.append((n, index, matrix))

    def apply(x):
        y = list(x)
        for n, index, matrix in maps:
            for i, row in zip(index, matrix):
                y[i] = sum(a * x[j] for a, j in zip(row, index)) % n
        return tuple(y)

    return apply


def _det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * matrix[0][j] * _det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j in range(len(matrix))
    )


def inputs_digest(workload, seed):
    blob = json.dumps([cert_ops(workload), zero_sum_sequences(workload, seed)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Reference values. PINNED brackets hold the true value; a certificate must
# sit inside its pin (tightening passes, loosening fails).


def _pins():
    pins = {
        # Paper tables: C_2^3 and C_2^4 rows, the partial C_2^5 line.
        **{("D_k", (2, 2, 2), k): (v, v) for k, v in zip(range(1, 7), (4, 7, 9, 11, 13, 15))},
        **{("D_k", (2, 2, 2, 2), k): (v, v) for k, v in zip(range(1, 6), (5, 8, 11, 13, 15))},
        **{
            ("D_k", C25, k): b
            for k, b in zip(
                E2R5_KS, ((6, 6), (10, 10), (13, 14), (16, 17), (26, 26), (28, 28), (31, 31))
            )
        },
        # C_3^3: the closed sandwich D_2 = 11, and eta = 17.
        ("D_k", C33, 2): (11, 11),
        ("s_le", C33, 3): (17, 17),
    }
    for factors in TABLE_GROUPS + (C25, C33):
        d = dstar(factors)
        exp = max(factors)
        # D = D* for p-groups and rank <= 2 (Olson; van Emde Boas-Kruyswijk).
        pins[("D", factors, None)] = (d, d)
        pins[("D_k", factors, 1)] = (d, d)
        for l in range(max(exp, d), exp + 3):
            pins[("s_le", factors, l)] = (d, d)  # blocks of length <= D suffice
        if len(factors) == 1:
            for k in range(2, TABLE_KMAX + 1):
                pins[("D_k", factors, k)] = (k * exp, k * exp)
        if len(factors) == 2:
            m = factors[0]
            for k in range(2, TABLE_KMAX + 1):
                v = m + k * exp - 1  # Halter-Koch
                pins[("D_k", factors, k)] = (v, v)
            pins[("s_le", factors, exp)] = (2 * m + exp - 2,) * 2  # eta, rank 2
        if set(factors) == {2}:
            pins[("s_le", factors, 2)] = (2 ** len(factors),) * 2  # eta(C_2^r) = 2^r
    return pins


def dstar(factors):
    return 1 + sum(n - 1 for n in factors)


PINS = _pins()


def bracket_problem(constant, factors, k, lo, hi):
    """Why a certified bracket [lo, hi] contradicts the reference, or None."""
    if not lo <= hi:
        return "lower %s above upper %s" % (lo, hi)
    pin = PINS.get((constant, factors, k))
    if pin is not None:
        if not (pin[0] <= lo and hi <= pin[1]):
            return "bracket [%s, %s] outside reference [%d, %d]" % (lo, hi, pin[0], pin[1])
        return None
    # Facts that hold for every group here, where D = D*:
    # D + (k-1) exp <= D_k <= k D, and s_le >= D.
    d, exp = dstar(factors), max(factors)
    if constant == "D_k" and not (lo <= k * d and hi >= d + (k - 1) * exp):
        return "bracket [%s, %s] misses [%d, %d]" % (lo, hi, d + (k - 1) * exp, k * d)
    if constant == "s_le" and hi < d:
        return "upper %s below D = %d" % (hi, d)
    return None
