"""The rank-five 2-group: certified rows of a table that complete
search cannot reach.

C_2^5 has 32 elements; brute-forcing its k-block constants directly is
hopeless beyond tiny k. Each row here is instead certified by a
sandwich: an explicit witness sequence gives the lower bound, and a
chain of bound rules (the independence and sphere-packing caps,
recursion over short-zero-sum thresholds) gives the matching upper
bound. The partition sweeps behind the upper bounds search one table of
circuit bitmasks and finish in well under a second, even with an empty
cache.

Run with: python3 demos/03_rank_five_certificates.py
"""

import json

from zerosum import Certificate, certify_dk, make_group, verify_certificate

G = make_group((2,) * 5)

for k in (1, 2, 8, 9, 10):
    cert = certify_dk(G, k)  # computes, then re-verifies witness + chain
    print("k=%-2d value=%-3d witness rule: %-16s chain: %s"
          % (k, cert.value, cert.witness_check["rule"],
             " -> ".join(step.rule_id for step in cert.upper_chain)))

# Rows 3 and 4 stay brackets: the missing piece is an upper bound on
# squarefree sequences with at most 3 (resp. 4) disjoint blocks, which
# needs sweeps over smaller sets than the ones run here.
for k in (3, 4):
    cert = certify_dk(G, k)
    print("k=%-2d bracket [%d, %d]" % (k, cert.lower, cert.upper))

# Certificates survive serialization: what gets verified is the stored
# JSON, not the computation that produced it.
blob = json.dumps(certify_dk(G, 2).to_json(), sort_keys=True)
revived = Certificate.from_json(json.loads(blob))
print("re-verified from JSON alone:", verify_certificate(revived).ok)
