#!/usr/bin/env python3
"""Contraction-sequence certificates and their replay verification.

A certificate is n and its merge pairs, each normalised to u < v; the
j-th merge's product is n+j, numbered by position and never stored.
Replaying yields the exact width (the maximum red degree ever seen)
and a per-step trace.  Inverting a sequence gives the partition chain, and
the quotient of the chain matches the forward replay at every index.
"""

from twinwidth import (
    apply_prefix,
    cycle_graph,
    invert,
    partitions_at,
    quotient,
    sequence_from_pairs,
    verify_width,
    width_trace,
)
from twinwidth.io import sequence_to_json

c4 = cycle_graph(4)
seq = sequence_from_pairs(4, [(0, 2), (1, 3), (4, 5)])
print("C4 certificate:", sequence_to_json(seq).strip())
print("width:", verify_width(c4, seq), "trace:", width_trace(c4, seq))
print("every merge is a twin pair, so no red edge ever appears")

print("\n== a worse order pays in width ==")
bad = sequence_from_pairs(4, [(0, 1), (4, 2), (5, 3)])
print("width of the sloppy order:", verify_width(c4, bad), "trace:", width_trace(c4, bad))

print("\n== the two views coincide ==")
u = invert(c4, bad)
for i in range(1, 5):
    parts = sorted(map(sorted, partitions_at(u, i).by_id.values()))
    print(f"P^{i} =", parts)
for i in range(4):
    forward = apply_prefix(c4, bad, i)
    backward = quotient(c4, partitions_at(u, 4 - i)).quotient
    assert forward == backward
print("forward replay and quotient of the inverted chain agree at every index")
