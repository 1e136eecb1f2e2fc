"""Deterministic instruction-following environments and a pointer kernel.

Two 6x6 gridworld domains — resource gathering driven by control-flow
programs, and build-order execution over a hidden technology tree —
plus generators, a ground-truth interpreter, an episode harness with
traces and replay, and a standalone numeric kernel for scan-ordered
pointer movement.
"""
