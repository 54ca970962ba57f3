"""Meta-learning for communication links: learn initializations that adapt
to a new device or channel from a handful of examples.

The package splits into an exact-derivative engine (graph, autodiff), model
and channel primitives (nn, channel), task sampling (tasks), training loops
(learners), verification suites (checks), and experiment orchestration with
a CLI (harness, cli).  It imports and exports nothing, so the entry point in
__main__ runs before numpy loads: import metalink.<module>.
"""
