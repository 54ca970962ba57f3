"""The names the benchmark wraps exist, and unwrapping restores them.

perfbench/ wraps program functions at the module attributes their callers
resolve (`harness.meta_train`, `learners.eval_with_gradient`,
`graph.gradients`, `learners._guarded_descent`, ...).  Its own tests are not
collected with these, so a rename in src/ would otherwise show only as an
AttributeError in every benchmark run.
"""

import inspect
import sys
from pathlib import Path

from metalink import learners

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import calibrate  # noqa: E402
import tracer  # noqa: E402


def test_benchmark_sites_resolve_and_are_restored_after_tracing():
    originals = [getattr(module, attr) for module, attr in calibrate.SITES]
    trace = tracer.Tracer("sites")
    trace.install()
    try:
        wrapped = [getattr(module, attr) for module, attr in calibrate.SITES]
    finally:
        trace.uninstall()
    for (module, attr), orig, wrapper in zip(calibrate.SITES, originals, wrapped, strict=True):
        assert wrapper is not orig, f"{module.__name__}.{attr} was not wrapped"
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr} was not restored"


def test_guard_wrap_point_keeps_its_call_shape():
    # the tracer's retry counter calls the original as orig(counted, p, eta, n_iters, what)
    names = list(inspect.signature(learners._guarded_descent).parameters)
    assert names == ["value_grad", "p", "eta", "n_iters", "what"]
