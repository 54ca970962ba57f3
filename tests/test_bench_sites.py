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

from metalink import autodiff, harness, learners

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


def test_positional_reads_of_the_tracer_keep_their_names():
    # tracer._phase reads meta_train's config as args[1], evaluate_ser's
    # symbol count as args[2] and evaluate_bler's block count as args[3]
    for func, index, name in (
        (learners.meta_train, 1, "config"),
        (harness.evaluate_ser, 2, "n_symbols"),
        (harness.evaluate_bler, 3, "n_blocks"),
    ):
        assert list(inspect.signature(func).parameters)[index] == name, func.__name__
    # and its eval_with_gradient counter wraps harness's name as well as learners'
    assert harness.eval_with_gradient is autodiff.eval_with_gradient
