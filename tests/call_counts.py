"""The Python-level call counter of the tests that pin which calls an
iteration of fpg_prox or of a solver may make."""

import gc
import sys
from collections import Counter


def python_calls(fn, *args, **kwargs):
    """Counter of the Python-level calls of fn(*args, **kwargs), keyed by
    (the function fn called that the call runs under, the function
    called). ufunc, BLAS, builtin and ndarray-method calls are C-level and
    fire no "call" event. fn is called once unprofiled first, so the cache
    misses of a first call (such as frame._axis_slices') do not count and
    the counts do not depend on which tests ran before. The profiled call
    runs with the garbage collector disabled: a collection inside it runs
    the gc.callbacks registered in the process (hypothesis registers one),
    whose calls would count under whichever function triggered it."""
    fn(*args, **kwargs)
    calls = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        top = frame
        while top.f_back is not None and top.f_back.f_code is not fn.__code__:
            top = top.f_back
        if top.f_back is not None:
            calls[top.f_code.co_name, frame.f_code.co_name] += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls
