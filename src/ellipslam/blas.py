"""Single-threaded OpenBLAS around the back-end's numerical entry points.

The window's dense systems are small: OpenBLAS threads slow them down on a
shared machine and make the estimate bytes depend on the thread count. The
wheels of numpy and scipy each bundle their own OpenBLAS; both are pinned
through their exported thread-count functions (the mechanism threadpoolctl
uses). A library or symbol that cannot be found is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib
import os

# (package, library file pattern in <package>.libs, symbol template)
_LIBRARIES = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
)
_controls = None  # [(get, set)] found on first use


def _find_controls():
    controls = []
    for package, pattern, symbol in _LIBRARIES:
        root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in sorted(glob.glob(os.path.join(root, package + ".libs", pattern))):
            try:
                lib = ctypes.CDLL(path)
                controls.append((getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))))
            except (OSError, AttributeError):
                continue
    return controls


@contextlib.contextmanager
def single_thread():
    """Pin every bundled OpenBLAS to one thread; restore the previous
    counts on exit, also when the block raises. Usable as a decorator."""
    global _controls
    if _controls is None:
        _controls = _find_controls()
    saved = [(set_count, get_count()) for get_count, set_count in _controls]
    for set_count, _ in saved:
        set_count(1)
    try:
        yield
    finally:
        for set_count, count in saved:
            set_count(count)
