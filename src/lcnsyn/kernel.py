"""Kernel backend selection: compiled extension with pure-Python fallback.

The candidate sweep dominates synthesis runtime, so its inner loops
exist twice: a Cython extension (``_kernel_cy``) and a pure-Python twin
(``_kernel_py``). The compiled one is picked automatically when the
extension built; both expose the same functions with identical results
and candidate order. When both are available, the benchmark
(``perfbench/run.py``) solves every network on each backend and
counts any difference in status, count or witness as a failure.
"""

from __future__ import annotations

from . import _kernel_py

try:
    from . import _kernel_cy
except ImportError:  # extension not built: pure-Python install
    _kernel_cy = None

FOUND = _kernel_py.FOUND
EXHAUSTED = _kernel_py.EXHAUSTED
CAP_REACHED = _kernel_py.CAP_REACHED

DEFAULT_BACKEND = "cython" if _kernel_cy is not None else "python"


def available_backends() -> tuple[str, ...]:
    return ("cython", "python") if _kernel_cy is not None else ("python",)


def get_backend(name: str = "auto"):
    """Resolve a backend module by name ("auto", "cython" or "python")."""
    if name == "auto":
        name = DEFAULT_BACKEND
    if name == "python":
        return _kernel_py
    if name == "cython":
        if _kernel_cy is None:
            raise RuntimeError("compiled kernel is not available in this install")
        return _kernel_cy
    raise ValueError(f"unknown backend {name!r}; expected auto, cython or python")
