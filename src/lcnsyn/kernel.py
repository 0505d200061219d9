"""The names that remain of the former kernel backend switch.

``_kernel_py`` is the only sweep kernel, and ``synthesis`` calls it
directly. The benchmark (``perfbench/run.py``) still passes
``backend=`` to ``synthesize_observability`` and reports
``DEFAULT_BACKEND`` and ``available_backends()``, so these names stay
until the benchmark stops using them; then this module goes too.
"""

from __future__ import annotations

from . import _kernel_py

FOUND = _kernel_py.FOUND
EXHAUSTED = _kernel_py.EXHAUSTED
CAP_REACHED = _kernel_py.CAP_REACHED

DEFAULT_BACKEND = "python"


def available_backends() -> tuple[str, ...]:
    return (DEFAULT_BACKEND,)


def get_backend(name: str = "auto"):
    """The sweep kernel module; ``name`` must be "auto" or "python"."""
    if name not in ("auto", DEFAULT_BACKEND):
        raise ValueError(f"unknown backend {name!r}; expected auto or python")
    return _kernel_py
