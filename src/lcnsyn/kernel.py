"""The names that remain of the former kernel backend switch.

``_kernel_py`` is the only sweep kernel and holds its status codes;
``synthesis`` prepares its arguments once per problem and calls it
directly. The benchmark (``perfbench/run.py``) still passes
``backend=`` to ``synthesize_observability`` and reports
``DEFAULT_BACKEND`` and ``available_backends()``, so these two names
stay until the benchmark stops using them; then this module goes too.
"""

from __future__ import annotations

DEFAULT_BACKEND = "python"


def available_backends() -> tuple[str, ...]:
    return (DEFAULT_BACKEND,)
