"""Count the elements a call passes through ``rwcosmo.integrator.libm``: the
math-module evaluations it makes, a count that does not depend on the host.
"""

import sys
from typing import Callable

from rwcosmo import integrator


def libm_elements(op: Callable[[], object]) -> int:
    """Elements passed to libm while ``op()`` runs.  libm is wrapped, for
    the call only, in every rwcosmo module that imports it."""
    original = integrator.libm
    count = 0

    def counted(f, x):
        nonlocal count
        count += len(x)
        return original(f, x)

    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "rwcosmo" and getattr(m, "libm", None) is original]
    for module in modules:
        module.libm = counted
    try:
        op()
    finally:
        for module in modules:
            module.libm = original
    return count
