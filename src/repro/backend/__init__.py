"""Pluggable array backends for the autodiff engine (the ``xp`` seam).

Every array-touching layer of the library — the autodiff tensor, the GNN
message-passing stack, the CSR traversal machinery — routes array creation
and kernel dispatch through the **active backend** instead of a hard-coded
``import numpy``.  The seam has three moving parts:

* :class:`~repro.backend.base.ArrayBackend` — the protocol: array module
  (``xp``), host index module (``host_xp``), dtype policy, RNG
  construction, and the scatter/gather/segment kernel set;
* the **registry** — :func:`register_backend` / :func:`get_backend`,
  holding :class:`~repro.backend.numpy_backend.NumpyBackend` (the
  reference) and :class:`~repro.backend.tracing.TracingBackend` (the
  call-recording test double);
* the **proxies** ``xp`` and ``hxp`` — module-like objects that forward
  every attribute access to the active backend's compute / host module, so
  call sites read like plain numpy (``xp.zeros``, ``xp.add.at``) while the
  backend stays swappable at runtime.

Selection
---------
The active backend resolves, in order: an explicit
:func:`set_active_backend` / :func:`use_backend` call (the CLI ``--backend``
flag and the ``Experiment`` facade's ``backend`` config field end here),
the ``REPRO_BACKEND`` environment variable, then ``"numpy"``.

>>> from repro.backend import use_backend, active_backend
>>> active_backend().name
'numpy'
>>> with use_backend("tracing"):
...     active_backend().name
'tracing'
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.backend.base import ArrayBackend, thread_counts
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.tracing import TracingBackend

#: Environment variable naming the default backend for the process.
BACKEND_ENV_VAR = "REPRO_BACKEND"


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
#: name -> zero-arg factory, run lazily (once) on first use.
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites are rejected)."""
    if name in _FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory


def known_backend_names() -> Tuple[str, ...]:
    """Every registered backend name, sorted."""
    return tuple(sorted(_FACTORIES))


def get_backend(name: str) -> ArrayBackend:
    """The (singleton) backend registered under ``name``.

    Raises ``ValueError`` for names nothing registered.
    """
    if name not in _INSTANCES:
        if name not in _FACTORIES:
            raise ValueError(
                f"unknown backend {name!r}; known backends: {list(known_backend_names())}")
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


# --------------------------------------------------------------------- #
# active-backend state
# --------------------------------------------------------------------- #
_ACTIVE: Optional[ArrayBackend] = None


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve ``name`` -> explicit value, else the ambient active backend.

    ``None`` (the config default everywhere) means "whatever is active":
    the CLI flag, an enclosing :func:`use_backend`, the ``REPRO_BACKEND``
    environment variable, or finally ``"numpy"``.
    """
    if name is not None:
        return name
    return active_backend().name


def active_backend() -> ArrayBackend:
    """The backend the engine currently dispatches to."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend(os.environ.get(BACKEND_ENV_VAR, "numpy"))
    return _ACTIVE


def set_active_backend(name: str) -> ArrayBackend:
    """Make ``name`` the process-wide active backend; returns the previous one.

    Arrays created under the previous backend keep working only if both
    backends share an array library (numpy/tracing); prefer the scoped
    :func:`use_backend` unless you are a process entry point (the CLI).
    """
    global _ACTIVE
    previous = active_backend()
    _ACTIVE = get_backend(name)
    return previous


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[ArrayBackend]:
    """Scoped backend activation (``None`` keeps the ambient backend)."""
    if name is None:
        yield active_backend()
        return
    previous = set_active_backend(name)
    try:
        yield active_backend()
    finally:
        set_active_backend(previous.name)


# --------------------------------------------------------------------- #
# the xp / hxp proxies
# --------------------------------------------------------------------- #
class _ActiveModuleProxy:
    """Module-like object forwarding attribute access to the active backend.

    Call sites write ``xp.zeros(...)`` / ``hxp.lexsort(...)`` exactly as
    they wrote ``np.zeros(...)``; each attribute access re-reads the active
    backend, so switching backends retargets every consumer at once.
    """

    __slots__ = ("_attr",)

    def __init__(self, attr: str):
        object.__setattr__(self, "_attr", attr)

    def __getattr__(self, name: str):
        return getattr(getattr(active_backend(), self._attr), name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        module = getattr(active_backend(), self._attr)
        return f"<backend proxy for {module!r}>"


#: Compute array namespace of the active backend (device arrays on GPU
#: backends).  The only sanctioned array-module entry point for
#: ``repro.autodiff`` and ``repro.gnn``.
xp = _ActiveModuleProxy("xp")

#: Host (numpy-semantics) index namespace of the active backend — CSR
#: arrays, traversal scratch, BFS masks.  Identical to ``xp`` on CPU
#: backends; stays host-side on device backends.
hxp = _ActiveModuleProxy("host_xp")


# --------------------------------------------------------------------- #
# bootstrap
# --------------------------------------------------------------------- #
register_backend("numpy", NumpyBackend)
register_backend("tracing", TracingBackend)


__all__ = [
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "NumpyBackend",
    "TracingBackend",
    "active_backend",
    "get_backend",
    "hxp",
    "known_backend_names",
    "register_backend",
    "resolve_backend_name",
    "set_active_backend",
    "thread_counts",
    "use_backend",
    "xp",
]
