"""Thread-ownership markers for the serving stack.

The :mod:`repro.serve` threading model (PR 4) gives every piece of
engine-internal mutable state — planning skeletons, leases and pins,
the result cache — to ONE coordinator thread, which
plans, merges and caches while the worker fleet does all mining; the
asyncio event loop owns scheduling state only, and reaches the engine
exclusively through the coordinator dispatch shim
(:meth:`Scheduler._run_coord`).  That contract used to live in
docstrings alone.  :func:`coordinator_only` turns it into a checkable
annotation: decorate a function that must only run on the coordinator
thread, and the ``coordinator-only`` rule of :mod:`repro.lint` verifies
— via a call-graph walk over ``repro/serve/`` — that marked functions
are called only from other marked functions or referenced through the
dispatch shim.

This module is imported by the layers *below* serve (engine, parallel,
data), so it must stay a leaf: stdlib only, no repro imports.  The
package ``__init__`` is correspondingly lazy so importing
``repro.serve.markers`` never drags the scheduler (and with it the
engine) into the import graph.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["coordinator_only", "is_coordinator_only"]

_F = TypeVar("_F", bound=Callable)


def coordinator_only(func: _F) -> _F:
    """Mark ``func`` as coordinator-thread-owned (zero runtime cost).

    Purely declarative: the function is returned unchanged with a
    ``__coordinator_only__`` attribute for introspection.  Enforcement
    is static — the ``coordinator-only`` lint rule flags calls to
    marked functions from unmarked code inside ``repro/serve/``.
    Outside a serving deployment (the blocking ``engine.sweep()`` /
    ``hub.mine()`` paths) the calling thread *is* the coordinator, so
    the rule deliberately does not constrain those layers.
    """
    func.__coordinator_only__ = True
    return func


def is_coordinator_only(func: Callable) -> bool:
    """Whether ``func`` carries the :func:`coordinator_only` marker."""
    return bool(getattr(func, "__coordinator_only__", False))
