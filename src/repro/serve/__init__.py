"""repro.serve — the async serving front over one :class:`EngineHub`.

The hub made many networks share one fleet; this layer makes many
*concurrent users* share it.  A :class:`Scheduler` owns the fleet's
in-flight slots and admits shard tasks from every execution in flight
through strict priorities and weighted-fair per-network interleaving,
so a bulk sweep on one network no longer blocks a single query on
another.  Each submitted :class:`ServeJob` is a handle on one
execution.  Jobs support deadlines and cooperative cancellation (the
job detaches; the execution's last job leaving stops it, drains its
in-flight shards and releases its lease pin); answers stay GR-for-GR equal to
a direct ``hub.mine()`` under any interleaving because the execution
machinery — prepare, shard, merge, cache — is the engine's own.

Identical concurrent jobs attach to one *single-flight* execution and
share its outcome; a sweep batch is one job per point, admitted
all-or-nothing at the batch's priority.

:class:`ServeHTTP` puts the scheduler on a wire (stdlib-only HTTP/JSON:
mine, sweep, append_edges, job status/cancel, stats); ``repro serve``
is the CLI entry.

>>> import asyncio
>>> from repro.datasets.toy import toy_dating_network
>>> from repro.engine import EngineHub
>>> from repro.serve import Scheduler
>>> async def demo():
...     with EngineHub(workers=1) as hub:
...         hub.register("toy", toy_dating_network())
...         async with Scheduler(hub) as scheduler:
...             job = scheduler.submit("toy", k=5, min_support=2, min_nhp=0.5)
...             return await job
>>> len(asyncio.run(demo())) <= 5
True
"""

# Submodule attributes resolve lazily (PEP 562) so that the layers
# below serve can import the leaf `repro.serve.markers` without pulling
# the scheduler — and through it the whole engine stack — into their
# import graph.
from .markers import coordinator_only, is_coordinator_only

__all__ = [
    "JobCancelled",
    "JobState",
    "Scheduler",
    "ServeHTTP",
    "ServeJob",
    "coordinator_only",
    "is_coordinator_only",
    "result_payload",
]

_LAZY = {
    "ServeHTTP": "http",
    "result_payload": "http",
    "JobCancelled": "job",
    "JobState": "job",
    "ServeJob": "job",
    "Scheduler": "scheduler",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
