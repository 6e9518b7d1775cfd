"""The experiment service: ``repro-sim serve``.

A small asyncio job-queue daemon in front of the content-addressed
:class:`~repro.experiments.store.ResultStore`: clients POST batches of
sweep cells over HTTP, identical cells are deduplicated across
concurrent clients, warm cells answer straight from the store, cold
cells are scheduled onto a fixed process pool, and clients poll each
job's status until it completes.  Results persist in the store for
every later sweep.

The service is fault-tolerant: cells run through the same
:class:`~repro.experiments.parallel.CellExecutor` as ``run_many``, so
crashed or stuck workers are detected, the pool is rebuilt, and the
affected cells are requeued with bounded attempts and deterministic
backoff; clients retry every request with the same backoff.  A seeded
:class:`~repro.serve.faults.ServeFaultPlan` (worker kills) makes the
recovery path chaos-testable.
"""

from repro.serve.client import ServeClient, ServeError, ServeUnavailable
from repro.serve.faults import ServeFaultPlan
from repro.serve.server import ExperimentServer

__all__ = [
    "ExperimentServer",
    "ServeClient",
    "ServeError",
    "ServeFaultPlan",
    "ServeUnavailable",
]
