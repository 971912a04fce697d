"""The unified discovery engine: one planner, pluggable executors.

FASTOD's level-wise traversal is conceptually one algorithm; this
package keeps it that way.  :class:`LatticePlanner` owns level
iteration, candidate-set mutation, pruning, and the partition residency
window, emitting typed tasks (:class:`ProductTask`,
:class:`FdCheckTask`, :class:`OcdScanTask`) in a deterministic order;
executors (:class:`SerialExecutor`, :class:`PoolExecutor`) decide where
those tasks run; and one :class:`DeadlineBudget` per run is consulted
by every layer.  The from-scratch, hybrid, incremental, validator, and
extension entry points all consume this engine rather than forking the
traversal.
"""

from repro.engine.budget import DeadlineBudget
from repro.engine.executors import PoolExecutor, SerialExecutor, make_executor
from repro.engine.planner import (
    LatticePlanner,
    PartitionBackend,
    level_partition_bytes,
)
from repro.engine.tasks import FdCheckTask, OcdScanTask, ProductTask
from repro.engine.telemetry import ExecutorTelemetry

__all__ = [
    "DeadlineBudget",
    "ExecutorTelemetry",
    "FdCheckTask",
    "LatticePlanner",
    "OcdScanTask",
    "PartitionBackend",
    "PoolExecutor",
    "ProductTask",
    "SerialExecutor",
    "level_partition_bytes",
    "make_executor",
]
