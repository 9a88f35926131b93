"""The paper's core contribution: commit dependency tracking and the
K-optimistic logging protocol (Figures 2-3), plus the baseline protocols
it generalises."""

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess, ProtocolStats
from repro.core.tables import IncarnationEndTable, LoggingProgressTable

__all__ = [
    "DependencyVector",
    "Entry",
    "IncarnationEndTable",
    "KOptimisticProcess",
    "LoggingProgressTable",
    "ProtocolStats",
]
