"""Stable storage (crash-surviving) and the volatile message buffer.

Stable storage is pluggable: :class:`ModelBackend` is the in-memory cost
model, :class:`FileLogBackend` a durable segmented file journal;
:func:`make_backend` selects one from a ``SimConfig``.
:class:`StorageFaultInjector` arms deterministic device faults beneath the
file backend.
"""

from repro.storage.backend import BACKENDS, StableBackend, make_backend
from repro.storage.faults import (
    FAULT_KINDS,
    StorageDeadError,
    StorageError,
    StorageFaultInjector,
    TransientStorageError,
)
from repro.storage.stable import Checkpoint, LoggedMessage, ModelBackend
from repro.storage.volatile import VolatileBuffer

__all__ = [
    "BACKENDS",
    "Checkpoint",
    "FAULT_KINDS",
    "LoggedMessage",
    "ModelBackend",
    "StableBackend",
    "StorageDeadError",
    "StorageError",
    "StorageFaultInjector",
    "TransientStorageError",
    "VolatileBuffer",
    "make_backend",
]


def __getattr__(name):
    # FileLogBackend imports lazily so that `import repro.storage` stays
    # cheap for model-only runs.
    if name == "FileLogBackend":
        from repro.storage.filelog import FileLogBackend

        return FileLogBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
