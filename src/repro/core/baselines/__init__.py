"""Baseline protocols the paper positions K-optimistic logging against.

Each is a :class:`~repro.core.protocol.KOptimisticProcess` subclass that
overrides only where it differs; every driver builds any of them from a
``SimConfig`` through :func:`repro.runtime.host.build_protocol`."""

from repro.core.baselines.direct import DirectDependencyProcess
from repro.core.baselines.fully_async import FullyAsyncProcess, MultiIncarnationVector
from repro.core.baselines.immediate import ImmediateReleaseProcess
from repro.core.baselines.pessimistic import PessimisticProcess
from repro.core.baselines.sender_based import SenderBasedProcess
from repro.core.baselines.strom_yemini import StromYeminiProcess

__all__ = [
    "DirectDependencyProcess",
    "FullyAsyncProcess",
    "ImmediateReleaseProcess",
    "MultiIncarnationVector",
    "PessimisticProcess",
    "SenderBasedProcess",
    "StromYeminiProcess",
]
