"""Baseline protocols the paper positions K-optimistic logging against,
plus harness factories for running them side by side."""

from repro.core.baselines.direct import DirectDependencyProcess
from repro.core.baselines.fully_async import FullyAsyncProcess, MultiIncarnationVector
from repro.core.baselines.pessimistic import PessimisticProcess
from repro.core.baselines.sender_based import SenderBasedProcess
from repro.core.baselines.strom_yemini import StromYeminiProcess

__all__ = [
    "DirectDependencyProcess",
    "FullyAsyncProcess",
    "MultiIncarnationVector",
    "PessimisticProcess",
    "SenderBasedProcess",
    "StromYeminiProcess",
    "direct_factory",
    "fully_async_factory",
    "pessimistic_factory",
    "sender_based_factory",
    "strom_yemini_factory",
]


def pessimistic_factory(pid, config, behavior, now_fn):
    """Harness factory for :class:`PessimisticProcess`."""
    return PessimisticProcess(
        pid, config.n, 0, behavior, seed=config.seed, now_fn=now_fn
    )


def sender_based_factory(pid, config, behavior, now_fn):
    """Harness factory for :class:`SenderBasedProcess` (use with k=0 on a
    reliable network)."""
    return SenderBasedProcess(
        pid, config.n, behavior=behavior, seed=config.seed, now_fn=now_fn
    )


def strom_yemini_factory(pid, config, behavior, now_fn):
    """Harness factory for :class:`StromYeminiProcess` (use with fifo=True)."""
    return StromYeminiProcess(
        pid, config.n, behavior=behavior, seed=config.seed, now_fn=now_fn
    )


def fully_async_factory(pid, config, behavior, now_fn):
    """Harness factory for :class:`FullyAsyncProcess`."""
    return FullyAsyncProcess(
        pid, config.n, behavior=behavior, seed=config.seed, now_fn=now_fn
    )


def direct_factory(pid, config, behavior, now_fn):
    """Harness factory for :class:`DirectDependencyProcess`."""
    from repro.core.baselines.direct import DirectDependencyProcess

    return DirectDependencyProcess(
        pid, config.n, behavior=behavior, seed=config.seed, now_fn=now_fn
    )
