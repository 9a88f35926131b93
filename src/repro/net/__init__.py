"""Network substrate: messages, channels with latency models, broadcast
and fault injection."""

from repro.net.channel import (
    Channel,
    FixedLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.faults import ChannelFaults, FaultDecision, NetworkFaultModel
from repro.net.message import (
    Ack,
    AppMessage,
    FailureAnnouncement,
    LogProgressNotification,
    OutputRecord,
)
from repro.net.network import Network

__all__ = ["Ack", "AppMessage", "Channel", "ChannelFaults",
           "FailureAnnouncement", "FaultDecision", "FixedLatency",
           "LatencyModel", "LogProgressNotification", "Network",
           "NetworkFaultModel", "OutputRecord", "UniformLatency"]
