"""Network substrate: messages, channels with latency models, broadcast,
fault injection, and the ack/retransmit reliability layer."""

from repro.net.channel import (
    Channel,
    FixedLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.faults import ChannelFaults, FaultDecision, NetworkFaultModel
from repro.net.message import (
    AppAck,
    AppMessage,
    ControlAck,
    ControlEnvelope,
    FailureAnnouncement,
    LogProgressNotification,
    OutputRecord,
)
from repro.net.network import Network
from repro.net.reliable import ControlRetransmitter, ReliableConfig

__all__ = ["AppAck", "AppMessage", "Channel", "ChannelFaults", "ControlAck",
           "ControlEnvelope", "ControlRetransmitter",
           "FailureAnnouncement", "FaultDecision", "FixedLatency",
           "LatencyModel", "LogProgressNotification", "Network",
           "NetworkFaultModel", "OutputRecord", "ReliableConfig",
           "UniformLatency"]
