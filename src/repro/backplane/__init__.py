"""The runtime backplane: real OS processes over asyncio TCP.

The simulation (:mod:`repro.sim`) and the backplane drive the *same*
sans-IO protocol core in the *same* process host
(:class:`repro.runtime.host.ProcessHost`); only the environment
differs.  Here each recovery unit is one OS process speaking
length-prefixed JSON frames to a coordinator in a star topology:

- :mod:`repro.backplane.framing` — the wire framing;
- :mod:`repro.backplane.codec`   — JSON encoding of the protocol's
  message types (:class:`~repro.net.message.AppMessage` and friends);
- :mod:`repro.backplane.clock`   — wall-clock timers with the engine's
  ``now``/``schedule`` interface, plus the streaming JSONL tracer;
- :mod:`repro.backplane.worker`  — one recovery unit (``repro
  serve-worker``, spawned by the coordinator);
- :mod:`repro.backplane.coordinator` — process supervision, frame
  routing, crash injection (SIGKILL + respawn), load generation,
  settling, and post-hoc certification (``repro serve``);
- :mod:`repro.backplane.loadgen` — deterministic stimulus generation
  shared with the differential sim-vs-serve test, and the external
  ``repro load`` client.

Correctness of a backplane run is certified *post hoc*: every worker
streams ``dep.*`` trace events to its own JSONL file, and the coordinator
replays the collected traces through the ground-truth dependency oracle
(:mod:`repro.oracle.ingest`) after the run settles.
"""
