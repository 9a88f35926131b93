"""numpy is imported by the first table that needs it, not at start-up.

A serve worker at n = 2 builds only list-backed tables, so it never loads
numpy (about 0.15 s of CPU per worker process).  Tables, the oracle and
the shared-memory arena at n >= 64 keep their ndarray columns, and
``REPRO_NO_NUMPY`` still forces lists at every n.  Each case runs in a
fresh interpreter, where nothing else has imported numpy yet.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core import columnar

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def run(code, **env):
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.split()


def test_an_n2_worker_boots_and_delivers_without_numpy(tmp_path):
    out = run(f"""
        import json, os, sys
        from repro.backplane.worker import CoordinatorTransport, Worker
        from repro.backplane.framing import read_frame
        from repro.oracle.ingest import certify_traces

        run_dir = {str(tmp_path)!r}
        for sub in ("storage", "trace"):
            os.makedirs(os.path.join(run_dir, sub))
        with open(os.path.join(run_dir, "run.json"), "w") as fh:
            json.dump({{"n": 2, "k": 1, "seed": 0, "timescale": 0.001,
                       "port": 0, "behavior": "hopchain"}}, fh)

        class Clock:
            now = 0.0
            def schedule(self, delay, callback, label=None):
                return self
            def cancel(self):
                pass

        soon, wire = [], []
        class Writer:
            def write(self, data):
                wire.append(data)
        worker = Worker(0, run_dir)
        worker.build_host(Clock(), CoordinatorTransport(Writer(), soon.append))
        worker.host.boot()
        worker.dispatch({{"t": "cmd", "op": "inject", "seq": 0,
                          "payload": {{"tag": "t0", "hops": 1}}}})
        for callback in soon:
            callback()
        worker.host.protocol.storage.close()
        worker.tracer.close()
        cert = certify_traces([os.path.join(run_dir, "trace", "p000.jsonl")],
                              2, 1)
        print(worker.host.protocol.stats.deliveries, len(wire),
              cert.counts["deliveries"], "numpy" in sys.modules)
    """)
    assert out == ["1", "1", "1", "False"]


@pytest.mark.skipif(columnar.numpy_module() is None, reason="needs numpy")
def test_tables_from_n64_still_get_ndarray_columns():
    out = run("""
        import sys
        from repro.core.tables import LoggingProgressTable
        from repro.oracle.graph import DependencyOracle
        small = LoggingProgressTable(63)
        print("numpy" in sys.modules, type(small._cols).__name__)
        table, oracle = LoggingProgressTable(64), DependencyOracle(64)
        print(type(table._cols).__name__, type(oracle._frontier).__name__)
    """)
    assert out == ["False", "list", "ndarray", "ndarray"]


def test_repro_no_numpy_still_gives_lists():
    out = run("""
        import sys
        from repro.core.tables import LoggingProgressTable
        from repro.oracle.graph import DependencyOracle
        table, oracle = LoggingProgressTable(64), DependencyOracle(64)
        print(type(table._cols).__name__, type(oracle._frontier).__name__,
              "numpy" in sys.modules)
    """, REPRO_NO_NUMPY="1")
    assert out == ["list", "list", "False"]
