"""Make the benchmark's modules importable by its own tests.

Run with ``python -m pytest bench/tests -o addopts=""`` from the repo root
(the repo's tier-1 configuration collects only ``tests/``)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads  # noqa: E402,F401  (puts the program's src/ on sys.path)
