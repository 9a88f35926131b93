"""The example scripts must stay runnable — they are the documentation."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [
    "quickstart",
    "telecom_service",
    "scientific_pipeline",
    "tune_k",
    "custom_workload",
    "compare_families",
]


class TestExamples:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = load_example(name)
        assert callable(module.main)

    def test_quickstart_runs(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "invariant violations  : none" in out
        assert "space-time diagram" in out

    def test_custom_workload_runs(self, capsys):
        load_example("custom_workload").main()
        out = capsys.readouterr().out
        assert "divergent replicated keys     : 0" in out

    def test_scientific_pipeline_runs(self, capsys):
        load_example("scientific_pipeline").main()
        out = capsys.readouterr().out
        assert "optimistic logging saved" in out

    def test_compare_families_runs(self, capsys):
        # Every row asserts its run certified clean.
        load_example("compare_families").main()
        out = capsys.readouterr().out
        assert "sender-based pessimistic" in out
        assert "checkpoint" not in out
