"""Run every experiment in sequence: the full evaluation reproduction."""

import importlib


def main() -> None:
    from repro.__main__ import EXPERIMENTS

    for name, path in EXPERIMENTS.items():
        if name != "all":
            importlib.import_module(path).main()


if __name__ == "__main__":
    main()
