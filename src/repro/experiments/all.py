"""Run every experiment in sequence: the full evaluation reproduction."""

from repro.experiments import (
    ablations,
    comparison,
    direct_tracking,
    figure1,
    multiseed,
    output_commit,
    recovery,
    scalability,
    sender_based,
    tradeoff,
    unreliable,
    vector_size,
)


def main(include_slow: bool = True) -> None:
    figure1.main()
    tradeoff.main()
    recovery.main()
    vector_size.main()
    comparison.main()
    output_commit.main()
    ablations.main()
    direct_tracking.main()
    scalability.main()
    sender_based.main()
    unreliable.main()
    if include_slow:
        multiseed.main()


if __name__ == "__main__":
    main()
