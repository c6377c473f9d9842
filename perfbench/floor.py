"""Construction-floor probe: simplified polynomials of 5,000 seeded 25-node trees.

    python3 perfbench/floor.py --seed N [--repeats 5]

Builds the trees once with ``scoi.bench.random_tree`` (12 labels, as in the
acceptance test), then times only the tree-to-polynomial conversion,
``--repeats`` times, and prints the sentences/s of each pass as JSON.  It
only reports; the acceptance test stays the gate for the 50k sentences/s
floor.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from scoi.bench import random_tree
from scoi.treepoly import LabelVocabulary, simplified_polynomial

TREES = 5_000
NODES = 25
LABELS = 12


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = random.Random(f"perfbench-floor:{args.seed}")
    vocab = LabelVocabulary(f"lab{i}" for i in range(LABELS))
    trees = [random_tree(NODES, LABELS, rng) for _ in range(TREES)]
    rates = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        for tree in trees:
            simplified_polynomial(tree, vocab)
        rates.append(len(trees) / (time.perf_counter() - start))
    print(json.dumps({"sentences_per_s": rates}))


if __name__ == "__main__":
    main()
