"""Fixed reference work that gauges the machine's current speed.

    python3 perfbench/reference.py

``run.py`` runs this script in its own process before and after every timed
command and rescales the command's wall time by how long the reference took
(see ``README.md``, "Rescaling by the reference").  It does what a ``scoi``
command does in kind, with none of the program's code: interpreter start,
importing numpy and scipy, Python loops over dicts and strings, a JSON round
trip, a hash, and dense numpy and scipy kernels.  Its work is fixed: it takes
no input and writes nothing.
"""

import hashlib
import json
import random

import numpy as np
from scipy.spatial.distance import cdist

rng = random.Random(7)
words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 9)))
         for _ in range(5000)]
docs = [[words[int(rng.paretovariate(1.1)) % 5000] for _ in range(rng.randint(8, 40))]
        for _ in range(1500)]
postings: dict[str, list[int]] = {}
for i, doc in enumerate(docs):
    for word in doc:
        postings.setdefault(word, []).append(i)
blob = json.dumps([{"id": i, "tokens": doc, "terms": {w: len(w) for w in doc}}
                   for i, doc in enumerate(docs)])
assert len(json.loads(blob)) == len(docs)
hashlib.sha256(blob.encode("utf-8")).hexdigest()
matrix = np.random.default_rng(3).random((400, 300))
for _ in range(2):
    cdist(matrix[:200], matrix[200:], "cosine")
    (matrix @ matrix.T).max(axis=1).sum()
