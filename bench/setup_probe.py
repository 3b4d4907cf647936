"""Set-up probe: what a fresh process does before its first job.

    python3 bench/setup_probe.py CORPUS WORKERS

Imports fineselmer, loads and parses the named corpus of corpus.py and,
for WORKERS > 1, starts and stops the worker pool that ``fineselmer
batch --jobs WORKERS`` would start.  run.py times whole runs of it as
``setup_s``.
"""

import sys

import corpus
from fineselmer import cli

jobs = getattr(corpus, sys.argv[1])
specs = [cli.job_from_dict(j.as_dict(), j.label) for j in jobs]
workers = int(sys.argv[2])
if workers > 1:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
