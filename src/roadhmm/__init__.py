"""Road-graph hidden Markov localization.

The modules are the API: ``roadmap`` (map, transition model), ``sensor``
(observation model), ``inference`` (filter, smoother, MAP estimate),
``experiment`` (sampling, Monte Carlo comparison), ``matrixio``, ``cli``.

Importing the package before numpy asks OpenBLAS for one thread, unless the
environment already names a count: the passes of a large map run no BLAS,
and a process with no BLAS worker thread forks its helper without Python
3.12's warning about forking a threaded process.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# bench/workloads.py builds its generated map through these two package names.
from .roadmap import generate_default_map, save_map  # noqa: E402  (after the BLAS setting)

__version__ = "0.1.0"
