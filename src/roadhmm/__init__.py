"""Road-graph hidden Markov localization.

The modules are the API: ``roadmap`` (map, transition matrix), ``sensor``
(observation model), ``inference`` (filter, smoother, MAP estimate),
``experiment`` (sampling, Monte Carlo comparison), ``matrixio``, ``cli``.
"""

# bench/workloads.py builds its generated map through these two package names.
from .roadmap import generate_default_map, save_map

__version__ = "0.1.0"
