"""Objectives of the discrete sum-rate optimizer on eight fixed instances,
the reference that ``TestDiscreteOptimizer`` in test_optimize.py holds the
optimizer to (``discrete_references.json``, beside this file).

The stored values come from the vertex-move coordinate search of commit
3f8373f, which the SLSQP epigraph solve replaced.  ``objectives()`` calls
that commit's optimizer API; the tests import only ``instance`` and the
constants.  To reproduce the values, run this script with that commit's
sources on the path:

    mkdir /tmp/ocran-3f8373f && git archive 3f8373f src | tar -x -C /tmp/ocran-3f8373f
    PYTHONPATH=/tmp/ocran-3f8373f/src python tests/discrete_references.py \\
        > tests/discrete_references.json
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ocran.verify import random_correlated_scenario, random_factorizing_scenario

SEEDS = range(8)
AUX_SIZES = (3, 3)
RESTARTS, MAX_ITERS, SEED = 4, 120, 0


def instance(seed: int):
    """L = 2, K = 2, |X_l| = 2 and |Y_k| = 3, from the ``ocran.verify``
    generators: factorizing channels for even seeds, correlated for odd."""
    make = random_factorizing_scenario if seed % 2 == 0 else random_correlated_scenario
    return make(np.random.default_rng(seed), 2, 2, input_sizes=(2, 2), output_sizes=(3, 3))


def objectives() -> dict[str, float]:
    from ocran.optimize import OptimizerConfig, optimize_discrete_aux

    config = OptimizerConfig(restarts=RESTARTS, max_iters=MAX_ITERS, seed=SEED)
    return {str(seed): optimize_discrete_aux(instance(seed), AUX_SIZES, config).objective
            for seed in SEEDS}


if __name__ == "__main__":
    json.dump(objectives(), sys.stdout, indent=1)
    print()
