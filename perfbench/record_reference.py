"""Write perfbench/reference.json: the deterministic values the checks compare against.

Run once, from the root of the repository, on the commit whose values are
the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

The entropies are deterministic functions of fixed symbols.  A later
change to qsts must reproduce them within the tolerance the checks state;
it must not re-record them.
"""

import json
import math
import os

from qsts import experiments, spectral

from workloads import GEOM_DECAY, HERE, McBlocked


def entropies(a, n, ms=None) -> dict:
    report = experiments.audit_state_approximation(a, n, ms)
    return {str(r.m): r.value for r in report.rows if r.label == "relative_entropy"}


def main():
    geom = spectral.parse_density(GEOM_DECAY)
    cos = spectral.parse_density("cos:2,0.5")
    # `estimate onestep --n 4096 --d 1` is one replicate of mc_blocked
    mc = McBlocked(0)
    rm = mc.scheme.r * mc.scheme.m
    out = {
        "dense_symbols": {
            "audit_geom64": entropies(geom, 64, [67, 71, 79]),
            "audit_cos256": entropies(cos, 256),
        },
        "cli_oneshot": {
            "audit_state": entropies(geom, 64),
            "onestep_theta": mc.theta.tolist(),
            "onestep_se": [math.sqrt(v / rm) for v in mc.target.diagonal()],
        },
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
