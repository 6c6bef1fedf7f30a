#!/usr/bin/env python3
"""Regenerate bench/reference.json from the current code.

    python3 bench/make_reference.py

Stores, for the full benchmark size, the SHA-256 digest of each Monte Carlo
workload's CSV report for seeds 0-99, and I(t) for every point of the
rate table that has no closed form. The harness checks its outputs against
these, so regenerate only when a change gives up bit-identity on purpose.
"""

import json
import math
import sys

import run

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.load_package()
    size = run.SIZES["full"]

    reference = {}
    for workload in ("mc_dense", "mc_sparse_tail"):
        digests = {}
        for seed in SEEDS:
            found = []
            (op,), _ = run.mc_ops(mods, workload, seed, size, None, found, lambda k: k)
            failure = op.check(op.run())
            if failure:
                raise SystemExit(f"{workload} seed {seed}: {failure}")
            digests[str(seed)] = found[0]
        reference[workload] = digests
    rates = {}
    for point in run.rate_points(size):
        if run.expected_rate(point, {}) is None:
            model, kernel, a, q, t = point
            ctx = mods.ratefn.CumulantContext(mods.models.get_model(model),
                                              mods.kernels.get_kernel(kernel), a, q, run.RATE_X)
            value = mods.ratefn.rate_point(ctx, t)[0]
            if not math.isfinite(value):
                raise SystemExit(f"{run.point_key(point)}: {value}")
            rates[run.point_key(point)] = value
    reference["ratefn_table"] = rates
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
