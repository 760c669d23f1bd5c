"""Write derive_expected.json: status, violated_n and dimension of every
derive-scan solve, as the program computes them.

    python3 perfbench/make_expected.py   # from the root of a checkout

The committed table was written at the commit that introduced the
benchmark; regenerate it only when a change means to alter these outcomes.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from binsums import discovery, identities  # noqa: E402

table = {}
for target in workloads.derive_targets(identities.builtin_registry(), identities):
    for period in workloads.DERIVE_PERIODS:
        sol = discovery.derive_profile(target, period)
        table[f"{workloads.target_key(target)}|{period}"] = {
            "status": sol.status, "violated_n": sol.violated_n, "dimension": sol.dimension}
with open(os.path.join(HERE, "derive_expected.json"), "w", encoding="ascii") as fh:
    fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
             + "\n}\n")
