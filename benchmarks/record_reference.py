"""Write reference.json: the first items of every workload at the reference seed.

    python3 benchmarks/record_reference.py

Run it only when a change is meant to alter the workloads' results; every
benchmark run compares its re-run of these items against the file.
"""

import json

import run

ITEMS = {"holder_corpus": 2, "domination_corpus": 2, "cutoff_corpus": 1, "dual_quadrature": 1}
# Relative tolerance of the comparison: loose enough for a reordered
# floating-point sum, far below any change of the computed quantity.
REL_TOL = 1e-6

if __name__ == "__main__":
    bench_workloads = run._load_package()
    items = {}
    for name in run.WORKLOADS:
        workload = bench_workloads.setup(name)
        stream = workload.items(run.REFERENCE_SEED)
        items[name] = [
            [float(v) for v in workload.reference_values(next(stream))]
            for _ in range(ITEMS[name])
        ]
    reference = {"seed": run.REFERENCE_SEED, "rel_tol": REL_TOL, "items": items}
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
