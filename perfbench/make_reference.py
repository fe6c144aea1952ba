"""Store the exact_orbit exceedance counts that later runs are checked against.

Exact p-values count the whole orbit, so they do not depend on how draws are
sampled: a sampler, stream or engine change must leave these counts alone.
Run from the root of a checkout, on a commit whose results are trusted::

    python3 perfbench/make_reference.py 0 1 2 3 271828

Counts for the seeds given are added to ``perfbench/exact_reference.json``;
counts already stored for a seed must agree or the script stops.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
# The same BLAS setting as run.py, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1]
    path = workloads.REFERENCE_PATH
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    table = stored.setdefault(workloads.FULL.name, {})
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            exact = workloads.Exact(seed, workloads.FULL, workdir)
            exact.setup()
            records = exact.run_pass(0)
            problems, _ = workloads.check_exact(records, exact.counts, None)
            if problems:
                sys.stderr.write("\n".join(problems) + "\n")
                return 1
            counts = {key: rec[0] for key, rec in records.items()}
            old = table.get(str(seed))
            if old is not None and old != counts:
                sys.stderr.write(f"seed {seed}: counts {counts} differ from stored {old}\n")
                return 1
            table[str(seed)] = counts
            print(f"seed {seed}: {counts}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
