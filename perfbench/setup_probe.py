"""Set-up probe, run in a fresh interpreter by run.py.

    python3 setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR

Imports qslbounds from SRC_DIR, with every module of it the workloads call,
then runs and checks one warm-up item of the workload, and prints one JSON
line as soon as that item is done.  The parent takes its own wall time from
starting this interpreter to receiving the line and subtracts gen_s and
check_s, the time spent here generating the item's input and checking its
output.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
# The import whose cost is measured: qslbounds and every module of it that the
# workloads call (cli is not imported by the package itself).
import qslbounds  # noqa: E402,F401
import workloads  # noqa: E402

t_gen = time.perf_counter()
name, seed, out_dir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
workload = workloads.FACTORIES[name](seed, out_dir, **workloads.ONE_ITEM[name])
item = workload.pool[0]
gen_s = time.perf_counter() - t_gen
output = workload.run(item)
t_check = time.perf_counter()
failed = workload.check(item, output)
check_s = time.perf_counter() - t_check
print(json.dumps({"gen_s": gen_s, "check_s": check_s, "items": workload.items_per_unit,
                  "failed": failed}), flush=True)
workload.close()
