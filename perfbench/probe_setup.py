"""Time one set-up in this fresh interpreter: from before `import qcoh`
until the workload's models are built and its shipped files are loaded.

    python3 perfbench/probe_setup.py WORKLOAD

Prints {"setup_s": ..., "ref_s": ...}: the set-up seconds and the median
of three reference bursts run right after it, so that run.py can scale
the set-up time to the reference speed.  run.py starts this several times
per run and reports the median as setup_s.
"""

import json
import statistics
import sys
import time

import workloads


def main(argv):
    if len(argv) != 1 or argv[0] not in workloads.WORKLOADS:
        sys.stderr.write("usage: probe_setup.py {%s}\n" % ",".join(workloads.WORKLOADS))
        return 2
    workloads.add_source_path()
    start = time.perf_counter()
    workloads.Setup(argv[0])
    seconds = time.perf_counter() - start
    import calibrate  # after the set-up, which must import fractions itself

    ref = statistics.median(calibrate.reference_time() for _ in range(3))
    print(json.dumps({"setup_s": seconds, "ref_s": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
