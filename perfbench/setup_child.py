"""Set-up child for the ``setup_s`` metric: import lapbel and build the
workload's manifold, function and frame through public constructors, with
no points. The parent times this process from spawn to exit.

Usage: python3 perfbench/setup_child.py <workload> <job file or "">
"""

import json
import sys

from workloads import WORKLOADS


def main() -> None:
    name, job_path = sys.argv[1], sys.argv[2]
    document = None
    if job_path:
        with open(job_path, encoding="utf-8") as fh:
            document = json.load(fh)
    WORKLOADS[name].build(document)


if __name__ == "__main__":
    main()
