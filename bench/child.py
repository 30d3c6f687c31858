"""One untraced invocation of a workload in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job names the workload and its generated config.  The child imports
lentparticle from the checkout's `src/`, builds the workload's scenario,
records the monotonic time at that point (the end of set-up), runs the
workload, and writes the set-up time and any loop result to the job's
`timing` file.  Its exit code is the program's.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    from lentparticle import cli, scenarios
    scenario = scenarios.build(job["scenario"], **job["params"])
    t_setup = time.monotonic()

    result = None
    if job["kind"] == "cli":
        code = cli.main([job["command"], job["config"]])
    else:
        from workloads import pathwise_loop
        result = pathwise_loop(scenario, job["seed"], job["paths"], job["replicas"])
        code = 0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["timing"]).write_text(json.dumps(
        {"t_setup": t_setup, "maxrss_kb": maxrss_kb, "result": result}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
