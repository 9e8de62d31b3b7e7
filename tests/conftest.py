"""Per-criterion summary for the acceptance suite.

Acceptance tests are named test_c<N>_...; after a run that included any of
them, one PASS/FAIL line per criterion is printed so the gate can be read
at a glance.  A criterion's test can put its measured statistic on that
line with pytest's record_property fixture:
`record_property("max gap/bound", value)` prints
`criterion  8 (...): PASS (max gap/bound 0.476)`.
"""

import os
import re
from collections import defaultdict

# The float bytes of a BLAS product can depend on how many threads split it
# (tests/golden.json pins some), so every test process, and every process it
# starts, runs BLAS on one thread, whatever the host's core count.  This has
# to happen before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

CRITERIA_TITLES = {
    1: "MV utility table",
    2: "MV convergence table",
    3: "SDG table",
    4: "minimax values",
    5: "stationary-opponent rate",
    6: "cloning bound and fast-switching floor",
    7: "adaptive-learner scaling",
    8: "population pooling bound",
    9: "structural invariants",
    10: "reproduction determinism",
}

_PATTERN = re.compile(r"test_c(\d+)[_\b]")


def _measured(properties) -> str:
    return ", ".join(f"{name} {value:.3g}" if isinstance(value, float) else f"{name} {value}"
                     for name, value in properties)


def pytest_terminal_summary(terminalreporter):
    outcomes = defaultdict(set)
    properties = defaultdict(list)
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(report.nodeid)
            if m and "test_acceptance" in report.nodeid:
                outcomes[int(m.group(1))].add(status)
                properties[int(m.group(1))] += report.user_properties
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] == {"passed"} else "FAIL"
        title = CRITERIA_TITLES.get(num, "")
        measured = _measured(properties[num])
        terminalreporter.write_line(f"criterion {num:2d} ({title}): {verdict}" + (f" ({measured})" if measured else ""))
