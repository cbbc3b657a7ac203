"""Shared pytest plumbing: one BLAS thread, and acceptance verdict lines for the summary."""
import os

# Fix the BLAS thread count before numpy loads, as the benchmark does, so
# the timed criteria do not contend with other processes for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_lines = []


def record_acceptance(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
