"""Shared pytest hooks.

Each acceptance test prints one ``ACCEPTANCE n (...)`` line on stderr.
Pytest's capture keeps the output of passing tests out of the terminal,
so the summary hook below repeats those lines at the end of every run.
"""


def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", None) == "call":
                lines += [line for line in report.capstderr.splitlines()
                          if line.startswith("ACCEPTANCE ")]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines, key=lambda line: int(line.split()[1])):
            terminalreporter.write_line(line)
