"""Shared pytest wiring: collects acceptance verdicts for the end-of-run
summary, and records the calls that a test patches."""

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def record_calls(monkeypatch, owner, name):
    """Patch owner.name to append each call's positional arguments, as one
    tuple, to the returned list before it runs the original."""
    calls = []
    real = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls
