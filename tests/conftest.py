import pytest

from finite_n import ExactCovariances

VERDICTS: list[str] = []


@pytest.fixture(scope="session")
def exact():
    """Exact finite-n covariances, one power-covariance cache per (class,
    law, n) for the whole session: the Var_n(T6) fits of the acceptance
    criteria and of the finite-n tests are paid for once."""
    return ExactCovariances()


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
