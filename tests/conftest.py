from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from mzhopf.compositions import compositions_up_to
from mzhopf.elements import Element

ACCEPTANCE_LINES = []


def rational_sums(max_weight):
    """Sums of 1-5 compositions of weight <= max_weight with nonzero rational
    scalars whose denominators run up to 12."""
    return st.dictionaries(
        st.sampled_from(list(compositions_up_to(max_weight))),
        st.fractions(-5, 5, max_denominator=12).filter(bool),
        min_size=1,
        max_size=5,
    ).map(Element)


# operand pairs of total weight <= 8
operand_pairs = st.integers(1, 7).flatmap(
    lambda w: st.tuples(rational_sums(w), rational_sums(8 - w))
)


@pytest.fixture
def acceptance():
    """Context manager that records one pass/fail line per criterion.

    The lines are echoed immediately (visible with -s) and replayed in the
    terminal summary so they survive output capture.
    """

    @contextmanager
    def criterion(num, label):
        try:
            yield
        except BaseException:
            line = f"[acceptance] C{num} {label}: FAIL"
            ACCEPTANCE_LINES.append(line)
            print(line)
            raise
        line = f"[acceptance] C{num} {label}: PASS"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
