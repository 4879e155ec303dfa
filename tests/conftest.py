import multiprocessing

import numpy as np
import pytest


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        outcome = "PASS" if report.passed else "FAIL"
        print(f"[acceptance] {outcome}: {report.nodeid.split('::')[-1]}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_process_left_behind():
    # a run stops and reaps its worker processes before it returns or raises
    yield
    assert multiprocessing.active_children() == []
