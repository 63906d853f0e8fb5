"""Checks shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process alive: run_trials stops its
    worker before it returns, on success and on error."""
    yield
    assert multiprocessing.active_children() == []
