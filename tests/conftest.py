"""Tests marked ``slow`` run only when CHAINDEX_SLOW=1 is set."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CHAINDEX_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow tier: set CHAINDEX_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
