import pytest
from hypothesis import settings

# property tests build graphs and run whole permutation tests per example, so a
# per-example time limit only measures the host; no test sets one
settings.register_profile("netspread", deadline=None)
settings.load_profile("netspread")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (large benchmark grids)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="large benchmark; pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
