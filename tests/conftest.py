"""``--shuffle-seed N``: run the collected tests in a seeded random order.

Tests that pass in file order but fail shuffled depend on state an
earlier test left behind (module caches, registries, session-held
tests or memo entries).  The same seed gives the same order, so a
failing order can be replayed and bisected::

    PYTHONPATH=src python -m pytest -q --shuffle-seed 7
"""

import random


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="shuffle the order of collected tests with random.Random(N)",
    )


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        return f"test order shuffled with --shuffle-seed {seed}"
    return None


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
