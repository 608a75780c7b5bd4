import os

import edgediag


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this checkout's src/ first, ahead of
    # PYTHONPATH and any installed copy; the header shows which tree is tested
    return f"edgediag imported from {os.path.dirname(os.path.dirname(edgediag.__file__))}"
