"""The test session itself: no host setting reaches piisub."""

from pathlib import Path

from conftest import PIISUB_ENV

MODULE_FIXTURE_TEST = f"""
import os

import pytest


@pytest.fixture(scope="module")
def seen_by_module_fixture():
    return {{var: os.environ.get(var) for var in {PIISUB_ENV!r}}}


def test_module_fixture_sees_no_host_setting(seen_by_module_fixture):
    assert seen_by_module_fixture == dict.fromkeys({PIISUB_ENV!r})
"""


def test_host_settings_never_reach_module_fixtures(pytester, monkeypatch):
    for var in PIISUB_ENV:
        monkeypatch.setenv(var, "/nope")
    pytester.makeconftest(
        Path(__file__).with_name("conftest.py").read_text(encoding="utf-8")
    )
    pytester.makepyfile(MODULE_FIXTURE_TEST)
    pytester.runpytest_inprocess("-p", "no:cacheprovider").assert_outcomes(passed=1)
