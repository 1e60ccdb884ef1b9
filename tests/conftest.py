import pytest

from piisub.corpus import synth_corpus
from piisub.pools import builtin_catalog

pytest_plugins = ["pytester"]

#: Every environment variable piisub reads.
PIISUB_ENV = (
    "PIISUB_RESULTS_DIR",
    "PIISUB_CORPUS",
    "PIISUB_POOL_FILE",
    "PIISUB_FAKE_SECRET",
)


@pytest.fixture(autouse=True, scope="session")
def _clean_env():
    # CLI settings fall back to these; tests must not inherit them from the
    # host. Session scope, because module- and class-scoped fixtures run the
    # CLI too, and they are set up before any function-scoped fixture.
    with pytest.MonkeyPatch.context() as patch:
        for var in PIISUB_ENV:
            patch.delenv(var, raising=False)
        yield


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def small_corpus():
    """20 multilingual synthetic documents, fixed seed."""
    return synth_corpus(20, seed=5)
