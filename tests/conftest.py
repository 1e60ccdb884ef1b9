import re
import socket
import threading

import pytest

from piisub.corpus import synth_corpus
from piisub.pipeline import check_config, corpus_digest, detect_corpus, run_corpus
from piisub.pools import builtin_catalog

pytest_plugins = ["pytester"]

#: Every environment variable piisub reads.
PIISUB_ENV = (
    "PIISUB_RESULTS_DIR",
    "PIISUB_CORPUS",
    "PIISUB_POOL_FILE",
    "PIISUB_FAKE_SECRET",
)


def run_records(records, config, *, fake_secret=b""):
    """`run_corpus` of `records` under `config` with the inputs a command
    gives it: the pools `check_config` builds, one `detect_corpus` pass and
    the `corpus_digest`."""
    catalog = check_config(config)
    return run_corpus(
        records,
        config,
        detected=detect_corpus(records, config),
        digest=corpus_digest(records),
        catalog=catalog,
        fake_secret=fake_secret,
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


@pytest.fixture
def not_http_endpoint():
    """A loopback endpoint that reads each request whole and answers it with
    a line that is not an HTTP status line; yields its url."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(10)
                request = b""
                while b"\r\n\r\n" not in request and (chunk := conn.recv(65536)):
                    request += chunk
                head, _, body = request.partition(b"\r\n\r\n")
                length = re.search(rb"(?i)content-length: *(\d+)", head)
                need = int(length.group(1)) if length else 0
                while len(body) < need and (chunk := conn.recv(65536)):
                    body += chunk
                conn.sendall(b"NOT HTTP\r\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.getsockname()[1]}/spans"
    stop.set()
    thread.join()
    server.close()
