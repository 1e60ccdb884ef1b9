"""Deterministic on-device PII substitution with an evaluation harness."""

from .backends import (
    BackendInvocationError,
    BackendUnhealthy,
    CommandBackend,
    MockEchoDemoBackend,
    MockPoolBackend,
    SlmBackend,
    make_backend,
)
from .cache import SurrogateCache, resolve_entities
from .corpus import load_corpus, save_corpus, synth_corpus
from .detection import (
    DetectorProtocolError,
    DetectorUnavailable,
    ExternalDetector,
    detect_oracle,
    detect_rules,
)
from .fakegen import fake_value
from .generation import (
    SpliceOverlap,
    dispatch,
    redact_placeholder,
    slm_propose,
    splice,
)
from .locales import DateFormat, Locale, classify_date_format, classify_locale
from .model import (
    CacheKey,
    CorpusRecord,
    EmptyCanonical,
    EntityGroup,
    Label,
    Mode,
    PiiSpan,
    RejectionReason,
    SLM_LABELS,
    Source,
    SurrogateDecision,
    canonicalize,
)
from .pipeline import (
    MetricsReport,
    RunConfig,
    RunResults,
    compute_metrics,
    perplexity_reference,
    persist_run,
    run_corpus,
)
from .pools import PoolCatalog, builtin_catalog, load_pool_file
from .prompting import (
    DemoStrategy,
    InvalidInput,
    PoolTooSmall,
    analyze_regurgitation,
    build_prompt,
    sample_demos,
    validate_response,
)

__version__ = "0.1.0"

__all__ = [
    "BackendInvocationError",
    "BackendUnhealthy",
    "CacheKey",
    "CommandBackend",
    "CorpusRecord",
    "DateFormat",
    "DemoStrategy",
    "DetectorProtocolError",
    "DetectorUnavailable",
    "EmptyCanonical",
    "EntityGroup",
    "ExternalDetector",
    "InvalidInput",
    "Label",
    "Locale",
    "MetricsReport",
    "Mode",
    "MockEchoDemoBackend",
    "MockPoolBackend",
    "PiiSpan",
    "PoolCatalog",
    "PoolTooSmall",
    "RejectionReason",
    "RunConfig",
    "RunResults",
    "SLM_LABELS",
    "SlmBackend",
    "Source",
    "SpliceOverlap",
    "SurrogateCache",
    "SurrogateDecision",
    "analyze_regurgitation",
    "build_prompt",
    "builtin_catalog",
    "canonicalize",
    "classify_date_format",
    "classify_locale",
    "compute_metrics",
    "detect_oracle",
    "detect_rules",
    "dispatch",
    "fake_value",
    "load_corpus",
    "load_pool_file",
    "make_backend",
    "perplexity_reference",
    "persist_run",
    "redact_placeholder",
    "resolve_entities",
    "run_corpus",
    "save_corpus",
    "slm_propose",
    "splice",
    "synth_corpus",
]
