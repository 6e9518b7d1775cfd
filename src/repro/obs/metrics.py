"""Stdlib-only fleet metrics: counters, gauges, histograms + Prometheus text.

This module is the process-wide metrics layer threaded through the serve
daemon, the result store, the parallel runner, and the serve client.  It is
deliberately tiny and dependency-free:

* three primitives — :class:`Counter`, :class:`Gauge`, :class:`Histogram` —
  each supporting optional label dimensions via ``.labels(...)``,
* a :class:`MetricsRegistry` with idempotent get-or-create constructors so
  modules can declare instruments lazily without import-order coupling,
* Prometheus text exposition (`exposition()`) in the 0.0.4 text format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  cumulative histogram buckets), served by ``GET /metrics``,
* a matching :func:`parse_exposition` parser used by the test suite for
  round-trip checks and by the CI telemetry gate to read scrapes.

Nothing in here ever touches the simulation core, so results are
byte-identical whatever the instruments record.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSample",
    "ParsedMetric",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "exposition",
    "parse_exposition",
    "sample_count",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): spans sub-millisecond HTTP handling
#: through multi-minute simulation cells.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: Cap on distinct label-value combinations per metric.  Past this, new
#: combinations collapse into a single overflow child so a buggy caller
#: cannot grow memory without bound.
MAX_LABEL_SETS = 512
OVERFLOW_LABEL_VALUE = "_overflow"

def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Base class: name/help/label bookkeeping plus child management."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError("invalid metric name: %r" % (name,))
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError("invalid label name: %r" % (label,))
            if label == "le" and isinstance(self, Histogram):
                raise ValueError("'le' is reserved for histogram buckets")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}
        self.dropped_label_sets = 0

    # -- labels -----------------------------------------------------------
    def labels(self, *values: object, **kwargs: object) -> "_Metric":
        """Return (and cache) the child for one label-value combination."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError("missing label %s for %s" % (exc, self.name)) from exc
            if len(kwargs) != len(self.labelnames):
                raise ValueError("unexpected labels for %s: %r" % (self.name, kwargs))
        if len(values) != len(self.labelnames):
            raise ValueError(
                "%s expects labels %r, got %d values"
                % (self.name, self.labelnames, len(values))
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= MAX_LABEL_SETS:
                self.dropped_label_sets += 1
                overflow_key = (OVERFLOW_LABEL_VALUE,) * len(self.labelnames)
                child = self._children.get(overflow_key)
                if child is None:
                    child = self._make_child()
                    self._children[overflow_key] = child
                return child
            child = self._make_child()
            self._children[key] = child
            return child

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def _self_or_children(self) -> Iterable[Tuple[Tuple[str, ...], "_Metric"]]:
        if self.labelnames:
            return sorted(self._children.items())
        return [((), self)]

    # -- exposition -------------------------------------------------------
    def render(self) -> List[str]:
        lines = [
            "# HELP %s %s" % (self.name, _escape_help(self.help or self.name)),
            "# TYPE %s %s" % (self.name, self.metric_type),
        ]
        for key, child in self._self_or_children():
            lines.extend(child._render_samples(self.name, self.labelnames, key))
        return lines

    def _render_samples(
        self, name: str, labelnames: Sequence[str], labelvalues: Sequence[str]
    ) -> List[str]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing counter."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        if self.labelnames:
            raise ValueError("%s has labels; call .labels(...).inc()" % self.name)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _render_samples(self, name, labelnames, labelvalues):
        return ["%s%s %s" % (name, _render_labels(labelnames, labelvalues), _format_value(self._value))]


class Gauge(_Metric):
    """Instantaneous value; optionally computed by a callback at scrape time."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def _check_unlabeled(self) -> None:
        if self.labelnames:
            raise ValueError("%s has labels; call .labels(...) first" % self.name)

    def set(self, value: float) -> None:
        self._check_unlabeled()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._check_unlabeled()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn`` at scrape time (queue depths, occupancy, ...)."""
        self._check_unlabeled()
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return float("nan")
        return self._value

    def _render_samples(self, name, labelnames, labelvalues):
        return ["%s%s %s" % (name, _render_labels(labelnames, labelvalues), _format_value(self.value))]


class Histogram(_Metric):
    """Cumulative histogram with ``_bucket{le=}``, ``_sum`` and ``_count``."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be unique")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError("%s has labels; call .labels(...).observe()" % self.name)
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def time(self) -> "_HistogramTimer":
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative counts keyed by upper bound (``inf`` for the catch-all)."""
        out: Dict[float, int] = {}
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            out[bound] = running
        out[math.inf] = running + self._counts[-1]
        return out

    def _render_samples(self, name, labelnames, labelvalues):
        lines = []
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            labels = _render_labels(
                tuple(labelnames) + ("le",), tuple(labelvalues) + (_format_value(bound),)
            )
            lines.append("%s_bucket%s %d" % (name, labels, running))
        labels = _render_labels(tuple(labelnames) + ("le",), tuple(labelvalues) + ("+Inf",))
        lines.append("%s_bucket%s %d" % (name, labels, running + self._counts[-1]))
        plain = _render_labels(labelnames, labelvalues)
        lines.append("%s_sum%s %s" % (name, plain, _format_value(self._sum)))
        lines.append("%s_count%s %d" % (name, plain, self._count))
        return lines


class _HistogramTimer:
    """``with histogram.time(): ...`` — observes elapsed wall seconds."""

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        import time

        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """Named collection of metrics with idempotent get-or-create helpers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                raise ValueError("metric %r already registered" % metric.name)
            self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        "metric %r re-declared with a different type or labels" % name
                    )
                return existing
            metric = cls(name, help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def exposition(self) -> str:
        """Render every registered metric in Prometheus text format 0.0.4."""
        lines: List[str] = []
        for metric in self.collect():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


#: Process-global default registry.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: Optional[Sequence[float]] = None,
) -> Histogram:
    return REGISTRY.histogram(name, help, labelnames, buckets=buckets)


def exposition() -> str:
    return REGISTRY.exposition()


# ---------------------------------------------------------------------------
# Exposition parser — used by tests (round-trip) and the CI telemetry gate.
# ---------------------------------------------------------------------------

MetricSample = Tuple[str, Dict[str, str], float]


class ParsedMetric:
    """One metric family parsed back out of exposition text."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str):
        self.name = name
        self.type = "untyped"
        self.help = ""
        self.samples: List[MetricSample] = []

    def value(self, labels: Optional[Dict[str, str]] = None, sample_name: Optional[str] = None) -> Optional[float]:
        """First sample value matching ``labels`` (subset match) or None."""
        want = labels or {}
        target = sample_name or self.name
        for name, sample_labels, value in self.samples:
            if name != target:
                continue
            if all(sample_labels.get(k) == v for k, v in want.items()):
                return value
        return None


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _family_name(sample_name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_exposition(text: str) -> Dict[str, ParsedMetric]:
    """Parse Prometheus text exposition into ``{family_name: ParsedMetric}``.

    Raises ``ValueError`` on malformed lines so the test round-trip doubles
    as a format validator.
    """
    families: Dict[str, ParsedMetric] = {}

    def family(name: str) -> ParsedMetric:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = ParsedMetric(name)
        return fam

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP ") :]
            name, _, help_text = rest.partition(" ")
            family(name).help = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE ") :]
            name, _, metric_type = rest.partition(" ")
            if metric_type not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError("bad TYPE line: %r" % raw)
            family(name).type = metric_type
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError("malformed sample line: %r" % raw)
        sample_name = match.group("name")
        labels: Dict[str, str] = {}
        label_blob = match.group("labels")
        if label_blob:
            consumed = 0
            for label_match in _LABEL_RE.finditer(label_blob):
                labels[label_match.group(1)] = _unescape_label_value(label_match.group(2))
                consumed = label_match.end()
            remainder = label_blob[consumed:].strip().strip(",")
            if remainder:
                raise ValueError("malformed labels in line: %r" % raw)
        value = _parse_number(match.group("value"))
        fam_name = _family_name(sample_name)
        owner = families.get(fam_name)
        if owner is not None and owner.type == "histogram":
            family(fam_name).samples.append((sample_name, labels, value))
        else:
            family(sample_name).samples.append((sample_name, labels, value))
    return families


def sample_count(families: Dict[str, ParsedMetric]) -> int:
    """Total number of individual series across all parsed families."""
    return sum(len(f.samples) for f in families.values())
