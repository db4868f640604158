"""Span tracing of the fbcompose layers, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``fbcompose`` module namespace that binds it (``forward`` is bound in
``model``, ``trainer`` and ``cli``; ``psnr`` in ``metrics``, ``basis`` and
``trainer``; and so on), and wraps the basis, residual and cache methods on
their classes.  ``uninstall`` puts every original back.  Wrappers only
observe: they call the original with the same arguments and return its
result unchanged, so a traced run writes the same bytes as an untraced one.

Spans are kept in memory as (id, name, parent, request, start, end, attrs)
and written out by ``write_jsonl`` when the run ends.  The current span and
request live in context variables; thread pools inside the package are
swapped for one that runs each task in a copy of the submitting context, so
a filter span computed on a pool thread still names the ``build_basis`` span
that caused it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

FILTER_SPANS = (
    "filters.bilateral",
    "filters.median",
    "filters.rolling_guidance",
    "filters.gaussian_blur",
)

# Traced public functions: (module, attribute, span name).
FUNCTIONS = (
    ("pnm", "read_image", "pnm.read_image"),
    ("pnm", "write_image", "pnm.write_image"),
    ("image", "snap_unit", "image.snap_unit"),
    ("noise", "add_gaussian_noise", "noise.add_noise"),
    ("noise", "add_impulse_noise", "noise.add_noise"),
    ("filters", "bilateral", "filters.bilateral"),
    ("filters", "median", "filters.median"),
    ("filters", "rolling_guidance", "filters.rolling_guidance"),
    ("filters", "gaussian_blur", "filters.gaussian_blur"),
    ("basis", "build_basis", "basis.build_basis"),
    ("basis", "build_residuals", "basis.build_residuals"),
    ("model", "forward", "model.forward"),
    ("model", "gradients", "model.gradients"),
    ("model", "load_model", "model.load_model"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("metrics", "psnr", "metrics.psnr"),
    ("metrics", "ssim", "metrics.ssim"),
    ("cli", "run", "cli.run"),
)

# Traced methods: (module, class, method, span name).
METHODS = (
    ("basis", "FilteredBasis", "tensor", "basis.tensor"),
    ("basis", "ResidualBasis", "tensor", "basis.tensor"),
    ("basis", "FBCache", "get", "basis.cache.get"),
    ("basis", "FBCache", "put", "basis.cache.put"),
)

# Counted without a span, so their time stays with the calling filter.
COUNTED = (("filters", "joint_bilateral", "filters.joint_bilateral"),)


def traced_classes() -> list[type]:
    package = sys.modules["fbcompose"]
    return [getattr(getattr(package, module), cls) for module, cls, _, _ in METHODS]


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _float_pixels(shape) -> int:
    channels, height, width = shape
    return channels * height * width


def _bilateral_attrs(args, kwargs, result) -> dict:
    """Computed counts of one bilateral call: taps = window^2 * C*H*W; bytes
    assume each of the 5*C + 4 full-size float64 arrays touched per window
    offset (shifted source, shifted and centre guide, delta, accumulator
    read and write; distance, weight, norm read and write) moves once."""
    image = args[0]
    window = kwargs.get("window", args[3] if len(args) > 3 else None)
    channels, height, width = image.shape
    offsets = window * window
    return {
        "taps": offsets * _float_pixels(image.shape),
        "bytes": offsets * (5 * channels + 4) * height * width * 8,
    }


def _median_attrs(args, kwargs, result) -> dict:
    """Computed counts of one median call: taps = k1*k2 * C*H*W; bytes count
    the window copy np.median partitions (read and write) plus the output."""
    image = args[0]
    k1 = kwargs.get("k1", args[1] if len(args) > 1 else None)
    k2 = kwargs.get("k2", args[2] if len(args) > 2 else None)
    pixels = _float_pixels(image.shape)
    return {"taps": k1 * k2 * pixels, "bytes": (2 * k1 * k2 + 1) * pixels * 8}


def _basis_attrs(args, kwargs, result) -> dict:
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    return {"threads": max(1, int(threads))}


def _get_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _put_attrs(args, kwargs, result) -> dict:
    cache, img, cfg = args[0], args[1], args[2]
    return {"bytes": cache.path_for(img, cfg).stat().st_size}


ATTRS = {
    "filters.bilateral": _bilateral_attrs,
    "filters.median": _median_attrs,
    "basis.build_basis": _basis_attrs,
    "basis.cache.get": _get_attrs,
    "basis.cache.put": _put_attrs,
}


class Tracer:
    """Installs span wrappers into ``fbcompose`` and records what they see."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counted: list[str] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _SPAN.get()
            span = Span(next(ids), name, parent, _REQUEST.get(), 0.0)
            token = _SPAN.set(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _SPAN.reset(token)
                spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counted_names = self.counted  # list.append is atomic across threads

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counted_names.append(name)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Tag every span opened inside the block with ``request_id``."""
        token = _REQUEST.set(request_id)
        try:
            yield
        finally:
            _REQUEST.reset(token)

    # -- installing -------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "fbcompose" or name.startswith("fbcompose."))
        ]

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        package = sys.modules["fbcompose"]
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(getattr(package, module_name), attr)
            if self._rebind(original, self._wrap(span_name, original)) == 0:
                raise RuntimeError(f"fbcompose.{module_name}.{attr} is bound nowhere")
        for module_name, attr, count_name in COUNTED:
            original = getattr(getattr(package, module_name), attr)
            self._rebind(original, self._count(count_name, original))
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(getattr(package, module_name), class_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(span_name, original))
        self._rebind(ThreadPoolExecutor, _ContextPool)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.sid):
                handle.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "name": span.name,
                            "parent": span.parent,
                            "request": span.request,
                            "start": span.start,
                            "end": span.end,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans into the per-layer metrics of BENCHMARK.json
    (all but the ``trace.overhead.*`` entries, which compare two runs)."""
    spans = tracer.spans
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def wall(span: Span) -> float:
        return span.end - span.start

    def self_time(span: Span) -> float:
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.sid, ())
        )
        return wall(span) - covered

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def descendants(span: Span):
        stack = list(children.get(span.sid, ()))
        while stack:
            child = stack.pop()
            yield child
            stack.extend(children.get(child.sid, ()))

    out: dict[str, float] = {}

    def calls_and_self(prefix: str, name: str | None = None) -> list[Span]:
        group = named(name or prefix)
        out[f"{prefix}.calls"] = len(group)
        out[f"{prefix}.self_s"] = sum(self_time(s) for s in group)
        return group

    calls_and_self("pnm.read_image")
    calls_and_self("pnm.write_image")
    calls_and_self("image.snap_unit")
    calls_and_self("noise.add_noise")

    bilateral = calls_and_self("filters.bilateral")
    taps = sum(s.attrs["taps"] for s in bilateral)
    out["filters.bilateral.taps"] = taps
    out["filters.bilateral.taps_per_s"] = (
        taps / out["filters.bilateral.self_s"] if bilateral else 0.0
    )
    out["filters.bilateral.bytes_per_call"] = (
        sum(s.attrs["bytes"] for s in bilateral) / len(bilateral) if bilateral else 0.0
    )
    out["filters.joint_bilateral.calls"] = tracer.counted.count("filters.joint_bilateral")
    calls_and_self("filters.rolling_guidance")
    calls_and_self("filters.gaussian_blur")
    medians = calls_and_self("filters.median")
    out["filters.median.taps"] = sum(s.attrs["taps"] for s in medians)
    out["filters.median.bytes_per_call"] = (
        sum(s.attrs["bytes"] for s in medians) / len(medians) if medians else 0.0
    )

    # Basis build: busy is the time spent inside the outermost filter spans
    # it caused, on any thread; wait is the rest of wall * threads.
    builds = named("basis.build_basis")
    wall_s = busy_s = capacity = 0.0
    for build in builds:
        busy = 0.0
        for span in descendants(build):
            if span.name in FILTER_SPANS and by_id[span.parent].name not in FILTER_SPANS:
                busy += wall(span)
        wall_s += wall(build)
        busy_s += busy
        capacity += wall(build) * build.attrs["threads"]
    out["basis.build_basis.calls"] = len(builds)
    out["basis.build_basis.wall_s"] = wall_s
    out["basis.build_basis.busy_s"] = busy_s
    out["basis.build_basis.wait_s"] = capacity - busy_s
    out["basis.build_basis.parallel_efficiency"] = busy_s / capacity if capacity else 0.0
    calls_and_self("basis.build_residuals")
    calls_and_self("basis.tensor")

    gets = named("basis.cache.get")
    hits = sum(1 for s in gets if s.attrs["hit"])
    out["basis.cache.gets"] = len(gets)
    out["basis.cache.hits"] = hits
    out["basis.cache.misses"] = len(gets) - hits
    out["basis.cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    out["basis.cache.get_self_s"] = sum(self_time(s) for s in gets)
    puts = named("basis.cache.put")
    out["basis.cache.puts"] = len(puts)
    out["basis.cache.put_self_s"] = sum(self_time(s) for s in puts)
    out["basis.cache.bytes_written"] = sum(s.attrs["bytes"] for s in puts)

    calls_and_self("model.gradients")
    forwards = calls_and_self("model.forward")
    # The nearest traced caller tells the four uses of forward apart.
    callers = {
        "model.gradients": "under_gradients",
        "trainer.train": "under_validation",
        "cli.run": "under_apply",
        "trainer.evaluate": "under_evaluate",
    }
    for label in callers.values():
        out[f"model.forward.{label}.calls"] = 0
        out[f"model.forward.{label}.self_s"] = 0.0
    for span in forwards:
        label = callers.get(by_id[span.parent].name) if span.parent in by_id else None
        if label is not None:
            out[f"model.forward.{label}.calls"] += 1
            out[f"model.forward.{label}.self_s"] += self_time(span)
    calls_and_self("model.load_model")

    trains = named("trainer.train")
    out["trainer.train.wall_s"] = sum(wall(s) for s in trains)
    steps = calls_and_self("trainer.adam_step")
    # Step time: train wall minus basis and residual build, per Adam step.
    loop_s = 0.0
    for train in trains:
        build = _union_length(
            (s.start, s.end)
            for s in descendants(train)
            if s.name in ("basis.build_basis", "basis.build_residuals")
        )
        loop_s += wall(train) - build
    out["trainer.step_s"] = loop_s / len(steps) if steps else 0.0
    out["trainer.evaluate.wall_s"] = sum(wall(s) for s in named("trainer.evaluate"))

    calls_and_self("metrics.psnr")
    calls_and_self("metrics.ssim")

    runs = named("cli.run")
    out["cli.run.calls"] = len(runs)
    out["cli.run.wall_s"] = sum(wall(s) for s in runs)
    out["cli.self_s"] = sum(self_time(s) for s in runs)
    out["trace.spans"] = len(spans)
    return out
