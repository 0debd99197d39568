"""Structured tracing of simulator runs (the `repro.obs` trace layer).

The simulator's end-of-run aggregates (:class:`~repro.nvram.stats.RunResult`)
say *how much* happened; the trace recorder says *when*.  Every event
carries a **model-time timestamp** (the issuing thread's cycle clock), a
thread id and up to two integer arguments, appended to parallel arrays —
no per-event object allocation, no dictionaries on the hot path.

Event taxonomy (see DESIGN.md §9, §11):

==============  ========================================================
``fase_begin``  an outermost FASE opened (``a`` = fase uid)
``fase_end``    it committed — recorded *after* the technique's
                end-of-FASE drain, so B/E spans include the drain stall
``evict_flush`` the software cache flushed a line off its own accord
                (``a`` = line, ``b`` = 1 if the hardware line was
                dirty, ``c`` = cause: 0 capacity eviction, 1 resize
                eviction, 2 background clean, 3 filter bypass, 4
                victim-cache overflow — causes 2..4 are schema 3,
                written only by composed policy stages)
``drain``       a synchronous flush-queue drain (``a`` = stall cycles,
                ``b`` = entries outstanding before the drain, ``c`` =
                the committing FASE's uid for a FASE-boundary drain,
                -1 for an end-of-program drain)
``burst_start`` an adaptive sampling burst opened (``a`` = burst length)
``mrc_computed``a burst closed and its MRC was analyzed (``a`` =
                analysis cost in cycles, ``b`` = number of knee
                candidates)
``knee_candidate``
                one candidate knee of that MRC (``a`` = size, ``b`` =
                miss ratio in parts-per-million)
``size_selected``
                the controller resized the software cache (``a`` = new
                size) — matches ``RunResult.selected_sizes`` exactly
``stall``       the CPU blocked on the flush engine outside a drain
                (``a`` = stall cycles, ``b`` = 0 for a flush issue,
                1 for a hardware eviction write-back)
==============  ========================================================

The ``c`` column (``cause`` on ``evict_flush``, ``fase_id`` on
``drain``) arrived in trace schema 2 under the name ``resize_evict``
(a 0/1 flag); schema 3 renames it to ``cause`` and widens it to the
cause codes above.  This build reads schema 3 only: one line decoder
(:class:`TraceLineDecoder`), shared by :func:`parse_jsonl` and the
``monitor --follow`` tail, rejects a document without a schema-3
``trace_meta`` header with a ``ConfigurationError`` that says to
re-record the trace.

Exports: JSON-lines (a ``trace_meta`` header line carrying the schema
version, then one event per line, sorted keys — byte-identical across
repeated runs of the same configuration) and the Chrome ``trace_event``
format, loadable in Perfetto / ``chrome://tracing`` with one track per
simulated thread (model cycles are mapped to microseconds).

When tracing is off the machine holds the module-level
:data:`NULL_RECORDER`, whose ``enabled`` flag gates every recording site
— the batched fast path stays allocation-free (enforced by
``benchmarks/test_obs_overhead.py`` and ``tools/bench_compare.py``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: Version of the event taxonomy written by this recorder, and the only
#: one :class:`TraceLineDecoder` reads.  Schema 2 added the third event
#: argument (``resize_evict`` on ``evict_flush``, ``fase_id`` on
#: ``drain``); schema 3 renamed ``resize_evict`` to ``cause`` and
#: widened it to the policy-stage cause codes (clean / bypass / victim).
TRACE_SCHEMA_VERSION = 3

#: The ``kind`` of the JSONL header line (not a simulator event).
TRACE_META_KIND = "trace_meta"

#: Event kinds (string constants; used as ``name`` in Chrome traces).
EV_FASE_BEGIN = "fase_begin"
EV_FASE_END = "fase_end"
EV_EVICT_FLUSH = "evict_flush"
EV_DRAIN = "drain"
EV_BURST_START = "burst_start"
EV_MRC_COMPUTED = "mrc_computed"
EV_KNEE_CANDIDATE = "knee_candidate"
EV_SIZE_SELECTED = "size_selected"
EV_STALL = "stall"

EVENT_KINDS = (
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_EVICT_FLUSH,
    EV_DRAIN,
    EV_BURST_START,
    EV_MRC_COMPUTED,
    EV_KNEE_CANDIDATE,
    EV_SIZE_SELECTED,
    EV_STALL,
)

#: Decoded names of the ``a``/``b``/``c`` payload per kind
#: (``None`` = unused).
ARG_NAMES: Dict[str, Tuple[Optional[str], Optional[str], Optional[str]]] = {
    EV_FASE_BEGIN: ("fase_id", None, None),
    EV_FASE_END: ("fase_id", None, None),
    EV_EVICT_FLUSH: ("line", "dirty", "cause"),
    EV_DRAIN: ("stall_cycles", "outstanding", "fase_id"),
    EV_BURST_START: ("burst_length", None, None),
    EV_MRC_COMPUTED: ("analysis_cost", "num_candidates", None),
    EV_KNEE_CANDIDATE: ("size", "miss_ratio_ppm", None),
    EV_SIZE_SELECTED: ("size", None, None),
    EV_STALL: ("stall_cycles", "source", None),
}


def encode_meta_line() -> str:
    """The ``trace_meta`` header line (no trailing newline)."""
    return json.dumps(
        {"kind": TRACE_META_KIND, "schema": TRACE_SCHEMA_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


def encode_event_line_json(
    kind: str, tid: int, ts: int, a: int, b: int, c: int
) -> str:
    """The reference encoding: build the doc dict, ``json.dumps`` it.

    :func:`encode_event_line` must stay byte-identical to this for every
    known kind (checked by ``tests/test_obs_trace.py``); it remains the
    path for kinds without a precompiled template.
    """
    doc = {"kind": kind, "tid": tid, "ts": ts}
    names = ARG_NAMES.get(kind, ("a", "b", "c"))
    if names[0] is not None:
        doc[names[0]] = a
    if names[1] is not None:
        doc[names[1]] = b
    if names[2] is not None:
        doc[names[2]] = c
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _build_fast_encoders(suffix: str = "") -> Dict[str, object]:
    """Precompile one ``%``-template encoder per known event kind.

    ``json.dumps`` per event dominates the streaming spill's cost; for a
    known kind the line's shape is fully determined (fixed keys in
    sorted order, integer values), so it collapses to one format-string
    substitution.  ``%d`` renders Python ints exactly as ``json.dumps``
    does (including negatives), which keeps the fast path byte-identical
    to the reference encoder — recording sites pass ints only.
    """
    encoders: Dict[str, object] = {}
    for kind, names in ARG_NAMES.items():
        sources = {"tid": "tid", "ts": "ts"}
        for name, source in zip(names, ("a", "b", "c")):
            if name is not None:
                sources[name] = source
        parts: List[str] = []
        order: List[str] = []
        for key in sorted(sources.keys() | {"kind"}):
            if key == "kind":
                parts.append('"kind":"%s"' % kind)
            else:
                parts.append('"%s":%%d' % key)
                order.append(sources[key])
        template = "{" + ",".join(parts) + "}" + suffix
        encoders[kind] = eval(  # one closure per kind, built once
            "lambda tid, ts, a, b, c: %r %% (%s,)" % (template, ",".join(order))
        )
    return encoders


_FAST_ENCODERS = _build_fast_encoders()
_FAST_ENCODERS_NL = _build_fast_encoders("\n")


def encode_event_line(kind: str, tid: int, ts: int, a: int, b: int, c: int) -> str:
    """Encode one event as its canonical JSONL line (no trailing newline).

    Single source of the byte format: :meth:`TraceRecorder.to_jsonl`,
    the streaming :meth:`TraceRecorder.write_jsonl` and the live
    :class:`repro.obs.live.StreamingRecorder` spill all route through
    here, which is what makes the incremental spill byte-identical to a
    post-hoc export.  Known kinds use a precompiled template (see
    :func:`_build_fast_encoders`); anything else falls back to the
    reference ``json.dumps`` encoding.
    """
    encoder = _FAST_ENCODERS.get(kind)
    if encoder is not None:
        return encoder(tid, ts, a, b, c)
    return encode_event_line_json(kind, tid, ts, a, b, c)


def encode_event_chunk(
    events: Iterable[Tuple[str, int, int, int, int, int]]
) -> str:
    """Encode a chunk of event tuples as newline-terminated JSONL.

    The streaming spill's hot path: one template substitution and list
    slot per event, the per-line ``"\\n"`` concatenation folded into a
    single join.  Byte-identical to ``encode_event_line(...) + "\\n"``
    per event.
    """
    get = _FAST_ENCODERS_NL.get
    lines = []
    append = lines.append
    for kind, tid, ts, a, b, c in events:
        encoder = get(kind)
        if encoder is not None:
            append(encoder(tid, ts, a, b, c))
        else:
            append(encode_event_line_json(kind, tid, ts, a, b, c) + "\n")
    return "".join(lines)


class TraceEvent(NamedTuple):
    """One decoded trace event (the recorder stores parallel arrays)."""

    kind: str
    thread_id: int
    time: int
    a: int
    b: int
    c: int = 0


class TraceRecorder:
    """Buffers typed events in parallel arrays; exports JSONL / Chrome.

    ``record`` is the only hot call: six list appends.  All decoding,
    aggregation and serialization happens at export time.
    """

    __slots__ = ("_kinds", "_tids", "_times", "_a", "_b", "_c", "schema")

    #: Class-level so the machine's ``recorder.enabled`` gate costs one
    #: attribute load whether the recorder is real or the null one.
    enabled = True

    def __init__(self) -> None:
        self._kinds: List[str] = []
        self._tids: List[int] = []
        self._times: List[int] = []
        self._a: List[int] = []
        self._b: List[int] = []
        self._c: List[int] = []
        #: Schema of the taxonomy these events use (the only one
        #: :func:`parse_jsonl` accepts, so parsed documents carry it too).
        self.schema = TRACE_SCHEMA_VERSION

    # -- recording -------------------------------------------------------

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Append one event (model-time ``time`` on thread ``thread_id``)."""
        self._kinds.append(kind)
        self._tids.append(thread_id)
        self._times.append(time)
        self._a.append(a)
        self._b.append(b)
        self._c.append(c)

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Scheduler window-boundary hook; the plain recorder ignores it.

        The machine calls this once per scheduler quantum (both the
        per-event and batched paths).  Streaming recorders use it to
        close cycle windows and spill; the buffering recorder has
        nothing to do.
        """

    def clear(self) -> None:
        """Drop every buffered event."""
        self._kinds.clear()
        self._tids.clear()
        self._times.clear()
        self._a.clear()
        self._b.clear()
        self._c.clear()

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def columns(self) -> Tuple[List[str], List[int], List[int], List[int], List[int], List[int]]:
        """The parallel ``(kinds, tids, times, a, b, c)`` arrays.

        The analyzer's one-pass folds index these directly instead of
        materializing a :class:`TraceEvent` per event; callers must not
        mutate them.
        """
        return (self._kinds, self._tids, self._times, self._a, self._b, self._c)

    def events(self) -> Iterator[TraceEvent]:
        """Iterate events in recording order."""
        for i in range(len(self._kinds)):
            yield TraceEvent(
                self._kinds[i],
                self._tids[i],
                self._times[i],
                self._a[i],
                self._b[i],
                self._c[i],
            )

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in recording order."""
        return [e for e in self.events() if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (only kinds that occurred)."""
        out: Dict[str, int] = {}
        for k in self._kinds:
            out[k] = out.get(k, 0) + 1
        return dict(sorted(out.items()))

    # -- export ----------------------------------------------------------

    def _event_args(self, e: TraceEvent) -> Dict[str, int]:
        names = ARG_NAMES.get(e.kind, ("a", "b", "c"))
        args: Dict[str, int] = {}
        if names[0] is not None:
            args[names[0]] = e.a
        if names[1] is not None:
            args[names[1]] = e.b
        if names[2] is not None:
            args[names[2]] = e.c
        return args

    def iter_jsonl(self) -> Iterator[str]:
        """Yield the JSONL export line by line (each with its newline).

        The first line is always a ``trace_meta`` header declaring the
        schema version, even for an empty trace.
        """
        yield encode_meta_line() + "\n"
        kinds, tids, times, aa, bb, cc = self.columns()
        for i in range(len(kinds)):
            yield encode_event_line(kinds[i], tids[i], times[i], aa[i], bb[i], cc[i]) + "\n"

    def to_jsonl(self) -> str:
        """One JSON object per line, sorted keys — deterministic bytes."""
        return "".join(self.iter_jsonl())

    def to_chrome(self) -> Dict:
        """The Chrome ``trace_event`` document (open in Perfetto).

        Model cycles map to trace microseconds; outermost FASEs become
        duration (B/E) spans named ``FASE``, everything else an instant
        event on the issuing thread's track.
        """
        events: List[Dict] = []
        for tid in sorted(set(self._tids)):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": f"sim thread {tid}"},
                }
            )
        for e in self.events():
            if e.kind == EV_FASE_BEGIN or e.kind == EV_FASE_END:
                events.append(
                    {
                        "ph": "B" if e.kind == EV_FASE_BEGIN else "E",
                        "name": "FASE",
                        "cat": "fase",
                        "pid": 0,
                        "tid": e.thread_id,
                        "ts": e.time,
                        "args": {"fase_id": e.a},
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "name": e.kind,
                        "cat": "obs",
                        "pid": 0,
                        "tid": e.thread_id,
                        "ts": e.time,
                        "args": self._event_args(e),
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "time_unit": "model cycles rendered as microseconds",
                "trace_schema": TRACE_SCHEMA_VERSION,
            },
        }

    def write_jsonl(self, path: str) -> None:
        """Write the JSONL export to ``path``, streaming line by line.

        Never materializes the whole document, so peak memory at export
        time stays at one line regardless of trace size; the bytes are
        identical to ``to_jsonl()``.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.iter_jsonl():
                fh.write(line)

    def write_chrome(self, path: str) -> None:
        """Write the Chrome trace_event export to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_chrome(), sort_keys=True, indent=1) + "\n")

    def __repr__(self) -> str:
        return f"TraceRecorder(events={len(self)}, kinds={list(self.counts())})"


class TraceLineDecoder:
    """Decode a JSONL trace one line at a time: the one reader of the format.

    :func:`parse_jsonl` (a whole document) and the monitor's
    ``TraceTailer`` (a file still being written) feed their lines
    through this class, so both accept and reject exactly the same
    documents.  An event before a schema-3 ``trace_meta`` header, a
    header declaring any other schema, a non-JSON line, an unknown kind
    or a missing field raises ``ConfigurationError`` naming
    ``source`` and the line number.
    """

    __slots__ = ("source", "schema")

    def __init__(self, source: str = "trace") -> None:
        self.source = source
        #: The declared schema once the header line has been read.
        self.schema: Optional[int] = None

    def decode(
        self, line: str, lineno: int
    ) -> Optional[Tuple[str, int, int, int, int, int]]:
        """Decode one non-blank line: ``None`` for the header, else the
        ``(kind, tid, ts, a, b, c)`` arguments of
        :meth:`TraceRecorder.record`."""
        from repro.common.errors import ConfigurationError

        where = f"{self.source} line {lineno}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: not JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{where}: not a JSON object")
        kind = doc.get("kind")
        if kind == TRACE_META_KIND:
            schema = doc.get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"{where}: unsupported trace schema {schema!r}; this "
                    f"build reads schema {TRACE_SCHEMA_VERSION} only, so "
                    f"re-record the trace with schema {TRACE_SCHEMA_VERSION}"
                )
            self.schema = schema
            return None
        if self.schema is None:
            raise ConfigurationError(
                f"{where}: event before any trace_meta header (a schema-1 "
                f"trace?); re-record the trace with schema "
                f"{TRACE_SCHEMA_VERSION}"
            )
        names = ARG_NAMES.get(kind)
        if names is None:
            raise ConfigurationError(f"{where}: unknown event kind {kind!r}")
        try:
            a, b, c = (doc[name] if name is not None else 0 for name in names)
            return (kind, doc["tid"], doc["ts"], a, b, c)
        except KeyError as exc:
            raise ConfigurationError(
                f"{where}: {kind} event lacks field {exc}"
            ) from None


def parse_jsonl(text: str, source: str = "trace") -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from its JSONL export.

    Every line goes through :class:`TraceLineDecoder` (errors name
    ``source``); a document with no ``trace_meta`` header at all (empty,
    or a schema-1 trace) raises ``ConfigurationError`` as well.
    """
    from repro.common.errors import ConfigurationError

    rec = TraceRecorder()
    decoder = TraceLineDecoder(source)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line:
            event = decoder.decode(line, lineno)
            if event is not None:
                rec.record(*event)
    if decoder.schema is None:
        raise ConfigurationError(
            f"{source} has no trace_meta header; re-record the trace with "
            f"schema {TRACE_SCHEMA_VERSION}"
        )
    return rec


def read_jsonl(path: str) -> TraceRecorder:
    """Load a JSONL trace file written by :meth:`TraceRecorder.write_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl(fh.read(), source=path)


class NullRecorder:
    """The disabled path: ``enabled`` is False and ``record`` is a no-op.

    The machine checks ``recorder.enabled`` (a class attribute load)
    before touching any recording site, so a run with the null recorder
    does the same work as one with no observability layer at all.
    """

    __slots__ = ()

    enabled = False

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Deliberately empty."""

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Deliberately empty."""

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRecorder()"


#: The module-level shared null recorder every untraced machine holds.
NULL_RECORDER = NullRecorder()
