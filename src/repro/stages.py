"""The cached predict path: *parse*, *compile*, *plan* and *price* as keyed
stages, plus the simulator's *dataplane* stage.

``repro.predict`` is really four pipelines glued together:

1. **parse** — HPF/Fortran 90D source text → logical lines → tokens →
   program AST, plus the compile front that reads the AST alone: symbol
   table, normalised program and statement labels.  Depends on the
   program text and its name only.
2. **compile** — parsed AST → partitioned, sequentialised SPMD node
   program (the app model).  Depends on the program text, process count,
   grid layout and parameter overrides — and on *nothing about the target
   machine*.
3. **plan** — the abstraction parse (:func:`~repro.interpreter.build_saag`):
   the SAAG, each AAU built with its machine-free parameters (iteration
   counts, operation counts, communication sizes, trip counts, static
   branches), the communication table and the critical variables.
   Depends on the compile stage's output and the interpreter options, and
   on nothing about the machine.
4. **price** — walk that SAAG with one machine's SAG/SAU parameter set and
   the analytic communication models (the interpretation parse).  Depends
   on the SAAG plus the machine.

This module puts each stage behind its own **independent, explicitly keyed
cache** so hot program ASTs/app models are built once and shared across
sizes, process counts, machines and requests: a sweep over problem sizes
and process counts parses (and normalises) each program once and compiles
each (size, nprocs) cell once, a cross-machine sweep (or a prediction
server fielding the same program against many targets) pays one compile,
one SAAG and N prices, and repeated identical predictions pay nothing at
all.  Every compile shares its parse stage's
:class:`~repro.frontend.SourceFile`, program AST and compile front, and
every price shares its SAAG; the consumers only read them.

``measure()`` adds a fifth: the **dataplane** stage holds each program's
data-plane tape (:mod:`repro.simulator.dataplane`) — every answer the
simulator's timing plane took from the program's values.  It depends on
the source text and the parameter env but not on the machine, the seed or
(unless the program names ``number_of_processors``) the process count, so
a sweep over p, machines and seeds runs each program's values once and
replays them for every other point.

All five caches are bounded thread-safe LRUs and are instrumented with
``repro.obs`` hit/miss counters (``repro_stage_cache_hits_total`` /
``repro_stage_cache_misses_total``, labelled ``stage="parse"`` /
``stage="compile"`` / ``stage="plan"`` / ``stage="price"`` /
``stage="dataplane"``), which is how the serve-layer tests assert the
acceptance property: a second request for the same program on a different
machine hits the compile cache but misses the price cache.

Example:
    >>> import repro
    >>> from repro import stages
    >>> stages.clear_stage_caches()
    >>> src = '''
    ...       program tiny
    ...       integer, parameter :: n = 16
    ...       real, dimension(n) :: x
    ... !HPF$ PROCESSORS p(2)
    ... !HPF$ DISTRIBUTE x(BLOCK) ONTO p
    ...       forall (i = 1:n) x(i) = 1.0 * i
    ...       end program tiny
    ... '''
    >>> a = repro.predict(src, nprocs=2)                  # parse + compile + plan + price
    >>> b = repro.predict(src, nprocs=2, machine="paragon")   # price only
    >>> a.compiled is b.compiled                          # shared app model
    True
    >>> a.saag is b.saag                                  # shared SAAG
    True
    >>> c = repro.predict(src, nprocs=4)                  # compile + plan + price
    >>> c.compiled.program is a.compiled.program          # shared AST
    True
    >>> c.compiled.normalized is a.compiled.normalized    # shared compile front
    True
    >>> m = repro.measure(src, nprocs=2)                  # records the data plane
    >>> n = repro.measure(src, nprocs=4)                  # replays it
    >>> m.array_checksum == n.array_checksum
    True
    >>> stages.stage_cache_sizes()
    {'parse': 1, 'compile': 2, 'plan': 2, 'price': 3, 'dataplane': 1}
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Mapping, Optional

from . import obs
from .compiler import pipeline
from .compiler.pipeline import CompileFront, CompileOptions
from .frontend import SourceFile
from .frontend.ast_nodes import Program
from .appmodel import SAAG
from .interpreter import InterpreterOptions, build_saag, interpret
from .system.machine import Machine

#: Bounded sizes of the stage caches.  Parsed programs are few (one per
#: distinct source) and shared by every compile of that source; compiled
#: programs are the heavy objects (SPMD trees), and each has about one
#: SAAG (its AAUs with their planned parameters); priced estimates are small
#: result records; a data-plane tape is one per (source, parameters) and
#: at most ``repro.simulator.dataplane.TAPE_BYTE_CAP`` bytes.
PARSE_CACHE_SIZE = 64
COMPILE_CACHE_SIZE = 128
PLAN_CACHE_SIZE = COMPILE_CACHE_SIZE
PRICE_CACHE_SIZE = 1024
DATAPLANE_CACHE_SIZE = 64

#: the one parameter-env entry that follows the process count
_NPROCS = "number_of_processors"


class LRUCache:
    """A small thread-safe bounded mapping with least-recently-used eviction.

    The cache primitive shared by the stage caches here and the serve
    layer's response tier: ``get`` refreshes recency, ``put`` evicts the
    stalest entry once ``maxsize`` is exceeded.
    """

    def __init__(self, maxsize: int):
        if not isinstance(maxsize, int) or isinstance(maxsize, bool) \
                or maxsize < 1:
            raise ValueError(f"LRUCache maxsize must be a positive int, "
                             f"got {maxsize!r}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return default
            return self._data[key]

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def pop(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> list:
        """Keys from least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data


# ---------------------------------------------------------------------------
# stage keys
# ---------------------------------------------------------------------------


def _canonical_hash(payload: Mapping) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def _source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compile_stage_key(source: str, *, nprocs: int,
                      grid_shape: tuple[int, ...] | None = None,
                      params: Mapping[str, float] | None = None) -> str:
    """Content key of the compile stage: everything Phase 1 depends on.

    The machine is deliberately absent — that is the whole point of the
    split.  Two predictions of one program on two machines share this key.
    """
    return _canonical_hash({
        "stage": "compile",
        "source_sha": _source_sha(source),
        "nprocs": int(nprocs),
        "grid_shape": list(grid_shape) if grid_shape else None,
        "params": sorted((str(k), float(v))
                         for k, v in (params or {}).items()),
    })


def machine_stage_token(machine: Machine) -> str:
    """The part of the price key a :class:`Machine` contributes.

    Registry machines are fully determined by (name, partition size,
    topology kind/shape); the token spells all four out so a reshaped
    torus and its near-square default never share a price entry.
    """
    return "|".join((
        machine.name,
        str(machine.num_nodes),
        machine.topology_kind,
        "x".join(str(d) for d in machine.topology_shape)
        if machine.topology_shape else "-",
        str(machine.noise_seed),
    ))


def _canonical_value(value: Any) -> Any:
    """JSON-able canonical form of one options field value, or raise.

    Recurses through nested dataclasses (field by field, not ``asdict`` —
    which would also flatten dataclass *instances inside containers* before
    we can vet them), mappings (string keys, sorted), sets (sorted by their
    canonical JSON form, so iteration order never leaks into the token) and
    sequences.  Anything else — callables, file handles, arbitrary objects
    whose ``str`` could embed a memory address — raises ``TypeError``: an
    unstable token is worse than no token, so such options bypass the
    price cache instead.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        from dataclasses import fields
        return {f.name: _canonical_value(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        canon = [_canonical_value(v) for v in value]
        return sorted(canon, key=lambda v: json.dumps(
            v, sort_keys=True, separators=(",", ":")))
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    raise TypeError(f"{type(value).__name__} has no canonical options form")


def options_stage_token(options: Optional[InterpreterOptions]) -> str | None:
    """A canonical token for interpreter options; ``None`` when the options
    cannot be canonicalised (caller should skip the price cache then).

    Dataclass options — including non-default :class:`InterpreterOptions`
    with nested dataclasses, override mappings and set-valued fields — get
    a stable canonical JSON token (equal-by-value options always share it,
    whatever their construction or iteration order).  Non-dataclass options
    and dataclasses carrying uncanonicalisable values (callables, arbitrary
    objects) return ``None``: the conservative bypass, correctness over
    cache hits.
    """
    if options is None:
        return "default"
    if not is_dataclass(options) or isinstance(options, type):
        return None
    try:
        return json.dumps(_canonical_value(options), sort_keys=True,
                          separators=(",", ":"))
    except (TypeError, ValueError):
        return None


def price_stage_key(compile_key: str, machine: Machine,
                    options: Optional[InterpreterOptions] = None) -> str | None:
    """Content key of the price stage: compile key × machine × options."""
    options_token = options_stage_token(options)
    if options_token is None:
        return None
    return _price_key(compile_key, machine, options_token)


def _price_key(compile_key: str, machine: Machine, options_token: str) -> str:
    return _canonical_hash({
        "stage": "price",
        "compile_key": compile_key,
        "machine": machine_stage_token(machine),
        "options": options_token,
    })


def dataplane_stage_key(compiled, env: Mapping[str, float],
                        max_while_iterations: int) -> str | None:
    """Content key of the dataplane stage: what a program's values depend on.

    The source text fixes the normalised program, *env* (the compile env
    plus ``simulate(params=)``) its inputs, and the WHILE limit where a
    run stops.  The machine and the seed never enter.  ``number_of_processors``
    does only when the source text names it (in a statement, a declaration,
    a PARAMETER or a comment — erring toward one tape per p is safe): every
    other env entry is the same at every process count.  ``None`` (do not
    cache) for a program compiled without its source text.
    """
    text = compiled.source.text
    if not text:
        return None
    reads_nprocs = _NPROCS in text.lower()
    return _canonical_hash({
        "stage": "dataplane",
        "source_sha": _source_sha(text),
        "env": sorted((str(k), float(v)) for k, v in env.items()
                      if reads_nprocs or k != _NPROCS),
        "max_while_iterations": int(max_while_iterations),
    })


# ---------------------------------------------------------------------------
# the caches
# ---------------------------------------------------------------------------

_parse_cache = LRUCache(PARSE_CACHE_SIZE)
_compile_cache = LRUCache(COMPILE_CACHE_SIZE)
_plan_cache = LRUCache(PLAN_CACHE_SIZE)
_price_cache = LRUCache(PRICE_CACHE_SIZE)
_dataplane_cache = LRUCache(DATAPLANE_CACHE_SIZE)


def clear_stage_caches() -> None:
    """Drop all five stage caches (tests and long-lived servers under
    memory pressure; the obs counters are left alone)."""
    _parse_cache.clear()
    _compile_cache.clear()
    _plan_cache.clear()
    _price_cache.clear()
    _dataplane_cache.clear()


def stage_cache_sizes() -> dict[str, int]:
    return {"parse": len(_parse_cache), "compile": len(_compile_cache),
            "plan": len(_plan_cache), "price": len(_price_cache),
            "dataplane": len(_dataplane_cache)}


def _note(stage: str, hit: bool) -> None:
    name = "repro_stage_cache_hits_total" if hit \
        else "repro_stage_cache_misses_total"
    obs.counter(name, stage=stage).inc()


@dataclass(frozen=True, eq=False)
class _ParseEntry:
    """One parse-stage entry: the parsed source and the compile front every
    compile of it shares."""

    parsed: tuple[SourceFile, Program]     # what parse_cached returns
    front: CompileFront


def _parse_entry(source: str, name: str) -> _ParseEntry:
    key = (_source_sha(source), name)
    cached = _parse_cache.get(key)
    if cached is not None:
        _note("parse", hit=True)
        return cached
    _note("parse", hit=False)
    with obs.span("parse"):
        source_file = SourceFile(text=source, name=name)
        # called through the pipeline module (as is compile_program below),
        # so wrappers installed there, e.g. by a tracer, see every call
        program = pipeline.parse_source(source_file, name=name)
        entry = _ParseEntry(parsed=(source_file, program),
                            front=pipeline.compile_front(program))
    _parse_cache.put(key, entry)
    return entry


def parse_cached(source: str, *, name: str = "<string>"):
    """The parse stage, memoised per (source sha256, name).

    Returns ``(SourceFile, Program)``: the pre-processed source and its
    AST.  Both are shared by every compile of this source, so callers must
    treat them as read-only.  The name is part of the key because the
    :class:`~repro.frontend.SourceFile` records it.

    The entry also holds the source's compile front
    (:func:`~repro.compiler.pipeline.compile_front`: symbol table,
    normalised program, statement labels), built once with the parse and
    shared, read-only, by every compile of the source.
    """
    return _parse_entry(source, name).parsed


def compile_cached(source: str, *, name: str = "<string>", nprocs: int,
                   grid_shape: tuple[int, ...] | None = None,
                   params: Mapping[str, float] | None = None,
                   key: str | None = None):
    """The compile stage, memoised behind :func:`compile_stage_key`.

    Returns the cached :class:`~repro.compiler.CompiledProgram` on a hit —
    byte-identical by construction, since the key covers every compile
    input — and compiles, caches and returns on a miss.  A miss takes the
    source's AST and compile front from the parse stage
    (:func:`parse_cached`) instead of building them again.  Pass *key* when
    the caller already holds the compile key.
    """
    if key is None:
        key = compile_stage_key(source, nprocs=nprocs, grid_shape=grid_shape,
                                params=params)
    cached = _compile_cache.get(key)
    if cached is not None:
        _note("compile", hit=True)
        return cached
    _note("compile", hit=False)
    with obs.span("compile", nprocs=nprocs):
        entry = _parse_entry(source, name)
        source_file, program = entry.parsed
        compiled = pipeline.compile_program(
            program, source_file,
            CompileOptions(nprocs=nprocs, grid_shape=grid_shape,
                           params=dict(params or {})),
            front=entry.front)
    _compile_cache.put(key, compiled)
    return compiled


def _saag_of(compiled, compile_key: str, options: Optional[InterpreterOptions],
             options_token: str | None) -> SAAG:
    """The plan stage beneath price: one machine-free SAAG
    (:func:`~repro.interpreter.build_saag`) per (compile key, options token).

    Options without a token get a SAAG of their own, as they get no price
    entry.  A cached SAAG of an evicted and recompiled program is rebuilt.
    """
    key = (compile_key, options_token) if options_token is not None else None
    if key is not None:
        cached = _plan_cache.get(key)
        if cached is not None and cached.compiled is compiled:
            _note("plan", hit=True)
            return cached
        _note("plan", hit=False)
    with obs.span("plan"):
        saag = build_saag(compiled, options)
    if key is not None:
        _plan_cache.put(key, saag)
    return saag


def price_cached(compiled, machine: Machine, *, compile_key: str,
                 options: Optional[InterpreterOptions] = None,
                 cacheable: bool = True,
                 pricer: Callable | None = None):
    """The price stage, memoised per (compile key, machine, options).

    A miss prices the plan stage's machine-free SAAG of (compile key,
    options) through :func:`repro.interpreter.interpret`, so a program
    priced on several machines is abstracted once.  ``cacheable=False``
    (e.g. a caller-built :class:`Machine` instance that may not match its
    registry namesake) bypasses the price cache but keeps the one code
    path; the SAAG, which no machine enters, is still shared.  ``pricer``
    overrides the ``interpret`` call with a
    ``pricer(compiled, machine, options=)`` (tests).
    """
    options_token = options_stage_token(options)
    key = _price_key(compile_key, machine, options_token) \
        if cacheable and options_token is not None else None
    if key is not None:
        cached = _price_cache.get(key)
        if cached is not None:
            _note("price", hit=True)
            return cached
        _note("price", hit=False)
    with obs.span("price", machine=machine.name):
        if pricer is not None:
            result = pricer(compiled, machine, options=options)
        else:
            saag = _saag_of(compiled, compile_key, options, options_token)
            result = interpret(compiled, machine, options=options, saag=saag)
    if key is not None:
        _price_cache.put(key, result)
    return result


def dataplane_tape(key: str):
    """The recorded data-plane tape under *key*, or None (a miss)."""
    tape = _dataplane_cache.get(key)
    _note("dataplane", hit=tape is not None)
    return tape


def store_dataplane_tape(key: str, tape) -> None:
    """Keep a finished live run's tape for later simulations to replay."""
    _dataplane_cache.put(key, tape)


__all__ = [
    "PARSE_CACHE_SIZE",
    "COMPILE_CACHE_SIZE",
    "PLAN_CACHE_SIZE",
    "PRICE_CACHE_SIZE",
    "DATAPLANE_CACHE_SIZE",
    "LRUCache",
    "compile_stage_key",
    "price_stage_key",
    "dataplane_stage_key",
    "machine_stage_token",
    "options_stage_token",
    "parse_cached",
    "compile_cached",
    "price_cached",
    "dataplane_tape",
    "store_dataplane_tape",
    "clear_stage_caches",
    "stage_cache_sizes",
]
