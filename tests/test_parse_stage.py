"""The parse stage beneath compile and the plan stage beneath price.

``repro.stages`` parses each distinct (source, name) once and hands the
same :class:`SourceFile`, program AST and compile front (symbol table,
normalised program, statement labels, assignment operation counts) to
every compile of that source; each (compile, options) pair gets one price
plan that every machine prices.  These tests pin what makes that sharing
sound and visible:

* compiling, planning, pricing and simulating never mutate the shared AST
  or front,
* compiles that share a front equal fresh compiles,
* a sweep over sizes, process counts and machines parses its one source
  once and plans each compile once,
* ``measure()`` goes through the same compile stage as ``predict()``,
* the parse and plan stages have their own hit/miss counters and cache
  sizes.
"""

import pickle

import pytest

import repro
from repro import obs, stages
from repro.compiler import CommPhase, OwnerStmt, compile_source
from repro.explore import ResultStore, ScenarioSpace, run_campaign
from repro.frontend import SourceFile, parse_source
from repro.interpreter import InterpreterOptions
from repro.suite import all_entries, get_entry
from repro.system import get_machine

SOURCE = """
      program tiny
      integer, parameter :: n = 16
      real, dimension(n) :: x
      real :: total
!HPF$ PROCESSORS p(2)
!HPF$ DISTRIBUTE x(BLOCK) ONTO p
      forall (i = 1:n) x(i) = 1.0 * i
      total = sum(x)
      end program tiny
"""


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()
    yield
    obs.disable()
    obs.reset()
    stages.clear_stage_caches()


def stage_counts(stage: str) -> tuple[int, int]:
    """(hits, misses) of one stage cache since the last ``obs.reset()``."""
    flat = obs.get_registry().flatten()
    return (flat.get(f'repro_stage_cache_hits_total{{stage="{stage}"}}', 0),
            flat.get(f'repro_stage_cache_misses_total{{stage="{stage}"}}', 0))


@pytest.mark.parametrize("key", sorted(all_entries()))
def test_compile_price_simulate_never_mutate_the_shared_ast(key):
    entry = get_entry(key)
    size = min(entry.sizes)
    source_file, program = stages.parse_cached(entry.source, name=entry.key)
    before = pickle.dumps((source_file, program))
    for nprocs in (1, 4):
        compiled = stages.compile_cached(entry.source, name=entry.key,
                                         nprocs=nprocs,
                                         params=entry.params_for(size))
        assert compiled.source is source_file
        assert compiled.program is program
        for machine in ("ipsc860", "paragon"):
            repro.interpret(compiled, get_machine(machine, nprocs),
                            options=entry.interpreter_options(size))
    repro.simulate(compiled, get_machine("ipsc860", 4))
    assert pickle.dumps((source_file, program)) == before


@pytest.mark.parametrize("key", sorted(all_entries()))
def test_compile_plan_price_simulate_never_mutate_the_shared_front(key):
    entry = get_entry(key)
    size = min(entry.sizes)
    parsed = stages._parse_entry(entry.source, entry.key)
    before = pickle.dumps(parsed.front)
    for nprocs in (1, 4):
        params = entry.params_for(size)
        compile_key = stages.compile_stage_key(entry.source, nprocs=nprocs,
                                               params=params)
        compiled = stages.compile_cached(entry.source, name=entry.key,
                                         nprocs=nprocs, params=params,
                                         key=compile_key)
        assert compiled.symtable is parsed.front.symtable
        assert compiled.normalized is parsed.front.normalized.program
        for machine in ("ipsc860", "paragon"):
            stages.price_cached(compiled, get_machine(machine, nprocs),
                                compile_key=compile_key,
                                options=entry.interpreter_options(size))
    repro.simulate(compiled, get_machine("ipsc860", 4))
    assert pickle.dumps(parsed.front) == before


def _comm_specs(compiled) -> list:
    return [spec for node in compiled.spmd.walk()
            if isinstance(node, (CommPhase, OwnerStmt)) for spec in node.comms]


@pytest.mark.parametrize("key", ["laplace_block_block", "nbody"])
def test_compiles_sharing_a_front_equal_fresh_compiles(key):
    entry = get_entry(key)
    obs.enable()
    compiled = [stages.compile_cached(entry.source, name=entry.key,
                                      nprocs=nprocs, params=entry.params_for(size))
                for size in entry.sizes[:2] for nprocs in (1, 2, 4)]
    assert stage_counts("parse") == (5, 1)
    assert len({id(c.symtable) for c in compiled}) == 1
    assert len({id(c.normalized) for c in compiled}) == 1
    for shared, (size, nprocs) in zip(
            compiled, [(s, p) for s in entry.sizes[:2] for p in (1, 2, 4)]):
        fresh = compile_source(entry.source, name=entry.key, nprocs=nprocs,
                               params=entry.params_for(size))
        assert [n.label for n in shared.spmd.walk()] \
            == [n.label for n in fresh.spmd.walk()]
        assert _comm_specs(shared) == _comm_specs(fresh)
        assert shared.describe() == fresh.describe()


def test_one_plan_per_compile_prices_every_machine():
    obs.enable()
    on_cube = repro.predict(SOURCE, nprocs=2)
    on_mesh = repro.predict(SOURCE, nprocs=2, machine="paragon")
    assert on_mesh.saag is on_cube.saag
    assert stage_counts("plan") == (1, 1)
    # other options are another plan; so is another compile
    repro.predict(SOURCE, nprocs=2, options=InterpreterOptions(mask_true_fraction=0.5))
    repro.predict(SOURCE, nprocs=4)
    assert stage_counts("plan") == (1, 3)
    # a caller-built machine skips the price cache, not the plan
    repro.predict(SOURCE, nprocs=2, machine=get_machine("cm5", 2))
    assert stage_counts("plan") == (2, 3)
    assert stages.stage_cache_sizes()["plan"] == 3
    assert stages._plan_cache.maxsize == stages.PLAN_CACHE_SIZE \
        == stages.COMPILE_CACHE_SIZE
    stages.clear_stage_caches()
    assert stages.stage_cache_sizes()["plan"] == 0


def test_a_recompiled_program_gets_a_new_plan():
    compile_key = stages.compile_stage_key(SOURCE, nprocs=2)
    first = stages.price_cached(stages.compile_cached(SOURCE, nprocs=2),
                                get_machine("ipsc860", 2), compile_key=compile_key)
    stages._compile_cache.clear()
    stages._price_cache.clear()
    recompiled = stages.compile_cached(SOURCE, nprocs=2)
    again = stages.price_cached(recompiled, get_machine("ipsc860", 2),
                                compile_key=compile_key)
    assert again.compiled is recompiled and again.saag is not first.saag
    assert again.predicted_time_us == first.predicted_time_us


def test_one_app_sweep_parses_its_source_once(tmp_path):
    entry = get_entry("laplace_block_star")
    space = ScenarioSpace(apps=(entry.key,), sizes=entry.sizes,
                          proc_counts=(1, 2, 4, 8),
                          machines=("ipsc860", "paragon"))
    obs.enable()
    run = run_campaign(space, store=ResultStore(tmp_path / "sweep.jsonl"))
    assert run.evaluated == len(space.expand())
    compile_hits, compile_misses = stage_counts("compile")
    assert compile_misses == len(entry.sizes) * 4
    assert compile_hits == compile_misses       # the second machine
    assert stage_counts("parse") == (compile_misses - 1, 1)
    assert stages.stage_cache_sizes()["parse"] == 1
    assert stage_counts("plan") == (compile_hits, compile_misses)


def test_measure_after_predict_compiles_once():
    obs.enable()
    repro.predict(SOURCE, nprocs=2)
    measured = repro.measure(SOURCE, nprocs=2)
    assert stage_counts("compile") == (1, 1)
    assert stage_counts("parse") == (0, 1)
    # the shared compiled program measures exactly as a fresh one does
    stages.clear_stage_caches()
    cold = repro.measure(SOURCE, nprocs=2)
    assert measured.per_rank_us == cold.per_rank_us
    assert measured.printed == cold.printed


def test_parse_stage_counters_sizes_and_clear():
    obs.enable()
    first = stages.parse_cached(SOURCE, name="tiny")
    assert stages.parse_cached(SOURCE, name="tiny") is first
    # the name is recorded on the SourceFile, so it is part of the key
    renamed = stages.parse_cached(SOURCE, name="other")
    assert renamed is not first and renamed[0].name == "other"
    assert stage_counts("parse") == (1, 2)
    assert stages.stage_cache_sizes() == {"parse": 2, "compile": 0, "plan": 0,
                                          "price": 0, "dataplane": 0}
    stages.clear_stage_caches()
    assert stages.stage_cache_sizes()["parse"] == 0
    assert stages._parse_cache.maxsize == stages.PARSE_CACHE_SIZE


def test_compile_and_price_keys_are_unchanged_by_the_parse_stage():
    # keys recorded before the parse stage existed: cached entries and
    # anything keyed on them stay valid
    compile_key = stages.compile_stage_key(SOURCE, nprocs=2)
    assert compile_key == "e13f668b9aa00e9655d5"
    assert stages.compile_stage_key(SOURCE, nprocs=4, grid_shape=(2, 2),
                                    params={"n": 32}) == "c070a6ebc7da1edc83d0"
    assert stages.price_stage_key(compile_key, get_machine("ipsc860", 2)) \
        == "648a5653cc95e2de9dbf"


def test_parse_source_accepts_a_source_file():
    source_file = SourceFile(text=SOURCE, name="tiny")
    from_file = parse_source(source_file)
    from_text = parse_source(SOURCE, name="tiny")
    assert pickle.dumps(from_file) == pickle.dumps(from_text)
