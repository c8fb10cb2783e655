"""The parse stage beneath compile: one parse per source, a read-only AST.

``repro.stages`` parses each distinct (source, name) once and hands the
same :class:`SourceFile` and program AST to every compile of that source.
These tests pin what makes that sharing sound and visible:

* compiling, pricing and simulating never mutate the shared AST,
* a sweep over sizes, process counts and machines parses its one source
  once,
* ``measure()`` goes through the same compile stage as ``predict()``,
* the parse stage has its own hit/miss counters and cache size.
"""

import pickle

import pytest

import repro
from repro import obs, stages
from repro.explore import ResultStore, ScenarioSpace, run_campaign
from repro.frontend import SourceFile, parse_source
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
    assert stages.stage_cache_sizes() == {"parse": 2, "compile": 0,
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
