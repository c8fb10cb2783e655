"""Tests for the data-distribution machinery (layout algebra + descriptors)."""

import numpy as np
import pytest

from repro.distribution import (
    Alignment,
    ArrayDistribution,
    AxisMapping,
    DimDistribution,
    ProcessorGrid,
    Template,
    layout,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import DirectiveError


class TestLayoutBlock:
    def test_block_size(self):
        assert layout.block_size(100, 4) == 25
        assert layout.block_size(101, 4) == 26
        assert layout.block_size(3, 8) == 1

    def test_block_owner_covers_all_indices(self):
        n, p = 37, 4
        owners = [layout.block_owner(i, n, p) for i in range(n)]
        assert min(owners) == 0 and max(owners) <= p - 1
        assert owners == sorted(owners)  # block ownership is monotone

    def test_block_bounds_partition(self):
        n, p = 37, 4
        covered = []
        for proc in range(p):
            lo, hi = layout.block_bounds(proc, n, p)
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_block_round_trip(self):
        n, p = 50, 8
        for i in range(n):
            owner = layout.block_owner(i, n, p)
            local = layout.block_global_to_local(i, n, p)
            assert layout.block_local_to_global(owner, local, n, p) == i

    def test_block_local_indices_match_bounds(self):
        idx = layout.block_local_indices(2, 20, 4)
        assert list(idx) == [10, 11, 12, 13, 14]

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            layout.block_size(10, 0)


class TestLayoutCyclic:
    def test_cyclic_owner(self):
        assert [layout.cyclic_owner(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_cyclic_block_owner(self):
        owners = [layout.cyclic_owner(i, 2, block=2) for i in range(8)]
        assert owners == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_cyclic_local_count_sums_to_n(self):
        n, p = 23, 4
        assert sum(layout.cyclic_local_count(q, n, p) for q in range(p)) == n

    def test_cyclic_round_trip(self):
        n, p, b = 30, 4, 3
        for i in range(n):
            owner = layout.cyclic_owner(i, p, b)
            local = layout.cyclic_global_to_local(i, p, b)
            assert layout.cyclic_local_to_global(owner, local, p, b) == i

    def test_cyclic_local_indices(self):
        idx = layout.cyclic_local_indices(1, 10, 3)
        assert list(idx) == [1, 4, 7]

    def test_max_and_avg_local_count(self):
        assert layout.max_local_count(10, 4, "block") == 3
        assert layout.max_local_count(10, 4, "cyclic") == 3
        assert layout.max_local_count(10, 4, "*") == 10
        assert layout.avg_local_count(10, 4, "block") == 2.5
        assert layout.avg_local_count(10, 4, "*") == 10.0

    def test_grid_factorizations(self):
        shapes = layout.processor_factorizations(8, 2)
        assert (2, 4) in shapes and (8, 1) in shapes
        assert layout.default_grid_shape(8, 2) in ((2, 4), (4, 2))
        assert layout.default_grid_shape(16, 2) == (4, 4)
        assert layout.default_grid_shape(5, 1) == (5,)


class TestProcessorGrid:
    def test_size_and_rank(self):
        grid = ProcessorGrid("p", (2, 4))
        assert grid.size == 8 and grid.rank == 2

    def test_coords_round_trip(self):
        grid = ProcessorGrid("p", (2, 3, 2))
        for rank in grid.all_ranks():
            assert grid.linear_rank(grid.coords(rank)) == rank

    def test_neighbors(self):
        grid = ProcessorGrid("p", (2, 2))
        lower, upper = grid.neighbors(0, axis=0)
        assert lower is None and upper == grid.linear_rank((1, 0))

    def test_circular_neighbor_wraps(self):
        grid = ProcessorGrid("p", (4,))
        assert grid.circular_neighbor(3, 0, 1) == 0
        assert grid.circular_neighbor(0, 0, -1) == 3

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ProcessorGrid("p", (0, 2))
        with pytest.raises(ValueError):
            ProcessorGrid("p", ())

    def test_out_of_range_rank(self):
        grid = ProcessorGrid("p", (2, 2))
        with pytest.raises(ValueError):
            grid.coords(4)


class TestDimDistributionAndAxisMapping:
    def test_from_format(self):
        assert DimDistribution.from_format("block").kind == "block"
        assert DimDistribution.from_format("*").kind == "collapsed"
        assert DimDistribution.from_format("cyclic", 4).block == 4

    def test_invalid_format(self):
        with pytest.raises(ValueError):
            DimDistribution.from_format("weird")
        with pytest.raises(ValueError):
            DimDistribution(kind="block", block=0)

    def test_block_axis_mapping_ownership(self):
        axis = AxisMapping(extent=16, dist=DimDistribution("block"), nprocs=4, grid_axis=0)
        owners = [axis.owner(i) for i in range(16)]
        assert owners == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_axis_mapping_with_alignment_offset(self):
        axis = AxisMapping(extent=12, dist=DimDistribution("block"), nprocs=4,
                           grid_axis=0, template_extent=16, offset=4)
        # array index 0 sits at template index 4 -> owner 1 for block size 4
        assert axis.owner(0) == 1

    def test_local_indices_partition(self):
        axis = AxisMapping(extent=10, dist=DimDistribution("cyclic"), nprocs=3, grid_axis=0)
        all_indices = np.concatenate([axis.local_indices(p) for p in range(3)])
        assert sorted(all_indices.tolist()) == list(range(10))

    def test_collapsed_axis(self):
        axis = AxisMapping(extent=10)
        assert not axis.is_distributed
        assert axis.local_count(0) == 10
        assert axis.owner(7) == 0


class TestArrayDistribution:
    @pytest.fixture
    def block_block(self):
        grid = ProcessorGrid("p", (2, 2))
        axes = [
            AxisMapping(extent=8, dist=DimDistribution("block"), nprocs=2, grid_axis=0),
            AxisMapping(extent=8, dist=DimDistribution("block"), nprocs=2, grid_axis=1),
        ]
        return ArrayDistribution(name="a", shape=(8, 8), axes=axes, grid=grid)

    def test_owner_rank_partitions_elements(self, block_block):
        counts = {r: 0 for r in range(4)}
        for i in range(8):
            for j in range(8):
                counts[block_block.owner_rank((i, j))] += 1
        assert all(count == 16 for count in counts.values())

    def test_local_shape_and_size(self, block_block):
        assert block_block.local_shape(0) == (4, 4)
        assert block_block.local_size(3) == 16
        assert block_block.max_local_size() == 16
        assert block_block.avg_local_size() == pytest.approx(16.0)

    def test_local_indices(self, block_block):
        assert list(block_block.local_indices(0, 0)) == [0, 1, 2, 3]
        assert list(block_block.local_indices(3, 1)) == [4, 5, 6, 7]

    def test_replication(self):
        dist = ArrayDistribution.replicated("r", (5, 5))
        assert dist.is_replicated
        assert dist.owner_rank((3, 3)) == 0
        assert dist.local_shape(0) == (5, 5)
        assert dist.nprocs == 1

    def test_describe_mentions_distribution(self, block_block):
        text = block_block.describe()
        assert "BLOCK" in text and "p(2, 2)" in text

    def test_mismatched_axes_rejected(self):
        with pytest.raises(ValueError):
            ArrayDistribution(name="a", shape=(4, 4), axes=[AxisMapping(extent=4)])


class TestTemplateAndAlignment:
    def test_template_distribution_assignment(self):
        template = Template(name="t", shape=(16, 16))
        grid = ProcessorGrid("p", (2, 2))
        template.assign_distribution(
            [DimDistribution("block"), DimDistribution("block")], grid)
        assert template.is_distributed
        assert template.grid_axis == [0, 1]
        assert template.procs_along(0) == 2

    def test_template_collapsed_axis_has_no_grid_axis(self):
        template = Template(name="t", shape=(16, 16))
        grid = ProcessorGrid("p", (4,))
        template.assign_distribution(
            [DimDistribution("block"), DimDistribution("collapsed")], grid)
        assert template.grid_axis == [0, None]
        assert template.procs_along(1) == 1

    def test_template_rank_mismatch_rejected(self):
        template = Template(name="t", shape=(16,))
        with pytest.raises(ValueError):
            template.assign_distribution(
                [DimDistribution("block"), DimDistribution("block")],
                ProcessorGrid("p", (2, 2)))

    def test_identity_alignment(self):
        alignment = Alignment.identity("a", "t", 2)
        assert alignment.template_axis_for(0) == 0
        assert alignment.template_axis_for(1) == 1
        assert alignment.offset_for(0) == 0

    def test_alignment_from_directive_with_offset(self):
        directive = ast.AlignDirective(
            alignee="x", source_dummies=["i"], target="t",
            target_subscripts=[ast.BinOp(op="+", left=ast.Var(name="i"),
                                         right=ast.Num(value=2, is_int=True))],
        )
        alignment = Alignment.from_directive(directive)
        assert alignment.template_axis_for(0) == 0
        assert alignment.offset_for(0) == 2

    def test_alignment_permutation(self):
        directive = ast.AlignDirective(
            alignee="a", source_dummies=["i", "j"], target="t",
            target_subscripts=[ast.Var(name="j"), ast.Var(name="i")],
        )
        alignment = Alignment.from_directive(directive)
        assert alignment.template_axis_for(0) == 1
        assert alignment.template_axis_for(1) == 0

    def test_alignment_star_dummy_is_free(self):
        directive = ast.AlignDirective(
            alignee="a", source_dummies=["i", "*"], target="t",
            target_subscripts=[ast.Var(name="i")],
        )
        alignment = Alignment.from_directive(directive)
        assert alignment.template_axis_for(0) == 0
        assert alignment.template_axis_for(1) is None

    def test_alignment_unknown_dummy_rejected(self):
        directive = ast.AlignDirective(
            alignee="a", source_dummies=["i"], target="t",
            target_subscripts=[ast.Var(name="q")],
        )
        with pytest.raises(DirectiveError):
            Alignment.from_directive(directive)

    def test_alignment_nonlinear_subscript_rejected(self):
        directive = ast.AlignDirective(
            alignee="a", source_dummies=["i"], target="t",
            target_subscripts=[ast.BinOp(op="*", left=ast.Var(name="i"),
                                         right=ast.Num(value=2, is_int=True))],
        )
        with pytest.raises(DirectiveError):
            Alignment.from_directive(directive)
