"""The simulator's data plane: the program's values, run live or replayed.

The timing plane of both engines asks the program's values a fixed set of
questions, in program order: a DO loop's bounds, a WHILE test or an IF's
taken branch, the subscripts of a scalar element assignment (its owner
computes it), a CSHIFT's offset, a reduction's extent, and each forall's
triplet ranges, mask and iteration count.  None of the answers depends on
the machine or the partition size (``number_of_processors`` aside, which
the ``dataplane`` stage key covers), so they are computed once:

* :class:`LivePlane` runs the normalised program through the functional
  evaluator and records every answer, tagged with its kind and the
  pre-order position of its origin statement in the normalised AST, on a
  :class:`DataPlaneTape` together with the printed lines and the final
  array checksum;
* :class:`ReplayPlane` hands a recorded tape back to a later simulation of
  the same program and parameters.  It checks every tag and raises
  :class:`~repro.frontend.errors.SimulationError` when the run asks a
  question the tape does not hold next, or ends with answers left over —
  a replay never diverges silently.

Both open one ``dataplane`` obs span per question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .. import obs
from ..compiler.pipeline import CompiledProgram
from ..frontend import ast_nodes as ast
from ..frontend.errors import SimulationError
from ..functional.evaluator import ForallExecution, FunctionalEvaluator, execute_forall

#: A live run keeps its tape only while the tape holds fewer bytes than
#: this (forall triplet ranges and masks dominate); a larger program is
#: simulated live every time.
TAPE_BYTE_CAP = 1 << 20

#: bytes charged per answer on top of its arrays
_ANSWER_BYTES = 64


@dataclass(frozen=True)
class DataPlaneTape:
    """Every answer one live run gave the timing plane, in order.

    ``answers`` holds ``(kind, origin, value)`` triples; arrays inside a
    value are read-only, because every replay shares them.
    """

    answers: tuple[tuple[str, int, object], ...]
    printed: tuple[str, ...]
    checksum: float


def plane_env(compiled: CompiledProgram,
              params: Mapping[str, float] | None = None) -> dict[str, float]:
    """The parameter env a simulation runs the program with: the compile
    env, overridden by ``simulate(params=)``."""
    env = dict(compiled.mapping.env)
    if params:
        env.update({k.lower(): float(v) for k, v in params.items()})
    return env


def _is_element_assignment(stmt: ast.Assignment) -> bool:
    """True when *stmt* stores one array element (its subscripts are asked)."""
    target = stmt.target
    return isinstance(target, ast.ArrayRef) and not any(
        isinstance(index, ast.Section) for index in target.indices)


class DataPlane:
    """The questions the timing plane asks; see the module docstring.

    Each method returns the same answer live and replayed.  The ones that
    only change program values (``loop_var``, ``print``, ``stop``) do
    nothing on a replay.
    """

    def __init__(self, compiled: CompiledProgram):
        self._origins = {id(stmt): position for position, stmt
                         in enumerate(compiled.normalized.all_statements())}

    def _origin(self, stmt: ast.Stmt | None) -> int:
        return self._origins.get(id(stmt), -1)

    def loop_var(self, var: str, value: int) -> None:
        """Set a DO loop's variable."""

    def print(self, stmt: ast.PrintStmt) -> None:
        """Execute a PRINT statement."""

    def stop(self) -> None:
        """Note that the program executed STOP."""

    def do_bounds(self, node) -> tuple[int, int, int]:
        """(start, end, step) of a DO loop."""
        raise NotImplementedError

    def while_test(self, node) -> bool:
        """Whether a DO WHILE loop runs another trip."""
        raise NotImplementedError

    def if_branch(self, node) -> int:
        """Index of the IF branch taken; ``-1`` for the ELSE body."""
        raise NotImplementedError

    def assign(self, stmt: ast.Assignment) -> tuple[int, ...] | None:
        """Execute a scalar assignment; the target's subscripts when it
        stores one array element, else None."""
        raise NotImplementedError

    def forall(self, stmt: ast.ForallStmt) -> ForallExecution:
        """Execute a forall; its triplet ranges, mask and iteration count."""
        raise NotImplementedError

    def reduction(self, node) -> float | None:
        """Execute a reduction's assignment; the extent reduced, or None
        when its source names no array."""
        raise NotImplementedError

    def shift(self, node) -> int:
        """Execute a CSHIFT/EOSHIFT assignment; the shift offset."""
        raise NotImplementedError

    def finish(self) -> tuple[list[str], float]:
        """The printed lines and the final array checksum."""
        raise NotImplementedError


class LivePlane(DataPlane):
    """Runs the normalised program and records a tape of its answers."""

    def __init__(self, compiled: CompiledProgram, env: Mapping[str, float]):
        super().__init__(compiled)
        self.evaluator = FunctionalEvaluator(compiled.normalized,
                                             compiled.symtable, params=env)
        self.state = self.evaluator.state
        self._exprs = self.evaluator.exprs
        self._answers: list[tuple[str, int, object]] | None = []
        self._nbytes = 0
        #: the tape of this run, once :meth:`finish` has run
        self.recorded: DataPlaneTape | None = None

    def _record(self, kind: str, stmt, value, nbytes: int = 0):
        if self._answers is not None:
            self._nbytes += _ANSWER_BYTES + nbytes
            if self._nbytes < TAPE_BYTE_CAP:
                self._answers.append((kind, self._origin(stmt), value))
            else:
                self._answers = None
        return value

    def _scalar(self, expr: ast.Expr) -> int:
        return int(FunctionalEvaluator._scalarise(self._exprs.eval(expr)))

    def _test(self, cond: ast.Expr) -> bool:
        return bool(np.all(self._exprs.eval(cond)))

    def loop_var(self, var: str, value: int) -> None:
        self.state.set_scalar(var, value)

    def print(self, stmt: ast.PrintStmt) -> None:
        with obs.span("dataplane"):
            self.evaluator.exec_print(stmt)

    def stop(self) -> None:
        self.state.stopped = True

    def do_bounds(self, node) -> tuple[int, int, int]:
        with obs.span("dataplane"):
            bounds = (self._scalar(node.start), self._scalar(node.end),
                      self._scalar(node.step) if node.step is not None else 1)
            return self._record("do", node.origin, bounds)

    def while_test(self, node) -> bool:
        with obs.span("dataplane"):
            return self._record("while", node.origin, self._test(node.cond))

    def if_branch(self, node) -> int:
        with obs.span("dataplane"):
            taken = next((index for index, (cond, _body)
                          in enumerate(node.branches) if self._test(cond)), -1)
            return self._record("if", node.origin, taken)

    def assign(self, stmt: ast.Assignment) -> tuple[int, ...] | None:
        with obs.span("dataplane"):
            if not _is_element_assignment(stmt):
                self.evaluator.exec_assignment(stmt)
                return None
            subscripts = tuple(self._scalar(index)
                               for index in stmt.target.indices)
            self.evaluator.exec_assignment(stmt)
            return self._record("assign", stmt, subscripts)

    def forall(self, stmt: ast.ForallStmt) -> ForallExecution:
        with obs.span("dataplane"):
            executed = execute_forall(stmt, self.state, self._exprs)
            # the mask is a read-only broadcast of a fresh array; the index
            # grids stay behind
            record = ForallExecution(triplet_ranges=executed.triplet_ranges,
                                     mask=executed.mask,
                                     iterations=executed.iterations,
                                     assigned=executed.assigned)
            nbytes = 0
            for values in record.triplet_ranges.values():
                values.flags.writeable = False
                nbytes += values.nbytes
            if record.mask is not None:
                nbytes += record.mask.nbytes
            return self._record("forall", stmt, record, nbytes)

    def reduction(self, node) -> float | None:
        with obs.span("dataplane"):
            if isinstance(node.origin, ast.Assignment):
                self.evaluator.exec_assignment(node.origin)
            return self._record("reduce", node.origin,
                                self._reduction_extent(node.source))

    def _reduction_extent(self, source: ast.Expr) -> float | None:
        for ref in ast.expr_array_refs(source):
            if self.state.is_array(ref.name):
                return float(np.asarray(self._exprs.eval(ref)).size)
        for sub in ast.walk_expr(source):
            if isinstance(sub, ast.Var) and self.state.is_array(sub.name):
                return float(self.state.array(sub.name).data.size)
        return None

    def shift(self, node) -> int:
        with obs.span("dataplane"):
            if isinstance(node.origin, ast.Assignment):
                self.evaluator.exec_assignment(node.origin)
            return self._record("shift", node.origin,
                                self._scalar(node.offset_expr))

    def finish(self) -> tuple[list[str], float]:
        """Also sets :attr:`recorded`, unless the tape outgrew
        :data:`TAPE_BYTE_CAP`."""
        with obs.span("dataplane"):
            printed, checksum = list(self.state.printed), self.state.checksum()
        if self._answers is not None:
            self.recorded = DataPlaneTape(
                answers=tuple(self._answers), printed=tuple(printed),
                checksum=checksum)
        return printed, checksum


class ReplayPlane(DataPlane):
    """Hands back a recorded tape's answers, checking every tag."""

    def __init__(self, compiled: CompiledProgram, tape: DataPlaneTape):
        super().__init__(compiled)
        self.tape = tape
        self._next = 0

    def _take(self, kind: str, stmt):
        with obs.span("dataplane"):
            position = self._next
            origin = self._origin(stmt)
            answers = self.tape.answers
            if position >= len(answers):
                raise SimulationError(
                    f"data-plane tape ended after {position} answers, but the "
                    f"run asked for the {kind} of statement {origin}")
            tag_kind, tag_origin, value = answers[position]
            if tag_kind != kind or tag_origin != origin:
                raise SimulationError(
                    f"data-plane tape mismatch at answer {position}: the run "
                    f"asked for the {kind} of statement {origin}, the tape "
                    f"holds the {tag_kind} of statement {tag_origin}")
            self._next = position + 1
            return value

    def do_bounds(self, node) -> tuple[int, int, int]:
        return self._take("do", node.origin)

    def while_test(self, node) -> bool:
        return self._take("while", node.origin)

    def if_branch(self, node) -> int:
        return self._take("if", node.origin)

    def assign(self, stmt: ast.Assignment) -> tuple[int, ...] | None:
        return self._take("assign", stmt) if _is_element_assignment(stmt) \
            else None

    def forall(self, stmt: ast.ForallStmt) -> ForallExecution:
        return self._take("forall", stmt)

    def reduction(self, node) -> float | None:
        return self._take("reduce", node.origin)

    def shift(self, node) -> int:
        return self._take("shift", node.origin)

    def finish(self) -> tuple[list[str], float]:
        left = len(self.tape.answers) - self._next
        if left:
            raise SimulationError(
                f"data-plane tape has {left} unconsumed answers after the run")
        return list(self.tape.printed), self.tape.checksum
