"""Program state for the functional interpreter and the simulator executor.

Holds the NumPy arrays and scalar values of a running HPF/Fortran 90D
program.  Arrays are stored **globally** (full extent) regardless of their HPF
distribution: the distribution algebra determines *timing* (who computes what,
what moves where), while functional values are kept in one place so the
functional interpreter and the timed simulator produce bit-identical results —
the standard trace-driven-simulation arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..frontend.errors import EvaluationError
from ..frontend.symbols import SymbolTable

_DTYPES = {
    "integer": np.int64,
    "real": np.float64,       # evaluate in double precision for a stable oracle
    "double": np.float64,
    "logical": np.bool_,
}


@dataclass
class ArrayValue:
    """One array plus its declared lower bounds (Fortran indexing metadata)."""

    name: str
    data: np.ndarray
    lower_bounds: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)


@dataclass
class ProgramState:
    """All live values of one program execution."""

    arrays: dict[str, ArrayValue] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    printed: list[str] = field(default_factory=list)
    stopped: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_symtable(
        cls,
        symtable: SymbolTable,
        env: Mapping[str, float],
    ) -> "ProgramState":
        """Allocate every declared array (zero-initialised) and scalar."""
        state = cls()
        for sym in symtable:
            name = sym.name.lower()
            if sym.is_array and sym.array_spec is not None:
                shape = symtable.array_shape(name, env)
                lower = symtable.array_lower_bounds(name, env)
                dtype = _DTYPES.get(sym.type_name, np.float64)
                state.arrays[name] = ArrayValue(
                    name=name,
                    data=np.zeros(shape, dtype=dtype),
                    lower_bounds=lower,
                )
            else:
                if sym.is_parameter and name in env:
                    state.scalars[name] = float(env[name])
                else:
                    state.scalars[name] = 0.0
        # expose remaining environment constants (problem-size overrides, etc.)
        for key, value in env.items():
            state.scalars.setdefault(key.lower(), float(value))
        return state

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def is_array(self, name: str) -> bool:
        return name.lower() in self.arrays

    def array(self, name: str) -> ArrayValue:
        try:
            return self.arrays[name.lower()]
        except KeyError:
            raise EvaluationError(f"reference to unknown array '{name}'") from None

    def get_scalar(self, name: str) -> float:
        key = name.lower()
        if key in self.scalars:
            return self.scalars[key]
        raise EvaluationError(f"reference to unknown scalar '{name}'")

    def set_scalar(self, name: str, value) -> None:
        self.scalars[name.lower()] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of every array (for comparing evaluator vs simulator results)."""
        return {name: value.data.copy() for name, value in self.arrays.items()}

    def checksum(self) -> float:
        """A cheap fingerprint of all array contents (used in tests)."""
        total = 0.0
        for value in self.arrays.values():
            data = value.data
            if data.dtype == np.bool_:
                total += float(np.count_nonzero(data))
            else:
                finite = np.nan_to_num(data.astype(np.float64), nan=0.0,
                                       posinf=0.0, neginf=0.0)
                total += float(np.sum(finite))
        return total
