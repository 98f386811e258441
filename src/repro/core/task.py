"""Lifting-task description shared by the synthesizer, baselines and suite.

A :class:`LiftingTask` bundles everything a lifter needs about one legacy
kernel: the C source, which function to lift, and an :class:`InputSpec`
describing how to build concrete inputs for it (tensor shapes in terms of
the size parameters, scalar ranges).  The optional ``reference_solution`` is
the ground-truth TACO expression; it is used by the synthetic oracle and by
the evaluation harness to check results, never by the synthesis pipeline
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple, Union

from ..cfront import FunctionDef, parse_function

#: A shape dimension: either a literal extent or the name of a size parameter.
Dim = Union[int, str]


@dataclass(frozen=True)
class InputSpec:
    """How to construct concrete inputs for a kernel.

    Attributes
    ----------
    sizes:
        Default concrete value for each size parameter (e.g. ``{"N": 8}``).
        The verifier shrinks these to its bound; the I/O-example generator
        uses them as-is (or slightly perturbed).
    arrays:
        Logical shape of each pointer argument, in terms of size parameters
        or literals (e.g. ``{"Mat1": ("N", "N"), "Mat2": ("N",)}``).  The
        output argument must be included.
    scalars:
        Inclusive value range for each scalar (non-size) argument.
    """

    sizes: Mapping[str, int] = field(default_factory=dict)
    arrays: Mapping[str, Tuple[Dim, ...]] = field(default_factory=dict)
    scalars: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    #: When True, randomly generated inputs avoid zero values (set for kernels
    #: that divide by an input element).
    avoid_zero: bool = False

    def resolve_shape(
        self, name: str, sizes: Optional[Mapping[str, int]] = None
    ) -> Tuple[int, ...]:
        """The concrete shape of array *name* under the given size values."""
        sizes = dict(self.sizes) | dict(sizes or {})
        shape = self.arrays.get(name)
        if shape is None:
            raise KeyError(f"no shape specified for array argument {name!r}")
        resolved = []
        for dim in shape:
            if isinstance(dim, int):
                resolved.append(dim)
            else:
                if dim not in sizes:
                    raise KeyError(f"size parameter {dim!r} has no value")
                resolved.append(int(sizes[dim]))
        return tuple(resolved)


@dataclass(frozen=True)
class LiftingTask:
    """One lifting problem: a C kernel plus the metadata needed to exercise it."""

    name: str
    c_source: str
    spec: InputSpec
    function_name: Optional[str] = None
    reference_solution: Optional[str] = None
    category: str = "uncategorized"
    description: str = ""

    def parse(self) -> FunctionDef:
        """Parse the kernel's C source and return the target function."""
        return parse_function(self.c_source, self.function_name)

    def with_reference(self, reference_solution: str) -> "LiftingTask":
        return LiftingTask(
            name=self.name,
            c_source=self.c_source,
            spec=self.spec,
            function_name=self.function_name,
            reference_solution=reference_solution,
            category=self.category,
            description=self.description,
        )
