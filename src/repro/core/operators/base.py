"""Operator base machinery: stages, parameter specs, registry.

An operator (paper §IV-A) is a design strategy of the SpMV program — a
"vector in design space" that may move simultaneously along the format,
kernel and parameter dimensions.  Each operator declares:

* its **stage** (converting / mapping / implementing),
* a **parameter space** — per-parameter coarse grid (measured directly) and
  fine grid (interpolated by the search engine's ML model, §VI-A),
* an ``apply`` transformation of the Matrix Metadata Set,
* a ``check`` precondition implementing the dependency rules of §IV-B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.core.metadata import MatrixMetadataSet
from repro.errors import DiagnosableError

__all__ = [
    "Stage",
    "ParamSpec",
    "Operator",
    "OperatorError",
    "OPERATOR_REGISTRY",
    "register_operator",
    "get_operator",
    "operators_in_stage",
]


class OperatorError(DiagnosableError):
    """Dependency violation or inapplicable operator (paper §IV-B)."""


class Stage(enum.IntEnum):
    """The three design stages; graphs are non-decreasing in stage order."""

    CONVERTING = 0
    MAPPING = 1
    IMPLEMENTING = 2


@dataclass(frozen=True)
class ParamSpec:
    """Searchable parameter of an operator.

    ``coarse`` values are measured by running generated programs; ``fine``
    values are reached only through ML interpolation (three-level search).
    ``fine`` must be a superset of ``coarse``.
    """

    name: str
    coarse: Tuple[object, ...]
    fine: Tuple[object, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.coarse:
            raise ValueError(f"parameter {self.name!r} needs a coarse grid")
        fine = self.fine if self.fine else self.coarse
        object.__setattr__(self, "fine", tuple(fine))
        missing = [v for v in self.coarse if v not in self.fine]
        if missing:
            raise ValueError(
                f"coarse values {missing} of {self.name!r} missing from fine grid"
            )

    @property
    def default(self) -> object:
        return self.coarse[0]


class Operator:
    """Base class for all design-strategy operators.

    Subclasses set the class attributes and implement :meth:`apply`;
    :meth:`check` may be overridden for extra dependency rules.
    """

    #: Unique registry name, e.g. ``"BMT_ROW_BLOCK"``.
    name: str = ""
    stage: Stage = Stage.CONVERTING
    #: Literature the strategy is distilled from (Table II "Source" column).
    source: str = ""
    description: str = ""
    params: Tuple[ParamSpec, ...] = ()
    #: True for ROW_DIV / BIN — operators that split the matrix and branch
    #: the Operator Graph.
    branching: bool = False

    # ------------------------------------------------------------------
    def default_params(self) -> Dict[str, object]:
        return {p.name: p.default for p in self.params}

    def resolve_params(self, given: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """Fill defaults and reject unknown parameter names."""
        resolved = self.default_params()
        if given:
            unknown = set(given) - set(resolved)
            if unknown:
                raise OperatorError(
                    f"{self.name}: unknown parameters {sorted(unknown)}"
                )
            resolved.update(given)
        return resolved

    def param_spec(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(f"{self.name} has no parameter {name!r}")

    # ------------------------------------------------------------------
    def check(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        """Raise :class:`OperatorError` if the operator cannot apply now.

        The default enforces the stage-wide rules: mapping requires a
        compressed matrix (paper: "the mapping stage always begins after the
        COMPRESS operator"), implementing requires mapping to have finished.
        """
        if self.stage is not Stage.CONVERTING and not meta.compressed:
            raise OperatorError(f"{self.name}: requires COMPRESS first")

    def apply(self, meta: MatrixMetadataSet, params: Mapping[str, object]) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Operator {self.name} ({self.stage.name.lower()})>"


#: name → operator instance (operators are stateless; one instance suffices).
OPERATOR_REGISTRY: Dict[str, Operator] = {}


def register_operator(cls: Type[Operator]) -> Type[Operator]:
    """Class decorator adding an operator to the registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must define a name")
    if instance.name in OPERATOR_REGISTRY:
        raise ValueError(f"duplicate operator name {instance.name!r}")
    OPERATOR_REGISTRY[instance.name] = instance
    return cls


def get_operator(name: str) -> Operator:
    try:
        return OPERATOR_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; registered: {sorted(OPERATOR_REGISTRY)}"
        ) from None


def operators_in_stage(stage: Stage) -> List[Operator]:
    return [op for op in OPERATOR_REGISTRY.values() if op.stage is stage]
