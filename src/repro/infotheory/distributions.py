"""Finite discrete joint distributions over named variables.

A :class:`JointDistribution` assigns probability mass to tuples of values of
named random variables.  All information-theoretic quantities in the library
(entropy, mutual information, information cost) are computed exactly from
these objects, which keeps the reproduction of the paper's Appendix A facts
and Claim 2.3 free of sampling noise.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

Assignment = Tuple[Hashable, ...]


class JointDistribution:
    """A probability mass function over joint assignments of named variables.

    Parameters
    ----------
    variables:
        Ordered variable names, e.g. ``("A", "B", "Pi")``.
    pmf:
        Mapping from value tuples (same order as ``variables``) to
        probabilities.  Probabilities must be non-negative and sum to 1
        within ``tolerance``.
    """

    def __init__(
        self,
        variables: Sequence[str],
        pmf: Mapping[Assignment, float],
        tolerance: float = 1e-9,
    ) -> None:
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        self._variables: List[str] = list(variables)
        cleaned: Dict[Assignment, float] = {}
        total = 0.0
        for assignment, probability in pmf.items():
            if len(assignment) != len(self._variables):
                raise ValueError(
                    f"assignment {assignment!r} has {len(assignment)} values, "
                    f"expected {len(self._variables)}"
                )
            if probability < -tolerance:
                raise ValueError(f"negative probability {probability} for {assignment!r}")
            if probability <= 0:
                continue
            cleaned[tuple(assignment)] = cleaned.get(tuple(assignment), 0.0) + probability
            total += probability
        if abs(total - 1.0) > max(tolerance, 1e-6):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        # Renormalise away accumulated floating point drift.
        self._pmf: Dict[Assignment, float] = {
            assignment: probability / total for assignment, probability in cleaned.items()
        }

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_samples(
        cls, variables: Sequence[str], samples: Iterable[Assignment]
    ) -> "JointDistribution":
        """Empirical distribution of the given samples."""
        counts: Dict[Assignment, float] = {}
        total = 0
        for sample in samples:
            counts[tuple(sample)] = counts.get(tuple(sample), 0.0) + 1.0
            total += 1
        if total == 0:
            raise ValueError("cannot build a distribution from zero samples")
        return cls(variables, {k: v / total for k, v in counts.items()})

    @classmethod
    def uniform(
        cls, variables: Sequence[str], support: Iterable[Assignment]
    ) -> "JointDistribution":
        """Uniform distribution over an explicit support."""
        support_list = [tuple(s) for s in support]
        if not support_list:
            raise ValueError("support must be non-empty")
        probability = 1.0 / len(support_list)
        pmf: Dict[Assignment, float] = {}
        for assignment in support_list:
            pmf[assignment] = pmf.get(assignment, 0.0) + probability
        return cls(variables, pmf)

    # -- accessors ---------------------------------------------------------
    @property
    def variables(self) -> List[str]:
        """Ordered variable names."""
        return list(self._variables)

    def probability(self, assignment: Assignment) -> float:
        """Probability of a full joint assignment (0 when outside the support)."""
        return self._pmf.get(tuple(assignment), 0.0)

    def support(self) -> List[Assignment]:
        """All assignments with positive probability."""
        return list(self._pmf.keys())

    def items(self) -> Iterable[Tuple[Assignment, float]]:
        """Iterate over (assignment, probability) pairs."""
        return self._pmf.items()

    def _indices(self, names: Sequence[str]) -> List[int]:
        indices = []
        for name in names:
            try:
                indices.append(self._variables.index(name))
            except ValueError as exc:
                raise KeyError(f"unknown variable {name!r}") from exc
        return indices

    # -- marginalisation and transformation ---------------------------------
    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        """Marginal distribution of the named variables (in the given order)."""
        indices = self._indices(names)
        pmf: Dict[Assignment, float] = {}
        for assignment, probability in self._pmf.items():
            key = tuple(assignment[i] for i in indices)
            pmf[key] = pmf.get(key, 0.0) + probability
        return JointDistribution(names, pmf)

    def map_variable(
        self, name: str, new_name: str, func: Callable[[Hashable], Hashable]
    ) -> "JointDistribution":
        """Apply a deterministic function to one variable (renaming it)."""
        index = self._indices([name])[0]
        new_variables = list(self._variables)
        new_variables[index] = new_name
        pmf: Dict[Assignment, float] = {}
        for assignment, probability in self._pmf.items():
            new_assignment = list(assignment)
            new_assignment[index] = func(assignment[index])
            key = tuple(new_assignment)
            pmf[key] = pmf.get(key, 0.0) + probability
        return JointDistribution(new_variables, pmf)

    def product(self, other: "JointDistribution") -> "JointDistribution":
        """Independent product of two joints over disjoint variable sets."""
        overlap = set(self._variables) & set(other._variables)
        if overlap:
            raise ValueError(f"variables overlap: {sorted(overlap)}")
        variables = self._variables + other._variables
        pmf: Dict[Assignment, float] = {}
        for a, pa in self._pmf.items():
            for b, pb in other._pmf.items():
                pmf[a + b] = pa * pb
        return JointDistribution(variables, pmf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JointDistribution(variables={self._variables}, "
            f"support_size={len(self._pmf)})"
        )
