"""Report containers: named residual checks and their JSON forms.

Every verification routine returns a ResidualReport so that the CLI and the
test suite consume one uniform shape: a list of (name, residual, threshold)
rows where pass means residual <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.threshold)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "pass": self.passed,
        }


@dataclass
class ResidualReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def add(self, name: str, residual: float, threshold: float) -> None:
        self.checks.append(CheckResult(name, float(residual), float(threshold)))

    def extend(self, other: "ResidualReport") -> None:
        self.checks.extend(other.checks)

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_pairs(mat) -> list[list[list[float]]]:
    """Row-major nested [re, im] pairs for a dense real or complex matrix."""
    return [[complex_to_pair(v) for v in row] for row in mat]
