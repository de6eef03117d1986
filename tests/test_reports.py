"""Report containers: pass semantics and JSON serialization."""

from tlspin.reports import CheckResult, ResidualReport, complex_to_pair, matrix_to_pairs


def test_pass_iff_residual_at_most_threshold():
    assert CheckResult("a", 1e-9, 1e-8).passed
    assert CheckResult("b", 1e-8, 1e-8).passed
    assert not CheckResult("c", 2e-8, 1e-8).passed


def test_report_aggregation():
    report = ResidualReport()
    report.add("x", 0.5, 1.0)
    report.add("y", 2.0, 1.0)
    assert not report.passed
    assert report.max_residual == 2.0
    assert [c.name for c in report.failing()] == ["y"]
    assert report.checks[0].to_dict() == {"name": "x", "residual": 0.5, "threshold": 1.0, "pass": True}


def test_complex_serialization():
    assert complex_to_pair(1 - 2j) == [1.0, -2.0]
    assert matrix_to_pairs([[1j]]) == [[[0.0, 1.0]]]
