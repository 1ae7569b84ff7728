"""Records serialization: valid JSON for every float, and a bit-exact round trip."""

import json
import math
import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from curvlab.cli import make_config, run
from curvlab.report import CheckRecord, Report, emit_report, parse_records


def _strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


def _same(a, b):
    if a is None or b is None:
        return a is b
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def test_planted_nan_records_are_valid_json(monkeypatch):
    from curvlab import tensors

    original = tensors.scalar_identity_residual

    def planted(metric, points):
        rep = original(metric, points)
        rep.identity_residual[0] = np.nan
        return rep

    monkeypatch.setattr(tensors, "scalar_identity_residual", planted)
    code, report = run(make_config(["check-identities", "--manifold", "torus-flat",
                                    "--points", "50"]))
    assert code == 1
    text = emit_report(report, "records")
    lines = text.splitlines()
    assert any('"nan"' in line for line in lines)
    for line in lines:
        _strict_json(line)
    parsed = [r for r in parse_records(text) if isinstance(r, CheckRecord)]
    assert len(parsed) == len(report.records)
    for got, want in zip(parsed, report.records):
        assert _same(got.value, want.value) and _same(got.residual, want.residual)
        assert _same(got.tol, want.tol) and got.passed == want.passed


@given(st.floats(), st.one_of(st.none(), st.floats()), st.one_of(st.none(), st.floats()))
def test_records_round_trip_any_float(value, residual, tol):
    rep = Report(command="demo")
    rep.add("x", "m", value, residual, tol, True)
    text = emit_report(rep, "records")
    _strict_json(text)
    (got,) = parse_records(text)
    want = rep.records[0]
    assert _same(got.value, want.value)
    assert _same(got.residual, want.residual)
    assert _same(got.tol, want.tol)
    assert got.passed == want.passed
