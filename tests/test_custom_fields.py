"""Every field a custom domain or coefficient set must supply is read
somewhere in the package, so no field asks for a value that changes
nothing (README "Custom domains" and "Custom coefficients" list the
readers)."""

import ast
import dataclasses
from pathlib import Path

import pytest

import reflectedsde as rs

PACKAGE = Path(rs.__file__).parent


def _attribute_reads():
    reads = set()
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


@pytest.mark.parametrize("spec", [rs.DomainSpec, rs.CoefficientSet], ids=lambda c: c.__name__)
def test_every_field_is_read(spec):
    reads = _attribute_reads()
    unread = [f.name for f in dataclasses.fields(spec) if f.name not in reads]
    assert unread == []
