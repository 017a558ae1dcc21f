"""The public surface: the exported names and README's quick start."""

import os
import subprocess
import sys
from pathlib import Path

import treepack

ROOT = Path(__file__).resolve().parents[1]

# Change this list only together with README's list of API changes.
PUBLIC_NAMES = """
AugFuncTree AugTreeFamily BadSizeError BoundExceededError
CANONICAL_LATTICE_MAX_N CANONICAL_PHI_MAX_N COMPOSITION_CHECK_MAX_N
CompositionReport DimensionMismatchError EXHAUSTED EdgeOrientation
InvalidFamilyError LAGRANGE_EXPAND_MAX_TERMS Labeling Mapping
NotAPermutationError NotATreeError NotAutomorphismError NotCompleteError
OutOfRangeError PACKED ParseError SUPPORT_CHECK_MAX_N SingletonTreeError
SolveConfig SolveResult SparsePoly SweepReport TIMED_OUT TreePackError
ValidationError YPoly build_tree canonical_rep certificate certificate_eval
closure_check compose_square composition_implication_check diagonal_relabel
edge_poly_eval errors family_count family_enumerate functree generate
generate_family is_complete lagrange_basis leaf_sibling_groups local_compose
monomial_support_check nonvanishing_equivalence_check orientation pack
packing phi_enumerate poly_reduce sibling_leaf_set solver star_family
star_identity_labeling sweep variable_dependency_check vertex_poly_eval
""".split()


def test_public_names_are_frozen():
    assert sorted(treepack.__all__) == sorted(PUBLIC_NAMES)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[(0, 0)")


def test_benchmark_names_exist(monkeypatch):
    """The benchmark under ``perfbench/`` reaches treepack by name: its
    traced runs wrap the attributes in ``perfbench.layers`` (the engine as
    ``search`` on each caller, so the exhaustive workload can meter its
    nodes), the exhaustive workload passes ``mode`` to `phi_enumerate` and
    `canonical_rep`, and sweep6 reads each row of ``SweepReport.rows``.
    Those names change only together with the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/ only
    from perfbench import layers

    for owner, attr, _ in layers.SPANS + layers.ITERATORS + layers.COUNTED:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    for owner in layers.ENGINE_CALLERS:
        assert callable(getattr(owner, "search", None)), owner
    fam = treepack.star_family(3)
    members, count = treepack.packing.phi_enumerate(fam, mode="essential")
    assert count == len(members) > 0
    assert treepack.certificate.canonical_rep(fam, mode="phi-sum").to_text()
    report = treepack.solver.sweep(3, workers=1)
    assert [(r.index, r.status) for r in report.rows] == [(0, "packed"), (1, "packed")]
    assert sum(r.nodes for r in report.rows) == report.nodes_total
