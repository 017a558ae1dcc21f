"""Command-line surface: documents, exit codes, frozen renderings.

Everything drives `treepack.cli.run` in-process (fast, and capsys sees
the streams); one subprocess check at the end proves the module entry
point is wired up.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treepack import (
    BadSizeError,
    DimensionMismatchError,
    InvalidFamilyError,
    Labeling,
    ParseError,
    TreePackError,
    build_tree,
    family_enumerate,
    generate_family,
    orientation,
    star_family,
    star_identity_labeling,
)
from treepack import cli
from treepack.cli import (
    DEFAULT_SEED,
    emit_family,
    emit_labeling,
    emit_orientation,
    parse_family,
    parse_labeling,
    run,
)

FAM2 = next(family_enumerate(2))  # the unique two-slot family
ID2 = Labeling(n=2, sigmas=((0, 1), (0, 1)))
MIXED2 = Labeling(n=2, sigmas=((0, 1), (1, 0)))  # valid perms, not complete


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- documents -----------------------------------------------------------


def test_family_document_round_trip():
    for n, kind, seed in [(1, "star", 0), (4, "mixed", 7), (6, "random-uniform", 3)]:
        fam = generate_family(n, kind, seed)
        assert parse_family(emit_family(fam)) == fam


def test_family_document_example_from_docs():
    doc = '{"n": 4, "trees": [[0], [0, 0], [0, 0, 1], [0, 0, 1, 1]]}'
    fam = parse_family(doc)
    assert fam.n == 4
    assert fam.trees[3] == build_tree([0, 0, 1, 1], 4)
    # emission is canonical: sorted keys, no extra whitespace surprises
    assert json.loads(emit_family(fam)) == json.loads(doc)


def test_labeling_document_round_trip():
    lab = Labeling(n=3, sigmas=((0, 1, 2), (2, 0, 1), (1, 2, 0)))
    assert parse_labeling(emit_labeling(lab)) == lab


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "trees": [[0], [0, 0]]',  # truncated JSON
        "[1, 2, 3]",  # not an object
        '{"trees": [[0]]}',  # n missing
        '{"n": true, "trees": [[0]]}',  # bool is not an acceptable int
        '{"n": 1, "trees": 5}',
        '{"n": 1, "trees": [["a"]]}',
        '{"n": 2, "trees": [[0], [false, 0]]}',
    ],
)
def test_family_document_parse_errors(text):
    with pytest.raises(ParseError):
        parse_family(text)


def test_parse_error_carries_json_position():
    with pytest.raises(ParseError, match=r"line 2 col"):
        parse_family('{"n": 2,\n "trees": }')


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2}',
        '{"n": 2, "sigma": {"0": [0, 1]}}',
        '{"n": 2, "sigma": [[0, "x"]]}',
        '{"n": 2, "sigma": [[0, 1], [true, false]]}',  # bools are no labels
    ],
)
def test_labeling_document_parse_errors(text):
    with pytest.raises(ParseError):
        parse_labeling(text)


def test_emit_orientation_frozen_strings():
    orient = orientation(star_family(2), star_identity_labeling(2))
    assert emit_orientation(orient, "dot") == (
        "digraph packing {\n    0 -> 0;\n    0 -> 1;\n    1 -> 1;\n}"
    )
    assert emit_orientation(orient, "json") == (
        '{"arcs": [[0, 0], [0, 1], [1, 1]], "n": 2}'
    )
    with pytest.raises(Exception):
        emit_orientation(orient, "graphml")


# --- gen -----------------------------------------------------------------


def test_gen_prints_default_seed_and_matches_explicit(capsys, tmp_path):
    assert run(["gen", "--n", "4"]) == 0
    first = capsys.readouterr()
    assert first.err == f"seed: {DEFAULT_SEED}\n"

    assert run(["gen", "--n", "4", "--seed", str(DEFAULT_SEED)]) == 0
    second = capsys.readouterr()
    assert second.err == ""  # explicit seed: nothing to announce
    assert first.out == second.out
    assert parse_family(first.out).n == 4


def test_gen_json_payload_and_output_file(capsys, tmp_path):
    out = tmp_path / "fam.json"
    assert run(["gen", "--n", "3", "--seed", "5", "--json", "-o", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["seed"] == 5
    assert payload["kind"] == "random-uniform"
    assert payload["family"] == json.loads(emit_family(generate_family(3, seed=5)))


def test_gen_shares_the_generator_options_and_needs_a_size(capsys):
    """gen reads --kind and --seed as pack, enumerate and certify do; it
    requires --n and takes no family document."""
    assert run(["gen", "--n", "4", "--kind", "mixed", "--seed", "2"]) == 0
    assert parse_family(capsys.readouterr().out) == generate_family(4, "mixed", 2)
    assert run(["gen", "--kind", "mixed"]) == 2
    assert run(["gen", "--n", "3", "--family", "fam.json"]) == 2
    assert run(["gen", "--n", "3", "--kind", "tree"]) == 2
    capsys.readouterr()


# --- pack / verify -------------------------------------------------------


def test_pack_json_labeling_verifies(capsys, tmp_path):
    fam = generate_family(5, "mixed", 11)
    fam_path = write(tmp_path, "fam.json", emit_family(fam))
    assert run(["pack", "-f", fam_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "packed"
    assert payload["nodes"] >= 1
    assert "seed" not in payload  # family came from a file

    lab_path = write(tmp_path, "lab.json", json.dumps(payload["labeling"]))
    assert run(["verify", "-f", fam_path, "--labeling", lab_path]) == 0
    assert capsys.readouterr().out == "complete\n"


def test_pack_text_output_lists_sigma_rows(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(star_family(3)))
    assert run(["pack", "-f", fam_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status: packed"
    assert lines[1].startswith("nodes: ")
    assert [ln.split(":")[0] for ln in lines[3:]] == ["sigma 0", "sigma 1", "sigma 2"]


def test_pack_writes_orientation_file(capsys, tmp_path):
    fam = generate_family(4, "mixed", 2)
    fam_path = write(tmp_path, "fam.json", emit_family(fam))
    dot = tmp_path / "pack.dot"
    assert run(["pack", "-f", fam_path, "--json", "-o", str(dot), "--format", "dot"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lab = parse_labeling(json.dumps(payload["labeling"]))
    assert dot.read_text().rstrip("\n") == emit_orientation(orientation(fam, lab), "dot")


def test_pack_refuses_classical_mode_with_an_orientation_file(capsys, tmp_path, monkeypatch):
    """Classical labelings may root two slots on one vertex, so they have
    no orientation of looped K_n: the flag pair is refused before any
    search, with exit 2 and a message naming both flags."""
    monkeypatch.setattr(cli, "pack", lambda *args: pytest.fail("searched"))
    dot = tmp_path / "pack.dot"
    assert run(["pack", "--n", "5", "--seed", "1", "--classical-mode", "-o", str(dot)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not dot.exists()
    assert "--classical-mode" in captured.err and "-o" in captured.err


def test_pack_json_names_the_seed_of_a_generated_family(capsys):
    assert run(["pack", "--n", "4", "--kind", "mixed", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert run(["pack", "--n", "4", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["seed"] == DEFAULT_SEED
    assert captured.err == f"seed: {DEFAULT_SEED}\n"


def test_verify_incomplete_is_exit_one(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    lab_path = write(tmp_path, "lab.json", emit_labeling(MIXED2))
    assert run(["verify", "-f", fam_path, "--labeling", lab_path]) == 1
    assert capsys.readouterr().out == "incomplete\n"
    assert run(["verify", "-f", fam_path, "--labeling", lab_path, "--json"]) == 1
    assert capsys.readouterr().out == '{"complete": false}\n'
    good_path = write(tmp_path, "good.json", emit_labeling(ID2))
    assert run(["verify", "-f", fam_path, "--labeling", good_path, "--json"]) == 0
    assert capsys.readouterr().out == '{"complete": true}\n'
    # the same labeling is fine once loops stop counting
    assert run(["verify", "-f", fam_path, "--labeling", lab_path, "--classical-mode"]) == 0


# --- enumerate / sweep ---------------------------------------------------


def test_enumerate_star3_counts(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(star_family(3)))
    assert run(["enumerate", "-f", fam_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["essential"] == 12
    assert payload["full"] == 24
    assert len(payload["members"]) == 12
    labs = [parse_labeling(json.dumps(m)) for m in payload["members"]]
    assert len(set(labs)) == 12


def test_enumerate_text_tail(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    assert run(["enumerate", "-f", fam_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["essential: 2", "full: 2"]
    assert len(lines) == 4  # one row per member, then the two counts


@pytest.mark.parametrize("as_json", [False, True])
def test_enumerate_streams_the_bytes_of_one_dumps(capsys, tmp_path, monkeypatch, as_json):
    """The output, written a batch of members at a time, is byte for byte
    json.dumps of the whole payload with sorted keys, or the text rows and
    counts joined by newlines.  Batches of 7
    split the 144 members of caterpillar n = 4 seed 1 unevenly; a listing
    of one batch and an empty one are written too, on stdout and with
    -o."""
    from treepack.packing import full_count_multiplier, phi_enumerate

    monkeypatch.setattr(cli, "_ENUMERATE_BATCH", 7)
    cases = [(fam, *phi_enumerate(fam)) for fam in (generate_family(4, "caterpillar", 1), FAM2)]
    cases.append((FAM2, [], 0))
    for fam, members, count in cases:
        listing = sorted(members)
        # the command sorts what it is given
        given = (members[::-1], count)
        monkeypatch.setattr(cli, "phi_enumerate", lambda f, mode, given=given: given)
        n = fam.n
        if as_json:
            payload = {
                "essential": count,
                "full": count * full_count_multiplier(n),
                "members": [json.loads(emit_labeling(m)) for m in listing],
                "n": n,
            }
            want = json.dumps(payload, sort_keys=True) + "\n"
        else:
            rows = [json.dumps([list(s) for s in m.sigmas]) for m in listing]
            rows += [f"essential: {count}", f"full: {count * full_count_multiplier(n)}"]
            want = "\n".join(rows) + "\n"
        argv = ["enumerate", "-f", write(tmp_path, "fam.json", emit_family(fam))]
        argv += ["--json"] if as_json else []
        assert run(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "out.txt"
        assert run(argv + ["-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == want


def test_enumerate_json_output_is_frozen(capsys):
    """The member documents are emit_labeling's, built without a JSON
    round trip; one n = 5 family's whole output is frozen byte for byte."""
    assert run(["enumerate", "--n", "5", "--kind", "mixed", "--seed", "3", "--json"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "d553122c35ac5f115937822335468d8afd05d6a5b12c0d00aefa664e033fa530"
    members = json.loads(out)["members"]
    assert len(members) == 1920
    assert members[0] == json.loads(emit_labeling(parse_labeling(json.dumps(members[0]))))


def test_sweep_n3_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", "3", "--json", "-o", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == payload["packed"] == 2
    assert payload["exhausted"] == payload["timed_out"] == 0

    rows = csv_path.read_text().splitlines()
    assert rows[0] == "family-index,status,nodes,millis"
    assert len(rows) == 3
    assert [r.split(",")[:2] for r in rows[1:]] == [["0", "packed"], ["1", "packed"]]


def test_sweep_parallel_matches_serial_csv(capsys, tmp_path):
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert run(["sweep", "--n", "4", "-o", str(a)]) == 0
    assert run(["sweep", "--n", "4", "--parallel", "2", "-o", str(b)]) == 0
    capsys.readouterr()
    strip = lambda p: [r.rsplit(",", 1)[0] for r in p.read_text().splitlines()]
    assert strip(a) == strip(b)  # identical apart from wall-clock column


# --- certify / compose / selftest ----------------------------------------


def test_certify_at_labeling_frozen_coeffs(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    lab_path = write(tmp_path, "lab.json", emit_labeling(ID2))
    assert run(["certify", "-f", fam_path, "--labeling", lab_path]) == 0
    out = capsys.readouterr().out
    assert "coeffs: 0 -1 2" in out
    assert "nonzero: yes" in out


def test_certify_vanishing_value_is_exit_one(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    lab_path = write(tmp_path, "lab.json", emit_labeling(MIXED2))
    assert run(["certify", "-f", fam_path, "--labeling", lab_path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"coeffs": [0], "nonzero": False}


def test_certify_canonical_text_to_file(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    out = tmp_path / "rep.txt"
    assert run(["certify", "-f", fam_path, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "mode: phi-sum" in err and "terms: " in err
    text = out.read_text()
    assert " + " in text and "y" in text


def test_certify_modes_agree_n2(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    texts = []
    for mode in ("phi-sum", "lattice"):
        assert run(["certify", "-f", fam_path, "--mode", mode, "--json"]) == 0
        texts.append(json.loads(capsys.readouterr().out)["text"])
    assert texts[0] == texts[1]


def test_compose_audit(capsys):
    assert run(["compose", "--n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["families_checked"] == 12
    assert payload["violations"] == []


def test_compose_prints_each_violation_and_exits_one(capsys, monkeypatch):
    from treepack.certificate import CompositionReport

    report = CompositionReport(n=3, families_checked=2, steps_checked=4, violations=("a", "b"))
    monkeypatch.setattr(cli, "composition_implication_check", lambda n: report)
    assert run(["compose", "--n", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "n=3 families=2 steps=4 ok=no",
        "violation: a",
        "violation: b",
    ]


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(ln.startswith("pass ") for ln in lines)
    assert run(["selftest", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [c["check"] for c in payload["checks"]] == [ln.split()[1] for ln in lines]


def test_a_failing_selftest_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_checks", lambda: iter([("good", True), ("bad", False)]))
    assert run(["selftest"]) == 1
    assert capsys.readouterr().out == "pass good\nFAIL bad\n"
    assert run(["selftest", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "checks": [{"check": "good", "ok": True}, {"check": "bad", "ok": False}],
        "ok": False,
    }


# --- exit code 2: usage, parse, validation --------------------------------


def test_usage_errors_are_exit_two(capsys):
    assert run(["pack", "--kind", "bogus", "--n", "3"]) == 2  # argparse choice
    assert run(["frobnicate"]) == 2  # unknown command
    assert run([]) == 2  # command required
    capsys.readouterr()


def test_missing_file_is_exit_two(capsys):
    assert run(["pack", "-f", "/nonexistent/fam.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_document_is_exit_two(capsys, tmp_path):
    fam_path = write(tmp_path, "fam.json", '{"n": 2, "trees": [[0], [1, 1]]}')
    assert run(["pack", "-f", fam_path]) == 2  # second tree has no fixed point
    assert "error: " in capsys.readouterr().err


def test_family_shape_is_checked_before_any_tree_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_tree called before the shape check")

    monkeypatch.setattr(cli, "build_tree", refuse)
    with pytest.raises(InvalidFamilyError):
        parse_family('{"n": 300000000, "trees": [[0]]}')
    with pytest.raises(InvalidFamilyError):
        parse_family('{"n": 2, "trees": [[0], [0, 0, 0]]}')


_JUNK = (-1, 99, True, False, 0.0, 1.5, "0", None, [0])


def _mutated(rng, row, bound):
    """``row`` with an occasional entry swapped for junk or for any value
    below ``bound`` (a cycle, a second root, a repeated image), or now and
    then a junk value in place of the whole row."""
    if rng.random() < 0.02:
        return rng.choice(_JUNK)
    for v in range(len(row)):
        r = rng.random()
        if r < 0.03:
            row[v] = rng.choice(_JUNK)
        elif r < 0.08:
            row[v] = rng.randrange(max(bound, 1))
    return row


def _fuzz_documents(rng, count):
    """Seeded family and labeling documents near the valid ones: n, the
    row count and each row's length off by one, entries out of range or
    of the wrong type, cycles, several roots, repeated images."""
    slip = (-1, 0, 0, 0, 0, 0, 0, 0, 1)
    for _ in range(count):
        n = rng.choice((-1, 0, 1, 2, 3, 4, 5, 6, 6))
        rows = range(max(0, n + rng.choice(slip)))
        trees = []
        for k in rows:
            size = max(0, k + 1 + rng.choice(slip))
            row = [rng.randrange(v) if v else 0 for v in range(size)]
            trees.append(_mutated(rng, row, size))
        sigma = []
        for _ in rows:
            row = list(range(max(0, n + rng.choice(slip))))
            rng.shuffle(row)
            sigma.append(_mutated(rng, row, n))
        if rng.random() < 0.03:
            n = rng.choice(_JUNK[2:])
        if rng.random() < 0.03:
            trees = sigma = rng.choice(_JUNK)
        yield parse_family, json.dumps({"n": n, "trees": trees})
        yield parse_labeling, json.dumps({"n": n, "sigma": sigma})


def test_parsers_return_or_raise_a_treepack_error():
    """Every parse of a seeded near-valid document returns its object or
    raises a TreePackError; no TypeError or ValueError leaks through."""
    outcomes = {parse_family: [0, 0], parse_labeling: [0, 0]}
    for parse, text in _fuzz_documents(random.Random(2024), 12000):
        try:
            parse(text)
        except TreePackError:
            outcomes[parse][1] += 1
        else:
            outcomes[parse][0] += 1
    for parsed, raised in outcomes.values():
        assert parsed > 500 and raised > 500


def test_labeling_on_z0_is_refused(capsys, tmp_path):
    doc = '{"n": 0, "sigma": []}'
    with pytest.raises(BadSizeError):
        parse_labeling(doc)
    fam_path = write(tmp_path, "fam.json", emit_family(FAM2))
    lab_path = write(tmp_path, "lab.json", doc)
    assert run(["verify", "-f", fam_path, "--labeling", lab_path]) == 2
    assert "at least one vertex" in capsys.readouterr().err


def test_size_caps_refuse_before_the_family_is_generated(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("generate_family called before the size cap")

    monkeypatch.setattr(cli, "generate_family", refuse)
    for argv in (
        ["enumerate", "--n", "1200"],
        ["enumerate", "--n", "7"],  # PHI_ESSENTIAL_MAX_N is 6
        ["certify", "--n", "1200"],
        ["certify", "--n", "4"],  # CANONICAL_PHI_MAX_N is 3
        ["certify", "--n", "3", "--mode", "lattice"],  # CANONICAL_LATTICE_MAX_N is 2
    ):
        assert run(argv + ["--seed", "1"]) == 2, argv
        assert "exceeds the cap" in capsys.readouterr().err
    # sweep takes no seed; its refusal formats no family count
    assert run(["sweep", "--n", "200"]) == 2
    assert "exceeds the cap n <= 8" in capsys.readouterr().err
    # at the cap the family is generated
    for argv in (["enumerate", "--n", "6"], ["certify", "--n", "3"]):
        with pytest.raises(AssertionError):
            run(argv + ["--seed", "1"])


def test_sweep_refuses_fewer_than_one_process(monkeypatch, capsys):
    """sweep itself refuses the count, before it builds any family."""
    from treepack import solver

    def refuse(*args, **kwargs):
        raise AssertionError("sweep built a family with --parallel below 1")

    monkeypatch.setattr(solver, "family_enumerate", refuse)
    for t in ("0", "-5"):
        assert run(["sweep", "--n", "3", "--parallel", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"workers must be an int of at least 1, got {t}" in captured.err


def test_certify_refuses_a_labeling_of_another_n_before_generating(
    monkeypatch, capsys, tmp_path
):
    def refuse(*args, **kwargs):
        raise AssertionError("generate_family called before the labeling was read")

    monkeypatch.setattr(cli, "generate_family", refuse)
    lab_path = write(tmp_path, "lab.json", emit_labeling(ID2))
    argv = ["certify", "--n", "1200", "--seed", "1", "--labeling", lab_path]
    assert run(argv) == 2
    assert "differs from the labeling's n = 2" in capsys.readouterr().err
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(DimensionMismatchError):
        args.func(args)
    # a matching --n goes on to generate the family
    with pytest.raises(AssertionError):
        run(["certify", "--n", "2", "--seed", "1", "--labeling", lab_path])


def test_family_source_is_required(capsys):
    assert run(["pack"]) == 2  # neither --family nor --n
    assert "provide --family FILE or --n SIZE" in capsys.readouterr().err


def test_module_entry_point():
    # the child imports the same treepack as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "treepack.cli", "gen", "--n", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert parse_family(proc.stdout) == generate_family(3, seed=1)
