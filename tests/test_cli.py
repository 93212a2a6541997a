"""End-to-end tests for the command-line interface (run in process)."""

import json
import math
import re
from datetime import datetime
from pathlib import Path

import pytest

import secradius.cli as cli
from secradius.cli import build_parser, main
from secradius.radius import Criterion, criterion_radius
from secradius.series import section
from secradius.verify import VerificationItem, VerificationReport, full_suite, min_re_cube_kernel
from secradius.zoo import f0, koebe, spec_from_seed, synthesize_F

REPORT_KEYS = ["schema_version", "seed", "generator_name", "parameters", "items", "generated_at"]
ITEM_KEYS = ["name", "expected", "computed", "tolerance", "pass", "witness"]
README = Path(__file__).resolve().parents[1] / "README.md"


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_report_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--count", "2", "--n-max", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    note = capsys.readouterr().err
    assert str(out) in note
    payload = json.loads(out.read_text())
    assert list(payload.keys()) == REPORT_KEYS
    assert payload["schema_version"] == "1"
    assert payload["seed"] == 3
    assert "PCG64" in payload["generator_name"]
    datetime.fromisoformat(payload["generated_at"])  # must parse
    for item in payload["items"]:
        assert list(item.keys()) == ITEM_KEYS
        assert isinstance(item["pass"], bool)
        if item["witness"] is not None:
            assert set(item["witness"]) == {"r", "theta"}
    by_name = {item["name"]: item for item in payload["items"]}
    cube = by_name["min_re_cube_kernel_1/3"]
    assert cube["expected"] == 0.421875
    assert cube["pass"] is True


def test_verify_is_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--count", "2", "--n-max", "4", "--out", str(a)]) == 0
    assert main(["verify", "--count", "2", "--n-max", "4", "--out", str(b)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    pa.pop("generated_at")
    pb.pop("generated_at")
    assert pa == pb


def test_verify_unset_flags_mean_library_defaults(tmp_path):
    """Flags left unset reach the library as its own defaults: the report
    equals full_suite's byte for byte, apart from the timestamp."""
    out = tmp_path / "report.json"
    assert main(["verify", "--count", "2", "--n-max", "3", "--out", str(out)]) == 0
    library = cli._report_payload(full_suite(count=2, n_max=3))
    stamp = re.compile(r'"generated_at": "[^"]*"')
    expected = json.dumps(library, indent=2) + "\n"
    assert stamp.sub("", out.read_text()) == stamp.sub("", expected)


def test_verify_writes_stdout_by_default(capsys):
    code, payload = _run_json(
        capsys, ["verify", "--count", "1", "--n-max", "2", "--seed", "1"]
    )
    assert code == 0
    assert payload["schema_version"] == "1"


def test_verify_exits_one_on_failure(capsys, monkeypatch):
    bad = VerificationReport(
        (VerificationItem("forced_failure", 1.0, expected=0.0, tolerance=0.1),),
        seed=0,
        parameters={},
        generator_name="test",
    )
    monkeypatch.setattr(cli, "full_suite", lambda **kw: bad)
    code = main(["verify", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "forced_failure" in captured.err


def test_verify_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--count", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max", "1"])
    assert err.value.code == 2
    for tol in ("1e-15", "nan", "inf"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--tol", tol])
        assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--seed", "-1"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------


def test_radius_f0_section2(capsys):
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "f0", "--section", "2", "--criterion", "re-deriv"],
    )
    assert code == 0
    assert set(payload) == {"radius", "witness_theta", "clamped"}
    assert abs(payload["radius"] - 1.0 / 3.0) <= 1e-6
    assert payload["clamped"] is False
    assert payload["witness_theta"] is not None


def test_radius_f0_convexity(capsys):
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "f0", "--section", "2", "--criterion", "convex"],
    )
    assert code == 0
    assert abs(payload["radius"] - 1.0 / 6.0) <= 1e-6


def test_radius_koebe_matches_library_bitwise(capsys):
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "koebe", "--section", "3", "--criterion", "starlike"],
    )
    assert code == 0
    expected = criterion_radius(koebe(3), Criterion.STARLIKENESS, 1e-9, 2048).radius
    assert payload["radius"] == expected  # repr round-trip is lossless


def test_radius_grid_reaches_library(capsys):
    """radius --grid feeds criterion_radius's grid_size; at grid 64 the
    witness angle differs from the default grid's, so a lost flag shows."""
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "f0", "--section", "3", "--criterion", "convex",
         "--grid", "64"],
    )
    assert code == 0
    expected = criterion_radius(f0(3), Criterion.CONVEXITY, grid_size=64)
    assert payload["radius"] == expected.radius
    assert payload["witness_theta"] == expected.witness.argmin_theta


def test_radius_half_plane_clamps(capsys):
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "half-plane", "--section", "1", "--criterion", "re-deriv"],
    )
    assert code == 0
    assert payload["radius"] == 1.0
    assert payload["clamped"] is True


def test_radius_usage_errors():
    assert list(cli._FUNCTIONS) == ["f0", "koebe", "half-plane"]
    with pytest.raises(SystemExit) as err:
        main(["radius", "--function", "spec-file", "--section", "3", "--criterion", "starlike"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["radius", "--function", "f0", "--section", "0", "--criterion", "starlike"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["radius", "--function", "f0", "--section", "2", "--criterion", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["radius", "--function", "f0", "--section", "2", "--criterion", "starlike",
              "--index", "-1"])
    assert err.value.code == 2
    for tol in ("nan", "inf"):
        with pytest.raises(SystemExit) as err:
            main(["radius", "--function", "f0", "--section", "2",
                  "--criterion", "starlike", "--tol", tol])
        assert err.value.code == 2
    # the series comes from exactly one of --function and --spec-file, and
    # --index reads an entry of a spec file
    for source in (["--function", "f0", "--spec-file", "/nonexistent.json", "--index", "7"],
                   ["--function", "f0", "--index", "0"], ["--index", "0"], []):
        with pytest.raises(SystemExit) as err:
            main(["radius", *source, "--section", "2", "--criterion", "re-deriv"])
        assert err.value.code == 2


def test_radius_runtime_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(
        ["radius", "--spec-file", str(missing),
         "--section", "3", "--criterion", "starlike"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()

    malformed = tmp_path / "bad.json"
    malformed.write_text("{not json")
    code = main(
        ["radius", "--spec-file", str(malformed),
         "--section", "3", "--criterion", "starlike"]
    )
    assert code == 1

    # an entry with no atoms (read at the default index 0) is a spec error
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"specs": [{"weights": [], "points": []}]}))
    capsys.readouterr()
    code = main(
        ["radius", "--spec-file", str(empty),
         "--section", "3", "--criterion", "starlike"]
    )
    assert code == 1
    assert "non-empty" in capsys.readouterr().err

    # unmatched atoms, an index past the end, a missing key, every malformed
    # shape, number and seed, and every broken spec invariant are refused,
    # each by one error line that names the fault and, once the entry is
    # found, the entry and the entry count ({} stands for the file), never
    # by a traceback
    atom = {"weights": [1.0], "points": [[1, 0]]}
    pair = [[1, 0], [-1, 0]]

    def entry(message, weights=(0.5, 0.5), points=pair, **seed):
        document = {"specs": [{"weights": list(weights), "points": points, **seed}]}
        return document, [], f"spec entry 0: {message}; entries in {{}}: 1"

    for document, extra, message in (
        entry("weights and points must be matching non-empty 1-D arrays", points=[*pair, [0, 1]]),
        ({"specs": [{"weights": [1.0]}]}, [], "spec entry 0 has no 'points'; entries in {}: 1"),
        ([atom], ["--index", "5"], "--index 5 is out of range; entries in {}: 1"),
        ({"spec": [atom]}, [], "{} holds no list of spec entries"),
        (5, [], "{} holds no list of spec entries"),
        ({"specs": [5]}, [], "spec entry 0 is not an object; entries in {}: 1"),
        entry("points must be [re, im] number pairs", weights=[1.0], points=[1.0]),
        entry("points must be [re, im] number pairs", weights=[1.0], points=[[1, 0, 0]]),
        entry("points must be numbers, not object", weights=[1.0], points=[[None, 0]]),
        ({"specs": [atom, {"weights": ["1"], "points": [[1, 0]]}]}, ["--index", "1"],
         "spec entry 1: weights must be numbers, not <U1; entries in {}: 2"),
        entry("weights must be numbers, not bool", weights=[True], points=[[1, 0]]),
        entry("weights must be numbers, not bool", weights=[0.5, True]),
        entry("points must be numbers, not bool", weights=[1.0], points=[[True, 0]]),
        entry("points must be a regular array of numbers", points=[[1, 0], [1]]),
        entry("seed must be an integer, got 'abc'", seed="abc"),
        entry("seed must be at least 0, got -3", seed=-3),
        entry("seed must be an integer, got 2.5", seed=2.5),
        entry("weights sum to 1.1, not 1", weights=[0.5, 0.6]),
        entry("points must be unimodular", weights=[1.0], points=[[2, 0]]),
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        code = main(
            ["radius", "--spec-file", str(path),
             "--section", "3", "--criterion", "starlike", *extra]
        )
        err = capsys.readouterr().err
        assert code == 1, document
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message.format(path) in err

# ---------------------------------------------------------------------------
# sample + spec-file round trip
# ---------------------------------------------------------------------------


def test_sample_payload(capsys):
    code, payload = _run_json(
        capsys, ["sample", "--count", "4", "--atom-count", "2", "--seed", "5"]
    )
    assert code == 0
    assert payload["schema_version"] == "1"
    assert len(payload["specs"]) == 4
    for entry in payload["specs"]:
        assert abs(sum(entry["weights"]) - 1.0) < 1e-12
        assert len(entry["points"]) == 2
        assert isinstance(entry["seed"], int)


def test_sample_is_deterministic(capsys):
    _, a = _run_json(capsys, ["sample", "--count", "3", "--seed", "9"])
    _, b = _run_json(capsys, ["sample", "--count", "3", "--seed", "9"])
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_spec_file_radius_round_trip(tmp_path, capsys):
    specs = tmp_path / "specs.json"
    assert main(["sample", "--count", "3", "--seed", "5", "--out", str(specs)]) == 0
    capsys.readouterr()
    code, payload = _run_json(
        capsys,
        ["radius", "--spec-file", str(specs),
         "--index", "1", "--section", "4", "--criterion", "starlike"],
    )
    assert code == 0
    # rebuild the same section from the recorded child seed and compare
    entry = json.loads(specs.read_text())["specs"][1]
    spec = spec_from_seed(entry["seed"], 3)
    s = section(synthesize_F(spec, order=64), 4)
    expected = criterion_radius(s, Criterion.STARLIKENESS, 1e-9, 2048).radius
    assert payload["radius"] == expected


def test_spec_file_radius_synthesizes_at_the_section_order(tmp_path, capsys, monkeypatch):
    """A spec-file section is synthesized at its own order, below and above 64."""
    specs = tmp_path / "specs.json"
    assert main(["sample", "--count", "2", "--seed", "5", "--out", str(specs)]) == 0
    capsys.readouterr()
    orders = []

    def recording(spec, order):
        orders.append(order)
        return synthesize_F(spec, order)

    monkeypatch.setattr(cli, "synthesize_F", recording)
    argv = ["radius", "--spec-file", str(specs), "--index", "1",
            "--criterion", "starlike", "--section"]
    assert main([*argv, "8"]) == 0
    assert orders == [8]
    capsys.readouterr()
    assert main([*argv, "70"]) == 0
    shown = capsys.readouterr().out
    spec = spec_from_seed(json.loads(specs.read_text())["specs"][1]["seed"], 3)
    res = criterion_radius(synthesize_F(spec, 70), Criterion.STARLIKENESS)
    expected = {"radius": res.radius, "witness_theta": res.witness.argmin_theta,
                "clamped": res.clamped}
    assert shown == json.dumps(expected) + "\n"
    assert orders == [8, 70]


def test_spec_file_single_atom_is_function_f0(tmp_path, capsys):
    """The spec file's single atom at x = 1 and --function f0 print the same
    line for section 60 on every criterion: both are f0 bit for bit."""
    specs = tmp_path / "f0.json"
    specs.write_text(json.dumps({"specs": [{"weights": [1.0], "points": [[1.0, 0.0]]}]}))
    for criterion in Criterion:
        argv = ["--section", "60", "--criterion", criterion.value]
        assert main(["radius", "--spec-file", str(specs), *argv]) == 0
        from_file = capsys.readouterr().out
        assert main(["radius", "--function", "f0", *argv]) == 0
        assert capsys.readouterr().out == from_file


def test_spec_file_atom_at_minus_one_stays_real_past_order_99(tmp_path, capsys):
    """The atom at -1 synthesizes real coefficients at section 120, so the
    real-coefficient mirror rule puts every witness angle in [0, pi]."""
    specs = tmp_path / "minus_one.json"
    specs.write_text(json.dumps({"specs": [{"weights": [1.0], "points": [[-1.0, 0.0]]}]}))
    for criterion in ("re-deriv", "convex", "starlike"):
        argv = ["radius", "--spec-file", str(specs), "--section", "120", "--criterion", criterion]
        assert main(argv) == 0
        theta = json.loads(capsys.readouterr().out)["witness_theta"]
        assert 0.0 <= theta <= math.pi, (criterion, theta)


def test_sample_usage_errors():
    for flag in (["--count", "0"], ["--atom-count", "0"], ["--seed", "-1"]):
        with pytest.raises(SystemExit) as err:
            main(["sample", *flag])
        assert err.value.code == 2


def test_sample_io_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "specs.json"
    code = main(["sample", "--count", "1", "--out", str(target)])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def test_plot_writes_svg_documents(tmp_path, capsys):
    code, payload = _run_json(
        capsys,
        ["plot", "--r", "0.3333333333333333,0.5", "--out", str(tmp_path)],
    )
    assert code == 0
    assert len(payload["written"]) == 2
    from xml.etree import ElementTree

    for name in payload["written"]:
        path = tmp_path / name.split("/")[-1]
        assert path.exists()
        root = ElementTree.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "800"
        tags = {child.tag.split("}")[-1] for child in root}
        assert "polyline" in tags
        assert "line" in tags


def test_plot_file_names_embed_radius(tmp_path, capsys):
    code, payload = _run_json(
        capsys, ["plot", "--r", "0.5", "--out", str(tmp_path)]
    )
    assert code == 0
    assert payload["written"][0].endswith("cube_kernel_r0.5.svg")


def test_plot_usage_errors(tmp_path):
    # each radius names one output file, so a repeated one is refused too
    for bad_r in ("1.5", "0.0", "abc", "0.5,,0.6", "0.5,0.5", "0.5,0.75,0.50"):
        with pytest.raises(SystemExit) as err:
            main(["plot", "--r", bad_r, "--out", str(tmp_path)])
        assert err.value.code == 2
    assert not any(tmp_path.iterdir())  # nothing is written
    # the figure curves have a fixed point count, so there is no --samples
    with pytest.raises(SystemExit) as err:
        main(["plot", "--samples", "64", "--out", str(tmp_path)])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_conjecture2_small(tmp_path):
    out = tmp_path / "scan.json"
    code = main(
        ["scan", "--target", "conjecture2", "--count", "2", "--sections", "2..4",
         "--seed", "3", "--grid", "256", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["counterexample_found"] is False
    assert payload["parameters"]["n_min"] == 2
    assert payload["parameters"]["n_max"] == 4


def test_scan_classical_small(capsys):
    code, payload = _run_json(
        capsys, ["scan", "--target", "classical", "--sections", "5..7"]
    )
    assert code == 0
    names = [item["name"] for item in payload["items"]]
    assert "classical_radius_n5" in names
    assert all(
        item["computed"] == 0.0
        for item in payload["items"]
        if item["name"].startswith("classical_violation")
    )


@pytest.mark.parametrize(
    "argv, grid, tol",
    [
        (["--target", "conjecture2", "--count", "1", "--sections", "2..3", "--tol", "1e-3",
          "--grid", "64"], 64, 1e-3),
        (["--target", "classical", "--sections", "5..5"], 2048, 1e-9),
        (["--target", "conjecture2", "--count", "1", "--sections", "2..3"], 512, 1e-7),
    ],
)
def test_scan_solver_flags_reach_report(capsys, argv, grid, tol):
    """--grid and --tol reach the conjecture2 scan; unset, each scan keeps its
    default (the classical scan's fixed settings)."""
    _code, payload = _run_json(capsys, ["scan", *argv])
    assert payload["parameters"]["grid"] == grid
    assert payload["parameters"]["tol"] == tol
    if "conjecture2" in argv:
        # no --seed or --atom-count: conjecture2_scan's defaults reach the report
        assert payload["seed"] == 11
        assert payload["parameters"]["atom_count"] == 3


def test_scan_exit_three_on_counterexample(tmp_path, capsys, monkeypatch):
    fake = VerificationReport(
        (VerificationItem("conjecture2_min_starlike_radius", 0.25),),
        seed=11,
        parameters={"counterexample_found": True},
        generator_name="test",
    )
    monkeypatch.setattr(cli, "conjecture2_scan", lambda **kw: fake)
    code = main(["scan", "--target", "conjecture2", "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "counterexample" in capsys.readouterr().err.lower()


def test_scan_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["scan"])  # --target is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "conjecture2", "--sections", "abc"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "conjecture2", "--sections", "1..5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "classical", "--sections", "3..9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "classical", "--sections", "9..3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "classical", "--grid", "8"])
    assert err.value.code == 2
    for tol in ("0", "nan", "inf"):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--target", "conjecture2", "--tol", tol])
        assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--target", "conjecture2", "--seed", "-1"])
    assert err.value.code == 2
    # the classical scan samples no specs and runs at fixed solver settings,
    # so neither the sampling flags nor --grid and --tol apply
    for flag in (["--count", "9"], ["--atom-count", "2"], ["--seed", "3"],
                 ["--grid", "64"], ["--tol", "1e-7"]):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--target", "classical", "--sections", "5..5", *flag])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--target", "classical", "--grid", "64"],
        ["radius", "--function", "f0", "--section", "2", "--criterion", "convex",
         "--spec-file", "x"],
        ["radius", "--function", "spec-file", "--section", "2", "--criterion", "convex"],
        ["radius", "--function", "f0", "--section", "2", "--criterion", "convex",
         "--index", "0"],
    ],
)
def test_handler_usage_errors_print_the_subcommand_usage(argv, capsys):
    """A usage error, whether argparse or a handler finds it, is reported by
    the subcommand's own parser, with its usage line."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: secradius {argv[0]} ")


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def test_readme_radius_example_matches_cli(capsys):
    """The line under README's radius example is what the command prints."""
    lines = README.read_text(encoding="utf-8").splitlines()
    command = "secradius radius --function f0 --section 2 --criterion re-deriv"
    shown = lines[lines.index(command) + 1]
    assert shown.startswith("# ")
    code, payload = _run_json(capsys, command.split()[1:])
    assert code == 0
    assert payload == json.loads(shown[2:])


def test_readme_report_schema_item_matches_library():
    """README's report-schema example shows the cube-kernel item as reported."""
    text = README.read_text(encoding="utf-8")
    block = text.split("### Report schema (version 1)")[1].split("```json\n")[1]
    example = json.loads(block.split("```")[0])
    assert example["items"] == [cli._item_payload(min_re_cube_kernel())]


def test_readme_library_tour_runs():
    """README's library tour runs as printed, its closing assertion included."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_parser_prog_and_subcommands():
    parser = build_parser()
    assert parser.prog == "secradius"


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_radius_known_f0_sections_agree_with_direct_library_use(capsys):
    for n, criterion in ((2, "re-deriv"), (3, "re-deriv")):
        code, payload = _run_json(
            capsys,
            ["radius", "--function", "f0", "--section", str(n), "--criterion", criterion],
        )
        assert code == 0
        direct = criterion_radius(f0(n), Criterion(criterion), 1e-9, 2048)
        assert payload["radius"] == direct.radius
        assert payload["witness_theta"] == direct.witness.argmin_theta


def test_radius_local_univalence(capsys):
    """s_2' = 1 + 3z vanishes at -1/3, so f0's section 2 is locally
    univalent exactly on |z| < 1/3."""
    code, payload = _run_json(
        capsys,
        ["radius", "--function", "f0", "--section", "2",
         "--criterion", "local-univalence"],
    )
    assert code == 0
    assert 1.0 / 3.0 - 5e-6 <= payload["radius"] <= 1.0 / 3.0
    assert payload["clamped"] is False
    assert payload["witness_theta"] is None
