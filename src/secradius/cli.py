"""Command-line front end: verification reports, radii, samples, figures.

Subcommands
-----------
verify   run the constant checks, sharpness witnesses, and the randomized
         positive-derivative suite; emit a JSON report (exit 0 iff all pass)
radius   print the radius of one criterion for one section as a JSON line
sample   draw reproducible Herglotz specs and write them as a JSON file
plot     render image-of-disc boundary curves of the cube kernel as SVG
scan     run the advisory starlikeness scans (exit 3 flags a candidate
         counterexample, with the witness recorded in the report)

Machine-readable JSON goes to standard output (or ``--out``); everything
meant for humans goes to the error stream.  Exit codes: 0 success, 1
runtime or I/O failure (or failed verification), 2 usage error, 3 candidate
counterexample from ``scan``.  A spec file is checked here only for its JSON
shape; the library types decide its numbers, and an error names the entry.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .exceptions import SecradiusError, ValidationError
from .radius import Criterion, criterion_radius
from .series import TruncatedSeries, _numbers, section
from .verify import (
    VerificationReport,
    classical_radius_scan,
    conjecture2_scan,
    figure1_curves,
    full_suite,
)
from .zoo import GENERATOR_NAME, HerglotzSpec, f0, half_plane, koebe, sample_specs, synthesize_F

__all__ = ["main", "build_parser"]

_SECTIONS_RE = re.compile(r"^(\d+)\.\.(\d+)$")
_SVG_SIZE = 800  # viewport width and height in pixels
_SVG_MARGIN_FRAC = 0.05  # blank margin on each side, as a share of the viewport
# --function choices; spec-file has no builder, its series comes from --spec-file
_FUNCTIONS = {"f0": f0, "koebe": koebe, "half-plane": half_plane, "spec-file": None}


def _at_least(kind, least):
    """Flag type: a ``kind`` value with ``least <= value < inf``."""

    def number(text: str):  # the name shows in "invalid number value: ..."
        value = kind(text)
        if not least <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and at least {least}, got {text!r}")
        return value

    return number


def _section_range(text: str) -> tuple[int, int]:
    """``--sections`` type: the inclusive range a..b as ``(a, b)``."""
    match = _SECTIONS_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expects the form a..b, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range is empty: {text!r}")
    return lo, hi


def _radii(text: str) -> list[float]:
    """``plot --r`` type: comma-separated radii, each in (0, 1)."""
    radii = [float(chunk) for chunk in text.split(",")]
    if not all(0.0 < r < 1.0 for r in radii):
        raise argparse.ArgumentTypeError(f"each radius must lie in (0, 1), got {text!r}")
    return radii


def _item_payload(item) -> dict:
    witness = None
    if item.witness is not None:
        witness = {"r": item.witness[0], "theta": item.witness[1]}
    return {
        "name": item.name,
        "expected": item.expected,
        "computed": item.computed,
        "tolerance": item.tolerance,
        "pass": item.passed,
        "witness": witness,
    }


def _payload(seed, generator_name: str, parameters: dict, **body) -> dict:
    """Schema-v1 document: the header, then ``body``, then the timestamp."""
    return {
        "schema_version": "1",
        "seed": seed,
        "generator_name": generator_name,
        "parameters": parameters,
        **body,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _report_payload(report: VerificationReport) -> dict:
    items = [_item_payload(item) for item in report.items]
    return _payload(report.seed, report.generator_name, report.parameters, items=items)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)


def _library_kwargs(args, *keys: str) -> dict:
    """Library keyword arguments for the flags the user set.

    Every flag that maps to a library keyword stores under that keyword's
    name and defaults to None, so an unset flag leaves the library's own
    default in force.
    """
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _load_spec_file(path: str, index: int) -> HerglotzSpec:
    """Entry ``index`` of a spec file.  Only the JSON shape is checked here;
    the numbers and the spec's invariants are HerglotzSpec's, and every error
    names the entry and the entry count."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    specs = data.get("specs") if isinstance(data, dict) else data
    if not isinstance(specs, list):
        raise ValidationError(f"{path} holds no list of spec entries")
    count = f"entries in {path}: {len(specs)}"
    if index >= len(specs):
        raise ValidationError(f"--index {index} is out of range; {count}")
    entry = specs[index]
    if not isinstance(entry, dict):
        raise ValidationError(f"spec entry {index} is not an object; {count}")
    for key in ("weights", "points"):
        if key not in entry:
            raise ValidationError(f"spec entry {index} has no {key!r}; {count}")
    try:
        xy = _numbers(entry["points"], np.float64, "points")
        if xy.size and xy.shape[1:] != (2,):  # no points at all is HerglotzSpec's error
            raise ValidationError("points must be [re, im] number pairs")
        return HerglotzSpec(entry["weights"], xy.view(np.complex128).ravel(), entry.get("seed"))
    except ValidationError as exc:
        raise ValidationError(f"spec entry {index}: {exc}; {count}") from exc


def _section_series(args, parser: argparse.ArgumentParser) -> TruncatedSeries:
    n = args.section
    build = _FUNCTIONS[args.function]
    if build is not None:
        if args.spec_file is not None or args.index is not None:
            parser.error("--spec-file and --index need --function spec-file")
        return build(n)
    if args.spec_file is None:
        parser.error("--function spec-file requires --spec-file")
    spec = _load_spec_file(args.spec_file, args.index or 0)
    return section(synthesize_F(spec, order=max(n, 64)), n)


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    report = full_suite(
        **_library_kwargs(args, "count", "atom_count", "n_max", "seed", "tol")
    )
    _emit(_report_payload(report), args.out)
    if not report.passed:
        failing = [item.name for item in report.items if not item.passed]
        print(f"failed items: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_radius(args, parser: argparse.ArgumentParser) -> int:
    s = _section_series(args, parser)
    res = criterion_radius(s, args.criterion, **_library_kwargs(args, "tol", "grid_size"))
    theta = res.witness.argmin_theta if res.witness is not None else None
    print(
        json.dumps({"radius": res.radius, "witness_theta": theta, "clamped": res.clamped})
    )
    return 0


def _cmd_sample(args, parser: argparse.ArgumentParser) -> int:
    specs = [
        {
            "weights": [float(w) for w in spec.weights],
            "points": [[float(p.real), float(p.imag)] for p in spec.points],
            "seed": spec.seed,
        }
        for spec in sample_specs(args.count, args.atom_count, args.seed)
    ]
    parameters = {"count": args.count, "atom_count": args.atom_count}
    _emit(_payload(args.seed, GENERATOR_NAME, parameters, specs=specs), args.out)
    return 0


def _svg_document(points) -> str:
    """SVG 1.1 document: the curve as a polyline, axes through w = 0.

    The bounding box is the curve united with the origin, scaled uniformly
    (no aspect distortion) to fit the viewport minus a margin on each side.
    """
    size = _SVG_SIZE
    xs = points.real
    ys = points.imag
    xmin, xmax = min(float(xs.min()), 0.0), max(float(xs.max()), 0.0)
    ymin, ymax = min(float(ys.min()), 0.0), max(float(ys.max()), 0.0)
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    margin = _SVG_MARGIN_FRAC * size
    scale = (size - 2.0 * margin) / span
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)

    def px(x: float) -> float:
        return 0.5 * size + (x - cx) * scale

    def py(y: float) -> float:
        return 0.5 * size - (y - cy) * scale

    coords = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(xs, ys))
    ax, ay = px(0.0), py(0.0)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f'  <rect width="{size}" height="{size}" fill="white"/>\n'
        f'  <line x1="{ax:.3f}" y1="0" x2="{ax:.3f}" y2="{size}" '
        'stroke="#999999" stroke-width="1"/>\n'
        f'  <line x1="0" y1="{ay:.3f}" x2="{size}" y2="{ay:.3f}" '
        'stroke="#999999" stroke-width="1"/>\n'
        f'  <polyline points="{coords}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>\n'
        "</svg>\n"
    )


def _cmd_plot(args, parser: argparse.ArgumentParser) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for r in args.r:
        curve = figure1_curves(r, **_library_kwargs(args, "samples"))
        path = outdir / f"cube_kernel_r{r!r}.svg"
        path.write_text(_svg_document(curve), encoding="utf-8")
        written.append(str(path))
        print(f"wrote {path}", file=sys.stderr)
    print(json.dumps({"written": written}))
    return 0


def _cmd_scan(args, parser: argparse.ArgumentParser) -> int:
    kwargs = _library_kwargs(args, "grid", "tol")
    if args.sections is not None:
        kwargs["n_min"], kwargs["n_max"] = args.sections
    n_min = kwargs.get("n_min")
    sampling = _library_kwargs(args, "count", "atom_count", "seed")
    if args.target == "conjecture2":
        if n_min is not None and n_min < 2:
            parser.error("conjecture2 sections start at n = 2")
        report = conjecture2_scan(**kwargs, **sampling)
        found = bool(report.parameters["counterexample_found"])
    else:
        if n_min is not None and n_min < 5:
            parser.error("the classical threshold is stated for n >= 5")
        if sampling:
            parser.error("--count, --atom-count and --seed need --target conjecture2")
        report = classical_radius_scan(**kwargs)
        found = not report.passed
    _emit(_report_payload(report), args.out)
    if found:
        print("candidate counterexample found; witness in report", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secradius",
        description="Radius problems for sections of a curvature-bounded "
        "family of analytic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--out", help="report path (default: standard output)")
    p.add_argument("--tol", type=_at_least(float, 1e-12), help="radius tolerance")
    p.add_argument("--count", type=_at_least(int, 1), help="sampled spec count")
    p.add_argument("--atom-count", type=_at_least(int, 1), help="atoms per spec")
    p.add_argument("--n-max", type=_at_least(int, 2), help="largest section order")
    p.add_argument("--seed", type=_at_least(int, 0), help="sampling seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("radius", help="radius of one criterion for one section")
    p.add_argument(
        "--function",
        required=True,
        choices=list(_FUNCTIONS),
        help="which function to truncate",
    )
    p.add_argument("--section", type=_at_least(int, 1), required=True, help="section order n")
    p.add_argument(
        "--criterion",
        required=True,
        choices=[c.value for c in Criterion],
        help="geometric property to measure",
    )
    p.add_argument("--spec-file", help="JSON spec file (for --function spec-file)")
    p.add_argument("--index", type=_at_least(int, 0), help="spec index in the file (default 0)")
    p.add_argument("--tol", type=_at_least(float, 1e-12), help="radius tolerance")
    p.add_argument(
        "--grid", type=_at_least(int, 16), dest="grid_size", help="boundary grid size"
    )
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("sample", help="draw reproducible Herglotz specs")
    p.add_argument("--count", type=_at_least(int, 1), default=10, help="number of specs")
    p.add_argument("--atom-count", type=_at_least(int, 1), default=3, help="atoms per spec")
    p.add_argument("--seed", type=_at_least(int, 0), default=0, help="sampling seed")
    p.add_argument("--out", help="spec file path (default: standard output)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("plot", help="render image-of-disc curves as SVG")
    p.add_argument(
        "--r",
        type=_radii,
        default="0.3333333333333333,0.5,0.75,0.8",
        help="comma-separated radii in (0, 1)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--samples", type=_at_least(int, 8), help="points per curve")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("scan", help="advisory starlikeness scans")
    p.add_argument(
        "--target",
        required=True,
        choices=["conjecture2", "classical"],
        help="which scan to run",
    )
    p.add_argument("--count", type=_at_least(int, 1), help="sampled spec count (conjecture2)")
    p.add_argument("--atom-count", type=_at_least(int, 1), help="atoms per spec (conjecture2)")
    p.add_argument("--sections", type=_section_range, help="inclusive section range a..b")
    p.add_argument("--seed", type=_at_least(int, 0), help="sampling seed (conjecture2)")
    p.add_argument("--grid", type=_at_least(int, 16), help="boundary grid size")
    p.add_argument("--tol", type=_at_least(float, 1e-12), help="radius tolerance")
    p.add_argument("--out", help="report path (default: standard output)")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except (SecradiusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
