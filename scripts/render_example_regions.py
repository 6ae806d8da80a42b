"""Run every scenario file in a directory and render what can be rendered.

Writes one result document per scenario, a witness listing when any query
fails membership, and an SVG region plot whenever the result carries a
region. Output files land next to each other in the chosen directory, named
after the scenario.
"""

import argparse
from pathlib import Path

from mechverify.cli import (
    load_scenario,
    render_regions,
    run_scenario,
    serialize_result,
    serialize_witnesses,
)


def render_all(scenario_dir: Path, out_dir: Path, axes: tuple[int, int]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(scenario_dir.glob("*.scn")):
        scenario = load_scenario(path)
        document = run_scenario(scenario)
        base = out_dir / scenario.name
        base.with_suffix(".result").write_text(serialize_result(document))
        pieces = [f"{scenario.name}: {len(document.queries)} queries"]
        if document.witnesses:
            base.with_suffix(".witnesses").write_text(serialize_witnesses(document))
            pieces.append(f"{len(document.witnesses)} witnesses")
        if document.region is not None:
            plot_axes = axes
            if max(axes) >= document.anchor.dim:
                plot_axes = (0, document.anchor.dim - 1) if document.anchor.dim > 1 else None
            if plot_axes is not None:
                base.with_suffix(".svg").write_text(render_regions(document, plot_axes))
                pieces.append(f"plot on axes {plot_axes}")
        print(", ".join(pieces))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenarios", default="scenarios", help="directory of .scn files"
    )
    parser.add_argument("--out", default="out/regions", help="output directory")
    parser.add_argument(
        "--axes", default="1,2", help="comma-separated type coordinates to plot"
    )
    args = parser.parse_args()
    i, j = (int(t) for t in args.axes.split(","))
    render_all(Path(args.scenarios), Path(args.out), (i, j))


if __name__ == "__main__":
    main()
