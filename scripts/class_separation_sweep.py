"""Measure how much smaller the expectation-class harmless set is.

Sweeps a square grid of reports around a true type and classifies each
against the deterministic family and against randomized (expectation)
mechanisms over the full simplex. Every grid point the two classes disagree
on is deterministic-safe but exploitable by a randomized rule; the script
prints the counts and a few disagreeing reports with their certifying rules.
"""

import argparse
from fractions import Fraction

from mechverify.geometry import Vector, frac, vec
from mechverify.harmless import (
    SimplexFamily,
    deterministic_harmless,
    tie_harmless_contains,
)
from mechverify.mechanisms import point_masses
from mechverify.oracle import construct_tie_witness


def sweep(theta: Vector, radius: Fraction, steps: int, show: int) -> None:
    det = deterministic_harmless(theta, point_masses(theta.dim))
    step = 2 * radius / steps
    counts = {"both": 0, "det_only": 0, "neither": 0}
    shown = 0
    # Vary the two highest coordinates, keep the rest at theta.
    for a in range(steps + 1):
        for b in range(steps + 1):
            coords = list(theta.coords)
            coords[-2] = theta[-2] - radius + step * a
            coords[-1] = theta[-1] - radius + step * b
            x = vec(*coords)
            in_det = det.contains(x)
            in_tie = tie_harmless_contains(theta, x, SimplexFamily.FULL_SIMPLEX)
            if in_tie:
                counts["both"] += 1
            elif in_det:
                counts["det_only"] += 1
                if shown < show:
                    witness = construct_tie_witness(
                        theta, x, SimplexFamily.FULL_SIMPLEX
                    )
                    print(
                        f"  deterministic-safe but randomized-exploitable: {x.coords}"
                        f" (gains {witness.gained_value} over {witness.truthful_value})"
                    )
                    shown += 1
            else:
                counts["neither"] += 1
    total = (steps + 1) ** 2
    print(f"true type {theta.coords}, {total} grid reports:")
    print(f"  harmless for both classes:        {counts['both']}")
    print(f"  deterministic-only harmless:      {counts['det_only']}")
    print(f"  harmless for neither:             {counts['neither']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", default="1,2,4", help="true type, comma-separated")
    parser.add_argument("--radius", default="2", help="sweep half-width")
    parser.add_argument("--steps", type=int, default=40, help="grid steps per axis")
    parser.add_argument("--show", type=int, default=3, help="examples to print")
    args = parser.parse_args()
    theta = vec(*(frac(t) for t in args.theta.split(",")))
    sweep(theta, frac(args.radius), args.steps, args.show)


if __name__ == "__main__":
    main()
