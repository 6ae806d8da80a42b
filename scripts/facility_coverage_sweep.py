"""Which verification sets keep a two-facility assignment truthful, where.

Sweeps agent positions along the line and reports, for each subset of the
two positional verifications, whether every helpful misreport is blocked.
Each cell is an exact decision, not a sample, made by the four closed-form
cases of facility_first_uncovered: "covered", or the smallest decisive probe
that is helpful and unblocked.
The expected picture: agents outside both facilities need no verification at
all, agents strictly between them need both.
"""

import argparse

from mechverify.geometry import frac
from mechverify.scenarios import (
    FacilityLine,
    VerificationKind,
    facility_first_uncovered,
)

SUBSETS = (
    ((), "none"),
    ((VerificationKind.NO_UNDERBID_DISTANCE,), "distance"),
    ((VerificationKind.DIRECTION_IMPOSING,), "direction"),
    (
        (VerificationKind.NO_UNDERBID_DISTANCE, VerificationKind.DIRECTION_IMPOSING),
        "both",
    ),
)


def sweep(line: FacilityLine, steps: int) -> None:
    left, right = line.locations
    margin = line.span
    step = (line.span + 2 * margin) / steps
    header = f"{'position':>10} " + " ".join(f"{label:>10}" for _, label in SUBSETS)
    print(header)
    for k in range(steps + 1):
        z = left - margin + step * k
        cells = []
        for kinds, _ in SUBSETS:
            uncovered = facility_first_uncovered(z, line, kinds)
            cells.append("covered" if uncovered is None else str(uncovered))
        print(f"{str(z):>10} " + " ".join(f"{c:>10}" for c in cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--facilities", default="0,2", help="two locations, sorted")
    parser.add_argument("--benefit", default="4", help="value of being served")
    parser.add_argument("--steps", type=int, default=12, help="positions to sweep")
    args = parser.parse_args()
    g1, g2 = (frac(t) for t in args.facilities.split(","))
    line = FacilityLine((g1, g2), frac(args.benefit))
    sweep(line, args.steps)


if __name__ == "__main__":
    main()
