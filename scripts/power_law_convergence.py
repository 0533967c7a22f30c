#!/usr/bin/env python3
"""Convergence of power-law chain coefficients toward the universal tail.

For a family of exponents s, prints how fast alpha_n and beta_n approach
the Szego limits (support midpoint and (span/2)^2/4), plus the weak moment
gaps between the residual densities and the Wigner terminal density.

    python scripts/power_law_convergence.py --s 0.5 1 2 --sites 40
    python scripts/power_law_convergence.py --csv deviations.csv
"""

import argparse
import csv

import chaincast as cc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--omega-c", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=0.0)
    ap.add_argument("--sites", type=int, default=40)
    ap.add_argument("--residual-orders", type=int, default=4)
    ap.add_argument("--csv", default=None, help="write per-site deviations")
    args = ap.parse_args()

    rows = []
    for s in args.s:
        j = cc.power_law_sd(s, args.alpha, args.omega_c)
        rep = cc.convergence_report(j, args.q, args.sites,
                                    residual_orders=args.residual_orders)
        print(f"\ns = {s}  (q = {args.q}, {args.sites} sites)  "
              f"szego: {rep.szego}")
        print(f"  limits: alpha_inf = {rep.alpha_limit:.6g}, "
              f"beta_inf = {rep.beta_limit:.6g}")
        for n in (0, 1, 5, 10, 20, args.sites - 1):
            if n < len(rep.alpha_deviation):
                print(f"  n = {n:3d}: |alpha - alpha_inf| = "
                      f"{rep.alpha_deviation[n]:.3e}")
        if rep.terminal_moment_gap:
            agg = rep.gap_aggregate(4)
            gaps = ", ".join(f"{g:.2e}" for g in agg)
            print(f"  moment gap to terminal density (max over k <= 4), "
                  f"n = 1..{len(agg)}: {gaps}")
        for n in range(rep.chain.sites):
            rows.append({"s": s, "n": n, "alpha": rep.chain.alpha[n],
                         "beta": rep.chain.beta[n],
                         "alpha_deviation": rep.alpha_deviation[n]})

    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
