"""
Grid scans: numerical sign checks for Turán determinants
========================================================

The scanner evaluates Delta_1..Delta_n_max on a uniform + Chebyshev grid in
double precision and reports the per-degree minimum; minima inside a
near-zero band get an extended-precision recheck before being called
negative.
"""
from fractions import Fraction

from turandet import chebyshev_t, example3, grid_scan, table_family

# Chebyshev T has Delta_n = 1 - x^2 after normalization: nonnegative, with
# the minimum exactly 0 at the endpoints.
rep = grid_scan(chebyshev_t(), 30)
print("T scan: all nonnegative =", rep.all_nonnegative,
      f"(grid {rep.grid.points} points)")
e = rep.entry(7)
print(f"  n=7 minimum {e.min_value:.3e} at x = {e.argmin_x}")

# A certified family scans clean as well — this is the numerical shadow of
# the exact criteria in demo 02.
rep3 = grid_scan(example3(3), 100)
worst = min(x.min_value for x in rep3.per_n)
print("\nshifted-harmonic family, n <= 100: all nonnegative =",
      rep3.all_nonnegative, f"(worst grid min {worst:.3e})")

# Negative control. Rescaling T_n by 2^{n^2} folds the scaling into the
# recurrence coefficients; the rescaled determinant at n=1 is -28x^2 + 16,
# which dips to -12 at the endpoints.
fam = table_family([0, 1, 4], [Fraction(1, 2), Fraction(1, 16), Fraction(1, 256)])
neg = grid_scan(fam, 1, grid_points=101, normalized=False)
print("\nrescaled-T control: all nonnegative =", neg.all_nonnegative,
      "| min =", neg.entry(1).min_value, "at x =", neg.entry(1).argmin_x)

# Reports stream as CSV rows for plotting or diffing.
print("\nCSV head:")
for i, row in enumerate(rep3.csv_rows()):
    print("  ", ",".join(str(c) for c in row))
    if i == 4:
        break
