/* The map cores of _kernels.py in C, statement for statement; one orbit
 * loop per map, which iterates them as dynamics.step_state does; the bin
 * search of the k = 1 engine over whole sets of 16 values, which returns
 * numpy's searchsorted indices; and the cell grid of the k >= 2 engine:
 * its counting sort, gather and cell moments (numpy takes its shape and
 * each cell's box and size) and its shell moments, which add in the order
 * of _kernels._moments' np.bincount passes.
 *
 * Built with -O2 -ffp-contract=off -fno-fast-math, so every double operation
 * is rounded as in CPython and no multiply-add is fused; sin and exp are the
 * libm functions CPython's math module calls.  The loops are therefore
 * bitwise equal to step_state iterated, and the grid's moments equal the
 * numpy passes' bit for bit.  Why the grid's counts are exact is in the
 * docstring of predictability.py.  The orbit loops only iterate:
 * dynamics.trajectory checks the start and reduces its angles, and from a
 * skew-product start it accepts no step divides by zero, overflows an exp
 * or takes the sine of an infinity.
 */

#include <math.h>
#include <stdint.h>

static const double PI = 3.141592653589793;
static const double TWO_PI = 2.0 * 3.141592653589793;
static const double G_AMPLITUDE = 1.0 / 100.0;

/* float.__mod__ for a positive period: fmod keeps the sign of x; -0.0 + 0.0 is +0.0. */
static double py_mod(double x, double period)
{
    double m = fmod(x, period);
    return m < 0.0 ? m + period : m + 0.0;
}

static double smooth_step(double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    double a = exp(-1.0 / x);
    double b = exp(-1.0 / (1.0 - x));
    return a / (a + b);
}

static double r_core(double r, double kappa)
{
    double omr = 1.0 - r;
    return r + kappa * r * omr * omr * omr / (1.0 + r * r * r * r);
}

static double theta_core(double phi)
{
    double s = sin(phi);
    return s * s;
}

static double eta_core(double r)
{
    double lo = smooth_step((0.5 - r) * 4.0);
    double hi = smooth_step(r - 1.5);
    double out = 1.0;
    if (lo > 0.0)
        out *= exp(-lo / r);
    if (hi > 0.0)
        out *= exp(-hi * r);
    return out;
}

static double phi_core(double r, double phi, double kappa)
{
    double omr = 1.0 - r;
    return phi + kappa * theta_core(phi) + omr * omr * eta_core(r);
}

static double angle_dist_core(double phi, double target)
{
    double d = py_mod(fabs(phi - target), TWO_PI);
    if (d > PI)
        d = TWO_PI - d;
    return d;
}

static double bump_core(double r, double phi, double delta, double target)
{
    double fr = smooth_step(2.0 - fabs(1.0 - r) / delta);
    double fa = smooth_step(2.0 - angle_dist_core(phi, target) / delta);
    return fr * fa;
}

static double fiber_core(double r, double phi, double t, double delta, double alpha)
{
    double lam = bump_core(r, phi, delta, 0.0);
    double rho = bump_core(r, phi, delta, PI);
    double s = sin(PI * t);
    return py_mod(t + lam * G_AMPLITUDE * s * s + rho * alpha, 1.0);
}

/* Each loop fills the rows of a C-ordered (state_dim, n) block at out from a
 * start that dynamics.trajectory has checked, its angles already reduced.
 * Step i runs from -burn_in to n - 1 and first stores the state when i >= 0. */

void skew_orbit(double r0, double phi0, double t0, double kappa, double delta, double alpha,
                int64_t n, int64_t burn_in, double *out)
{
    double *rs = out, *ps = out + n, *ts = out + 2 * n;
    double r = r0, phi = phi0, t = t0, tn;
    for (int64_t i = -burn_in; i < n; i++) {
        if (i >= 0) {
            rs[i] = r;
            ps[i] = phi;
            ts[i] = t;
        }
        tn = fiber_core(r, phi, t, delta, alpha);
        phi = py_mod(phi_core(r, phi, kappa), TWO_PI);
        r = r_core(r, kappa);
        t = tn;
    }
}

/* 0, or the index of the first iterate before burn_in + n that is not
 * finite, counted from the start; the block holds the stored states up to it. */
int64_t henon_orbit(double x0, double y0, double a, double b, int64_t n, int64_t burn_in,
                    double *out)
{
    double *xs = out, *ys = out + n;
    double x = x0, y = y0, xn;
    for (int64_t i = -burn_in; i < n; i++) {
        if (i >= 0) {
            xs[i] = x;
            ys[i] = y;
        }
        xn = 1.0 - a * x * x + y;
        y = b * x;
        x = xn;
        if (!(isfinite(x) && isfinite(y)) && i + 1 < n)
            return burn_in + i + 1;
    }
    return 0;
}

/* Bins of the first n - n % LANES values against m >= 1 sorted, NaN-free
 * cuts; returns that count.  out[i] counts the cuts c with !(x[i] < c),
 * which is cuts.searchsorted(x, side="right"), a NaN value landing after
 * every cut.  A branchless binary search is a chain of dependent loads, so
 * LANES searches advance in lockstep and their loads overlap; all lanes
 * share the same sequence of halvings. */
#define LANES 16

static void bin_lanes(const double *cuts, int64_t m, const double *x, int64_t *out)
{
    const double *base[LANES];
    double v[LANES];
    for (int j = 0; j < LANES; j++) {
        base[j] = cuts;
        v[j] = x[j];
    }
    for (int64_t len = m; len > 1; len -= len / 2) {
        int64_t half = len / 2;
        for (int j = 0; j < LANES; j++)
            base[j] = v[j] < base[j][half] ? base[j] : base[j] + half;
    }
    for (int j = 0; j < LANES; j++)
        out[j] = (base[j] - cuts) + !(v[j] < *base[j]);
}

int64_t bin_right(const double *cuts, int64_t m, const double *x, int64_t n, int64_t *out)
{
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        bin_lanes(cuts, m, x + i, out + i);
    return i;
}

/* The cell grid of the k >= 2 engine over n < 2^31 points whose k
 * coordinates are the rows of the C-ordered (n, k) block pred.  Along an
 * axis d with side[d] > 1 a point lies in cell (x_d - lo[d]) * scale[d],
 * cut to side[d] - 1 and truncated, along any other axis in cell 0; its
 * dense cell is the row-major index of those cells.  A point with a
 * coordinate that is not finite is in no cell: its squared distance to a
 * finite y is inf or NaN, below no cut. */
static int64_t dense_cell(const double *x, int64_t k, const double *lo, const double *scale,
                          const int64_t *side)
{
    int64_t cell = 0;
    for (int64_t d = 0; d < k; d++)
        if (!isfinite(x[d]))
            return -1;
    for (int64_t d = 0; d < k; d++) {
        double t = (x[d] - lo[d]) * scale[d], last = (double)(side[d] - 1);
        cell = cell * side[d] + (side[d] > 1 ? (int64_t)(t < last ? t : last) : 0);
    }
    return cell;
}

/* Counts the points of each of the cells dense cells into count; returns
 * the number of occupied cells, and the number of points in cells in
 * *points. */
int64_t grid_count(const double *pred, int64_t n, int64_t k, const double *lo,
                   const double *scale, const int64_t *side, int64_t cells, int32_t *count,
                   int64_t *points)
{
    int64_t occupied = 0, m = 0;
    for (int64_t c = 0; c < cells; c++)
        count[c] = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = dense_cell(pred + i * k, k, lo, scale, side);
        if (c >= 0) {
            occupied += !count[c]++;
            m++;
        }
    }
    *points = m;
    return occupied;
}

/* Sorts the m points in cells into the occupied cells, taken in dense
 * order, by a stable counting sort over grid_count's count (overwritten):
 * cols gets the C-ordered (k, m) block of their coordinates in run order,
 * index order within a cell, order their indices, and start (occupied + 1)
 * the offset of each cell's run.  Per cell, adding in run order as
 * np.bincount does: mean the sums of the successors, the rows of the
 * C-ordered (n, k) block succ, over the cell's size, and m2 = 0 + q_0 +
 * q_1 + ..., q_d the sum of (succ_d - mean_d)^2.  _kernels._cell_grid
 * takes each cell's tight box and size from cols and start. */
void grid_fill(const double *pred, const double *succ, int64_t n, int64_t k, const double *lo,
               const double *scale, const int64_t *side, int64_t cells, int32_t *count,
               int64_t occupied, int64_t m, double *cols, int32_t *order, int64_t *start,
               double *mean, double *m2)
{
    int64_t end = 0, j = 0;
    for (int64_t c = 0; c < cells; c++)
        if (count[c]) {
            start[j++] = end;
            end += count[c];
            count[c] = (int32_t)end;  /* one past the cell's run; the sort fills it backwards */
        }
    start[occupied] = end;
    for (int64_t i = n - 1; i >= 0; i--) {
        int64_t c = dense_cell(pred + i * k, k, lo, scale, side);
        if (c >= 0)
            order[--count[c]] = (int32_t)i;
    }
    for (int64_t p = 0; p < m; p++)
        for (int64_t d = 0; d < k; d++)
            cols[d * m + p] = pred[order[p] * k + d];
    for (j = 0; j < occupied; j++) {
        int64_t a = start[j], b = start[j + 1];
        double *mu = mean + j * k, q[k];
        for (int64_t d = 0; d < k; d++)
            mu[d] = q[d] = 0.0;
        for (int64_t p = a; p < b; p++)
            for (int64_t d = 0; d < k; d++)
                mu[d] += succ[order[p] * k + d];
        for (int64_t d = 0; d < k; d++)
            mu[d] /= (double)(b - a);
        for (int64_t p = a; p < b; p++)
            for (int64_t d = 0; d < k; d++) {
                double t = succ[order[p] * k + d] - mu[d];
                q[d] += t * t;
            }
        m2[j] = 0.0;
        for (int64_t d = 0; d < k; d++)
            m2[j] += q[d];
    }
}

/* The squared distance ((x_0 - y_0)^2 + (x_1 - y_1)^2) + ... from y of
 * point p of a grid's (k, m) block cols. */
static double point_square(const double *cols, int64_t m, int64_t k, int64_t p, const double *y)
{
    double t = cols[p] - y[0], s = t * t;
    for (int64_t d = 1; d < k; d++) {
        t = cols[d * m + p] - y[d];
        s += t * t;
    }
    return s;
}

/* The number of the levels non-increasing cuts that s is below, counted
 * from slot, a number that s is known to be below at least: 0 outside the
 * top ball, else one more than the shell of s, the deepest level whose
 * ball holds it. */
static int32_t slot_of(double s, const double *cuts, int64_t levels, int32_t slot)
{
    while (slot < levels && s < cuts[slot])
        slot++;
    return slot;
}

/* Per-shell moments of the successors near each of the refs references in
 * ys (C-ordered (refs, k)), over a _kernels._cell_grid grid of occupied
 * cells and m points, against levels non-increasing cuts.
 *
 * A point's squared distance is s, as point_square sums it; s lies between
 * dmin and dmax, the sums of the same form over the nearest and farthest
 * coordinates of its cell's tight box (predictability.py's docstring says
 * why).  A cell with dmin >= cuts[0] is skipped; a cell whose dmin and
 * dmax lie in one shell is whole, and its cached moments join that shell;
 * every other cell is scanned point by point.  Per reference, out gets two
 * parts, the whole cells' and the scanned points', each of count
 * (levels + 1), m2 (levels + 1), mean (levels + 1, k) and q (levels + 1, k)
 * indexed by slot_of, so that slot 0 gathers the scanned points outside
 * the top ball and is discarded.  Each part adds in cell order, a cell's
 * points in run order:
 * - whole: count = sum of total, mean = sum of total * mean over
 *   max(count, 1), m2 = (sum of the cells' m2) + q_0 + q_1 + ..., q_d the
 *   sum of (mean_cd - mean_d)^2 * total_c;
 * - scanned: count, mean and m2 = 0 + q_0 + q_1 + ... of the successors,
 *   as grid_fill takes a cell's.
 * kind holds one int32 per cell: its slot when whole, 0 when skipped and
 * -1 - (the slot of dmax) when scanned; the second pass scans those cells
 * again. */
void grid_shells(const double *cols, const int32_t *order, const double *succ, int64_t m,
                 int64_t k, const int64_t *start, const double *box, const double *total,
                 const double *mean, const double *m2, int64_t occupied, const double *ys,
                 int64_t refs, const double *cuts, int64_t levels, int32_t *kind, double *out)
{
    const double *lo = box, *hi = box + k * occupied;
    int64_t slots = levels + 1, size = 2 * (2 + 2 * k) * slots;
    for (int64_t r = 0; r < refs; r++) {
        const double *y = ys + r * k;
        double *wc = out + r * size, *wm2 = wc + slots, *wmean = wm2 + slots;
        double *wq = wmean + slots * k, *sc = wq + slots * k, *sm2 = sc + slots;
        double *smean = sm2 + slots, *sq = smean + slots * k;
        for (int64_t j = 0; j < size; j++)
            wc[j] = 0.0;
        for (int64_t c = 0; c < occupied; c++) {
            double a = lo[c] - y[0], b = hi[c] - y[0];
            double near = a > -b ? a : -b, far = -a > b ? -a : b;
            near = near > 0.0 ? near : 0.0;
            double dmin = near * near, dmax = far * far;
            for (int64_t d = 1; d < k; d++) {
                a = lo[d * occupied + c] - y[d];
                b = hi[d * occupied + c] - y[d];
                near = a > -b ? a : -b;
                near = near > 0.0 ? near : 0.0;
                far = -a > b ? -a : b;
                dmin += near * near;
                dmax += far * far;
            }
            int32_t slot = slot_of(dmin, cuts, levels, 0);
            kind[c] = slot;
            if (!slot)
                continue;
            if (dmax < cuts[slot - 1]) {
                wc[slot] += total[c];
                wm2[slot] += m2[c];
                for (int64_t d = 0; d < k; d++)
                    wmean[slot * k + d] += total[c] * mean[c * k + d];
                continue;
            }
            slot = slot_of(dmax, cuts, levels, 0);  /* every point's slot is at least dmax's */
            kind[c] = -1 - slot;
            for (int64_t p = start[c]; p < start[c + 1]; p++) {
                int32_t i = slot_of(point_square(cols, m, k, p, y), cuts, levels, slot);
                sc[i] += 1.0;
                for (int64_t d = 0; d < k; d++)
                    smean[i * k + d] += succ[order[p] * k + d];
            }
        }
        for (int64_t j = 0; j < slots * k; j++) {
            wmean[j] /= wc[j / k] < 1.0 ? 1.0 : wc[j / k];
            smean[j] /= sc[j / k] < 1.0 ? 1.0 : sc[j / k];
        }
        for (int64_t c = 0; c < occupied; c++) {
            int32_t slot = kind[c];
            if (slot > 0)
                for (int64_t d = 0; d < k; d++) {
                    double t = mean[c * k + d] - wmean[slot * k + d];
                    wq[slot * k + d] += t * t * total[c];
                }
            else if (slot < 0)
                for (int64_t p = start[c]; p < start[c + 1]; p++) {
                    int32_t i = slot_of(point_square(cols, m, k, p, y), cuts, levels, -1 - slot);
                    for (int64_t d = 0; d < k; d++) {
                        double t = succ[order[p] * k + d] - smean[i * k + d];
                        sq[i * k + d] += t * t;
                    }
                }
        }
        for (int64_t j = 0; j < slots; j++)
            for (int64_t d = 0; d < k; d++) {
                wm2[j] += wq[j * k + d];
                sm2[j] += sq[j * k + d];
            }
    }
}
