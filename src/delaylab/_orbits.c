/* The map cores of _kernels.py in C, statement for statement; one orbit
 * loop per map, which iterates them as dynamics.step_state does; the bin
 * search of the k = 1 engine over whole sets of 16 values, which returns
 * numpy's searchsorted indices; and the cell grid of the k >= 2 engine:
 * its counting sort, gather and cell moments (numpy takes its shape and
 * each cell's box and size) and its shell moments, which add in the order
 * of _kernels._moments' np.bincount passes; and the k-d tree that counts
 * E6's closed balls.
 *
 * Built with -O2 -ffp-contract=off -fno-fast-math, so every double operation
 * is rounded as in CPython and no multiply-add is fused; sin and exp are the
 * libm functions CPython's math module calls.  The loops are therefore
 * bitwise equal to step_state iterated, and the grid's moments equal the
 * numpy passes' bit for bit.  Why the grid's and the tree's counts are
 * exact is in the docstring of predictability.py.  The orbit loops only
 * iterate: dynamics.trajectory checks the start and reduces its angles,
 * and from a skew-product start it accepts no step divides by zero,
 * overflows an exp or takes the sine of an infinity.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* *dmin and *dmax, the squared distances ((b_0 - y_0)^2 + (b_1 - y_1)^2) + ...
 * from y to the nearest and to the farthest coordinates b of the box whose
 * bounds along axis d are lo[d * stride] and hi[d * stride]: every point
 * of the box has its squared distance between them (predictability.py's
 * docstring says why). */
static void box_squares(const double *lo, const double *hi, int64_t stride, int64_t k,
                        const double *y, double *dmin, double *dmax)
{
    double smin = 0.0, smax = 0.0;
    for (int64_t d = 0; d < k; d++) {
        double a = lo[d * stride] - y[d], b = hi[d * stride] - y[d];
        double near = a > -b ? a : -b, far = -a > b ? -a : b;
        near = near > 0.0 ? near : 0.0;
        smin += near * near;  /* 0.0 + x is x: the sums start at their first term */
        smax += far * far;
    }
    *dmin = smin;
    *dmax = smax;
}

/* The squared distance ((x_0 - y_0)^2 + (x_1 - y_1)^2) + ... from y of
 * point p of a (k, m) block cols: a grid's, or with m = 1 and p = 0 the
 * row at cols of a C-ordered (n, k) block. */
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
 * the box_squares dmin and dmax of its cell's tight box.  A cell with
 * dmin >= cuts[0] is skipped; a cell whose dmin and dmax lie in one shell
 * is whole, and its cached moments join that shell; every other cell is
 * scanned point by point.  Per reference, out gets two
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
            double dmin, dmax;
            box_squares(lo + c, hi + c, occupied, k, y, &dmin, &dmax);
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

/* The k-d tree of ball_counts (Bentley, CACM 18, 1975) over the C-ordered
 * (n, k) block pts, whose rows its build permutes so that each node's rows
 * are one run: node j holds rows begin[j] to end[j] - 1 and has the tight
 * box box[2jk .. 2jk + k - 1] (the min of each coordinate) and box[2jk + k
 * .. 2jk + 2k - 1] (the max).  It is a leaf when right[j] == 0, else its
 * children are j + 1 and right[j]. */
#define LEAF 32

typedef struct {
    double *pts, *box;
    int64_t k, nodes, *begin, *end, *right;
} Tree;

static void swap_rows(double *pts, int64_t k, int64_t i, int64_t j)
{
    for (int64_t d = 0; d < k; d++) {
        double t = pts[i * k + d];
        pts[i * k + d] = pts[j * k + d];
        pts[j * k + d] = t;
    }
}

/* Permutes rows a to b - 1 so that no row before mid has a larger and no
 * row from mid on a smaller coordinate ax (Hoare's FIND): the pointers stop
 * on values equal to the pivot, so equal values split evenly too. */
static void select_rows(double *pts, int64_t k, int64_t ax, int64_t a, int64_t b, int64_t mid)
{
    for (b--; a < b;) {
        double pivot = pts[(a + (b - a) / 2) * k + ax];
        int64_t i = a, j = b;
        while (i <= j) {
            while (pts[i * k + ax] < pivot)
                i++;
            while (pts[j * k + ax] > pivot)
                j--;
            if (i <= j)
                swap_rows(pts, k, i++, j--);
        }
        if (mid <= j)
            b = j;
        else if (mid >= i)
            a = i;
        else
            return;
    }
}

/* Adds the node of rows a to b - 1 and its subtree; returns its index.  A
 * node of more than LEAF rows is split at the median of the widest axis of
 * its tight box, unless that box is one point (an atom). */
static int64_t build(Tree *t, int64_t a, int64_t b)
{
    int64_t j = t->nodes++, k = t->k, ax = 0;
    double *lo = t->box + 2 * k * j, *hi = lo + k, widest = 0.0;
    for (int64_t d = 0; d < k; d++)
        lo[d] = hi[d] = t->pts[a * k + d];
    for (int64_t p = a + 1; p < b; p++)
        for (int64_t d = 0; d < k; d++) {
            double x = t->pts[p * k + d];
            lo[d] = x < lo[d] ? x : lo[d];
            hi[d] = x > hi[d] ? x : hi[d];
        }
    for (int64_t d = 0; d < k; d++)
        if (hi[d] - lo[d] > widest) {
            widest = hi[d] - lo[d];
            ax = d;
        }
    t->begin[j] = a;
    t->end[j] = b;
    t->right[j] = 0;
    if (b - a > LEAF && widest > 0.0) {
        int64_t mid = a + (b - a) / 2;
        select_rows(t->pts, k, ax, a, b, mid);
        build(t, a, mid);
        t->right[j] = build(t, mid, b);
    }
    return j;
}

/* The number of the levels non-increasing cuts that s is at most, counted
 * from slot, a number that s is known to be at most: 0 outside the top
 * closed ball, else one more than the deepest level whose ball holds it. */
static int64_t closed_slot(double s, const double *cuts, int64_t levels, int64_t slot)
{
    while (slot < levels && s <= cuts[slot])
        slot++;
    return slot;
}

/* Adds to shell[slot] the points of node j's subtree in that closed_slot
 * from y: a node whose box is beyond the top sphere is skipped, one whose
 * dmin and dmax have one slot adds its size, and a leaf that a sphere cuts
 * is scanned point by point. */
static void walk(const Tree *t, int64_t j, const double *y, const double *cuts, int64_t levels,
                 int64_t *shell)
{
    int64_t k = t->k;
    double dmin, dmax;
    box_squares(t->box + 2 * k * j, t->box + 2 * k * j + k, 1, k, y, &dmin, &dmax);
    int64_t top = closed_slot(dmin, cuts, levels, 0);
    if (!top)
        return;
    int64_t low = closed_slot(dmax, cuts, levels, 0);
    if (low == top)
        shell[top] += t->end[j] - t->begin[j];
    else if (t->right[j]) {
        walk(t, j + 1, y, cuts, levels, shell);
        walk(t, t->right[j], y, cuts, levels, shell);
    } else
        for (int64_t p = t->begin[j]; p < t->end[j]; p++)
            shell[closed_slot(point_square(t->pts + p * k, 1, k, 0, y), cuts, levels, low)]++;
}

/* Counts the points of the C-ordered (n, k) block pts, n >= 1, that lie
 * in each closed ball of each of the m centres, the rows of the C-ordered
 * (m, k) block centers, every value finite: x is in ball j of y when
 * s <= cuts[j], for levels non-increasing cuts and s = ((x_0 - y_0)^2 +
 * (x_1 - y_1)^2) + ...  One k-d tree is built over pts, permuting its rows, and each centre
 * walks it once for all levels, counting the shells between the spheres;
 * out gets the C-ordered (m, levels) ball counts, the shells summed from
 * the innermost outward.  Returns 0, or -1 when the tree's memory cannot
 * be had. */
int64_t ball_counts(double *pts, int64_t n, int64_t k, const double *centers, int64_t m,
                    const double *cuts, int64_t levels, int64_t *out)
{
    int64_t cap = 4 * n / LEAF + 1;  /* a split leaves >= LEAF / 2 rows a side */
    Tree t = {pts, malloc(sizeof(double) * 2 * k * cap), k, 0, malloc(sizeof(int64_t) * cap),
              malloc(sizeof(int64_t) * cap), malloc(sizeof(int64_t) * cap)};
    int64_t status = -1, shell[levels + 1];
    if (t.box && t.begin && t.end && t.right) {
        build(&t, 0, n);
        for (int64_t c = 0; c < m; c++) {
            for (int64_t j = 0; j <= levels; j++)
                shell[j] = 0;
            walk(&t, 0, centers + c * k, cuts, levels, shell);
            for (int64_t j = levels - 1, total = 0; j >= 0; j--)
                out[c * levels + j] = total += shell[j + 1];
        }
        status = 0;
    }
    free(t.box);
    free(t.begin);
    free(t.end);
    free(t.right);
    return status;
}
