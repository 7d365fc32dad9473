/* The map cores of _kernels.py in C, statement for statement; one orbit
 * loop per map, which iterates them as dynamics.step_state does; the bin
 * search of the k = 1 engine over whole sets of 16 values, which returns
 * numpy's searchsorted indices; and the k-d tree of the k >= 2 engine and
 * of E6's ball counts: its build, with each leaf's successor moments, and
 * its walk, whose shell moments add in the order of _kernels._moments'
 * np.bincount passes.
 *
 * Built with -O2 -ffp-contract=off -fno-fast-math, so every double operation
 * is rounded as in CPython and no multiply-add is fused; sin and exp are the
 * libm functions CPython's math module calls.  The loops are therefore
 * bitwise equal to step_state iterated, and the tree and its moments equal
 * the numpy passes' bit for bit.  Why the tree's counts are exact is in
 * the docstring of predictability.py.  The orbit loops only
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

/* The k-d tree (Bentley, CACM 18, 1975) of the k >= 2 engine and of E6's
 * ball counts, over n < 2^31 finite points, the rows of the C-ordered (n, k)
 * block pred, each with the ks coordinates of its successor, its row of
 * the C-ordered (n, ks) block succ (ks = 0 when only counts are wanted).
 * Nodes are numbered depth first: node j holds the run start[j] to
 * stop[j] - 1 of order, the points' row indices, and of pts, their rows in
 * that order.  It is a leaf when right[j] == 0, else its children are
 * j + 1 and right[j].  box[2jk .. 2jk + k - 1] is the min of its points'
 * coordinates and box[2jk + k .. 2jk + 2k - 1] their max, its tight box.
 *
 * A node of more than LEAF points is split unless its box is one point:
 * along the first axis of the widest box width hi - lo, at m = 0.5 lo +
 * 0.5 hi, or at lo when m rounds to hi.  The points with x <= m go left
 * and the others right, so both children are non-empty (m lies in
 * [lo, hi), also when the width overflows to inf), and the partition is
 * stable, so each run keeps ascending row index.  A leaf's count, mean
 * and m2 are those of its points' successors, added in run order as
 * _kernels._moments adds: mean the sums over the count, and m2 = 0 + q_0
 * + q_1 + ..., q_d the sum of (succ_d - mean_d)^2.  _kernels._tree merges
 * the internal nodes' from their children.
 *
 * node[0] to node[6] get the arrays start, stop, right, box, count, mean
 * (nodes, ks) and m2, malloc'd and grown by realloc as the tree grows;
 * the caller passes them NULL and frees them with tree_free.  Returns the
 * number of nodes, at most 2n - 1, or -1 when the build's memory cannot be
 * had. */
#define LEAF 32

/* Grows the seven node arrays of tree_build to cap nodes; 0 when the memory
 * cannot be had, the arrays then as they were. */
static int grow_nodes(void **node, int64_t cap, int64_t k, int64_t ks)
{
    const int64_t bytes[7] = {8, 8, 8, 16 * k, 8, 8 * ks, 8};  /* per node */
    for (int i = 0; i < 7; i++) {
        void *t = realloc(node[i], bytes[i] * cap + 1);  /* + 1: never realloc to 0 bytes */
        if (!t)
            return 0;
        node[i] = t;
    }
    return 1;
}

void tree_free(void **node)
{
    for (int i = 0; i < 7; i++)
        free(node[i]);
}

int64_t tree_build(const double *pred, const double *succ, int64_t n, int64_t k, int64_t ks,
                   double *restrict pts, int32_t *restrict order, void **node)
{
    int32_t *restrict spilled = malloc(sizeof(int32_t) * (n + 1));
    int64_t room = 64, *todo = malloc(sizeof(int64_t) * 3 * room);  /* (a, b, parent) of each */
    double *held = malloc(sizeof(double) * 2 * k * room);  /* node to add, and its box */
    int64_t nodes = -1, pending = n > 0, cap = 0, *start = 0, *stop = 0, *right = 0;
    double *box = 0, *count = 0, *mean = 0, *m2 = 0;
    if (spilled && todo && held) {
        for (int64_t d = 0; d < k; d++) {
            held[d] = INFINITY;
            held[k + d] = -INFINITY;
        }
        for (int64_t i = 0; i < n; i++) {
            order[i] = (int32_t)i;
            for (int64_t d = 0; d < k; d++) {
                double x = pts[i * k + d] = pred[i * k + d];
                held[d] = x < held[d] ? x : held[d];
                held[k + d] = x > held[k + d] ? x : held[k + d];
            }
        }
        todo[0] = 0, todo[1] = n, todo[2] = -1;
        nodes = 0;
    } else
        pending = 0;
    while (pending) {
        if (nodes == cap) {  /* the node arrays double as the tree grows */
            if (!grow_nodes(node, 2 * cap + 64, k, ks)) {
                nodes = -1;
                break;
            }
            cap = 2 * cap + 64;
            start = node[0], stop = node[1], right = node[2], box = node[3];
            count = node[4], mean = node[5], m2 = node[6];
        }
        pending--;
        int64_t a = todo[3 * pending], b = todo[3 * pending + 1], parent = todo[3 * pending + 2];
        int64_t j = nodes++, ax = 0;
        double *lo = box + 2 * k * j, *hi = lo + k, widest = 0.0;
        if (parent >= 0)
            right[parent] = j;
        start[j] = a;
        stop[j] = b;
        right[j] = 0;
        for (int64_t d = 0; d < 2 * k; d++)
            lo[d] = held[2 * k * pending + d];
        for (int64_t d = 0; d < k; d++)
            if (hi[d] - lo[d] > widest) {
                widest = hi[d] - lo[d];
                ax = d;
            }
        if (b - a > LEAF && widest > 0.0) {
            if (pending + 2 > room) {  /* the stack doubles as the tree deepens */
                int64_t *t = realloc(todo, sizeof(int64_t) * 6 * room);
                double *h = realloc(held, sizeof(double) * 4 * k * room);
                todo = t ? t : todo;
                held = h ? h : held;
                if (!t || !h) {
                    nodes = -1;
                    break;
                }
                room *= 2;
            }
            double m = 0.5 * lo[ax] + 0.5 * hi[ax];
            double *rb = held + 2 * k * pending, *lb = rb + 2 * k;
            int64_t l = a, r = 0;
            m = m < hi[ax] ? m : lo[ax];
            for (int64_t p = a; p < b; p++) {  /* order to both sides, branch free: slot */
                int64_t left = pts[p * k + ax] <= m;  /* l <= p is free or p itself */
                order[l] = spilled[r] = order[p];
                l += left;
                r += 1 - left;
            }
            for (int64_t p = 0; p < r; p++)
                order[l + p] = spilled[p];
            for (int64_t side = 0; side < 2; side++) {  /* the rows in their new order, and */
                int64_t p0 = side ? l : a, p1 = side ? b : l;  /* each child's box, by axis: */
                double *cb = side ? rb : lb;  /* min and max stay in registers */
                for (int64_t d = 0; d < k; d++) {
                    double u = INFINITY, v = -INFINITY;
                    for (int64_t p = p0; p < p1; p++) {
                        double x = pts[p * k + d] = pred[order[p] * k + d];
                        u = x < u ? x : u;
                        v = x > v ? x : v;
                    }
                    cb[d] = u;
                    cb[k + d] = v;
                }
            }
            todo[3 * pending] = l, todo[3 * pending + 1] = b, todo[3 * pending + 2] = j;
            todo[3 * pending + 3] = a, todo[3 * pending + 4] = l, todo[3 * pending + 5] = -1;
            pending += 2;
            continue;
        }
        count[j] = (double)(b - a);
        m2[j] = 0.0;
        for (int64_t d = 0; d < ks; d++) {  /* one coordinate at a time, the sums in registers */
            double mu = 0.0, q = 0.0;
            for (int64_t p = a; p < b; p++)
                mu += succ[order[p] * ks + d];
            mu /= count[j];
            for (int64_t p = a; p < b; p++) {
                double t = succ[order[p] * ks + d] - mu;
                q += t * t;
            }
            mean[j * ks + d] = mu;
            m2[j] += q;
        }
    }
    free(held);
    free(spilled);
    free(todo);
    return nodes;
}

/* *dmin and *dmax, the squared distances ((b_0 - y_0)^2 + (b_1 - y_1)^2) + ...
 * from y to the nearest and to the farthest coordinates b of the box with
 * the k lower bounds lo and the k upper bounds hi: every point of the box
 * has its squared distance between them (predictability.py's docstring
 * says why). */
static void box_squares(const double *lo, const double *hi, int64_t k, const double *y,
                        double *dmin, double *dmax)
{
    double smin = 0.0, smax = 0.0;
    for (int64_t d = 0; d < k; d++) {
        double a = lo[d] - y[d], b = hi[d] - y[d];
        double near = a > -b ? a : -b, far = -a > b ? -a : b;
        near = near > 0.0 ? near : 0.0;
        smin += near * near;  /* 0.0 + x is x: the sums start at their first term */
        smax += far * far;
    }
    *dmin = smin;
    *dmax = smax;
}

/* The squared distance ((x_0 - y_0)^2 + (x_1 - y_1)^2) + ... of the k
 * coordinates x and y. */
static double point_square(const double *x, int64_t k, const double *y)
{
    double t = x[0] - y[0], s = t * t;
    for (int64_t d = 1; d < k; d++) {
        t = x[d] - y[d];
        s += t * t;
    }
    return s;
}

/* The number of the levels non-increasing cuts that s is below, counted
 * from slot, a number that s is known to be below at least: 0 outside the
 * top ball, else one more than the shell of s, the deepest level whose
 * ball holds it. */
static int64_t slot_of(double s, const double *cuts, int64_t levels, int64_t slot)
{
    while (slot < levels && s < cuts[slot])
        slot++;
    return slot;
}

/* Per-shell moments of the successors near each of the refs references in
 * ys (C-ordered (refs, k)), from a tree of tree_build with nodes nodes,
 * against levels non-increasing cuts.
 *
 * A point's squared distance is s, as point_square sums it; s lies between
 * the box_squares dmin and dmax of the tight box of every node that holds
 * it.  Per reference the walk goes depth first from the root, left child
 * first: a node with dmin >= cuts[0] is skipped; one whose dmin and dmax
 * have one slot_of is whole, and its cached moments join that shell; any
 * other node goes on to its children, or, a leaf, is scanned point by
 * point.  So the whole nodes come in ascending run start and the scanned
 * points in run order.  Per reference, out gets two parts, the whole
 * nodes' and the scanned points', each of count (levels + 1), m2
 * (levels + 1), mean (levels + 1, ks) and q (levels + 1, ks) indexed by
 * slot_of, so that slot 0 gathers the scanned points outside the top ball
 * and is discarded.  Each part adds in walk order:
 * - whole: count = sum of count, mean = sum of count * mean over
 *   max(count, 1), m2 = (sum of the nodes' m2) + q_0 + q_1 + ..., q_d the
 *   sum of (mean_jd - mean_d)^2 * count_j;
 * - scanned: count, mean and m2 = 0 + q_0 + q_1 + ... of the successors,
 *   as tree_build takes a leaf's.
 * The second pass, for the q, visits again the nodes the first one
 * listed.  Returns 0, or -1 when the walk's memory cannot be had. */
int64_t tree_shells(const double *pts, const int32_t *order, const double *succ, int64_t k,
                    int64_t ks, const int64_t *start, const int64_t *stop, const int64_t *right,
                    const double *box, const double *count, const double *mean, const double *m2,
                    int64_t nodes, const double *ys, int64_t refs, const double *cuts,
                    int64_t levels, double *out)
{
    int64_t *todo = malloc(sizeof(int64_t) * (nodes + 1));
    int64_t *seen = malloc(sizeof(int64_t) * 2 * (nodes + 1));
    int64_t slots = levels + 1, size = 2 * (2 + 2 * ks) * slots;
    if (!todo || !seen) {
        free(todo);
        free(seen);
        return -1;
    }
    for (int64_t r = 0; r < refs; r++) {
        const double *y = ys + r * k;
        double *wc = out + r * size, *wm2 = wc + slots, *wmean = wm2 + slots;
        double *wq = wmean + slots * ks, *sc = wq + slots * ks, *sm2 = sc + slots;
        double *smean = sm2 + slots, *sq = smean + slots * ks;
        int64_t pending = nodes > 0, listed = 0;  /* seen: (node, slot), -1 - slot when scanned */
        for (int64_t j = 0; j < size; j++)
            wc[j] = 0.0;
        todo[0] = 0;
        while (pending) {
            int64_t j = todo[--pending];
            double dmin, dmax;
            box_squares(box + 2 * k * j, box + 2 * k * j + k, k, y, &dmin, &dmax);
            int64_t top = slot_of(dmin, cuts, levels, 0), low;
            if (!top)
                continue;
            low = slot_of(dmax, cuts, levels, 0);  /* every point's slot is at least dmax's */
            if (low == top) {
                wc[top] += count[j];
                wm2[top] += m2[j];
                for (int64_t d = 0; d < ks; d++)
                    wmean[top * ks + d] += count[j] * mean[j * ks + d];
                seen[2 * listed] = j, seen[2 * listed++ + 1] = top;
            } else if (right[j]) {
                todo[pending++] = right[j];
                todo[pending++] = j + 1;
            } else {
                for (int64_t p = start[j]; p < stop[j]; p++) {
                    int64_t i = slot_of(point_square(pts + p * k, k, y), cuts, levels, low);
                    sc[i] += 1.0;
                    for (int64_t d = 0; d < ks; d++)
                        smean[i * ks + d] += succ[order[p] * ks + d];
                }
                seen[2 * listed] = j, seen[2 * listed++ + 1] = -1 - low;
            }
        }
        if (!ks)
            continue;
        for (int64_t j = 0; j < slots * ks; j++) {
            wmean[j] /= wc[j / ks] < 1.0 ? 1.0 : wc[j / ks];
            smean[j] /= sc[j / ks] < 1.0 ? 1.0 : sc[j / ks];
        }
        for (int64_t e = 0; e < listed; e++) {
            int64_t j = seen[2 * e], slot = seen[2 * e + 1];
            if (slot > 0)
                for (int64_t d = 0; d < ks; d++) {
                    double t = mean[j * ks + d] - wmean[slot * ks + d];
                    wq[slot * ks + d] += t * t * count[j];
                }
            else
                for (int64_t p = start[j]; p < stop[j]; p++) {
                    int64_t i = slot_of(point_square(pts + p * k, k, y), cuts, levels, -1 - slot);
                    for (int64_t d = 0; d < ks; d++) {
                        double t = succ[order[p] * ks + d] - smean[i * ks + d];
                        sq[i * ks + d] += t * t;
                    }
                }
        }
        for (int64_t j = 0; j < slots; j++)
            for (int64_t d = 0; d < ks; d++) {
                wm2[j] += wq[j * ks + d];
                sm2[j] += sq[j * ks + d];
            }
    }
    free(todo);
    free(seen);
    return 0;
}
