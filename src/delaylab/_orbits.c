/* The map cores of _kernels.py in C, statement for statement; one orbit
 * loop per map, which iterates them as dynamics.step_state does; the bin
 * search of the k = 1 engine over whole sets of 16 values, which returns
 * numpy's searchsorted indices; and the shell moments of the k >= 2 engine,
 * which are numpy's bincounts.
 *
 * Built with -O2 -ffp-contract=off -fno-fast-math, so every double operation
 * is rounded as in CPython and no multiply-add is fused; sin and exp are the
 * libm functions CPython's math module calls.  The loops are therefore
 * bitwise equal to step_state iterated, and the shell moments add in
 * numpy's order.  The orbit loops only iterate: dynamics.trajectory checks
 * the start and reduces its angles, and from a skew-product start it accepts
 * no step divides by zero, overflows an exp or takes the sine of an infinity.
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

/* Per-shell moments of the successors of the points near y, over n points
 * whose k predecessor coordinates are the rows of the C-ordered (k, n)
 * block cols and whose successors are the rows of the C-ordered (n, k)
 * block succ.
 *
 * s_i = ((c0_i - y0)^2 + (c1_i - y1)^2) + ... is summed column by column;
 * point i lies in the top ball when s_i < cuts[0], and in shell
 * j, the deepest of the levels 0 .. levels - 1 whose cut it is below, when
 * the cuts do not increase.  Per shell j, in index order, as np.bincount
 * adds: count[j], the successor sums, mean[j, c] = sum / max(count[j], 1),
 * then q[j, c], the sum of (succ_ic - mean[j, c])^2, and m2[j] = 0 +
 * q[j, 0] + q[j, 1] + ...  out holds count (levels), m2 (levels), mean
 * (levels, k) and q (levels, k); work holds 2 n int64 indices.  The top
 * ball is compacted a block at a time without a branch, and only its points
 * get a shell. */
#define BLOCK 256

void ball_shells(const double *cols, const double *succ, int64_t n, int64_t k, const double *y,
                 const double *cuts, int64_t levels, int64_t *work, double *out)
{
    double *count = out, *m2 = out + levels, *mean = out + 2 * levels, *q = mean + levels * k;
    int64_t *ball = work, *shell = work + n, at[BLOCK], m = 0;
    double s[BLOCK], near[BLOCK];
    for (int64_t j = 0; j < (2 + 2 * k) * levels; j++)
        out[j] = 0.0;
    for (int64_t start = 0; start < n; start += BLOCK) {
        int64_t b = n - start < BLOCK ? n - start : BLOCK, nb = 0;
        for (int64_t i = 0; i < b; i++) {
            double t = cols[start + i] - y[0];
            s[i] = t * t;
        }
        for (int64_t c = 1; c < k; c++)
            for (int64_t i = 0; i < b; i++) {
                double t = cols[c * n + start + i] - y[c];
                s[i] += t * t;
            }
        for (int64_t i = 0; i < b; i++) {
            double v = s[i];
            at[nb] = i;
            near[nb] = v;
            nb += v < cuts[0];
        }
        for (int64_t p = 0; p < nb; p++, m++) {
            int64_t i = start + at[p];
            int64_t j = 0;
            for (int64_t l = 1; l < levels; l++)
                j += near[p] < cuts[l];
            ball[m] = i;
            shell[m] = j;
            count[j] += 1.0;
            for (int64_t c = 0; c < k; c++)
                mean[j * k + c] += succ[i * k + c];
        }
    }
    for (int64_t j = 0; j < levels; j++)
        for (int64_t c = 0; c < k; c++)
            mean[j * k + c] /= count[j] < 1.0 ? 1.0 : count[j];
    for (int64_t p = 0; p < m; p++) {
        const double *row = succ + ball[p] * k, *centre = mean + shell[p] * k;
        double *sq = q + shell[p] * k;
        for (int64_t c = 0; c < k; c++) {
            double t = row[c] - centre[c];
            sq[c] += t * t;
        }
    }
    for (int64_t j = 0; j < levels; j++)
        for (int64_t c = 0; c < k; c++)
            m2[j] += q[j * k + c];
}
