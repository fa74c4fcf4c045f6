/* Native march for reflectedsde.solvers at d = m = 1 and d = m = 2.
 *
 * One call marches a batch of B paths through a run of steps of either
 * scheme, with a built-in coefficient family (constant, linear or trig)
 * and an affine drift b(y) = A y + c, on
 *   - an interval [lo, hi] at d = m = 1;
 *   - a box, a ball or an annulus at d = m = 2.
 * Every step repeats the numpy march's operations one row at a time, in
 * its order and with its roundings, so both give the same bits:
 *   - each einsum sum starts from +0.0, so a lone -0.0 product gives +0.0;
 *   - np.dot of a (B, 1) batch with a length-one operand w is one product
 *     for a batch of one, and otherwise BLAS's axpy into zeros, which
 *     skips a zero w altogether (dot1);
 *   - np.dot of a (B, 2) batch is OpenBLAS's gemv (a vector operand) or
 *     gemm (a matrix), each of which adds one fused multiply-add into a
 *     zeroed output, with the products in mirrored order for a single row
 *     (gemv2, gemm2).  OpenBLAS picks its kernels by processor at run
 *     time, so cover.py compares the spelling of the batch's width with
 *     np.dot once (planar_dots) and marches planar studies here only if
 *     they agree;
 *   - the noise term and the noise-interaction term take numpy's column
 *     forms (coefficients._noise_columns, _stratonovich_columns), which
 *     are einsum's too but for a single row's noise-interaction term,
 *     summed per j over k (correction2);
 *   - the clip is np.minimum(np.maximum(y, lo), hi): NaN propagates and a
 *     tie takes the bound;
 *   - radii and variation increments are sqrt(a0 * a0 + a1 * a1), as
 *     geometry.sum_squares computes them; the ball and the annulus scale
 *     only the rows they push, a NaN row passes, and the annulus's centre
 *     becomes NaN;
 *   - sin and cos are libm's, which numpy's float64 ufuncs call too (the
 *     compiler may fetch both through sincos, which gives the same bits).
 * brownian.py builds this file with _streams.c into one library, with
 * -ffp-contract=off, so that no multiply and add fuse into an FMA other
 * than the fma() calls that stand for BLAS (its _CFLAGS give the whole
 * command).
 *
 * States and outputs hold d doubles per row: x[b * d + k] and
 * out[(j * B + b) * d + k]; the variation is var[b].  Output j is recorded
 * when the march reaches step position out_pos[j], which solvers.py checks
 * to be ascending within the march: a call records the outputs due at its
 * first position and after each of its steps.  The reference march
 * returns the index of the next output, where its next call resumes.  With
 * non-NULL log pointers (a batch of one) step i also stores its state and
 * regulator increment at [i * d] and its variation increment at [i].
 *
 * kind = {d, domain, family}.  par, as cover.py packs it:
 *   par[0..3]  the domain: interval lo, hi; box lo0, lo1, hi0, hi1;
 *              ball radius; annulus r1, r2;
 *   par[4..]   the drift A (d * d, row-major) and c (d), then the family:
 *     constant: sigma (d * m);
 *     linear:   A (d * m * d), B (d * m)     (sigma_ij = A_ijk y_k + B_ij);
 *     trig:     offset (d * m), amplitude (d * m), frequency (d), each
 *               entry's index among the distinct phases (d * m), then
 *               those phases (one more than the largest index).
 * A kernel reads only the slots its domain and family have.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum { CONSTANT = 0, LINEAR = 1, TRIG = 2 };
enum { BOX = 0, BALL = 1, ANNULUS = 2 };

/* Rows per tile: the family's fields are evaluated a tile at a time, and
 * march_wz marches a tile through all its steps. */
#define TILE_ROWS 64

/* The planar loops, built twice: the entry points pass one_row (B == 1)
 * and, for a wide batch, NULL log pointers as constants, so that a wide
 * batch's loops test no flag and carry no log (read at run time, the flag
 * cost the wide reference loop about 5%). */
#define SPECIALISED static inline __attribute__((always_inline))

/* Record rows lo .. hi - 1 of the outputs due at step position pos. */
static int64_t record(int64_t pos, int64_t d, int64_t lo, int64_t hi, int64_t B,
                      const double *x, const int64_t *out_pos, int64_t n_out, int64_t j,
                      double *out)
{
    while (j < n_out && out_pos[j] == pos) {
        for (int64_t i = lo * d; i < hi * d; i++)
            out[j * B * d + i] = x[i];
        j++;
    }
    return j;
}

/* ------------------------------------------------------------------------
 * d = m = 1: the interval
 * ---------------------------------------------------------------------- */

/* par[4..] = {a, c, ...} and the family's parameters p0..p3:
 *   constant: p0 = sigma;
 *   linear:   p0 = A, p1 = B         (sigma = A y + B);
 *   trig:     p0 = offset, p1 = amplitude, p2 = frequency, p3 = phase
 *             (par[9], the spread index, is 0).
 * Only the slots the family has are read. */
typedef struct {
    int64_t family;
    int one_row;
    double lo, hi, a, c, p0, p1, p2, p3;
} kernel_t;

static kernel_t kernel(int64_t family, const double *par, int64_t B)
{
    kernel_t k = {family, B == 1, par[0], par[1], par[4], par[5], par[6]};
    if (family == LINEAR)
        k.p1 = par[7];
    if (family == TRIG)
        k.p1 = par[7], k.p2 = par[8], k.p3 = par[10];
    return k;
}

/* numpy's np.dot(y, w) for a (B, 1) batch y and a one-element w. */
static inline double dot1(const kernel_t *k, double y, double w)
{
    if (k->one_row)
        return y * w;
    return w == 0.0 ? 0.0 : 0.0 + w * y;
}

static inline double drift(const kernel_t *k, double y)
{
    return dot1(k, y, k->a) + k->c;
}

/* sigma at the n states x, into sig, and with grad its derivative too.
 * One switch per tile, and the tile's sin and cos calls are independent
 * work that the processor overlaps. */
static void sigma_rows(const kernel_t *k, const double *x, int64_t n, double *sig, double *grad)
{
    switch (k->family) {
    case LINEAR:
        for (int64_t b = 0; b < n; b++)
            sig[b] = (0.0 + k->p0 * x[b]) + k->p1;
        if (grad)
            for (int64_t b = 0; b < n; b++)
                grad[b] = k->p0;
        return;
    case TRIG:
        if (!grad) {
            for (int64_t b = 0; b < n; b++)
                sig[b] = k->p0 + k->p1 * sin(dot1(k, x[b], k->p2) + k->p3);
            return;
        }
        for (int64_t b = 0; b < n; b++) {
            double t = dot1(k, x[b], k->p2) + k->p3;
            grad[b] = (k->p1 * cos(t)) * k->p2;
            sig[b] = k->p0 + k->p1 * sin(t);
        }
        return;
    default:
        for (int64_t b = 0; b < n; b++) {
            sig[b] = k->p0;
            if (grad)
                grad[b] = 0.0;
        }
    }
}

/* Resolve y = x + v against [lo, hi]: the new state, its regulator
 * increment in *dl and the variation increment in *dvar. */
static inline double resolve(const kernel_t *k, double x, double v, double *dl, double *dvar)
{
    double y = x + v;
    /* A NaN fails both comparisons and passes through. */
    double s = k->lo >= y ? k->lo : y;
    s = k->hi <= s ? k->hi : s;
    *dl = s - y;
    *dvar = sqrt(*dl * *dl);
    return s;
}

static int64_t reference1(int64_t family, const double *par, int64_t B, double *x, double *var,
                          const double *w, int64_t row_step, int64_t knot_step, int64_t first,
                          int64_t n_steps, double h, const int64_t *out_pos,
                          int64_t n_out, int64_t j, double *out, double *log_x, double *log_dl,
                          double *log_dvar)
{
    kernel_t k = kernel(family, par, B);
    double sig[TILE_ROWS], grad[TILE_ROWS];
    j = record(first, 1, 0, B, B, x, out_pos, n_out, j, out);
    for (int64_t s = 0; s < n_steps; s++) {
        const double *w0 = w + s * knot_step;
        for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
            int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
            sigma_rows(&k, x + lo, n, sig, grad);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double dl, dvar;
                double dw = w0[knot_step + b * row_step] - w0[b * row_step];
                double ito = drift(&k, x[b]) + 0.5 * (0.0 + grad[r] * sig[r]);
                x[b] = resolve(&k, x[b], (0.0 + sig[r] * dw) + ito * h, &dl, &dvar);
                var[b] += dvar;
                if (log_x) {
                    log_x[first + s] = x[b];
                    log_dl[first + s] = dl;
                    log_dvar[first + s] = dvar;
                }
            }
        }
        j = record(first + s + 1, 1, 0, B, B, x, out_pos, n_out, j, out);
    }
    return j;
}

static void wz1(int64_t family, const double *par, int64_t B, double *x, double *var,
                const double *slopes, int64_t n_knots, const double *dts,
                const int64_t *knot_idx, int64_t n_steps, const int64_t *out_pos, int64_t n_out,
                double *out, double *log_x, double *log_dl, double *log_dvar)
{
    kernel_t k = kernel(family, par, B);
    double sig[TILE_ROWS];
    for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
        int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
        int64_t j = record(0, 1, lo, lo + n, B, x, out_pos, n_out, 0, out);
        for (int64_t i = 0; i < n_steps; i++) {
            const double *slope = slopes + knot_idx[i];
            sigma_rows(&k, x + lo, n, sig, NULL);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double dl, dvar;
                double v = ((0.0 + sig[r] * slope[b * n_knots]) + drift(&k, x[b])) * dts[i];
                x[b] = resolve(&k, x[b], v, &dl, &dvar);
                var[b] += dvar;
                if (log_x) {
                    log_x[i] = x[b];
                    log_dl[i] = dl;
                    log_dvar[i] = dvar;
                }
            }
            j = record(i + 1, 1, lo, lo + n, B, x, out_pos, n_out, j, out);
        }
    }
}

/* ------------------------------------------------------------------------
 * d = m = 2: the box, the ball and the annulus
 * ---------------------------------------------------------------------- */

typedef struct {
    int64_t domain, family;
    double lo[2], hi[2];   /* box */
    double r1, r2;         /* ball: r2 is the radius; annulus: r1 < r2 */
    double a[4], c[2];     /* drift */
    double s[4];           /* constant's sigma, linear's B, trig's offset */
    double amp[4], f[2], phase[4];
    double l[8];           /* linear's A */
    int spread[4], n_phase;
} plane_t;

static plane_t plane(int64_t domain, int64_t family, const double *par)
{
    plane_t k = {.domain = domain, .family = family};
    const double *p = par + 10;
    if (domain == BOX) {
        k.lo[0] = par[0], k.lo[1] = par[1], k.hi[0] = par[2], k.hi[1] = par[3];
    } else {
        k.r1 = domain == BALL ? 0.0 : par[0];
        k.r2 = domain == BALL ? par[0] : par[1];
    }
    for (int e = 0; e < 4; e++) {
        k.a[e] = par[4 + e];
        k.s[e] = p[e];
    }
    k.c[0] = par[8], k.c[1] = par[9];
    if (family == LINEAR) {
        for (int e = 0; e < 8; e++)
            k.l[e] = p[e];
        for (int e = 0; e < 4; e++)
            k.s[e] = p[8 + e];
    }
    if (family == TRIG) {
        k.f[0] = p[8], k.f[1] = p[9];
        for (int e = 0; e < 4; e++) {
            k.amp[e] = p[4 + e];
            k.spread[e] = (int)p[10 + e];
            if (k.spread[e] + 1 > k.n_phase)
                k.n_phase = k.spread[e] + 1;
        }
        for (int q = 0; q < k.n_phase; q++)
            k.phase[q] = p[14 + q];
    }
    return k;
}

/* np.dot(y, f) of a (B, 2) batch with a (2,) vector: OpenBLAS's gemv,
 * one fused multiply-add into a zeroed output, which fuses the other
 * product on a single row. */
static inline double gemv2(int one_row, const double *y, const double *f)
{
    if (one_row)
        return 0.0 + fma(y[1], f[1], y[0] * f[0]);
    return 0.0 + fma(y[0], f[0], y[1] * f[1]);
}

/* Entry i of np.dot(y, A.T), a_i = A[i]: OpenBLAS's gemm, likewise
 * mirrored on a single row. */
static inline double gemm2(int one_row, const double *y, const double *a_i)
{
    if (one_row)
        return 0.0 + fma(y[0], a_i[0], y[1] * a_i[1]);
    return 0.0 + fma(y[1], a_i[1], y[0] * a_i[0]);
}

/* sigma (row-major (2, 2) per row) at the n states x, and with grad its
 * derivative (i, j, k per row) too; linear's and constant's derivatives
 * do not depend on the state, so *grad points at one shared copy.  trig
 * takes sin (and cos) once per distinct phase per row, then each entry
 * amp * t and offset + that, as coefficients.trig spreads them. */
SPECIALISED void sigma2(const plane_t *k, const int one_row, const double *x, int64_t n,
                        double *sig, double **grad, double *grad_rows)
{
    static const double zeros[8];
    switch (k->family) {
    case LINEAR:
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < 4; e++)
                sig[r * 4 + e] = ((0.0 + x[r * 2] * k->l[e * 2]) + x[r * 2 + 1] * k->l[e * 2 + 1])
                                 + k->s[e];
        if (grad)
            *grad = (double *)k->l;
        return;
    case TRIG: {
        double sn[4][TILE_ROWS], cs[4][TILE_ROWS];
        for (int64_t r = 0; r < n; r++) {
            double u = gemv2(one_row, x + r * 2, k->f);
            for (int p = 0; p < k->n_phase; p++) {
                sn[p][r] = sin(u + k->phase[p]);
                if (grad)
                    cs[p][r] = cos(u + k->phase[p]);
            }
        }
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < 4; e++)
                sig[r * 4 + e] = k->s[e] + k->amp[e] * sn[k->spread[e]][r];
        if (grad) {
            for (int64_t r = 0; r < n; r++)
                for (int e = 0; e < 4; e++) {
                    double c = k->amp[e] * cs[k->spread[e]][r];
                    grad_rows[r * 8 + e * 2] = c * k->f[0];
                    grad_rows[r * 8 + e * 2 + 1] = c * k->f[1];
                }
            *grad = grad_rows;
        }
        return;
    }
    default:
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < 4; e++)
                sig[r * 4 + e] = k->s[e];
        if (grad)
            *grad = (double *)zeros;
    }
}

/* The noise term sigma @ dw, as coefficients._noise_columns forms it. */
static inline void noise2(const double *sig, const double *dw, double *v)
{
    for (int i = 0; i < 2; i++)
        v[i] = ((dw[0] * sig[i * 2]) + (dw[1] * sig[i * 2 + 1])) + 0.0;
}

/* The noise-interaction term sum_{j,k} grad_ijk sig_kj, as
 * coefficients._stratonovich_columns forms it: per-k sums over j, then
 * their sum.  einsum sums a single row per j over k instead. */
static inline double correction2(int one_row, const double *sig, const double *g, int i)
{
    const double *gi = g + i * 4;
    if (one_row) {
        double j0 = (sig[0] * gi[0]) + (sig[2] * gi[1]);
        double j1 = (sig[1] * gi[2]) + (sig[3] * gi[3]);
        return (j0 + j1) + 0.0;
    }
    double k0 = (sig[0] * gi[0]) + (sig[1] * gi[2]);
    double k1 = (sig[2] * gi[1]) + (sig[3] * gi[3]);
    return (k0 + k1) + 0.0;
}

/* Resolve y = x + v against the domain: x becomes the new state, dl the
 * regulator increment, and its length, the variation increment, is
 * returned. */
static inline double resolve2(const plane_t *k, double *x, const double *v, double *dl)
{
    double y[2] = {x[0] + v[0], x[1] + v[1]};
    double s[2] = {y[0], y[1]};
    if (k->domain == BOX) {
        for (int i = 0; i < 2; i++) {
            /* A NaN fails both comparisons and passes through. */
            s[i] = k->lo[i] >= y[i] ? k->lo[i] : y[i];
            s[i] = k->hi[i] <= s[i] ? k->hi[i] : s[i];
        }
    } else {
        double r = sqrt(y[0] * y[0] + y[1] * y[1]);
        /* A NaN radius pushes no row; the centre has no closest point. */
        if (r < k->r1 || r > k->r2) {
            double q = (r < k->r1 ? k->r1 : k->r2) / (r == 0.0 ? (double)NAN : r);
            s[0] = y[0] * q;
            s[1] = y[1] * q;
        }
    }
    for (int i = 0; i < 2; i++) {
        dl[i] = s[i] - y[i];
        x[i] = s[i];
    }
    return sqrt(dl[0] * dl[0] + dl[1] * dl[1]);
}

/* Step i's entry of a one-row march's step log. */
static inline void log_step(int64_t i, const double *x, const double *dl, double dvar,
                            double *log_x, double *log_dl, double *log_dvar)
{
    for (int c = 0; c < 2; c++) {
        log_x[i * 2 + c] = x[c];
        log_dl[i * 2 + c] = dl[c];
    }
    log_dvar[i] = dvar;
}

SPECIALISED int64_t reference2(const int64_t *kind, const double *par, int64_t B, double *x,
                               double *var, const double *w, int64_t row_step, int64_t knot_step,
                               int64_t col_step, int64_t first, int64_t n_steps,
                               double h, const int64_t *out_pos, int64_t n_out, int64_t j,
                               double *out, double *log_x, double *log_dl, double *log_dvar,
                               const int one_row)
{
    plane_t k = plane(kind[1], kind[2], par);
    double sig[TILE_ROWS * 4], grad_rows[TILE_ROWS * 8], *grad;
    int shared = k.family != TRIG;
    j = record(first, 2, 0, B, B, x, out_pos, n_out, j, out);
    for (int64_t s = 0; s < n_steps; s++) {
        const double *w0 = w + s * knot_step;
        for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
            int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
            sigma2(&k, one_row, x + lo * 2, n, sig, &grad, grad_rows);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double *xb = x + b * 2, *sb = sig + r * 4, dw[2], v[2], dl[2];
                const double *gb = shared ? grad : grad + r * 8;
                for (int i = 0; i < 2; i++) {
                    const double *wi = w0 + b * row_step + i * col_step;
                    dw[i] = wi[knot_step] - wi[0];
                }
                noise2(sb, dw, v);
                for (int i = 0; i < 2; i++) {
                    double ito = (gemm2(one_row, xb, k.a + i * 2) + k.c[i])
                                 + 0.5 * correction2(one_row, sb, gb, i);
                    v[i] = v[i] + ito * h;
                }
                double dvar = resolve2(&k, xb, v, dl);
                var[b] += dvar;
                if (log_x)
                    log_step(first + s, xb, dl, dvar, log_x, log_dl, log_dvar);
            }
        }
        j = record(first + s + 1, 2, 0, B, B, x, out_pos, n_out, j, out);
    }
    return j;
}

SPECIALISED void wz2(const int64_t *kind, const double *par, int64_t B, double *x, double *var,
                     const double *slopes, int64_t n_knots, const double *dts,
                     const int64_t *knot_idx, int64_t n_steps, const int64_t *out_pos,
                     int64_t n_out, double *out, double *log_x, double *log_dl,
                     double *log_dvar, const int one_row)
{
    plane_t k = plane(kind[1], kind[2], par);
    double sig[TILE_ROWS * 4];
    for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
        int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
        int64_t j = record(0, 2, lo, lo + n, B, x, out_pos, n_out, 0, out);
        for (int64_t i = 0; i < n_steps; i++) {
            const double *slope = slopes + knot_idx[i] * 2;
            sigma2(&k, one_row, x + lo * 2, n, sig, NULL, NULL);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double *xb = x + b * 2, v[2], dl[2];
                noise2(sig + r * 4, slope + b * n_knots * 2, v);
                for (int c = 0; c < 2; c++)
                    v[c] = (v[c] + (gemm2(one_row, xb, k.a + c * 2) + k.c[c])) * dts[i];
                double dvar = resolve2(&k, xb, v, dl);
                var[b] += dvar;
                if (log_x)
                    log_step(i, xb, dl, dvar, log_x, log_dl, log_dvar);
            }
            j = record(i + 1, 2, lo, lo + n, B, x, out_pos, n_out, j, out);
        }
    }
}

/* ------------------------------------------------------------------------
 * Entry points
 * ---------------------------------------------------------------------- */

/* Steps first .. first + n_steps - 1 of the projected Euler-Maruyama
 * reference with fine step h.  Step i reads the Brownian knots
 * w[(i - first) * knot_step + b * row_step + k * col_step] and the next
 * ones. */
int64_t march_reference(const int64_t *kind, const double *par, int64_t B, double *x,
                        double *var, const double *w, int64_t row_step, int64_t knot_step,
                        int64_t col_step, int64_t first, int64_t n_steps, double h,
                        const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                        double *log_x, double *log_dl, double *log_dvar)
{
    if (kind[0] == 1)
        return reference1(kind[2], par, B, x, var, w, row_step, knot_step, first, n_steps, h,
                          out_pos, n_out, j, out, log_x, log_dl, log_dvar);
    if (B == 1)
        return reference2(kind, par, B, x, var, w, row_step, knot_step, col_step, first,
                          n_steps, h, out_pos, n_out, j, out, log_x, log_dl, log_dvar, 1);
    return reference2(kind, par, B, x, var, w, row_step, knot_step, col_step, first, n_steps,
                      h, out_pos, n_out, j, out, NULL, NULL, NULL, 0);
}

/* All steps of one Wong-Zakai level: step i lasts dts[i] and moves along
 * row b's slope on knot interval knot_idx[i], slopes[(b * n_knots +
 * knot_idx[i]) * d + k].  Rows march in tiles of TILE_ROWS, all steps of a
 * tile at a time: a tile's slopes stay in cache over the substeps and
 * knots that share their lines. */
void march_wz(const int64_t *kind, const double *par, int64_t B, double *x, double *var,
              const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
              int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
              double *log_x, double *log_dl, double *log_dvar)
{
    if (kind[0] == 1)
        wz1(kind[2], par, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out,
            out, log_x, log_dl, log_dvar);
    else if (B == 1)
        wz2(kind, par, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out, out,
            log_x, log_dl, log_dvar, 1);
    else
        wz2(kind, par, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out, out,
            NULL, NULL, NULL, 0);
}

/* The two planar np.dot spellings over B rows y, those of a single row
 * when B is 1: gemv2 with f into v and gemm2 with each row of A into mat
 * (B, 2), for cover.py to compare with np.dot before it marches a planar
 * study here. */
void planar_dots(int64_t B, const double *y, const double *f, const double *A, double *v,
                 double *mat)
{
    for (int64_t b = 0; b < B; b++) {
        v[b] = gemv2(B == 1, y + b * 2, f);
        for (int i = 0; i < 2; i++)
            mat[b * 2 + i] = gemm2(B == 1, y + b * 2, A + i * 2);
    }
}
