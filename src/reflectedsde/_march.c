/* Native march for reflectedsde.solvers at d = m = 1 and d = m = 2.
 *
 * One call marches a batch of B paths through a run of steps of either
 * scheme, with a built-in coefficient family (constant, linear or trig)
 * and an affine drift b(y) = A y + c, on
 *   - an interval [lo, hi] at d = m = 1;
 *   - a box, a ball or an annulus at d = m = 2.
 * Every step makes the numpy march's operations one row at a time, in
 * its order and with its roundings, so both give the same bits at every
 * batch width (up to the sign of a NaN: where two NaNs of different sign
 * meet, the compiler picks which one a sum keeps here, and numpy's loops
 * there):
 *   - every contraction (the drift A y + c, linear's sigma, trig's
 *     argument f . y, the noise term sigma dw and the noise-interaction
 *     term) is a column sum in ascending index order that starts from its
 *     first product, as coefficients.py forms it over the batch;
 *   - the clip is np.minimum(np.maximum(y, lo), hi): NaN propagates and a
 *     tie takes the bound;
 *   - radii and variation increments are sqrt(a0 * a0 + a1 * a1), as
 *     geometry.sum_squares computes them; the ball and the annulus scale
 *     only the rows they push, a NaN row passes, and the annulus's centre
 *     becomes NaN;
 *   - sin and cos are libm's, which numpy's float64 ufuncs call too (the
 *     compiler may fetch both through sincos, which gives the same bits).
 * brownian.py builds this file with _streams.c into one library, with
 * -ffp-contract=off, so that no multiply and add fuse into an FMA (its
 * _CFLAGS give the whole command).
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
 * dom and fam are the tags cover.native_tag packs, as doubles:
 *   dom = {d, domain, then four slots: interval lo, hi; box lo0, lo1,
 *          hi0, hi1; ball radius; annulus r1, r2};
 *   fam = {family, then the drift A (d * d, row-major) and c (d), then
 *          the family's values:
 *     constant: sigma (d * m);
 *     linear:   A (d * m * d), B (d * m)     (sigma_ij = A_ijk y_k + B_ij);
 *     trig:     offset (d * m), amplitude (d * m), frequency (d), each
 *               entry's index among the distinct phases (d * m), then
 *               those phases (one more than the largest index)}.
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

/* fam[1..] = {a, c, ...} and the family's parameters p0..p3:
 *   constant: p0 = sigma;
 *   linear:   p0 = A, p1 = B         (sigma = A y + B);
 *   trig:     p0 = offset, p1 = amplitude, p2 = frequency, p3 = phase
 *             (fam[6], the spread index, is 0).
 * Only the slots the family has are read. */
typedef struct {
    int64_t family;
    double lo, hi, a, c, p0, p1, p2, p3;
} kernel_t;

static kernel_t kernel(const double *dom, const double *fam)
{
    const double *v = fam + 1;
    kernel_t k = {(int64_t)fam[0], dom[2], dom[3], v[0], v[1], v[2]};
    if (k.family == LINEAR)
        k.p1 = v[3];
    if (k.family == TRIG)
        k.p1 = v[3], k.p2 = v[4], k.p3 = v[6];
    return k;
}

static inline double drift(const kernel_t *k, double y)
{
    return y * k->a + k->c;
}

/* sigma at the n states x, into sig, and with grad its derivative too.
 * One switch per tile, and the tile's sin and cos calls are independent
 * work that the processor overlaps. */
static void sigma_rows(const kernel_t *k, const double *x, int64_t n, double *sig, double *grad)
{
    switch (k->family) {
    case LINEAR:
        for (int64_t b = 0; b < n; b++)
            sig[b] = x[b] * k->p0 + k->p1;
        if (grad)
            for (int64_t b = 0; b < n; b++)
                grad[b] = k->p0;
        return;
    case TRIG:
        if (!grad) {
            for (int64_t b = 0; b < n; b++)
                sig[b] = k->p0 + k->p1 * sin(x[b] * k->p2 + k->p3);
            return;
        }
        for (int64_t b = 0; b < n; b++) {
            double t = x[b] * k->p2 + k->p3;
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

static int64_t reference1(const double *dom, const double *fam, int64_t B, double *x, double *var,
                          const double *w, int64_t row_step, int64_t knot_step, int64_t first,
                          int64_t n_steps, double h, const int64_t *out_pos,
                          int64_t n_out, int64_t j, double *out, double *log_x, double *log_dl,
                          double *log_dvar)
{
    kernel_t k = kernel(dom, fam);
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
                double ito = drift(&k, x[b]) + 0.5 * (grad[r] * sig[r]);
                x[b] = resolve(&k, x[b], sig[r] * dw + ito * h, &dl, &dvar);
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

static void wz1(const double *dom, const double *fam, int64_t B, double *x, double *var,
                const double *slopes, int64_t n_knots, const double *dts,
                const int64_t *knot_idx, int64_t n_steps, const int64_t *out_pos, int64_t n_out,
                double *out, double *log_x, double *log_dl, double *log_dvar)
{
    kernel_t k = kernel(dom, fam);
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
                double v = (sig[r] * slope[b * n_knots] + drift(&k, x[b])) * dts[i];
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

static plane_t plane(const double *dom, const double *fam)
{
    plane_t k = {.domain = (int64_t)dom[1], .family = (int64_t)fam[0]};
    const double *bounds = dom + 2, *v = fam + 1, *p = v + 6;
    if (k.domain == BOX) {
        k.lo[0] = bounds[0], k.lo[1] = bounds[1], k.hi[0] = bounds[2], k.hi[1] = bounds[3];
    } else {
        k.r1 = k.domain == BALL ? 0.0 : bounds[0];
        k.r2 = k.domain == BALL ? bounds[0] : bounds[1];
    }
    for (int e = 0; e < 4; e++) {
        k.a[e] = v[e];
        k.s[e] = p[e];
    }
    k.c[0] = v[4], k.c[1] = v[5];
    if (k.family == LINEAR) {
        for (int e = 0; e < 8; e++)
            k.l[e] = p[e];
        for (int e = 0; e < 4; e++)
            k.s[e] = p[8 + e];
    }
    if (k.family == TRIG) {
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

/* Entry i of y @ M.T for a planar state y and a row m_i = M[i] of M:
 * y0 * m_i0 + y1 * m_i1.  It forms trig's argument f . y, linear's sigma
 * and the drift's A y. */
static inline double dot2(const double *y, const double *m_i)
{
    return y[0] * m_i[0] + y[1] * m_i[1];
}

/* sigma (row-major (2, 2) per row) at the n states x, and with grad its
 * derivative (i, j, k per row) too; linear's and constant's derivatives
 * do not depend on the state, so *grad points at one shared copy.  trig
 * takes sin (and cos) once per distinct phase per row, then each entry
 * amp * t and offset + that, as coefficients.trig spreads them. */
static void sigma2(const plane_t *k, const double *x, int64_t n, double *sig, double **grad,
                   double *grad_rows)
{
    static const double zeros[8];
    switch (k->family) {
    case LINEAR:
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < 4; e++)
                sig[r * 4 + e] = dot2(x + r * 2, k->l + e * 2) + k->s[e];
        if (grad)
            *grad = (double *)k->l;
        return;
    case TRIG: {
        double sn[4][TILE_ROWS], cs[4][TILE_ROWS];
        for (int64_t r = 0; r < n; r++) {
            double u = dot2(x + r * 2, k->f);
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

/* The noise term sum_j sig_ij dw_j, in ascending j. */
static inline void noise2(const double *sig, const double *dw, double *v)
{
    for (int i = 0; i < 2; i++)
        v[i] = sig[i * 2] * dw[0] + sig[i * 2 + 1] * dw[1];
}

/* The noise-interaction term sum_{j,k} grad_ijk sig_kj, in ascending j,
 * and within it ascending k. */
static inline double correction2(const double *sig, const double *g, int i)
{
    const double *gi = g + i * 4;
    return ((gi[0] * sig[0] + gi[1] * sig[2]) + gi[2] * sig[1]) + gi[3] * sig[3];
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

static int64_t reference2(const double *dom, const double *fam, int64_t B, double *x,
                          double *var, const double *w, int64_t row_step, int64_t knot_step,
                          int64_t col_step, int64_t first, int64_t n_steps, double h,
                          const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                          double *log_x, double *log_dl, double *log_dvar)
{
    plane_t k = plane(dom, fam);
    double sig[TILE_ROWS * 4], grad_rows[TILE_ROWS * 8], *grad;
    int shared = k.family != TRIG;
    j = record(first, 2, 0, B, B, x, out_pos, n_out, j, out);
    for (int64_t s = 0; s < n_steps; s++) {
        const double *w0 = w + s * knot_step;
        for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
            int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
            sigma2(&k, x + lo * 2, n, sig, &grad, grad_rows);
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
                    double ito = (dot2(xb, k.a + i * 2) + k.c[i]) + 0.5 * correction2(sb, gb, i);
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

static void wz2(const double *dom, const double *fam, int64_t B, double *x, double *var,
                const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
                int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
                double *log_x, double *log_dl, double *log_dvar)
{
    plane_t k = plane(dom, fam);
    double sig[TILE_ROWS * 4];
    for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
        int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
        int64_t j = record(0, 2, lo, lo + n, B, x, out_pos, n_out, 0, out);
        for (int64_t i = 0; i < n_steps; i++) {
            const double *slope = slopes + knot_idx[i] * 2;
            sigma2(&k, x + lo * 2, n, sig, NULL, NULL);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double *xb = x + b * 2, v[2], dl[2];
                noise2(sig + r * 4, slope + b * n_knots * 2, v);
                for (int c = 0; c < 2; c++)
                    v[c] = (v[c] + (dot2(xb, k.a + c * 2) + k.c[c])) * dts[i];
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
int64_t march_reference(const double *dom, const double *fam, int64_t B, double *x,
                        double *var, const double *w, int64_t row_step, int64_t knot_step,
                        int64_t col_step, int64_t first, int64_t n_steps, double h,
                        const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                        double *log_x, double *log_dl, double *log_dvar)
{
    if (dom[0] == 1.0)
        return reference1(dom, fam, B, x, var, w, row_step, knot_step, first, n_steps, h,
                          out_pos, n_out, j, out, log_x, log_dl, log_dvar);
    return reference2(dom, fam, B, x, var, w, row_step, knot_step, col_step, first, n_steps,
                      h, out_pos, n_out, j, out, log_x, log_dl, log_dvar);
}

/* All steps of one Wong-Zakai level: step i lasts dts[i] and moves along
 * row b's slope on knot interval knot_idx[i], slopes[(b * n_knots +
 * knot_idx[i]) * d + k].  Rows march in tiles of TILE_ROWS, all steps of a
 * tile at a time: a tile's slopes stay in cache over the substeps and
 * knots that share their lines. */
void march_wz(const double *dom, const double *fam, int64_t B, double *x, double *var,
              const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
              int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
              double *log_x, double *log_dl, double *log_dvar)
{
    if (dom[0] == 1.0)
        wz1(dom, fam, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out,
            out, log_x, log_dl, log_dvar);
    else
        wz2(dom, fam, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out, out,
            log_x, log_dl, log_dvar);
}
