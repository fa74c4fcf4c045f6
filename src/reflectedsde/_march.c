/* Native march for reflectedsde.solvers at d = m <= D_MAX.
 *
 * One call marches a batch of B paths through a run of steps of either
 * scheme, with a built-in coefficient family (constant, linear or trig)
 * and an affine drift b(y) = A y + c, on a box (at d = 1 the interval)
 * or, at d = 2, a ball or an annulus.  Each scheme's march is written once
 * over d and inlined into its entry point once for each d, with d a
 * constant, so that every loop over coordinates has constant bounds.
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
 *   - radii and variation increments are sqrt(a0 * a0 + a1 * a1 + ...),
 *     as geometry.sum_squares computes them; the ball and the annulus
 *     scale only the rows they push, a NaN row passes, and the annulus's
 *     centre becomes NaN;
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
 * dom and fam are the tags cover.native_tag packs, as doubles, with
 * matrices row-major and m = d:
 *   dom = {d, domain, then four slots: the box's lo (d) and hi (d), the
 *          ball's radius, or the annulus's r1 and r2};
 *   fam = {family, the drift's A (d * d) and c (d), then the family's
 *          values:
 *     constant: sigma (d * m);
 *     linear:   A (d * m * d), B (d * m)     (sigma_ij = A_ijk y_k + B_ij);
 *     trig:     offset (d * m), amplitude (d * m), frequency (d), each
 *               entry's index among the distinct phases (d * m), then
 *               those phases (one more than the largest index)}.
 * A march reads only the slots its domain and family have.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define D_MAX 2
/* The marches' parts, inlined where d is a constant. */
#define INLINE static inline __attribute__((always_inline))

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

typedef struct {
    int64_t domain, family;
    double lo[D_MAX], hi[D_MAX];          /* box */
    double r1, r2;                        /* ball: r2 is the radius; annulus: r1 < r2 */
    double a[D_MAX * D_MAX], c[D_MAX];    /* drift */
    double s[D_MAX * D_MAX];              /* constant's sigma, linear's B, trig's offset */
    double amp[D_MAX * D_MAX], f[D_MAX], phase[D_MAX * D_MAX];
    double l[D_MAX * D_MAX * D_MAX];      /* linear's A: the derivative, 0 for constant */
    int spread[D_MAX * D_MAX], n_phase;
} kernel_t;

INLINE kernel_t kernel(int d, const double *dom, const double *fam)
{
    int dm = d * d;
    kernel_t k = {.domain = (int64_t)dom[1], .family = (int64_t)fam[0]};
    const double *bounds = dom + 2, *v = fam + 1, *p = v + dm + d;
    if (k.domain == BOX) {
        for (int i = 0; i < d; i++)
            k.lo[i] = bounds[i], k.hi[i] = bounds[d + i];
    } else {
        k.r1 = k.domain == BALL ? 0.0 : bounds[0];
        k.r2 = k.domain == BALL ? bounds[0] : bounds[1];
    }
    for (int e = 0; e < dm; e++) {
        k.a[e] = v[e];
        k.s[e] = p[e];
    }
    for (int i = 0; i < d; i++)
        k.c[i] = v[dm + i];
    if (k.family == LINEAR) {
        for (int e = 0; e < dm * d; e++)
            k.l[e] = p[e];
        for (int e = 0; e < dm; e++)
            k.s[e] = p[dm * d + e];
    }
    if (k.family == TRIG) {
        for (int i = 0; i < d; i++)
            k.f[i] = p[2 * dm + i];
        for (int e = 0; e < dm; e++) {
            k.amp[e] = p[dm + e];
            k.spread[e] = (int)p[2 * dm + d + e];
            if (k.spread[e] + 1 > k.n_phase)
                k.n_phase = k.spread[e] + 1;
        }
        for (int q = 0; q < k.n_phase; q++)
            k.phase[q] = p[3 * dm + d + q];
    }
    return k;
}

/* Entry i of y @ M.T for a state y and a row m_i = M[i] of M:
 * y0 * m_i0 + y1 * m_i1 + ...  It forms trig's argument f . y, linear's
 * sigma, the drift's A y and sum_squares. */
INLINE double dot(int d, const double *y, const double *m_i)
{
    double t = y[0] * m_i[0];
    for (int k = 1; k < d; k++)
        t = t + y[k] * m_i[k];
    return t;
}

/* sigma (row-major (d, m) per row) at the n states x, and with grad
 * trig's derivative (i, j, k per row) too; constant's and linear's, l,
 * do not depend on the state.  trig takes sin (and cos) once per distinct
 * phase per row, then each entry amp * t and offset + that, as
 * coefficients.trig spreads them; the one entry at d = m = 1 has one
 * phase, whose index is 0. */
INLINE void sigma_rows(int d, const kernel_t *k, const double *x, int64_t n, double *sig,
                       double *grad)
{
    int dm = d * d, g = dm * d;
    switch (k->family) {
    case LINEAR:
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < dm; e++)
                sig[r * dm + e] = dot(d, x + r * d, k->l + e * d) + k->s[e];
        return;
    case TRIG:
        for (int64_t r = 0; r < n; r++) {
            double u = dot(d, x + r * d, k->f), sn[D_MAX * D_MAX], cs[D_MAX * D_MAX];
            /* Every set has a phase, and at most d * m. */
            int q = 0;
            do {
                sn[q] = sin(u + k->phase[q]);
                if (grad)
                    cs[q] = cos(u + k->phase[q]);
            } while (++q < dm && q < k->n_phase);
            for (int e = 0; e < dm; e++)
                sig[r * dm + e] = k->s[e] + k->amp[e] * sn[dm == 1 ? 0 : k->spread[e]];
            if (grad)
                for (int e = 0; e < dm; e++) {
                    double c = k->amp[e] * cs[dm == 1 ? 0 : k->spread[e]];
                    for (int i = 0; i < d; i++)
                        grad[r * g + e * d + i] = c * k->f[i];
                }
        }
        return;
    default:
        for (int64_t r = 0; r < n; r++)
            for (int e = 0; e < dm; e++)
                sig[r * dm + e] = k->s[e];
    }
}

/* The noise term sum_j sig_ij dw_j, in ascending j. */
INLINE void noise(int d, const double *sig, const double *dw, double *v)
{
    for (int i = 0; i < d; i++) {
        v[i] = sig[i * d] * dw[0];
        for (int j = 1; j < d; j++)
            v[i] = v[i] + sig[i * d + j] * dw[j];
    }
}

/* The noise-interaction term sum_{j,k} grad_ijk sig_kj, in ascending j,
 * and within it ascending k. */
INLINE double correction(int d, const double *sig, const double *g, int i)
{
    const double *gi = g + i * d * d;
    double t = gi[0] * sig[0];
    for (int e = 1; e < d * d; e++)
        t = t + gi[e] * sig[(e % d) * d + e / d];
    return t;
}

/* Resolve y = x + v against the domain: x becomes the new state, dl the
 * regulator increment, and its length, the variation increment, is
 * returned.  At d = 1 the domain is the box, the only one covered. */
INLINE double resolve(int d, const kernel_t *k, double *x, const double *v, double *dl)
{
    double y[D_MAX], s[D_MAX];
    for (int i = 0; i < d; i++)
        s[i] = y[i] = x[i] + v[i];
    if (d == 1 || k->domain == BOX) {
        for (int i = 0; i < d; i++) {
            /* A NaN fails both comparisons and passes through. */
            s[i] = k->lo[i] >= y[i] ? k->lo[i] : y[i];
            s[i] = k->hi[i] <= s[i] ? k->hi[i] : s[i];
        }
    } else {
        double r = sqrt(dot(d, y, y));
        /* A NaN radius pushes no row; the centre has no closest point. */
        if (r < k->r1 || r > k->r2) {
            double q = (r < k->r1 ? k->r1 : k->r2) / (r == 0.0 ? (double)NAN : r);
            for (int i = 0; i < d; i++)
                s[i] = y[i] * q;
        }
    }
    for (int i = 0; i < d; i++) {
        dl[i] = s[i] - y[i];
        x[i] = s[i];
    }
    return sqrt(dot(d, dl, dl));
}

/* Step i's entry of a one-row march's step log. */
INLINE void log_step(int d, int64_t i, const double *x, const double *dl, double dvar,
                     double *log_x, double *log_dl, double *log_dvar)
{
    for (int c = 0; c < d; c++) {
        log_x[i * d + c] = x[c];
        log_dl[i * d + c] = dl[c];
    }
    log_dvar[i] = dvar;
}

/* Steps first .. first + n_steps - 1 of the projected Euler-Maruyama
 * reference with fine step h.  Step i reads the Brownian knots
 * w[(i - first) * knot_step + b * row_step + k * col_step] and the next
 * ones. */
INLINE int64_t reference(int d, const double *dom, const double *fam, int64_t B, double *x,
                         double *var, const double *w, int64_t row_step, int64_t knot_step,
                         int64_t col_step, int64_t first, int64_t n_steps, double h,
                         const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                         double *log_x, double *log_dl, double *log_dvar)
{
    int dm = d * d, g = dm * d;
    kernel_t k = kernel(d, dom, fam);
    double sig[TILE_ROWS * D_MAX * D_MAX], grad[TILE_ROWS * D_MAX * D_MAX * D_MAX];
    /* Every row's derivative is at grad + r * g; constant's and linear's
     * are laid out once. */
    if (k.family != TRIG)
        for (int64_t r = 0; r < B && r < TILE_ROWS; r++)
            for (int e = 0; e < g; e++)
                grad[r * g + e] = k.l[e];
    j = record(first, d, 0, B, B, x, out_pos, n_out, j, out);
    for (int64_t s = 0; s < n_steps; s++) {
        const double *w0 = w + s * knot_step;
        for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
            int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
            sigma_rows(d, &k, x + lo * d, n, sig, grad);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double *xb = x + b * d, *sb = sig + r * dm, dw[D_MAX], v[D_MAX], dl[D_MAX];
                for (int i = 0; i < d; i++) {
                    const double *wi = w0 + b * row_step + i * col_step;
                    dw[i] = wi[knot_step] - wi[0];
                }
                noise(d, sb, dw, v);
                for (int i = 0; i < d; i++) {
                    double ito = (dot(d, xb, k.a + i * d) + k.c[i])
                                 + 0.5 * correction(d, sb, grad + r * g, i);
                    v[i] = v[i] + ito * h;
                }
                double dvar = resolve(d, &k, xb, v, dl);
                var[b] += dvar;
                if (log_x)
                    log_step(d, first + s, xb, dl, dvar, log_x, log_dl, log_dvar);
            }
        }
        j = record(first + s + 1, d, 0, B, B, x, out_pos, n_out, j, out);
    }
    return j;
}

/* All steps of one Wong-Zakai level: step i lasts dts[i] and moves along
 * row b's slope on knot interval knot_idx[i], slopes[(b * n_knots +
 * knot_idx[i]) * d + k].  Rows march in tiles of TILE_ROWS, all steps of a
 * tile at a time: a tile's slopes stay in cache over the substeps and
 * knots that share their lines. */
INLINE void wz(int d, const double *dom, const double *fam, int64_t B, double *x, double *var,
               const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
               int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
               double *log_x, double *log_dl, double *log_dvar)
{
    int dm = d * d;
    kernel_t k = kernel(d, dom, fam);
    double sig[TILE_ROWS * D_MAX * D_MAX];
    for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
        int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
        int64_t j = record(0, d, lo, lo + n, B, x, out_pos, n_out, 0, out);
        for (int64_t i = 0; i < n_steps; i++) {
            const double *slope = slopes + knot_idx[i] * d;
            double dt = dts[i];
            sigma_rows(d, &k, x + lo * d, n, sig, NULL);
            for (int64_t r = 0; r < n; r++) {
                int64_t b = lo + r;
                double *xb = x + b * d, v[D_MAX], dl[D_MAX];
                noise(d, sig + r * dm, slope + b * n_knots * d, v);
                for (int c = 0; c < d; c++)
                    v[c] = (v[c] + (dot(d, xb, k.a + c * d) + k.c[c])) * dt;
                double dvar = resolve(d, &k, xb, v, dl);
                var[b] += dvar;
                if (log_x)
                    log_step(d, i, xb, dl, dvar, log_x, log_dl, log_dvar);
            }
            j = record(i + 1, d, lo, lo + n, B, x, out_pos, n_out, j, out);
        }
    }
}

/* ------------------------------------------------------------------------
 * Entry points: each inlines its march at d = 1 and at d = 2.
 * ---------------------------------------------------------------------- */

int64_t march_reference(const double *dom, const double *fam, int64_t B, double *x,
                        double *var, const double *w, int64_t row_step, int64_t knot_step,
                        int64_t col_step, int64_t first, int64_t n_steps, double h,
                        const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                        double *log_x, double *log_dl, double *log_dvar)
{
    if (dom[0] == 1.0)
        return reference(1, dom, fam, B, x, var, w, row_step, knot_step, col_step, first,
                         n_steps, h, out_pos, n_out, j, out, log_x, log_dl, log_dvar);
    return reference(2, dom, fam, B, x, var, w, row_step, knot_step, col_step, first, n_steps,
                     h, out_pos, n_out, j, out, log_x, log_dl, log_dvar);
}

void march_wz(const double *dom, const double *fam, int64_t B, double *x, double *var,
              const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
              int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
              double *log_x, double *log_dl, double *log_dvar)
{
    if (dom[0] == 1.0)
        wz(1, dom, fam, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out, out,
           log_x, log_dl, log_dvar);
    else
        wz(2, dom, fam, B, x, var, slopes, n_knots, dts, knot_idx, n_steps, out_pos, n_out, out,
           log_x, log_dl, log_dvar);
}
