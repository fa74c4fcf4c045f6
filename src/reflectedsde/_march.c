/* Native march for reflectedsde.solvers at d = m = 1.
 *
 * One call marches a batch of B one-dimensional paths through a run of
 * steps of either scheme on an interval [lo, hi], with a built-in
 * coefficient family (constant, linear or trig) and an affine drift
 * b(y) = a y + c.  Every step repeats the numpy march's operations one row
 * at a time, in its order and with its roundings, so both give the same
 * bits:
 *   - each einsum sum starts from +0.0, so a lone -0.0 product gives +0.0;
 *   - np.dot of the (B, 1) batch with a length-one operand w is one
 *     product for a batch of one, and otherwise BLAS's axpy into zeros,
 *     which skips a zero w altogether (dot1);
 *   - the clip is np.minimum(np.maximum(y, lo), hi): NaN propagates and a
 *     tie takes the bound;
 *   - the variation increment is sqrt(dL * dL), not fabs(dL);
 *   - sin and cos are libm's, which numpy's float64 ufuncs call too (the
 *     compiler may fetch both through sincos, which gives the same bits).
 * brownian.py builds this file with _streams.c into one library, with
 * -ffp-contract=off, so that no multiply and add fuse into an FMA (its
 * _CFLAGS give the whole command).
 *
 * States, variations and outputs are one double per row: x[b], var[b] and
 * out[j * B + b].  Output j is recorded when the march reaches step
 * position out_pos[j], in ascending order: a call records the outputs due
 * at its first position and after each of its steps.  The reference march
 * returns the index of the next output, where its next call resumes.  With
 * non-NULL log pointers (a batch of one) step i also stores its state,
 * regulator increment and variation increment at [i].
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum { CONSTANT = 0, LINEAR = 1, TRIG = 2 };

/* Rows per tile: sigma_rows evaluates a tile at a time, and march_wz
 * marches a tile through all its steps. */
#define TILE_ROWS 64

/* The coefficients and the interval, as solvers.py packs them:
 * par = {lo, hi, a, c, p0, p1, p2, p3} with the family's parameters
 *   constant: p0 = sigma;
 *   linear:   p0 = A, p1 = B         (sigma = A y + B);
 *   trig:     p0 = offset, p1 = amplitude, p2 = frequency, p3 = phase. */
typedef struct {
    int64_t family;
    int one_row;
    double lo, hi, a, c, p0, p1, p2, p3;
} kernel_t;

static kernel_t kernel(int64_t family, const double *par, int64_t B)
{
    kernel_t k = {family, B == 1, par[0], par[1], par[2], par[3],
                  par[4], par[5], par[6], par[7]};
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

/* Record rows lo .. hi - 1 of the outputs due at step position pos. */
static int64_t record(int64_t pos, int64_t lo, int64_t hi, int64_t B, const double *x,
                      const int64_t *out_pos, int64_t n_out, int64_t j, double *out)
{
    while (j < n_out && out_pos[j] == pos) {
        for (int64_t b = lo; b < hi; b++)
            out[j * B + b] = x[b];
        j++;
    }
    return j;
}

/* Steps first .. first + n_steps - 1 of the projected Euler-Maruyama
 * reference with fine step h.  Step i reads the Brownian knots
 * w[(i - first + offset) * knot_step + b * row_step] and the next one. */
int64_t march_reference(int64_t family, const double *par, int64_t B, double *x, double *var,
                        const double *w, int64_t row_step, int64_t knot_step, int64_t offset,
                        int64_t first, int64_t n_steps, double h, const int64_t *out_pos,
                        int64_t n_out, int64_t j, double *out, double *log_x, double *log_dl,
                        double *log_dvar)
{
    kernel_t k = kernel(family, par, B);
    double sig[TILE_ROWS], grad[TILE_ROWS];
    j = record(first, 0, B, B, x, out_pos, n_out, j, out);
    for (int64_t s = 0; s < n_steps; s++) {
        const double *w0 = w + (s + offset) * knot_step;
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
        j = record(first + s + 1, 0, B, B, x, out_pos, n_out, j, out);
    }
    return j;
}

/* All steps of one Wong-Zakai level: step i lasts dts[i] and moves along
 * the slope slopes[b * n_knots + knot_idx[i]] of row b.  Rows march in
 * tiles of TILE_ROWS, all steps of a tile at a time: a tile's slopes stay
 * in cache over the substeps and knots that share their lines. */
void march_wz(int64_t family, const double *par, int64_t B, double *x, double *var,
              const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
              int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
              double *log_x, double *log_dl, double *log_dvar)
{
    kernel_t k = kernel(family, par, B);
    double sig[TILE_ROWS];
    for (int64_t lo = 0; lo < B; lo += TILE_ROWS) {
        int64_t n = lo + TILE_ROWS < B ? TILE_ROWS : B - lo;
        int64_t j = record(0, lo, lo + n, B, x, out_pos, n_out, 0, out);
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
            j = record(i + 1, lo, lo + n, B, x, out_pos, n_out, j, out);
        }
    }
}
