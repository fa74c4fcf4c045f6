/* Native march for reflectedsde.solvers at d = m <= D_MAX.
 *
 * One call marches a batch of B paths through a run of steps of either
 * scheme, with a built-in coefficient family (constant, linear or trig)
 * and an affine drift b(y) = A y + c, on a box (at d = 1 the interval)
 * or, at d = 2 and d = 3, a ball or an annulus.  Both schemes are one
 * march written once over d, which differ only in their displacement, as
 * solvers._march does in numpy; each entry point inlines it once for each
 * d, with d a constant, so that every loop over coordinates has constant
 * bounds, and once more for each d at B = 1.
 *
 * Rows march in tiles of up to TILE_ROWS.  A tile loads its rows' states
 * and variations into structure-of-arrays locals, y[k][r] for coordinate k
 * of row r, marches them through every step of the call and stores them
 * back.  Each part of a step is a loop over the tile's rows: trig's
 * argument, the fields, the noise, drift and correction sums, the clip,
 * the radius, the push, dL and |dL|.  -O3 vectorises these at the
 * baseline ISA; libm's sin and cos are one call per row, in a loop of
 * their own, and a push is a select, not a branch.  Every lane makes the
 * operation its row would make alone, and the baseline ISA's vector add,
 * multiply, divide, sqrt and compare round as their scalar forms do, so
 * vectorising changes no bit.
 *
 * Every step makes the numpy march's operations, in its order and with its
 * roundings, so both give the same bits at every batch width (up to the
 * sign of a NaN: where two NaNs of different sign meet, the compiler picks
 * which one a sum keeps here, and numpy's loops there):
 *   - every contraction (the drift A y + c, linear's sigma, trig's
 *     argument f . y, the noise term sigma dw and the noise-interaction
 *     term) is a column sum in ascending index order that starts from its
 *     first product, as coefficients.py forms it over the batch;
 *   - the clip is np.minimum(np.maximum(y, lo), hi): NaN propagates and a
 *     tie takes the bound;
 *   - radii and variation increments are sqrt(a0 * a0 + a1 * a1 + ...),
 *     as geometry.sum_squares computes them; the ball and the annulus
 *     scale only the rows they push (the others keep their bits, -0.0
 *     included), a NaN row passes, and the annulus's centre becomes NaN;
 *   - sin and cos are libm's, which numpy's float64 ufuncs call too (the
 *     compiler may fetch both through sincos, which gives the same bits).
 * brownian.py builds this file with _streams.c into one library, with
 * -ffp-contract=off, so that no multiply and add fuse into an FMA (its
 * _CFLAGS give the whole command), and with no -march, so at the baseline
 * ISA.
 *
 * States and outputs hold d doubles per row: x[b * d + k] and
 * out[(j * B + b) * d + k]; the variation is var[b].  Output j is recorded
 * when the march reaches step position out_pos[j], which solvers.py checks
 * to be ascending within the march: a call records the outputs due at its
 * first position and after each of its steps, each tile its own rows.  The
 * reference march returns the index of the next output, where its next
 * call resumes.  With non-NULL log pointers (a batch of one) step i also
 * stores its state and regulator increment at [i * d] and its variation
 * increment at [i].
 *
 * dom and fam are the tags cover.native_tag packs, as doubles, with
 * matrices row-major and m = d:
 *   dom = {d, domain, then 2 * D_MAX slots: the box's lo (d) and hi (d),
 *          the ball's radius, or the annulus's r1 and r2};
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

#define D_MAX 3
/* The marches' parts, inlined where d is a constant. */
#define INLINE static inline __attribute__((always_inline))

enum { CONSTANT = 0, LINEAR = 1, TRIG = 2 };
enum { BOX = 0, BALL = 1, ANNULUS = 2 };

/* Rows per tile, and one value of each row of a tile. */
#define TILE_ROWS 64
typedef double tile_t[TILE_ROWS];

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

/* Entry i of y @ M.T at row r of a tile of states y, for a row m_i = M[i]
 * of M: y0 * m_i0 + y1 * m_i1 + ...  It forms trig's argument f . y,
 * linear's sigma and the drift's A y. */
INLINE double dot(int d, const tile_t *y, int r, const double *m_i)
{
    double t = y[0][r] * m_i[0];
    for (int k = 1; k < d; k++)
        t = t + y[k][r] * m_i[k];
    return t;
}

/* sqrt(a0 * a0 + a1 * a1 + ...) at row r of a tile, as sum_squares adds. */
INLINE double norm(int d, const tile_t *a, int r)
{
    double t = a[0][r] * a[0][r];
    for (int k = 1; k < d; k++)
        t = t + a[k][r] * a[k][r];
    return sqrt(t);
}

/* Record the tile's n rows from row lo of the outputs due at step
 * position pos. */
INLINE int64_t record(int d, int64_t pos, int64_t lo, int n, int64_t B, const tile_t *y,
                      const int64_t *out_pos, int64_t n_out, int64_t j, double *out)
{
    while (j < n_out && out_pos[j] == pos) {
        for (int r = 0; r < n; r++)
            for (int c = 0; c < d; c++)
                out[(j * B + lo + r) * d + c] = y[c][r];
        j++;
    }
    return j;
}

/* sigma (row-major (d, m), entry e at sig[e]) at the tile's n states y of
 * a linear or trig family, and with g trig's derivative too (entry (i, j,
 * k) at g[(i * m + j) * d + k]); constant's sigma, and constant's and
 * linear's derivative, l, do not depend on the state.  trig takes sin (and
 * cos) once per distinct phase per row, then each entry amp * t and offset
 * + that, as coefficients.trig spreads them; the one entry at d = m = 1
 * has one phase, whose index is 0. */
INLINE void fields(int d, const kernel_t *k, const tile_t *y, int n, tile_t *sig, tile_t *g)
{
    int dm = d * d;
    if (k->family == LINEAR) {
        for (int e = 0; e < dm; e++)
            for (int r = 0; r < n; r++)
                sig[e][r] = dot(d, y, r, k->l + e * d) + k->s[e];
        return;
    }
    tile_t u, sn[D_MAX * D_MAX], cs[D_MAX * D_MAX];
    for (int r = 0; r < n; r++)
        u[r] = dot(d, y, r, k->f);
    /* Every set has a phase, and at most d * m. */
    int q = 0;
    do
        for (int r = 0; r < n; r++) {
            sn[q][r] = sin(u[r] + k->phase[q]);
            if (g)
                cs[q][r] = cos(u[r] + k->phase[q]);
        }
    while (++q < dm && q < k->n_phase);
    for (int e = 0; e < dm; e++) {
        int p = dm == 1 ? 0 : k->spread[e];
        for (int r = 0; r < n; r++) {
            sig[e][r] = k->s[e] + k->amp[e] * sn[p][r];
            for (int i = 0; g && i < d; i++)
                g[e * d + i][r] = k->amp[e] * cs[p][r] * k->f[i];
        }
    }
}

/* Row r's regulator increment x - y and its length, which the variation
 * acc adds. */
INLINE void regulate(int d, int r, const tile_t *y, const tile_t *x, tile_t *dl, double *dvar,
                     double *acc)
{
    for (int i = 0; i < d; i++)
        dl[i][r] = x[i][r] - y[i][r];
    dvar[r] = norm(d, dl, r);
    acc[r] += dvar[r];
}

/* Resolve the tile's n proposals y against the domain: x becomes the new
 * states, dl the regulator increments and dvar their lengths, the
 * variation increments, which acc adds.  At d = 1 the domain is the box,
 * the only one covered. */
INLINE void resolve(int d, const kernel_t *k, int n, const tile_t *y, tile_t *x, tile_t *dl,
                    double *dvar, double *acc)
{
    if (d == 1 || k->domain == BOX) {
        for (int r = 0; r < n; r++) {
            for (int i = 0; i < d; i++) {
                /* A NaN fails both comparisons and passes through. */
                double t = k->lo[i] >= y[i][r] ? k->lo[i] : y[i][r];
                x[i][r] = k->hi[i] <= t ? k->hi[i] : t;
            }
            regulate(d, r, y, x, dl, dvar, acc);
        }
        return;
    }
    /* Every row scaled, then selected: gcc vectorises no scaling or load
     * that is left under the push's branch, so both are done first. */
    tile_t rad, scaled[D_MAX];
    for (int r = 0; r < n; r++) {
        rad[r] = norm(d, y, r);
        /* The centre has no closest point. */
        double q = (rad[r] < k->r1 ? k->r1 : k->r2) / (rad[r] == 0.0 ? (double)NAN : rad[r]);
        for (int i = 0; i < d; i++)
            scaled[i][r] = y[i][r] * q;
    }
    for (int r = 0; r < n; r++) {
        /* A NaN radius pushes no row. */
        int push = (rad[r] < k->r1) | (rad[r] > k->r2);
        double s[D_MAX], kept[D_MAX];
        for (int i = 0; i < d; i++)
            s[i] = scaled[i][r], kept[i] = y[i][r];
        for (int i = 0; i < d; i++)
            x[i][r] = push ? s[i] : kept[i];
        regulate(d, r, y, x, dl, dvar, acc);
    }
}

/* What a march reads besides the states and writes besides them and the
 * variation.  Step i's noise for row b and coordinate k is at a = w + t *
 * knot_step + b * row_step + k * col_step, t its knot: the reference's is
 * the increment a[knot_step] - a[0] of the Brownian knots with t = i -
 * first, over the fine step h; the Wong-Zakai march's is the slope a[0]
 * on knot interval t = knot_idx[i], over dts[i]. */
typedef struct {
    const double *w;
    int64_t row_step, knot_step, col_step;
    const double *dts;
    const int64_t *knot_idx;
    double h;
    const int64_t *out_pos;
    int64_t n_out;
    double *out, *log_x, *log_dl, *log_dvar;
} io_t;

/* Steps first .. first + n_steps - 1 of either scheme, from output j0 on;
 * returns the next output's index. */
INLINE int64_t march(int d, int ref, const double *dom, const double *fam, int64_t B, double *x,
                     double *var, io_t io, int64_t first, int64_t n_steps, int64_t j0)
{
    int dm = d * d, g = dm * d;
    kernel_t k = kernel(d, dom, fam);
    tile_t y[D_MAX], acc, p[D_MAX], dl[D_MAX], dvar, sig[D_MAX * D_MAX],
        grad[D_MAX * D_MAX * D_MAX];
    /* What the family does not evaluate at each step, laid out once. */
    for (int r = 0; r < B && r < TILE_ROWS; r++) {
        for (int e = 0; e < dm; e++)
            sig[e][r] = k.s[e];
        for (int e = 0; ref && e < g; e++)
            grad[e][r] = k.l[e];
    }
    int64_t j = j0, lo = 0;
    /* A batch of no rows is one tile of none, which records no row. */
    do {
        int n = lo + TILE_ROWS < B ? TILE_ROWS : (int)(B - lo);
        for (int r = 0; r < n; r++) {
            for (int c = 0; c < d; c++)
                y[c][r] = x[(lo + r) * d + c];
            acc[r] = var[lo + r];
        }
        j = record(d, first, lo, n, B, y, io.out_pos, io.n_out, j0, io.out);
        for (int64_t i = first; i < first + n_steps; i++) {
            const double *a = io.w + (ref ? i - first : io.knot_idx[i]) * io.knot_step
                              + lo * io.row_step;
            double dt = ref ? io.h : io.dts[i];
            if (k.family != CONSTANT)
                fields(d, &k, y, n, sig, ref ? grad : NULL);
            for (int r = 0; r < n; r++) {
                double dw[D_MAX];
                for (int c = 0; c < d; c++) {
                    const double *ac = a + r * io.row_step + c * io.col_step;
                    dw[c] = ref ? ac[io.knot_step] - ac[0] : ac[0];
                }
                for (int c = 0; c < d; c++) {
                    /* sum_j sig_cj dw_j, in ascending j. */
                    double v = sig[c * d][r] * dw[0];
                    for (int jj = 1; jj < d; jj++)
                        v = v + sig[c * d + jj][r] * dw[jj];
                    double drift = dot(d, y, r, k.a + c * d) + k.c[c];
                    if (ref) {
                        /* sum_{j,k} grad_cjk sig_kj, in ascending j, and
                         * within it ascending k. */
                        const tile_t *gc = grad + c * dm;
                        double t = gc[0][r] * sig[0][r];
                        for (int e = 1; e < dm; e++)
                            t = t + gc[e][r] * sig[(e % d) * d + e / d][r];
                        v = v + (drift + 0.5 * t) * dt;
                    } else {
                        v = (v + drift) * dt;
                    }
                    p[c][r] = y[c][r] + v;
                }
            }
            resolve(d, &k, n, p, y, dl, dvar, acc);
            if (io.log_x) {
                for (int c = 0; c < d; c++) {
                    io.log_x[i * d + c] = y[c][0];
                    io.log_dl[i * d + c] = dl[c][0];
                }
                io.log_dvar[i] = dvar[0];
            }
            j = record(d, i + 1, lo, n, B, y, io.out_pos, io.n_out, j, io.out);
        }
        for (int r = 0; r < n; r++) {
            for (int c = 0; c < d; c++)
                x[(lo + r) * d + c] = y[c][r];
            var[lo + r] = acc[r];
        }
    } while ((lo += TILE_ROWS) < B);
    return j;
}

/* The march inlined at d = 1, 2 and 3, and for each at B = 1 too: a
 * single path's row loops then unroll, and its tile stays in registers. */
INLINE int64_t inlined(int ref, const double *dom, const double *fam, int64_t B, double *x,
                       double *var, io_t io, int64_t first, int64_t n_steps, int64_t j)
{
    if (dom[0] == 1.0)
        return B == 1 ? march(1, ref, dom, fam, 1, x, var, io, first, n_steps, j)
                      : march(1, ref, dom, fam, B, x, var, io, first, n_steps, j);
    if (dom[0] == 2.0)
        return B == 1 ? march(2, ref, dom, fam, 1, x, var, io, first, n_steps, j)
                      : march(2, ref, dom, fam, B, x, var, io, first, n_steps, j);
    return B == 1 ? march(3, ref, dom, fam, 1, x, var, io, first, n_steps, j)
                  : march(3, ref, dom, fam, B, x, var, io, first, n_steps, j);
}

/* ------------------------------------------------------------------------
 * Entry points
 * ---------------------------------------------------------------------- */

int64_t march_reference(const double *dom, const double *fam, int64_t B, double *x,
                        double *var, const double *w, int64_t row_step, int64_t knot_step,
                        int64_t col_step, int64_t first, int64_t n_steps, double h,
                        const int64_t *out_pos, int64_t n_out, int64_t j, double *out,
                        double *log_x, double *log_dl, double *log_dvar)
{
    io_t io = {w, row_step, knot_step, col_step, NULL, NULL, h, out_pos, n_out, out,
               log_x, log_dl, log_dvar};
    return inlined(1, dom, fam, B, x, var, io, first, n_steps, j);
}

/* All steps of one Wong-Zakai level: step i lasts dts[i] and moves along
 * row b's slope on knot interval knot_idx[i], slopes[(b * n_knots +
 * knot_idx[i]) * d + k]. */
void march_wz(const double *dom, const double *fam, int64_t B, double *x, double *var,
              const double *slopes, int64_t n_knots, const double *dts, const int64_t *knot_idx,
              int64_t n_steps, const int64_t *out_pos, int64_t n_out, double *out,
              double *log_x, double *log_dl, double *log_dvar)
{
    int64_t d = (int64_t)dom[0];
    io_t io = {slopes, n_knots * d, d, 1, dts, knot_idx, 0.0, out_pos, n_out, out,
               log_x, log_dl, log_dvar};
    inlined(0, dom, fam, B, x, var, io, 0, n_steps, 0);
}
