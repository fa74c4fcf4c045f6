/* Native Brownian streams for reflectedsde.brownian.
 *
 * Every stream is Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel
 * random numbers: as easy as 1, 2, 3", SC 2011) keyed by SeedSequence's
 * pool-4 hash of (seed, level), and its normals are numpy's ziggurat
 * (Marsaglia and Tsang, 2000).  So every draw equals
 * numpy.random.Generator(numpy.random.Philox(key=...)).standard_normal bit
 * for bit.  The ziggurat's one-word fast path, about 99% of the draws, runs
 * inline (normal() below) with numpy's tables; every other word goes to
 * numpy's own random_standard_normal in libnpyrandom, which runs the wedge
 * and the tail.  numpy does not export its tables, so the library reads
 * them back from that function when it is loaded and checks the inline
 * path against it; if the check fails, every draw calls numpy's function.
 * Without this library, brownian.py draws the same bits from
 * numpy's SeedSequence plus one numpy Philox per stream: a second oracle.
 *
 * Entry points:
 * - sample_paths samples a batch of paths in one call: for each path it
 *   keys every (seed, level) stream, draws level 0, forms the running sums
 *   and refines every level, each stream's state held locally;
 * - path_seeds gives the per-path seeds of a range of path indices, with
 *   SeedSequence's hash (seed_sequence), so that keying needs no
 *   numpy.random; stream_keys gives the keys of (seed, level) streams;
 * - refine_levels inserts every midpoint level of a batch, or of a time
 *   block, in one call, drawing from saved stream states: path by path for
 *   path-major knots, and for time-major knots a tile of paths at a time,
 *   each stream first drawing a short run of normals into a scratch with
 *   its state held locally; it saves every stream's state back, so that a
 *   stream drawn in pieces resumes where it stopped;
 * - inline_ziggurat tells whether the inline fast path passed its check.
 *
 * brownian.py builds this file, with _march.c, into one library:
 *     cc <_CFLAGS> -I <numpy include> _streams.c _march.c \
 *        <numpy>/random/lib/libnpyrandom.a -lm
 * -ffp-contract=off keeps the midpoint formula to the separate roundings of
 * numpy's add, multiply and add; no fused multiply-add may appear.
 * mulhilo needs unsigned __int128 (gcc and clang on 64-bit targets).
 *
 * Every stream has a saved state of nine words: the counter (4), the buffer
 * (4) and the buffer position; a fresh stream (FRESH below) has counter
 * zero and position 4.  Normal draws never take a 32-bit half, so that half
 * is not saved.
 */

#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

double random_standard_normal(bitgen_t *bitgen_state);

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define PHILOX_ROUNDS 10

/* The saved state of a stream at counter zero. */
static const uint64_t FRESH[9] = {0, 0, 0, 0, 0, 0, 0, 0, 4};

typedef struct {
    uint64_t counter[4];
    uint64_t key[2];
    uint64_t buffer[4];
    int pos;
    int has_uint32;
    uint32_t uinteger;
} philox_t;

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 product = (unsigned __int128)a * b;
    *hi = (uint64_t)(product >> 64);
    return (uint64_t)product;
}

/* numpy's philox_next: increment the counter, then encrypt it. */
static uint64_t philox_next64(void *st)
{
    philox_t *s = st;
    if (s->pos < 4)
        return s->buffer[s->pos++];
    if (++s->counter[0] == 0 && ++s->counter[1] == 0 && ++s->counter[2] == 0)
        ++s->counter[3];
    uint64_t c0 = s->counter[0], c1 = s->counter[1], c2 = s->counter[2], c3 = s->counter[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    /* Fully unrolled, the rounds draw about 12% faster at -O2. */
#pragma GCC unroll 10
    for (int round = 0; round < PHILOX_ROUNDS; round++) {
        if (round > 0) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(PHILOX_M0, c0, &hi0);
        uint64_t lo1 = mulhilo(PHILOX_M1, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
    }
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
    s->pos = 1;
    return c0;
}

static uint32_t philox_next32(void *st)
{
    philox_t *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t next = philox_next64(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* The ziggurat's wedge and tail call this one. */
static double philox_next_double(void *st)
{
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Stream ``key`` (two words) at its ``saved`` state. */
static void philox_load(philox_t *s, const uint64_t *key, const uint64_t *saved)
{
    s->key[0] = key[0];
    s->key[1] = key[1];
    for (int i = 0; i < 4; i++) {
        s->counter[i] = saved[i];
        s->buffer[i] = saved[4 + i];
    }
    s->pos = (int)saved[8];
    s->has_uint32 = 0;
    s->uinteger = 0;
}

static void philox_save(const philox_t *s, uint64_t *saved)
{
    for (int i = 0; i < 4; i++) {
        saved[i] = s->counter[i];
        saved[4 + i] = s->buffer[i];
    }
    saved[8] = (uint64_t)s->pos;
}

static bitgen_t philox_bitgen(philox_t *s)
{
    bitgen_t g = {s, philox_next64, philox_next32, philox_next_double, philox_next64};
    return g;
}

/* numpy's ziggurat reads a word as idx = r & 0xff, sign = bit 8 and rabs =
 * the 52 bits from bit 9, and returns +-rabs * wi[idx] from that word alone
 * when rabs < ki[idx].  zig_k and zig_w are ki and wi as read back at load;
 * every zig_k is 0 when the inline path is off. */
#define RABS_MASK 0x000FFFFFFFFFFFFFULL
static uint64_t zig_k[256];
static double zig_w[256];
static int zig_on;

/* The fast path's value of word ``r``.  numpy's ``-x`` flips the sign bit,
 * so bit 8 flips it here, with no branch (-0.0 included). */
static inline double zig_fast(uint64_t r)
{
    double x = (double)((r >> 9) & RABS_MASK) * zig_w[r & 0xff];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r & 0x100) << 55;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The next standard normal of stream ``s``, whose bitgen is ``g``.  A word
 * off the fast path is put back (it is still in the block buffer) for
 * numpy's function to draw again. */
static inline double normal(philox_t *s, bitgen_t *g)
{
    uint64_t r = philox_next64(s);
    if (((r >> 9) & RABS_MASK) < zig_k[r & 0xff])
        return zig_fast(r);
    s->pos--;
    return random_standard_normal(g);
}

/* A bitgen that serves ``word``, then 0 (idx 0 and rabs 0, taken at once)
 * and 0.5 for every double (accepted in the wedge and the tail), so that
 * numpy's function returns after a few calls whatever its tables hold. */
typedef struct {
    uint64_t word;
    int words, doubles;
} probe_t;

static uint64_t probe_next64(void *st)
{
    probe_t *p = st;
    return p->words++ ? 0 : p->word;
}

static uint32_t probe_next32(void *st)
{
    return (uint32_t)probe_next64(st);
}

static double probe_next_double(void *st)
{
    ((probe_t *)st)->doubles++;
    return 0.5;
}

/* numpy's normal of ``word``; ``*fast`` says whether it took that word alone. */
static double probe(uint64_t word, int *fast)
{
    probe_t p = {word, 0, 0};
    bitgen_t g = {&p, probe_next64, probe_next32, probe_next_double, probe_next64};
    double x = random_standard_normal(&g);
    *fast = p.words == 1 && p.doubles == 0;
    return x;
}

/* ki[i] is the least rabs at which numpy takes more than the word with
 * index i, found by bisection (numpy takes the word alone exactly below
 * ki), or 2^52 when there is none; numpy's ki[1] is 0.  wi[i] is numpy's
 * normal of the word with index i and rabs 1 when that word is fast; else
 * the fast path takes at most rabs 0 and wi[i] does not matter. */
static void zig_read_back(void)
{
    for (uint64_t i = 0; i < 256; i++) {
        int fast;
        uint64_t lo = 0, hi = RABS_MASK + 1;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe(mid << 9 | i, &fast);
            if (fast)
                lo = mid + 1;
            else
                hi = mid;
        }
        zig_k[i] = lo;
        zig_w[i] = lo > 1 ? probe(1ULL << 9 | i, &fast) : 0.0;
    }
}

/* Normals of the check stream: enough to meet numpy's wedge and tail. */
#define CHECK_DRAWS 65536

/* Every index at rabs 0, 1, ki - 1, ki and 2^52 - 1 with both signs: where
 * the inline path is fast, numpy takes the word alone and returns the same
 * bytes, and elsewhere numpy takes more.  Then one Philox stream gives the
 * same bytes and ends in the same state drawn inline and by numpy. */
static int zig_check(void)
{
    for (uint64_t i = 0; i < 256; i++) {
        uint64_t k = zig_k[i], at[5] = {0, 1, k - 1, k, RABS_MASK};
        for (int a = 0; a < 5; a++) {
            if (at[a] > RABS_MASK)
                continue;
            for (uint64_t sign = 0; sign < 2; sign++) {
                uint64_t word = at[a] << 9 | sign << 8 | i;
                int fast;
                double x = probe(word, &fast), y = zig_fast(word);
                if (fast != (at[a] < k) || (fast && memcmp(&x, &y, sizeof x)))
                    return 0;
            }
        }
    }
    const uint64_t key[2] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL};
    philox_t ours, theirs;
    philox_load(&ours, key, FRESH);
    philox_load(&theirs, key, FRESH);
    bitgen_t our_g = philox_bitgen(&ours), their_g = philox_bitgen(&theirs);
    for (int n = 0; n < CHECK_DRAWS; n++) {
        double x = normal(&ours, &our_g), y = random_standard_normal(&their_g);
        if (memcmp(&x, &y, sizeof x))
            return 0;
    }
    uint64_t our_saved[9], their_saved[9];
    philox_save(&ours, our_saved);
    philox_save(&theirs, their_saved);
    return !memcmp(our_saved, their_saved, sizeof our_saved);
}

/* At load, before any entry point can run: read the tables back and check
 * them, or leave every draw to numpy's function. */
__attribute__((constructor)) static void zig_init(void)
{
    zig_read_back();
    zig_on = zig_check();
    if (!zig_on)
        memset(zig_k, 0, sizeof zig_k);
}

/* 1 when the inline fast path passed its check at load; 0 when numpy's
 * function draws every normal. */
int inline_ziggurat(void)
{
    return zig_on;
}

/* numpy's SeedSequence at pool size 4 (numpy/random/bit_generator.pyx). */
#define INIT_A 0x43B0D7E5u
#define MULT_A 0x931E8875u
#define INIT_B 0x8B51F9DDu
#define MULT_B 0x58F38DEDu
#define MIX_MULT_L 0xCA01F9DDu
#define MIX_MULT_R 0x4973F715u

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> 16);
}

/* SeedSequence(entropy).generate_state(n_out / 2, uint64) as n_out 32-bit
 * words, little-endian pairs, for the n entropy words of the sequence's
 * integers (each one word below 2^32, else two).  The pool pads the first
 * four words with zeros; words past them are mixed into every pool word. */
static void seed_sequence(const uint32_t *entropy, int n, uint32_t *out, int n_out)
{
    uint32_t pool[4], hash_const = INIT_A;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_const));
    hash_const = INIT_B;
    for (int i = 0; i < n_out; i++) {
        uint32_t value = pool[i % 4] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        out[i] = value ^ (value >> 16);
    }
}

/* Appends the entropy words of ``value`` at ``words[n]``; returns the new n. */
static int entropy_words(uint64_t value, uint32_t *words, int n)
{
    words[n++] = (uint32_t)value;
    if (value >> 32)
        words[n++] = (uint32_t)(value >> 32);
    return n;
}

/* SeedSequence([seed, level]).generate_state(2, uint64), seed below 2^63. */
static void seed_key(uint64_t seed, uint32_t level, uint64_t *key)
{
    uint32_t entropy[3], words[4];
    int n = entropy_words(seed, entropy, 0);
    entropy[n++] = level;
    seed_sequence(entropy, n, words, 4);
    key[0] = words[0] | (uint64_t)words[1] << 32;
    key[1] = words[2] | (uint64_t)words[3] << 32;
}

/* The seeds of paths first .. first + n - 1 into ``out``: path i's is
 * SeedSequence([seed, 0x5EED, i]).generate_state(1, uint64), seed below
 * 2^63 and every index below 2^64. */
void path_seeds(uint64_t seed, uint64_t first, int64_t n, uint64_t *out)
{
    uint32_t entropy[5], words[2];
    int head = entropy_words(seed, entropy, 0);
    entropy[head++] = 0x5EED;
    for (int64_t i = 0; i < n; i++) {
        seed_sequence(entropy, entropy_words(first + (uint64_t)i, entropy, head), words, 2);
        out[i] = words[0] | (uint64_t)words[1] << 32;
    }
}

/* Keys of every (level, seed) pair into ``out``, shape (n_levels, n_seeds, 2). */
void stream_keys(const uint64_t *seeds, int64_t n_seeds, const uint32_t *levels,
                 int64_t n_levels, uint64_t *out)
{
    for (int64_t j = 0; j < n_levels; j++)
        for (int64_t b = 0; b < n_seeds; b++)
            seed_key(seeds[b], levels[j], out + 2 * (j * n_seeds + b));
}

/* ``count`` normals of stream ``key`` from its ``saved`` state into ``out``,
 * the state kept locally while drawing and saved back after. */
static void draw_run(const uint64_t *key, uint64_t *saved, int64_t count, double *out)
{
    philox_t s;
    philox_load(&s, key, saved);
    bitgen_t g = philox_bitgen(&s);
    for (int64_t i = 0; i < count; i++)
        out[i] = normal(&s, &g);
    philox_save(&s, saved);
}

/* Paths refined together when knots are stored time-major. */
#define TILE 256
/* Most normals each stream of a tile draws at a time, in whole knots. */
#define RUN 64

/* Path-major refinement of one path, its stream's state held locally:
 * refine_level's midpoints of the path whose knots start at ``values``. */
static void refine_path(const uint64_t *key, uint64_t *saved, double *values, int64_t knot_step,
                        int64_t comp_step, int64_t n_mid, int64_t m, double scale)
{
    philox_t s;
    philox_load(&s, key, saved);
    bitgen_t g = philox_bitgen(&s);
    for (int64_t k = 0; k < n_mid; k++) {
        double *left = values + 2 * k * knot_step;
        double *mid = left + knot_step, *right = mid + knot_step;
        for (int64_t c = 0; c < m; c++) {
            double z = normal(&s, &g);
            mid[c * comp_step] = ((left[c * comp_step] + right[c * comp_step]) * 0.5)
                                 + (z * scale);
        }
    }
    philox_save(&s, saved);
}

/* One level of midpoints for ``n_paths`` paths, in place.
 *
 * Path ``b``'s knot ``k`` component ``c`` is the double at
 * ``values[b * path_step + k * knot_step + c * comp_step]``; knots 0, 2, 4,
 * ... are filled and the ``n_mid`` odd knots between them are set to
 * ``((left + right) * 0.5) + (z * scale)``, with ``z`` drawn from stream
 * ``b``, keyed ``keys[2b:2b+2]`` and started at ``saved[9b:9b+9]``, in
 * knot-major, component-minor order, and saved back after.
 *
 * Path-major knots (no scratch ``z``) are refined one path at a time, its
 * stream's state held locally.  Time-major knots are refined a tile of
 * TILE paths and a run of ``run`` knots at a time: each stream of the tile
 * first draws the run's normals into the scratch ``z`` (run * m <= RUN
 * doubles per path), its state held locally, and then the midpoints are formed
 * knot by knot and path by path, so that memory is walked in order and no
 * state is loaded and saved per draw.  Each stream draws in its own order
 * either way, so the bits do not depend on the layout, tile or run.
 */
static void refine_level(const uint64_t *keys, uint64_t *saved, int64_t n_paths, double *values,
                         int64_t path_step, int64_t knot_step, int64_t comp_step, int64_t n_mid,
                         int64_t m, double scale, double *z, int64_t run)
{
    if (z == NULL) {
        for (int64_t b = 0; b < n_paths; b++)
            refine_path(keys + 2 * b, saved + 9 * b, values + b * path_step, knot_step, comp_step,
                        n_mid, m, scale);
        return;
    }
    for (int64_t b0 = 0; b0 < n_paths; b0 += TILE) {
        int64_t n = n_paths - b0 < TILE ? n_paths - b0 : TILE;
        for (int64_t k0 = 0; k0 < n_mid; k0 += run) {
            int64_t r = n_mid - k0 < run ? n_mid - k0 : run;
            for (int64_t i = 0; i < n; i++)
                draw_run(keys + 2 * (b0 + i), saved + 9 * (b0 + i), r * m, z + i * run * m);
            for (int64_t k = k0; k < k0 + r; k++) {
                for (int64_t i = 0; i < n; i++) {
                    double *left = values + (b0 + i) * path_step + 2 * k * knot_step;
                    double *mid = left + knot_step, *right = mid + knot_step;
                    const double *zk = z + (i * run + k - k0) * m;
                    for (int64_t c = 0; c < m; c++)
                        mid[c * comp_step] = ((left[c * comp_step] + right[c * comp_step]) * 0.5)
                                             + (zk[c] * scale);
                }
            }
        }
    }
}

/* The time-major scratch, one per thread: ctypes releases the GIL. */
static _Thread_local double scratch[TILE * RUN];

/* ``n_levels`` levels of midpoints, in place: the first as refine_level's,
 * with ``knot_step`` the step from a knot to its midpoint, and each next
 * level between the knots filled before it, at half the step and with
 * twice the midpoints.  Level ``l`` draws from the streams at ``keys + 2 *
 * l * n_paths`` and ``saved + 9 * l * n_paths`` and scales by
 * ``scales[l]``.  Time-major knots (path_step < knot_step) of at most RUN
 * components are refined TILE paths and RUN / m knots at a time, all
 * other knots one path at a time. */
void refine_levels(const uint64_t *keys, uint64_t *saved, int64_t n_paths, double *values,
                   int64_t path_step, int64_t knot_step, int64_t comp_step, int64_t n_mid,
                   int64_t m, const double *scales, int64_t n_levels)
{
    double *z = path_step < knot_step && m <= RUN ? scratch : NULL;
    for (int64_t l = 0; l < n_levels; l++) {
        refine_level(keys + 2 * l * n_paths, saved + 9 * l * n_paths, n_paths, values, path_step,
                     knot_step, comp_step, n_mid, m, scales[l], z, z ? RUN / m : 0);
        knot_step /= 2;
        n_mid *= 2;
    }
}

/* The bits of a seed that key its streams: brownian._SEED_MASK. */
#define SEED_MASK 0x7FFFFFFFFFFFFFFFULL

/* ``n_paths`` paths sampled into ``values``, C-contiguous of shape
 * (n_paths, units * 2^fine_level + 1, m), as brownian.sample_path's numpy
 * branch samples them, bit for bit.  Path ``b``'s stream at each level is
 * keyed by seed_key from ``seeds[b]`` masked to 63 bits and starts fresh,
 * its state held locally and not saved.  Knot 0 is 0.0.  Level 0 draws
 * units * m normals, knot-major, into every 2^fine_level-th knot as their
 * running sums, started from the first draw as np.add.accumulate starts
 * (so a -0.0 draw stays -0.0).  Levels 1 .. fine_level then fill their
 * midpoints as refine_levels does, level ``l`` scaled by ``scales[l - 1]``. */
void sample_paths(const uint64_t *seeds, int64_t n_paths, int64_t m, int64_t units,
                  int64_t fine_level, const double *scales, double *values)
{
    int64_t stride = (int64_t)1 << fine_level, path_step = (units * stride + 1) * m;
    for (int64_t b = 0; b < n_paths; b++) {
        uint64_t seed = seeds[b] & SEED_MASK, key[2], saved[9];
        double *path = values + b * path_step;
        for (int64_t c = 0; c < m; c++)
            path[c] = 0.0;
        seed_key(seed, 0, key);
        philox_t s;
        philox_load(&s, key, FRESH);
        bitgen_t g = philox_bitgen(&s);
        for (int64_t k = 0; k < units; k++) {
            double *knot = path + (k + 1) * stride * m;
            const double *prev = knot - stride * m;
            for (int64_t c = 0; c < m; c++) {
                double z = normal(&s, &g);
                knot[c] = k ? prev[c] + z : z;
            }
        }
        for (int64_t level = 1; level <= fine_level; level++) {
            seed_key(seed, (uint32_t)level, key);
            memcpy(saved, FRESH, sizeof saved);
            refine_path(key, saved, path, (stride >> level) * m, 1, units << (level - 1), m,
                        scales[level - 1]);
        }
    }
}
