/*
 * The exact stage chain of one die's 1-D record, compiled.
 *
 * A second implementation of what repro.core computes for an exact-tier
 * conversion with a numpy PCG64 generator: the comparator bank of
 * DynamicComparator.compare (SubAdc.decide, FlashBackend.decide), the
 * residue transfer of Mdac.amplify with TwoStageMillerOpamp.settle and
 * .compress, and DigitalCorrection.combine.  Every floating-point
 * expression is numpy's, operation for operation and in numpy's order,
 * and every random number is the one numpy would draw, from the same
 * generator state and in the same order (pcg64_normal.c supplies the
 * PCG64 step and the ziggurat).  So the codes, the residue bytes and
 * the generator state left behind are numpy's.
 *
 * What numpy's elementwise operations become here:
 *   - no multiply-add is fused (build with -ffp-contract=off);
 *   - np.sign(x) is 1, -1, +0 for either zero, and NaN for NaN;
 *   - np.maximum(x, 0.0) keeps -0.0 and NaN;
 *   - np.clip(x, lo, hi) is min(max(x, lo), hi), NaN passing through;
 * each written as selects the vectorizer can if-convert.
 *
 * The one transcendental, the exp of the slewing samples' settling, is
 * not computed here: numpy's exp differs from libm's in the last bit on
 * some hosts.  repro_stage_chain leaves the exp arguments in a compact
 * array, the caller runs numpy's own np.exp over it in place, and
 * repro_stage_finish completes those samples.
 *
 * repro.native.chain loads this library and checks it against the
 * numpy path once per process; any mismatch keeps every caller on numpy.
 */

#include "pcg64_normal.c"

/* Comparator bank parameters: noise rms, metastability window, near-band
 * cut, then one effective threshold per comparator. */
enum { BANK_NOISE, BANK_WINDOW, BANK_CUT, BANK_THRESHOLDS };

/* MDAC parameters (the cached constants of Mdac.amplify), in the order
 * of repro.native.chain.MDAC_FIELDS. */
enum {
    MDAC_ONE_PLUS_RATIO, /* 1 + C1/C2 */
    MDAC_RATIO,          /* C1/C2 */
    MDAC_GAIN,           /* static gain factor 1 - 1/(1 + A0 beta) */
    MDAC_SAMPLING_RMS,
    MDAC_OPAMP_RMS,
    MDAC_KNEE,           /* SR * tau */
    MDAC_SLEW_RATE,
    MDAC_TAU,
    MDAC_DECAY,          /* exp(-T / tau) */
    MDAC_SETTLE_TIME,
    MDAC_SWING,
    MDAC_NEG_COMPRESSION /* -compression */
};

/* Mdac.amplify's impairment switches. */
enum { SAMPLING_NOISE = 1, OPAMP_NOISE = 2, SETTLING = 4 };

/* np.sign: 1, -1, +0 for either zero, NaN for NaN. */
static inline double np_sign(double x)
{
    return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : x + 0.0);
}

/* np.maximum(x, 0.0): NaN for NaN, and -0.0 stays -0.0. */
static inline double np_maximum_zero(double x)
{
    return x < 0.0 ? 0.0 : x;
}

/* np.clip(x, lo, hi), which is min(max(x, lo), hi) with NaN passing
 * through, for bounds that are not zero (where x equal to a bound has
 * the bound's bits, so which of the two a tie returns cannot show). */
static inline double np_clip(double x, double lo, double hi)
{
    double y = x < lo ? lo : x;
    return y > hi ? hi : y;
}

/* (double)code for a 1.5-bit decision in {-1, 0, +1}: the same value,
 * as a select that vectorizes where int64-to-double conversion does
 * not (x86-64 below AVX-512). */
static inline double code_value(int64_t code)
{
    return code > 0 ? 1.0 : (code < 0 ? -1.0 : 0.0);
}

/* TwoStageMillerOpamp.compress, one value. */
static inline double compress(double y, double swing, double neg_compression)
{
    double w = np_clip(y / swing, -1.0, 1.0);
    w = w * w;
    w = w * neg_compression;
    w = w + 1.0;
    w = w * y;
    return np_clip(w, -swing, swing);
}

/* Noise-free decisions of a ``count``-comparator bank:
 * codes[i] = base + #{k : v[i] - threshold[k] > 0}. */
static inline __attribute__((always_inline)) void
decide_clean(const double *restrict v, int64_t n, const double *restrict th,
             int count, int64_t base, int64_t *restrict codes)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t code = base;
        for (int k = 0; k < count; k++)
            code += (v[i] - th[k]) > 0.0;
        codes[i] = code;
    }
}

/*
 * DynamicComparator.compare for each comparator of a bank, in bank
 * order, summed into codes: noise-free decisions everywhere, then per
 * comparator the near band |v - threshold| < cut, its normals
 * (0 + noise * z, in index order), the decisions of the noisy margins,
 * and a coin (next_double < 0.5) for each noisy margin inside the
 * metastability window.  ``near`` and ``margin`` hold n values.
 */
static void bank_decide(pcg64_random_t *s, const double *restrict v, int64_t n,
                        const double *restrict bank, int count, int64_t base,
                        int64_t *restrict codes, int64_t *restrict near,
                        double *restrict margin)
{
    const double noise = bank[BANK_NOISE], window = bank[BANK_WINDOW];
    const double cut = bank[BANK_CUT];
    const double *th = bank + BANK_THRESHOLDS;
    if (count == 2)
        decide_clean(v, n, th, 2, base, codes);
    else
        decide_clean(v, n, th, count, base, codes);
    if (noise == 0.0 && window == 0.0)
        return;
    for (int k = 0; k < count; k++) {
        const double t = th[k];
        int64_t m = 0;
        for (int64_t i = 0; i < n; i++) {
            near[m] = i;
            m += fabs(v[i] - t) < cut;
        }
        if (noise != 0.0) {
            for (int64_t j = 0; j < m; j++)
                margin[j] = (v[near[j]] - t) + (0.0 + noise * standard_normal(s));
        } else {
            for (int64_t j = 0; j < m; j++)
                margin[j] = v[near[j]] - t;
        }
        for (int64_t j = 0; j < m; j++) {
            int64_t i = near[j];
            codes[i] += (int64_t)(margin[j] > 0.0) - (int64_t)((v[i] - t) > 0.0);
        }
        if (window > 0.0) {
            for (int64_t j = 0; j < m; j++) {
                if (fabs(margin[j]) < window) {
                    int64_t coin = next_double(s) < 0.5;
                    codes[near[j]] += coin - (int64_t)(margin[j] > 0.0);
                }
            }
        }
    }
}

/* -linear_time / tau of TwoStageMillerOpamp.settle for a target t
 * (slewing or, in the dense branch, not). */
static inline double exp_argument(double t, const double *restrict p)
{
    double magnitude = fabs(t);
    double t_slew = magnitude > p[MDAC_KNEE]
                        ? (magnitude - p[MDAC_KNEE]) / p[MDAC_SLEW_RATE]
                        : 0.0;
    double linear_time = np_maximum_zero(p[MDAC_SETTLE_TIME] - t_slew);
    return -linear_time / p[MDAC_TAU];
}

/* The settled output of a target t given e = exp(exp_argument(t)). */
static inline double settle_with_exp(double t, double e, const double *restrict p)
{
    double magnitude = fabs(t), sign = np_sign(t);
    if (magnitude > p[MDAC_KNEE]) {
        double t_slew = (magnitude - p[MDAC_KNEE]) / p[MDAC_SLEW_RATE];
        if (t_slew >= p[MDAC_SETTLE_TIME])
            return 0.0 + sign * p[MDAC_SLEW_RATE] * p[MDAC_SETTLE_TIME];
        return t - sign * (p[MDAC_KNEE] * e);
    }
    return t - sign * (magnitude * e);
}

/* Mdac.amplify after the draws: ``residues`` holds the sampling noise
 * (when on), ``noise`` the opamp noise (when on).  See repro_stage_chain. */
static __attribute__((noinline)) int64_t
residue_pass(const double *restrict inputs, const double *restrict references,
             int64_t n, const double *restrict p, int64_t flags,
             const int64_t *restrict codes, double *restrict residues,
             const double *restrict noise, int64_t *restrict index,
             double *restrict target, double *restrict args)
{
    const int sampling = flags & SAMPLING_NOISE, opamp = flags & OPAMP_NOISE;
    /* ((1 + r) * (v + n_s) - (d * r) * vref) * gain */
    const double one_plus_ratio = p[MDAC_ONE_PLUS_RATIO], ratio = p[MDAC_RATIO];
    const double gain = p[MDAC_GAIN], knee = p[MDAC_KNEE];
    int64_t slewing = 0;
    if (sampling) {
        for (int64_t i = 0; i < n; i++) {
            double t = ((residues[i] + inputs[i]) * one_plus_ratio
                        - (code_value(codes[i]) * ratio) * references[i]) * gain;
            residues[i] = t;
            slewing += fabs(t) > knee;
        }
    } else {
        for (int64_t i = 0; i < n; i++) {
            double t = (inputs[i] * one_plus_ratio
                        - (code_value(codes[i]) * ratio) * references[i]) * gain;
            residues[i] = t;
            slewing += fabs(t) > knee;
        }
    }

    const double swing = p[MDAC_SWING], neg_compression = p[MDAC_NEG_COMPRESSION];
    const double decay = p[MDAC_DECAY];
    int64_t listed = 0;
    if (!(flags & SETTLING)) {
        for (int64_t i = 0; i < n; i++) {
            double y = compress(residues[i], swing, neg_compression);
            residues[i] = opamp ? y + noise[i] : y;
        }
    } else if (slewing == 0) {
        for (int64_t i = 0; i < n; i++) {
            double t = residues[i];
            double y = compress(t - t * decay, swing, neg_compression);
            residues[i] = opamp ? y + noise[i] : y;
        }
    } else if (2 * slewing > n) {
        /* numpy's dense branch: every sample goes through exp. */
        for (int64_t i = 0; i < n; i++) {
            index[i] = i;
            target[i] = residues[i];
            args[i] = exp_argument(residues[i], p);
        }
        return n;
    } else {
        for (int64_t i = 0; i < n; i++) {
            index[listed] = i;
            target[listed] = residues[i];
            listed += fabs(residues[i]) > knee;
        }
        for (int64_t j = 0; j < listed; j++)
            args[j] = exp_argument(target[j], p);
        for (int64_t i = 0; i < n; i++) {
            double t = residues[i];
            double y = compress(t - (fabs(t) * decay) * np_sign(t), swing,
                                neg_compression);
            residues[i] = opamp ? y + noise[i] : y;
        }
    }
    return listed;
}

/*
 * One stage of PipelineStage.process: SubAdc.decide, then
 * Mdac.amplify up to numpy's exp.
 *
 * Draws, in numpy's order: the low comparator's normals and coins, the
 * high comparator's, then the MDAC noise (sampling then opamp, each
 * sigma * z, when both are on; 0 + sigma * z for a lone one).  Writes
 * the n codes and the n residues of every sample that does not need
 * numpy's exp.  The samples that do (the slewing ones, or all when more
 * than half slew, as in numpy's dense branch) are listed in index[],
 * with their target in target[] and their exp argument in args[]; the
 * count is returned.  ``noise``, ``index``, ``target`` and ``args``
 * hold n values each; ``residues`` must not overlap ``inputs``.
 */
int64_t repro_stage_chain(void *state_address, const double *restrict inputs,
                          const double *restrict references, int64_t n,
                          const double *restrict bank,
                          const double *restrict p, int64_t flags,
                          int64_t *restrict codes, double *restrict residues,
                          double *restrict noise, int64_t *restrict index,
                          double *restrict target, double *restrict args)
{
    pcg64_random_t *generator = ((pcg64_state *)state_address)->pcg_state;
    pcg64_random_t s = *generator;
    bank_decide(&s, inputs, n, bank, 2, -1, codes, index, target);
    const int sampling = flags & SAMPLING_NOISE, opamp = flags & OPAMP_NOISE;
    if (sampling && opamp) {
        fill_normal(&s, residues, n, 0.0, p[MDAC_SAMPLING_RMS], 0);
        fill_normal(&s, noise, n, 0.0, p[MDAC_OPAMP_RMS], 0);
    } else if (sampling) {
        fill_normal(&s, residues, n, 0.0, p[MDAC_SAMPLING_RMS], 1);
    } else if (opamp) {
        fill_normal(&s, noise, n, 0.0, p[MDAC_OPAMP_RMS], 1);
    }
    generator->state = s.state;

    return residue_pass(inputs, references, n, p, flags, codes, residues,
                        noise, index, target, args);
}

/* The listed samples of repro_stage_chain, after numpy's exp turned
 * args[] into e[]: settle, compress, add the opamp noise. */
void repro_stage_finish(int64_t count, const int64_t *restrict index,
                        const double *restrict target, const double *restrict e,
                        const double *restrict noise, const double *restrict p,
                        int64_t flags, double *restrict residues)
{
    const double swing = p[MDAC_SWING], neg_compression = p[MDAC_NEG_COMPRESSION];
    for (int64_t j = 0; j < count; j++) {
        int64_t i = index[j];
        double y = compress(settle_with_exp(target[j], e[j], p), swing,
                            neg_compression);
        residues[i] = (flags & OPAMP_NOISE) ? y + noise[i] : y;
    }
}

/* FlashBackend.decide of a ``count``-comparator bank (base 0); the
 * stage call runs the same bank for SubAdc.decide with base -1.
 * ``near`` and ``margin`` hold n values. */
void repro_bank_decide(void *state_address, const double *restrict inputs,
                       int64_t n, const double *restrict bank, int64_t count,
                       int64_t base, int64_t *restrict codes,
                       int64_t *restrict near, double *restrict margin)
{
    pcg64_random_t *generator = ((pcg64_state *)state_address)->pcg_state;
    pcg64_random_t s = *generator;
    bank_decide(&s, inputs, n, bank, (int)count, base, codes, near, margin);
    generator->state = s.state;
}

/* Samples per block of repro_combine: the block's words stay in L1
 * while every stage's codes are added. */
#define COMBINE_BLOCK 512

/*
 * DigitalCorrection.combine of one record: out[i] = clip(base +
 * sum_k weights[k] * codes[k * stride + i] + flash[i], 0, top), for
 * stage-major codes (each stage's row contiguous, rows ``stride``
 * apart).  Returns 1 when a stage code leaves {-1, 0, +1}, else 2 when
 * a flash code leaves [0, flash_levels), else 0.
 *
 * weight * code is written as a select (AVX2 has no 64-bit multiply):
 * the same word for a code in {-1, 0, +1}, and a code outside it is
 * reported instead of combined.
 */
int64_t repro_combine(const int64_t *restrict codes, int64_t stride,
                      int64_t n_stages, const int64_t *restrict flash,
                      int64_t n, const int64_t *restrict weights, int64_t base,
                      int64_t flash_levels, int64_t top, int64_t *restrict out)
{
    int64_t low = 0, high = 0, flash_low = 0, flash_high = 0;
    for (int64_t start = 0; start < n; start += COMBINE_BLOCK) {
        const int64_t m = n - start < COMBINE_BLOCK ? n - start : COMBINE_BLOCK;
        int64_t *restrict block = out + start;
        for (int64_t i = 0; i < m; i++)
            block[i] = base;
        for (int64_t k = 0; k < n_stages; k++) {
            const int64_t *restrict row = codes + k * stride + start;
            const int64_t weight = weights[k];
            for (int64_t i = 0; i < m; i++) {
                int64_t code = row[i];
                low = code < low ? code : low;
                high = code > high ? code : high;
                block[i] += code > 0 ? weight : (code < 0 ? -weight : 0);
            }
        }
        const int64_t *restrict levels = flash + start;
        for (int64_t i = 0; i < m; i++) {
            int64_t code = levels[i];
            flash_low = code < flash_low ? code : flash_low;
            flash_high = code > flash_high ? code : flash_high;
            int64_t word = block[i] + code;
            word = word > 0 ? word : 0;
            block[i] = word < top ? word : top;
        }
    }
    if (low < -1 || high > 1)
        return 1;
    return (flash_low < 0 || flash_high >= flash_levels) ? 2 : 0;
}
