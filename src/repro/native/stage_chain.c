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

/*
 * The stage-1 front end: SamplingNetwork.acquire up to its kT/C noise,
 * for a TransmissionGate or BulkSwitchedTransmissionGate input switch
 * (TrackingModel.track, .pedestal, the droop).
 *
 * Its two transcendentals are numpy's, as the settling exp is: the
 * softplus np.logaddexp(0, overdrive / s) of Mosfet.triode_conductance
 * and the junction grading power (1 + v / phi)**m of the parasitic
 * capacitance.  repro_frontend_track writes their arguments, the caller
 * runs np.logaddexp and np.power over them in place, and
 * repro_frontend_hold finishes every sample.  The sqrt of the body
 * effect is IEEE-exact here as in numpy.
 */

/* Front-end parameters, in the order of repro.native.chain.FRONTEND_FIELDS. */
enum {
    FE_COMMON_MODE,
    FE_LOW_RAIL,       /* -1e-9: the rail check's tolerance */
    FE_HIGH_RAIL,      /* VDD + 1e-9 */
    FE_SUPPLY,         /* VDD */
    FE_PHI,            /* 2 phiF, the surface potential */
    FE_SQRT_PHI,
    FE_GAMMA,          /* body-effect coefficient */
    FE_NMOS_VTH0,
    FE_PMOS_VTH0,
    FE_PMOS_VTH_ZERO,  /* the PMOS threshold at Vsb = 0 */
    FE_SMOOTHING,      /* subthreshold smoothing s */
    FE_NMOS_BETA,
    FE_PMOS_BETA,
    FE_THETA,          /* mobility degradation */
    FE_JUNCTION_POTENTIAL,
    FE_NMOS_JUNCTION,  /* zero-bias junction capacitances */
    FE_PMOS_JUNCTION,
    FE_PMOS_JUNCTION_ZERO, /* the PMOS junction capacitance at zero bias */
    FE_HOLD,           /* C_H */
    FE_SIDE,           /* 1 + side mismatch */
    FE_SUPPRESSION,    /* bottom-plate suppression */
    FE_NMOS_CHANNEL,   /* Cox * W * L */
    FE_PMOS_CHANNEL,
    FE_DROOP,          /* droop gain error */
    FE_DROOP_NONLINEARITY
};

/* Front-end switches: the PMOS bulk is tied to its source. */
enum { BULK_SWITCHED = 1 };

/* Mosfet.threshold above its validity check: vth0 + gamma * (sqrt(2phiF
 * + Vsb) - sqrt(2phiF)). */
static inline double threshold(double vth0, double vsb, double phi,
                               double sqrt_phi, double gamma)
{
    return vth0 + gamma * (sqrt(phi + vsb) - sqrt_phi);
}

static inline __attribute__((always_inline)) int64_t
track_pass(const double *restrict values, int64_t n, const double *restrict p,
           const int bulk, double *restrict args, double *restrict overdrives,
           double *restrict bases)
{
    const double cm = p[FE_COMMON_MODE], low = p[FE_LOW_RAIL];
    const double high = p[FE_HIGH_RAIL], vdd = p[FE_SUPPLY];
    const double phi = p[FE_PHI], sqrt_phi = p[FE_SQRT_PHI];
    const double gamma = p[FE_GAMMA], vth0_n = p[FE_NMOS_VTH0];
    const double vth0_p = p[FE_PMOS_VTH0], vth_p_zero = p[FE_PMOS_VTH_ZERO];
    const double s = p[FE_SMOOTHING], junction = p[FE_JUNCTION_POTENTIAL];
    int64_t outside = 0;
    for (int64_t side = 0; side < 2; side++) {
        /* Block 2 * side holds the node's NMOS, block 2 * side + 1 its PMOS. */
        double *restrict a_n = args + 2 * side * n, *restrict a_p = a_n + n;
        double *restrict o_n = overdrives + 2 * side * n, *restrict o_p = o_n + n;
        double *restrict b_n = bases + (bulk ? side : 2 * side) * n;
        double *restrict b_p = b_n + n;
        for (int64_t i = 0; i < n; i++) {
            double half = values[i] / 2.0;
            double node = side ? cm - half : cm + half;
            outside |= (node < low) | (node > high);
            /* _TransmissionGateBase.conductance on np.clip(node, 0, VDD) */
            double v = np_clip(node, 0.0, vdd);
            double od_n = (vdd - v) - threshold(vth0_n, v, phi, sqrt_phi, gamma);
            double od_p = v - (bulk ? vth_p_zero
                               : threshold(vth0_p, vdd - v, phi, sqrt_phi, gamma));
            o_n[i] = od_n;
            o_p[i] = od_p;
            a_n[i] = od_n / s;
            a_p[i] = od_p / s;
            /* _junction_capacitance's 1 + max(v, 0) / phi on the raw node */
            b_n[i] = 1.0 + np_maximum_zero(node) / junction;
            if (!bulk)
                b_p[i] = 1.0 + np_maximum_zero(vdd - node) / junction;
        }
    }
    return outside;
}

/*
 * Pass 1 over n differential values: returns 1 when a single-ended node
 * leaves the rails (numpy then recomputes and raises), else 0.  Writes
 * the four softplus arguments overdrive / s (positive node NMOS, PMOS,
 * then the negative node's) to args[4n], their overdrives to
 * overdrives[4n], and the junction-grading bases to bases: NMOS, PMOS
 * per node (4n), or the NMOS ones only (2n) when the PMOS bulk is
 * switched.
 */
int64_t repro_frontend_track(const double *restrict values, int64_t n,
                             const double *restrict p, int64_t flags,
                             double *restrict args, double *restrict overdrives,
                             double *restrict bases)
{
    if (flags & BULK_SWITCHED)
        return track_pass(values, n, p, 1, args, overdrives, bases);
    return track_pass(values, n, p, 0, args, overdrives, bases);
}

/* Mosfet.triode_conductance from softplus = logaddexp(0, overdrive / s). */
static inline double triode(double beta, double s, double softplus,
                            double overdrive, double theta)
{
    double g = beta * (s * softplus);
    return g * (1.0 / (1.0 + theta * np_maximum_zero(overdrive)));
}

/* TrackingModel.pedestal's per-node charge injection (0.5 * (q_p - q_n)),
 * counting a source-bulk voltage below -2phiF in *forward. */
static inline double injection(double x, const double *restrict p, const int bulk,
                               int64_t *forward)
{
    const double vdd = p[FE_SUPPLY], phi = p[FE_PHI], sqrt_phi = p[FE_SQRT_PHI];
    const double gamma = p[FE_GAMMA];
    *forward |= x < -phi;
    double vth_n = threshold(p[FE_NMOS_VTH0], x, phi, sqrt_phi, gamma);
    double q_n = p[FE_NMOS_CHANNEL] * np_maximum_zero((vdd - x) - vth_n);
    double vth_p = p[FE_PMOS_VTH_ZERO];
    if (!bulk) {
        double vsb = vdd - x;
        *forward |= vsb < -phi;
        vth_p = threshold(p[FE_PMOS_VTH0], vsb, phi, sqrt_phi, gamma);
    }
    double q_p = p[FE_PMOS_CHANNEL] * np_maximum_zero(x - vth_p);
    return 0.5 * (q_p - q_n);
}

static inline __attribute__((always_inline)) int64_t
hold_pass(const double *restrict values, const double *restrict derivatives,
          int64_t n, const double *restrict p, const int bulk,
          const double *restrict softplus, const double *restrict overdrives,
          const double *restrict powers, double *restrict held)
{
    const double cm = p[FE_COMMON_MODE], s = p[FE_SMOOTHING];
    const double beta_n = p[FE_NMOS_BETA], beta_p = p[FE_PMOS_BETA];
    const double theta = p[FE_THETA], hold = p[FE_HOLD], side = p[FE_SIDE];
    const double c0_n = p[FE_NMOS_JUNCTION], c0_p = p[FE_PMOS_JUNCTION];
    const double c_p_zero = p[FE_PMOS_JUNCTION_ZERO];
    const double suppression = p[FE_SUPPRESSION], droop = p[FE_DROOP];
    const double nonlinearity = p[FE_DROOP_NONLINEARITY];
    int64_t cut_off = 0, forward = 0;
    for (int64_t i = 0; i < n; i++) {
        double tau[2];
        for (int k = 0; k < 2; k++) {
            const int64_t j = 2 * k * n + i;
            /* SwitchModel.time_constant: R_on(v) * (C_H + C_par(v)) */
            double g = triode(beta_n, s, softplus[j], overdrives[j], theta)
                       + triode(beta_p, s, softplus[j + n], overdrives[j + n], theta);
            /* on_resistance: where(g > 0, 1 / maximum(g, 1e-30), inf) */
            double r = g > 0.0 ? 1.0 / (g < 1e-30 ? 1e-30 : g) : INFINITY;
            double c_n, c_p;
            if (bulk) {
                c_n = c0_n / powers[k * n + i];
                c_p = c_p_zero;
            } else {
                c_n = c0_n / powers[2 * k * n + i];
                c_p = c0_p / powers[2 * k * n + n + i];
            }
            tau[k] = r * (hold + (c_n + c_p));
        }
        double tau_n = tau[1] * side;
        cut_off |= !isfinite(tau[0]) | !isfinite(tau_n);
        double v = values[i] - 0.5 * (tau[0] + tau_n) * derivatives[i];
        double half = v / 2.0;
        double q = injection(cm + half, p, bulk, &forward)
                   - injection(cm - half, p, bulk, &forward);
        v = v + suppression * q / hold;
        held[i] = v * (1.0 - droop * (1.0 + nonlinearity * (v * v)));
    }
    return cut_off | forward;
}

/*
 * Pass 2, after np.logaddexp(0, args) and np.power(bases, m) ran in
 * place: the tracked value v - 0.5 * (tau_p + tau_n) * dv/dt, plus the
 * charge-injection pedestal, times the droop, into held[n].  Returns 1
 * when a time constant is not finite or a pedestal node forward-biases
 * a junction (held is then incomplete, and numpy recomputes and
 * raises), else 0.
 */
int64_t repro_frontend_hold(const double *restrict values,
                            const double *restrict derivatives, int64_t n,
                            const double *restrict p, int64_t flags,
                            const double *restrict softplus,
                            const double *restrict overdrives,
                            const double *restrict powers, double *restrict held)
{
    if (flags & BULK_SWITCHED)
        return hold_pass(values, derivatives, n, p, 1, softplus, overdrives,
                         powers, held);
    return hold_pass(values, derivatives, n, p, 0, softplus, overdrives, powers,
                     held);
}
