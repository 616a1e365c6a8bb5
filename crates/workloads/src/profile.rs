//! Workload profiles: the parameters that characterize one synthetic
//! application.
//!
//! A profile captures the microarchitecturally relevant behavior of a
//! program — instruction mix, dependence structure, memory locality, branch
//! predictability — plus its *phase* behavior: occasional **resonant
//! episodes** in which the program alternates low-ILP dependence chains and
//! high-ILP bursts with a period inside the power supply's resonance band.
//! Those episodes are what drive current variations at resonant frequencies
//! in real programs (the paper's Figure 4 shows exactly this pattern in
//! *parser*: current swings at ~100-cycle intervals).

use cpusim::OpClass;
use rand::Rng;

/// Instruction-class mix as sampling weights (need not sum to 1; they are
/// normalized when sampling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Weight of integer ALU operations.
    pub int_alu: f64,
    /// Weight of integer multiplies.
    pub int_mul: f64,
    /// Weight of integer divides.
    pub int_div: f64,
    /// Weight of FP add/compare.
    pub fp_alu: f64,
    /// Weight of FP multiplies.
    pub fp_mul: f64,
    /// Weight of FP divides.
    pub fp_div: f64,
    /// Weight of loads.
    pub load: f64,
    /// Weight of stores.
    pub store: f64,
    /// Weight of branches.
    pub branch: f64,
}

impl OpMix {
    /// A typical integer-code mix (compilers, compression, games).
    pub fn integer() -> Self {
        Self {
            int_alu: 0.45,
            int_mul: 0.02,
            int_div: 0.002,
            fp_alu: 0.02,
            fp_mul: 0.01,
            fp_div: 0.0,
            load: 0.26,
            store: 0.10,
            branch: 0.14,
        }
    }

    /// A typical floating-point mix (scientific kernels).
    pub fn floating_point() -> Self {
        Self {
            int_alu: 0.24,
            int_mul: 0.02,
            int_div: 0.0,
            fp_alu: 0.26,
            fp_mul: 0.12,
            fp_div: 0.006,
            load: 0.22,
            store: 0.08,
            branch: 0.06,
        }
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
            + self.load
            + self.store
            + self.branch
    }

    /// Samples an operation class proportionally to the weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> OpClass {
        self.sample_with_total(self.total(), rng)
    }

    /// [`sample`](Self::sample) given [`total`](Self::total), which a
    /// caller drawing many samples computes once.
    pub(crate) fn sample_with_total<R: Rng>(&self, total: f64, rng: &mut R) -> OpClass {
        assert!(total > 0.0, "op mix must have positive total weight");
        let mut x = rng.gen_range(0.0..total);
        let buckets = [
            (self.int_alu, OpClass::IntAlu),
            (self.int_mul, OpClass::IntMul),
            (self.int_div, OpClass::IntDiv),
            (self.fp_alu, OpClass::FpAlu),
            (self.fp_mul, OpClass::FpMul),
            (self.fp_div, OpClass::FpDiv),
            (self.load, OpClass::Load),
            (self.store, OpClass::Store),
            (self.branch, OpClass::Branch),
        ];
        for (w, op) in buckets {
            assert!(w >= 0.0, "op-mix weights must be non-negative");
            if x < w {
                return op;
            }
            x -= w;
        }
        OpClass::IntAlu // floating-point rounding fallback
    }
}

/// A resonant-episode template: the program alternates a pair of
/// interleaved dependence chains (ILP 2: low current) with a burst of
/// independent work that is data-dependent on the chain's result (rows of
/// 6: high current) for a few periods. With `C` chain instructions
/// draining at 2 IPC and `B` burst instructions at 6 IPC, the current
/// waveform's period is roughly `C/2 + B/6` cycles. The ILP contrast keeps
/// the peak-to-peak swing near 32–38 A on the Table 1 machine — just above
/// the 32 A resonant current variation threshold, the regime the paper's
/// 4-half-wave repetition tolerance is calibrated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Chain length in instructions (≈ 2 × low-current cycles: the chain
    /// is two interleaved dependence chains draining at 2 IPC).
    pub chain_ops: u32,
    /// Burst size in instructions (≈ 6 × high-current cycles: bursts are
    /// lockstep rows of 6 draining at 6 IPC).
    pub burst_ops: u32,
    /// Maximum chain+burst periods one episode can last.
    pub periods: u32,
    /// After each period, the episode continues with this probability (up
    /// to `periods`). Most episodes therefore die after 2–3 periods — the
    /// paper's "many resonant events die before enough repetitions" — and
    /// only the rare long ones build toward violations.
    pub continue_prob: f64,
    /// Probability per committed instruction (in normal phase) of starting
    /// an episode.
    pub rate: f64,
    /// Probability that a period's chain begins with a memory-missing load
    /// (producing the "long flat current" stretches of the paper's
    /// Figure 4).
    pub miss_chance: f64,
}

impl Episode {
    /// An episode whose current period lands near `period` cycles with
    /// a 50 % high-duty square shape, which resonates hardest. `periods`
    /// repetitions at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is shorter than 20 cycles.
    pub fn resonant(period: u32, periods: u32, rate: f64) -> Self {
        assert!(period >= 20, "episode period too short to shape");
        let high = period / 2; // 50% duty: transitions exactly T/2 apart
        let chain = 2 * (period - high); // drains at 2 IPC
        Self {
            chain_ops: chain,
            // Bursts are rows of 6 (4 ALUs + 2 L1 loads) in lockstep, so
            // they drain at exactly 6 IPC. The 6-wide burst keeps the
            // current swing near 32–38 A — above the 32 A threshold but in
            // the regime where isolated swings stay within the noise
            // margin (the regime the paper's repetition tolerance of 4 is
            // calibrated for).
            burst_ops: high * 6,
            periods,
            continue_prob: 0.55,
            rate,
            miss_chance: 0.0,
        }
    }

    /// An episode at `period` cycles with only ~20 % high-duty and a low
    /// continuation probability: it crosses detection thresholds (both this
    /// paper's and the voltage thresholds of magnitude-based schemes) but
    /// dies out before building a noise-margin violation.
    ///
    /// # Panics
    ///
    /// Panics if `period` is shorter than 20 cycles.
    pub fn weak(period: u32, periods: u32, rate: f64) -> Self {
        assert!(period >= 20, "episode period too short to shape");
        let high = period / 6; // ~17% duty
        let chain = 2 * (period - high); // drains at 2 IPC
        Self {
            chain_ops: chain,
            burst_ops: high * 6,
            periods,
            continue_prob: 0.40,
            rate,
            miss_chance: 0.0,
        }
    }

    /// Returns a copy with the given per-period continuation probability.
    pub fn with_continue_prob(mut self, p: f64) -> Self {
        self.continue_prob = p;
        self
    }

    /// Returns a copy with the given chance of a memory-missing chain head.
    pub fn with_miss_chance(mut self, p: f64) -> Self {
        self.miss_chance = p;
        self
    }

    /// The approximate current-waveform period in cycles, assuming 2 IPC
    /// chains and 6 IPC bursts.
    pub fn approx_period_cycles(&self) -> u32 {
        self.chain_ops / 2 + self.burst_ops / 6
    }

    /// Instructions in one full episode.
    pub fn instructions(&self) -> u64 {
        (self.chain_ops as u64 + self.burst_ops as u64) * self.periods as u64
    }
}

/// A complete synthetic-application profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Application name (SPEC2K benchmark it stands in for).
    pub name: &'static str,
    /// The paper's Table 2 IPC for the real benchmark (documentation /
    /// loose calibration target — the simulator's IPC is emergent).
    pub paper_ipc: f64,
    /// Whether Table 2 classifies the benchmark as exhibiting noise-margin
    /// violations on the base machine.
    pub paper_violating: bool,
    /// Instruction mix for normal phases.
    pub mix: OpMix,
    /// Mean register-dependence distance (geometric); larger = more ILP.
    pub mean_dep: f64,
    /// Fraction of memory accesses into an L2-sized working set (miss L1).
    pub l2_fraction: f64,
    /// Fraction of memory accesses into a memory-sized region (miss L2).
    pub mem_fraction: f64,
    /// Pointer-chasing: memory-region loads depend on the previous
    /// memory-region load (serializing misses, as in mcf).
    pub pointer_chase: bool,
    /// Branch misprediction probability.
    pub mispredict_rate: f64,
    /// Resonant-episode behavior, if the application has any.
    pub episode: Option<Episode>,
    /// Seed for the application's deterministic stream.
    pub seed: u64,
}

impl WorkloadProfile {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or degenerate parameters.
    pub fn validate(&self) {
        assert!(
            self.mean_dep >= 1.0,
            "{}: mean dependence distance must be >= 1",
            self.name
        );
        let probs = [
            ("l2_fraction", self.l2_fraction),
            ("mem_fraction", self.mem_fraction),
            ("mispredict_rate", self.mispredict_rate),
        ];
        for (what, p) in probs {
            assert!(
                (0.0..=1.0).contains(&p),
                "{}: {what} out of [0,1]",
                self.name
            );
        }
        assert!(
            self.l2_fraction + self.mem_fraction <= 1.0,
            "{}: memory-region fractions exceed 1",
            self.name
        );
        assert!(self.mix.total() > 0.0, "{}: empty op mix", self.name);
        if let Some(ep) = &self.episode {
            assert!(
                ep.chain_ops > 0 && ep.burst_ops > 0,
                "{}: degenerate episode",
                self.name
            );
            assert!(
                ep.periods > 0,
                "{}: episode needs at least one period",
                self.name
            );
            assert!(
                (0.0..=1.0).contains(&ep.rate),
                "{}: episode rate out of range",
                self.name
            );
            assert!(
                (0.0..=1.0).contains(&ep.continue_prob),
                "{}: continue probability out of range",
                self.name
            );
            assert!(
                (0.0..=1.0).contains(&ep.miss_chance),
                "{}: miss chance out of range",
                self.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixes_normalize_close_to_one() {
        assert!((OpMix::integer().total() - 1.0).abs() < 0.02);
        assert!((OpMix::floating_point().total() - 1.0).abs() < 0.02);
    }

    #[test]
    fn sampling_tracks_weights() {
        let mix = OpMix::integer();
        let mut rng = StdRng::seed_from_u64(7);
        let mut loads = 0;
        let mut branches = 0;
        const N: usize = 50_000;
        for _ in 0..N {
            match mix.sample(&mut rng) {
                OpClass::Load => loads += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let load_frac = loads as f64 / N as f64;
        let br_frac = branches as f64 / N as f64;
        assert!((load_frac - 0.26).abs() < 0.02, "load fraction {load_frac}");
        assert!((br_frac - 0.14).abs() < 0.02, "branch fraction {br_frac}");
    }

    #[test]
    fn resonant_episode_period_shapes_correctly() {
        let ep = Episode::resonant(100, 6, 1e-3);
        let t = ep.approx_period_cycles();
        assert!((95..=105).contains(&t), "period {t}");
        assert_eq!(ep.periods, 6);
        assert!(ep.instructions() > 0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tiny_episode_period_panics() {
        let _ = Episode::resonant(10, 3, 0.1);
    }

    #[test]
    fn profile_validation_catches_bad_fractions() {
        let mut p = WorkloadProfile {
            name: "test",
            paper_ipc: 1.0,
            paper_violating: false,
            mix: OpMix::integer(),
            mean_dep: 3.0,
            l2_fraction: 0.7,
            mem_fraction: 0.5,
            pointer_chase: false,
            mispredict_rate: 0.02,
            episode: None,
            seed: 1,
        };
        let result = std::panic::catch_unwind(|| p.validate());
        assert!(result.is_err(), "fractions summing over 1 must panic");
        p.l2_fraction = 0.1;
        p.mem_fraction = 0.05;
        p.validate();
    }
}
