//! The deterministic instruction-stream generator.
//!
//! [`StreamGen`] turns a [`WorkloadProfile`] into an infinite
//! [`InstructionStream`]. Given the same profile (including its seed) it
//! always produces the same dynamic instruction sequence, so base and
//! technique runs of an experiment execute identical programs.

use cpusim::isa::{InstructionStream, SynthInst};
use cpusim::OpClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::WorkloadProfile;

/// Address-space layout of the synthetic program.
pub mod layout {
    /// Base of the hot data working set that fits in the 64 KB L1.
    pub const L1_BASE: u64 = 0x1000_0000;
    /// Size of the hot data working set (32 KB).
    pub const L1_SIZE: u64 = 32 * 1024;
    /// Base of the warm working set that fits in the 2 MB L2 but not L1.
    pub const L2_BASE: u64 = 0x2000_0000;
    /// Size of the warm working set (1 MB).
    pub const L2_SIZE: u64 = 1024 * 1024;
    /// Base of the cold region that fits in no cache.
    pub const MEM_BASE: u64 = 0x40_0000_0000;
    /// Size of the cold region (1 GB).
    pub const MEM_SIZE: u64 = 1024 * 1024 * 1024;
    /// Base of the hot code region (fits L1I).
    pub const CODE_BASE: u64 = 0x0040_0000;
    /// Size of the hot code region (48 KB).
    pub const CODE_SIZE: u64 = 48 * 1024;
    /// Base of the cold code region (far jumps here miss the I-cache).
    pub const FAR_CODE_BASE: u64 = 0x00C0_0000;
    /// Size of the cold code region (4 MB).
    pub const FAR_CODE_SIZE: u64 = 4 * 1024 * 1024;
}

/// Pre-warms a CPU's caches with the synthetic program's hot and warm
/// working sets: the stand-in for the paper's 2-billion-instruction
/// fast-forward past initialization before measurement begins.
///
/// Touches the code region (L1I + L2), the L2-sized data working set (L2),
/// and finally the L1-sized hot set (L1D), in that order so the hot set
/// ends most-recently-used everywhere.
///
/// Runs usually start from [`crate::warmed_caches`] instead: the same walk,
/// made once per process and geometry and cloned into each run.
pub fn warm_caches<S>(cpu: &mut cpusim::Cpu<S>)
where
    S: InstructionStream,
{
    warm_hierarchy(cpu.caches_mut());
}

/// The walk behind [`warm_caches`], on a bare hierarchy.
pub(crate) fn warm_hierarchy(caches: &mut cpusim::cache::CacheHierarchy) {
    for line in (0..layout::CODE_SIZE).step_by(64) {
        caches.access_inst(layout::CODE_BASE + line);
    }
    for line in (0..layout::L2_SIZE).step_by(64) {
        caches.access_data(layout::L2_BASE + line);
    }
    for line in (0..layout::L1_SIZE).step_by(64) {
        caches.access_data(layout::L1_BASE + line);
    }
    caches.reset_stats();
}

/// Generator phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Steady-state behavior drawn from the profile's mix.
    Normal,
    /// Serial dependence chain (low-current half of an episode period).
    Chain { remaining: u32, head_is_miss: bool },
    /// Burst of work dependent on the chain result (high-current half).
    Burst { remaining: u32, total: u32 },
}

/// The longest dependence distance the generator emits.
pub(crate) const MAX_DIST: u32 = 96;

/// The dependence-distance distribution: geometric on `1..=MAX_DIST` with
/// a fixed mean, its parameter and logarithm computed once per generator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometric {
    /// `ln(1 − p)`, or `None` when `p` is 1 and every draw is 1.
    ln_q: Option<f64>,
}

impl Geometric {
    /// The distribution with mean `mean`, `p` clamped to `[1e-6, 1]`.
    pub(crate) fn new(mean: f64) -> Self {
        let p = (1.0 / mean).clamp(1e-6, 1.0);
        Geometric {
            ln_q: (p < 1.0).then(|| (1.0 - p).ln()),
        }
    }

    /// One draw: `1 + floor(ln u / ln(1 − p))` for `u` uniform in
    /// `[ε, 1)`, clamped to `MAX_DIST`. No draw at `p = 1`.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u32 {
        let Some(ln_q) = self.ln_q else {
            return 1;
        };
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        // The quotient is positive, so truncation is `floor`, and a
        // saturated cast still clamps to MAX_DIST.
        ((u.ln() / ln_q) as u32).saturating_add(1).min(MAX_DIST)
    }
}

/// A deterministic synthetic-application instruction stream.
///
/// # Examples
///
/// ```
/// use cpusim::isa::InstructionStream;
/// use workloads::{spec2k, StreamGen};
///
/// let profile = spec2k::by_name("parser").expect("parser is a SPEC2K app");
/// let mut a = StreamGen::new(profile);
/// let mut b = StreamGen::new(profile);
/// for _ in 0..1000 {
///     assert_eq!(a.next_inst(), b.next_inst()); // fully deterministic
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamGen {
    profile: WorkloadProfile,
    /// The op mix's total weight and the dependence distribution, computed
    /// once.
    mix_total: f64,
    dep: Geometric,
    rng: StdRng,
    mode: Mode,
    /// Periods remaining in the current episode (counting the active one).
    periods_left: u32,
    pc: u64,
    /// Dynamic instructions since the last memory-region load (for pointer
    /// chasing).
    since_mem_load: u32,
    emitted: u64,
    /// For corpus profiles: the lowered program trace to replay instead of
    /// the synthetic generator (which stays idle).
    replay: Option<crate::corpus::CorpusReplay>,
}

impl StreamGen {
    /// Creates a generator for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`WorkloadProfile::validate`]).
    pub fn new(profile: WorkloadProfile) -> Self {
        profile.validate();
        let replay = crate::corpus::CorpusReplay::for_profile(&profile);
        Self {
            rng: StdRng::seed_from_u64(profile.seed),
            mix_total: profile.mix.total(),
            dep: Geometric::new(profile.mean_dep),
            profile,
            mode: Mode::Normal,
            periods_left: 0,
            pc: layout::CODE_BASE,
            since_mem_load: u32::MAX / 2,
            emitted: 0,
            replay,
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Total instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// `true` when the stream replays a corpus program's lowered trace.
    pub(crate) fn replays_corpus(&self) -> bool {
        self.replay.is_some()
    }

    /// `true` while the generator is inside a resonant episode. Always
    /// `false` for corpus replays: their resonant behavior is a property of
    /// the program, not an injected generator phase.
    pub fn in_episode(&self) -> bool {
        self.replay.is_none() && self.mode != Mode::Normal
    }

    fn data_address(&mut self) -> u64 {
        let r: f64 = self.rng.gen();
        if r < self.profile.mem_fraction {
            layout::MEM_BASE + self.rng.gen_range(0..layout::MEM_SIZE / 64) * 64
        } else if r < self.profile.mem_fraction + self.profile.l2_fraction {
            layout::L2_BASE + self.rng.gen_range(0..layout::L2_SIZE / 64) * 64
        } else {
            layout::L1_BASE + self.rng.gen_range(0..layout::L1_SIZE / 64) * 64
        }
    }

    fn fresh_mem_address(&mut self) -> u64 {
        layout::MEM_BASE + self.rng.gen_range(0..layout::MEM_SIZE / 64) * 64
    }

    /// Per-site branch bias: most static branches are strongly biased (and
    /// thus learnable by a real predictor); a minority are hard. Derived
    /// deterministically from the branch PC.
    fn branch_taken(&mut self, pc: u64) -> bool {
        let h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61; // 0..8
        let p = match h {
            0..=2 => 0.95, // loop-back style, almost always taken
            3..=5 => 0.05, // guard style, almost never taken
            _ => 0.5,      // data-dependent, hard to predict
        };
        self.rng.gen_bool(p)
    }

    fn advance_pc(&mut self, taken: bool) {
        if taken {
            // Taken branch: jump to one of a small set of loop heads —
            // real code revisits a small set of hot loops, which is also
            // what lets a real branch predictor train on the hot sites.
            if self.rng.gen_bool(0.9995) {
                let slots = layout::CODE_SIZE / 4;
                let head = self.rng.gen_range(0..slots) % 64;
                self.pc = layout::CODE_BASE + head * 192;
            } else {
                // ...or a rare far jump that misses the I-cache.
                self.pc =
                    layout::FAR_CODE_BASE + self.rng.gen_range(0..layout::FAR_CODE_SIZE / 4) * 4;
            }
        } else {
            self.pc += 4;
            if self.pc >= layout::CODE_BASE + layout::CODE_SIZE && self.pc < layout::FAR_CODE_BASE {
                self.pc = layout::CODE_BASE;
            }
            if self.pc >= layout::FAR_CODE_BASE + layout::FAR_CODE_SIZE {
                self.pc = layout::CODE_BASE;
            }
        }
    }

    /// Advances the episode PC linearly, wrapping within the hot code
    /// region (episodes are tight loops; they must not walk off into cold
    /// code).
    fn bump_episode_pc(&mut self) {
        self.pc += 4;
        if self.pc >= layout::CODE_BASE + layout::CODE_SIZE {
            self.pc = layout::CODE_BASE;
        }
    }

    fn normal_instruction(&mut self) -> SynthInst {
        let op = self
            .profile
            .mix
            .sample_with_total(self.mix_total, &mut self.rng);
        let mut inst = SynthInst {
            op,
            src1_dist: self.dep.sample(&mut self.rng),
            src2_dist: if self.rng.gen_bool(0.5) {
                self.dep.sample(&mut self.rng)
            } else {
                0
            },
            addr: 0,
            mispredict: false,
            taken: false,
            pc: self.pc,
        };
        match op {
            OpClass::Load | OpClass::Store => {
                inst.addr = self.data_address();
                if op == OpClass::Load && inst.addr >= layout::MEM_BASE {
                    if self.profile.pointer_chase && self.since_mem_load < MAX_DIST {
                        // The next pointer is loaded from the previous node.
                        inst.src1_dist = self.since_mem_load;
                    }
                    self.since_mem_load = 0;
                }
            }
            OpClass::Branch => {
                inst.mispredict = self.rng.gen_bool(self.profile.mispredict_rate);
                inst.taken = self.branch_taken(inst.pc);
            }
            _ => {}
        }
        self.advance_pc(op == OpClass::Branch && inst.taken);
        inst
    }

    fn maybe_start_episode(&mut self) -> bool {
        let Some(ep) = self.profile.episode else {
            return false;
        };
        if !self.rng.gen_bool(ep.rate.clamp(0.0, 1.0)) {
            return false;
        }
        self.periods_left = ep.periods;
        let head_is_miss = self.rng.gen_bool(ep.miss_chance);
        self.mode = Mode::Chain {
            remaining: ep.chain_ops,
            head_is_miss,
        };
        true
    }

    fn episode_step(&mut self) -> SynthInst {
        let ep = self
            .profile
            .episode
            .expect("in episode implies episode config");
        match self.mode {
            Mode::Normal => unreachable!("episode_step in normal mode"),
            Mode::Chain {
                remaining,
                head_is_miss,
            } => {
                let is_head = remaining == ep.chain_ops;
                let inst = if is_head && head_is_miss {
                    // A memory-missing load at the chain head: the "long
                    // flat current" stretch of Figure 4.
                    let addr = self.fresh_mem_address();
                    SynthInst::load(addr, 1).at_pc(self.pc)
                } else {
                    // Two interleaved dist-2 chains drain at 2 IPC.
                    SynthInst::int_alu().with_deps(2, 0).at_pc(self.pc)
                };
                self.bump_episode_pc();
                if remaining == 1 {
                    self.mode = Mode::Burst {
                        remaining: ep.burst_ops,
                        total: ep.burst_ops,
                    };
                } else {
                    self.mode = Mode::Chain {
                        remaining: remaining - 1,
                        head_is_miss,
                    };
                }
                inst
            }
            Mode::Burst { remaining, total } => {
                // The burst is rows of 6 in lockstep: positions 1 and 4
                // are L1-hit loads (saturating the 2 cache ports), the
                // rest integer ALU ops. Each row depends on the previous
                // row (dist 6 at ALU positions; loads hang off the row's
                // position-0 ALU), so the burst drains at exactly 6 IPC.
                // The first row depends on the final chain op, j+1 back.
                let j = total - remaining;
                let position = j % 6;
                let mut inst = if position == 1 || position == 4 {
                    let addr = layout::L1_BASE + ((j as u64 * 64) % layout::L1_SIZE);
                    SynthInst::load(addr, 0)
                } else {
                    SynthInst::int_alu()
                };
                inst.src1_dist = if j < 6 {
                    j + 1
                } else if position == 1 || position == 4 {
                    position
                } else {
                    6
                };
                inst.pc = self.pc;
                self.bump_episode_pc();
                if remaining == 1 {
                    self.periods_left -= 1;
                    if self.periods_left > 0 && self.rng.gen_bool(ep.continue_prob) {
                        let head_is_miss = self.rng.gen_bool(ep.miss_chance);
                        self.mode = Mode::Chain {
                            remaining: ep.chain_ops,
                            head_is_miss,
                        };
                    } else {
                        self.periods_left = 0;
                        self.mode = Mode::Normal;
                    }
                } else {
                    self.mode = Mode::Burst {
                        remaining: remaining - 1,
                        total,
                    };
                }
                inst
            }
        }
    }
}

impl InstructionStream for StreamGen {
    fn next_inst(&mut self) -> SynthInst {
        self.emitted += 1;
        if let Some(replay) = &mut self.replay {
            return replay.next_inst();
        }
        self.since_mem_load = self.since_mem_load.saturating_add(1);
        if self.mode == Mode::Normal {
            if self.maybe_start_episode() {
                return self.episode_step();
            }
            self.normal_instruction()
        } else {
            self.episode_step()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Episode, OpMix, WorkloadProfile};

    fn base_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test",
            paper_ipc: 2.0,
            paper_violating: false,
            mix: OpMix::integer(),
            mean_dep: 3.0,
            l2_fraction: 0.05,
            mem_fraction: 0.01,
            pointer_chase: false,
            mispredict_rate: 0.02,
            episode: None,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StreamGen::new(base_profile());
        let mut b = StreamGen::new(base_profile());
        for _ in 0..10_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StreamGen::new(base_profile());
        let mut p2 = base_profile();
        p2.seed = 43;
        let mut b = StreamGen::new(p2);
        let same = (0..1000).filter(|_| a.next_inst() == b.next_inst()).count();
        assert!(
            same < 500,
            "streams with different seeds should diverge ({same} identical)"
        );
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = StreamGen::new(base_profile());
        let mut loads = 0usize;
        const N: usize = 40_000;
        for _ in 0..N {
            if g.next_inst().op == OpClass::Load {
                loads += 1;
            }
        }
        let frac = loads as f64 / N as f64;
        assert!((frac - 0.26).abs() < 0.03, "load fraction {frac}");
    }

    #[test]
    fn dependence_distances_have_requested_mean() {
        let mut g = StreamGen::new(base_profile());
        let mut sum = 0u64;
        let mut n = 0u64;
        for _ in 0..40_000 {
            let i = g.next_inst();
            if i.src1_dist > 0 {
                sum += i.src1_dist as u64;
                n += 1;
            }
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.3, "mean dep distance {mean}");
    }

    #[test]
    fn memory_fraction_controls_cold_addresses() {
        let mut p = base_profile();
        p.mem_fraction = 0.2;
        let mut g = StreamGen::new(p);
        let mut mem = 0usize;
        let mut total = 0usize;
        for _ in 0..40_000 {
            let i = g.next_inst();
            if i.op.is_mem() {
                total += 1;
                if i.addr >= layout::MEM_BASE {
                    mem += 1;
                }
            }
        }
        let frac = mem as f64 / total as f64;
        assert!((frac - 0.2).abs() < 0.03, "mem-region fraction {frac}");
    }

    #[test]
    fn pointer_chase_serializes_mem_loads() {
        let mut p = base_profile();
        p.mem_fraction = 0.3;
        p.pointer_chase = true;
        let mut g = StreamGen::new(p);
        let mut last_mem_at: Option<u64> = None;
        let mut chained = 0;
        let mut mem_loads = 0;
        for k in 0..20_000u64 {
            let i = g.next_inst();
            if i.op == OpClass::Load && i.addr >= layout::MEM_BASE {
                mem_loads += 1;
                if let Some(prev) = last_mem_at {
                    let gap = (k - prev) as u32;
                    if gap < 96 && i.src1_dist == gap {
                        chained += 1;
                    }
                }
                last_mem_at = Some(k);
            }
        }
        assert!(mem_loads > 100);
        assert!(
            chained as f64 / mem_loads as f64 > 0.7,
            "most mem loads should chain ({chained}/{mem_loads})"
        );
    }

    #[test]
    fn episodes_alternate_chain_and_burst() {
        let mut p = base_profile();
        p.episode = Some(Episode::resonant(100, 6, 0.01));
        let mut g = StreamGen::new(p);
        let mut saw_chain_run = 0u32;
        let mut longest_dep1_run = 0u32;
        let mut run = 0u32;
        for _ in 0..100_000 {
            let i = g.next_inst();
            if i.op == OpClass::IntAlu && i.src1_dist == 2 && i.src2_dist == 0 {
                run += 1;
                longest_dep1_run = longest_dep1_run.max(run);
                if run == 30 {
                    saw_chain_run += 1;
                }
            } else {
                run = 0;
            }
        }
        assert!(
            saw_chain_run > 5,
            "expected chain segments, saw {saw_chain_run}"
        );
        assert!(
            longest_dep1_run >= 99,
            "chains should reach ~100 ops, got {longest_dep1_run}"
        );
    }

    #[test]
    fn burst_ops_depend_on_chain_tail() {
        let mut p = base_profile();
        p.episode = Some(Episode::resonant(100, 4, 1.0)); // always in episode
        let mut g = StreamGen::new(p);
        // First 100 chain ops (50 low cycles at 2 IPC for period 100), then
        // burst: op j has src1_dist = j+1.
        for _ in 0..100 {
            let i = g.next_inst();
            assert_eq!(i.src1_dist, 2);
        }
        for j in 0..100u32 {
            let i = g.next_inst();
            let expect = if j < 6 {
                j + 1
            } else if j % 6 == 1 || j % 6 == 4 {
                j % 6
            } else {
                6
            };
            assert_eq!(i.src1_dist, expect, "burst op {j}");
            let is_load = i.op == cpusim::OpClass::Load;
            assert_eq!(is_load, j % 6 == 1 || j % 6 == 4, "burst op {j} class");
        }
    }

    #[test]
    fn mispredict_rate_is_approximate() {
        let mut p = base_profile();
        p.mispredict_rate = 0.10;
        let mut g = StreamGen::new(p);
        let mut branches = 0;
        let mut mis = 0;
        for _ in 0..60_000 {
            let i = g.next_inst();
            if i.op == OpClass::Branch {
                branches += 1;
                if i.mispredict {
                    mis += 1;
                }
            }
        }
        let rate = mis as f64 / branches as f64;
        assert!((rate - 0.10).abs() < 0.02, "mispredict rate {rate}");
    }

    /// The dependence sampler as it was before `Geometric` prepared it: `p`
    /// and `ln(1 − p)` on every draw, and `1 + floor(..)` in floating point.
    fn plain_geometric(rng: &mut StdRng, mean: f64) -> u32 {
        let p = (1.0 / mean).clamp(1e-6, 1.0);
        if p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let d = 1.0 + (u.ln() / (1.0 - p).ln()).floor();
        (d as u32).clamp(1, 96)
    }

    #[test]
    fn prepared_geometric_equals_the_plain_form() {
        // p = 1 (means 0.5 and 1), the suite's range, and means whose draws
        // mostly hit the 96 clamp (p at its 1e-6 floor for the last).
        let means = [0.5, 1.0, 1.7, 3.0, 6.5, 40.0, 1e3, 1e9];
        let mut clamped = 0;
        for (seed, mean) in means.into_iter().enumerate() {
            let prepared = Geometric::new(mean);
            let mut plain_rng = StdRng::seed_from_u64(seed as u64);
            let mut rng = plain_rng.clone();
            for draw in 0..125_000 {
                let want = plain_geometric(&mut plain_rng, mean);
                assert_eq!(prepared.sample(&mut rng), want, "mean {mean}, draw {draw}");
                clamped += u32::from(want == MAX_DIST);
            }
            assert_eq!(rng, plain_rng, "mean {mean}: both draw alike");
        }
        assert!(clamped > 100_000, "the clamp bound {clamped} draws");
    }

    #[test]
    fn in_episode_reflects_mode() {
        let mut p = base_profile();
        p.episode = Some(Episode::resonant(100, 4, 1.0));
        let mut g = StreamGen::new(p);
        assert!(!g.in_episode());
        let _ = g.next_inst();
        assert!(g.in_episode());
    }
}
