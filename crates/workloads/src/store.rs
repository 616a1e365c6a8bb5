//! A process-wide store of decoded instruction traces, so the many runs of
//! an experiment suite that execute the same application — the base and
//! technique runs of a comparison, retries, sweep points — share one
//! workload-stream decode pass instead of each re-running the generator.
//! Beside it sits one warmed cache image per cache geometry
//! ([`warmed_caches`]), so those runs also share one warm-up walk.
//!
//! [`StreamGen`] is deterministic: the instruction at index *k* is a pure
//! function of the profile. The store exploits that by decoding each
//! profile's stream once into an [`Arc`]-shared prefix, together with a
//! snapshot of the generator state at the prefix end. A [`SharedStream`]
//! replays the prefix and, if a consumer reads past it, continues from the
//! snapshot — so it yields exactly the sequence `StreamGen::new(profile)`
//! would, for any read count, and correctness never depends on how much was
//! pregenerated or stored.
//!
//! # Memory
//!
//! * **16 bytes an instruction.** A prefix keeps each instruction packed:
//!   the address, the pc as a `u32`, both dependence distances as a `u8`
//!   each, the op class, and the mispredict and taken bits in one byte. Two
//!   invariants of the generator make that lossless, and packing asserts
//!   both: no dependence distance exceeds 96, and every pc lies below 2^24,
//!   where the cold code region ends. A stream unpacks each instruction as
//!   it reads it.
//! * **One byte budget.** The prefixes of all stored traces together hold
//!   at most `BUDGET_BYTES` (256 MiB), whatever the instruction counts and
//!   however many profiles the process meets. A trace that would not fit
//!   is not stored: its stream replays what is stored of it, if anything,
//!   and generates the rest as it reads. Nothing is evicted, so a suite
//!   whose traces exceed the budget stores those that fit first and
//!   generates the others in each of their runs.
//! * **Slack.** A prefix covers the requested instruction count plus 256. A
//!   run reads at most its reorder buffer and fetch buffer (128 + 16 at
//!   Table 1) past the instructions it commits; any read beyond the prefix
//!   continues from the tail generator.
//! * **No copy of a corpus program.** A corpus profile's stream replays its
//!   program's lowered trace, which [`crate::corpus::trace`] keeps once per
//!   process, directly: the store holds nothing for it.

use std::collections::HashMap;
use std::iter;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cpusim::cache::CacheHierarchy;
use cpusim::isa::{InstructionStream, SynthInst};
use cpusim::{CacheGeometry, CpuConfig, OpClass};

use crate::profile::WorkloadProfile;
use crate::stream::{layout, warm_hierarchy, StreamGen, MAX_DIST};

/// Instructions decoded past the requested count: more than a run reads
/// past the instructions it commits.
const SLACK: u64 = 256;

/// Prefix bytes the process keeps over all stored traces.
const BUDGET_BYTES: usize = 256 << 20;

/// The end of the generator's cold code region: every pc lies below it.
const PC_LIMIT: u64 = layout::FAR_CODE_BASE + layout::FAR_CODE_SIZE;

/// A synthetic instruction in 16 bytes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedInst {
    addr: u64,
    pc: u32,
    src1_dist: u8,
    src2_dist: u8,
    op: OpClass,
    /// Bit 0: mispredict; bit 1: taken.
    branch: u8,
}

const _: () = assert!(size_of::<PackedInst>() == 16 && PC_LIMIT == 1 << 24);

/// Packs a generator instruction.
///
/// # Panics
///
/// Panics if a dependence distance exceeds 96 or the pc lies at or past
/// 2^24: the generator never emits either.
fn pack(inst: SynthInst) -> PackedInst {
    assert!(
        inst.src1_dist <= MAX_DIST && inst.src2_dist <= MAX_DIST,
        "dependence distance beyond {MAX_DIST}: {inst:?}"
    );
    assert!(inst.pc < PC_LIMIT, "pc past the code regions: {inst:?}");
    PackedInst {
        addr: inst.addr,
        pc: inst.pc as u32,
        src1_dist: inst.src1_dist as u8,
        src2_dist: inst.src2_dist as u8,
        op: inst.op,
        branch: u8::from(inst.mispredict) | u8::from(inst.taken) << 1,
    }
}

#[inline]
fn unpack(packed: PackedInst) -> SynthInst {
    SynthInst {
        op: packed.op,
        src1_dist: u32::from(packed.src1_dist),
        src2_dist: u32::from(packed.src2_dist),
        addr: packed.addr,
        mispredict: packed.branch & 1 != 0,
        taken: packed.branch & 2 != 0,
        pc: u64::from(packed.pc),
    }
}

/// An [`InstructionStream`] over a stored trace: replays the shared decoded
/// prefix, then continues generating from the stored tail state. Bit-exact
/// with a fresh `StreamGen` of the same profile for any number of reads.
#[derive(Debug, Clone)]
pub struct SharedStream {
    prefix: Arc<[PackedInst]>,
    pos: usize,
    tail: StreamGen,
}

impl InstructionStream for SharedStream {
    #[inline]
    fn next_inst(&mut self) -> SynthInst {
        if let Some(&packed) = self.prefix.get(self.pos) {
            self.pos += 1;
            unpack(packed)
        } else {
            self.tail.next_inst()
        }
    }
}

/// One decoded trace: its packed prefix and the generator state positioned
/// exactly after it.
#[derive(Debug)]
struct StoredTrace {
    prefix: Arc<[PackedInst]>,
    tail: StreamGen,
}

/// Decoded traces keyed by profile, their prefixes within `budget` bytes.
#[derive(Debug)]
struct TraceStore {
    budget: usize,
    traces: Mutex<Traces>,
}

#[derive(Debug, Default)]
struct Traces {
    by_profile: HashMap<String, StoredTrace>,
    /// Prefix bytes over every stored trace.
    bytes: usize,
}

impl Traces {
    /// Stores `trace` under `key` if it is longer than the stored one (so
    /// concurrent extenders cannot shrink a trace) and the prefixes stay
    /// within `budget` (another profile may have taken the room since the
    /// decode began); otherwise leaves the store as it is.
    fn store(&mut self, budget: usize, key: String, trace: StoredTrace) {
        let before = self.by_profile.get(&key).map_or(0, |t| t.prefix.len());
        let added = trace.prefix.len().saturating_sub(before) * size_of::<PackedInst>();
        if added > 0 && added <= budget - self.bytes {
            self.bytes += added;
            self.by_profile.insert(key, trace);
        }
    }
}

impl TraceStore {
    fn new(budget: usize) -> Self {
        TraceStore {
            budget,
            traces: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Traces> {
        self.traces.lock().expect("trace store poisoned")
    }

    /// [`shared_stream`] on this store.
    fn stream(&self, profile: &WorkloadProfile, min_instructions: u64) -> SharedStream {
        // Build the generator, which validates the profile, before touching
        // the store: an invalid profile must panic in the caller's frame,
        // never while the store lock is held (a poisoned store would fail
        // every later run in the process).
        let fresh = StreamGen::new(*profile);
        if fresh.replays_corpus() {
            return SharedStream {
                prefix: Arc::from([]),
                pos: 0,
                tail: fresh,
            };
        }
        let want = usize::try_from(min_instructions.saturating_add(SLACK)).unwrap_or(usize::MAX);
        let key = format!("{profile:?}");

        let (stored, mut tail, room) = {
            let traces = self.lock();
            let (stored, tail) = match traces.by_profile.get(&key) {
                Some(trace) => (Arc::clone(&trace.prefix), trace.tail.clone()),
                None => (Arc::from([]), fresh),
            };
            (stored, tail, self.budget - traces.bytes)
        };
        // Long enough, or too long to store: replay what is stored and let
        // the tail generate the rest.
        let grow = want.saturating_sub(stored.len());
        if grow == 0 || grow.saturating_mul(size_of::<PackedInst>()) > room {
            return SharedStream {
                prefix: stored,
                pos: 0,
                tail,
            };
        }

        // Extend outside the lock (decode can be long).
        let grown: Arc<[PackedInst]> = stored
            .iter()
            .copied()
            .chain(iter::repeat_with(|| pack(tail.next_inst())).take(grow))
            .collect();
        drop(stored);
        let trace = StoredTrace {
            prefix: Arc::clone(&grown),
            tail: tail.clone(),
        };
        self.lock().store(self.budget, key, trace);
        SharedStream {
            prefix: grown,
            pos: 0,
            tail,
        }
    }
}

fn traces() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| TraceStore::new(BUDGET_BYTES))
}

/// Returns a stream for `profile` backed by the process-wide trace store,
/// with at least `min_instructions` (plus in-flight slack) pre-decoded when
/// the store's byte budget has room for it.
///
/// The first call for a profile decodes the prefix; later calls — any
/// thread, any run — clone the [`Arc`] and replay it. A request longer than
/// what is stored extends the stored trace from its tail snapshot (never by
/// re-decoding from the start). A trace the budget has no room for is not
/// stored: its stream generates what is not stored as it reads. A corpus
/// profile's stream replays its program's lowered trace and stores nothing.
///
/// # Panics
///
/// Panics if the profile is invalid (see [`StreamGen::new`]).
pub fn shared_stream(profile: &WorkloadProfile, min_instructions: u64) -> SharedStream {
    traces().stream(profile, min_instructions)
}

fn images() -> &'static Mutex<HashMap<CacheGeometry, Arc<CacheHierarchy>>> {
    static IMAGES: OnceLock<Mutex<HashMap<CacheGeometry, Arc<CacheHierarchy>>>> = OnceLock::new();
    IMAGES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns caches of `config`'s geometry in exactly the state
/// [`warm_caches`](crate::stream::warm_caches) leaves a new CPU's caches in:
/// the warm sets resident, every counter zero.
///
/// The first call for a geometry builds the image by that same walk; later
/// calls — any thread, any run — clone it, which copies the tag and stamp
/// arrays (544 KiB for Table 1) instead of zero-filling them and walking
/// 17,664 lines. The lookup holds the lock; the clone and a first build do
/// not.
///
/// # Panics
///
/// Panics on a degenerate cache geometry (see [`CacheHierarchy::new`]).
pub fn warmed_caches(config: &CpuConfig) -> CacheHierarchy {
    let geometry = config.cache_geometry();
    let found = images()
        .lock()
        .expect("cache image store poisoned")
        .get(&geometry)
        .cloned();
    let image = found.unwrap_or_else(|| {
        let mut fresh = CacheHierarchy::new(config);
        warm_hierarchy(&mut fresh);
        // A racing first build may have landed meanwhile: keep one image.
        let mut map = images().lock().expect("cache image store poisoned");
        Arc::clone(map.entry(geometry).or_insert_with(|| Arc::new(fresh)))
    });
    CacheHierarchy::clone(&image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Episode, OpMix};
    use crate::stream::warm_caches;
    use crate::{corpus, spec2k};
    use cpusim::isa::LoopStream;
    use cpusim::{CacheConfig, Cpu};
    use proptest::prelude::*;

    /// The caches `warm_caches` leaves a new CPU of `config` with.
    fn walked(config: &CpuConfig) -> CacheHierarchy {
        let mut cpu = Cpu::new(*config, LoopStream::new(vec![SynthInst::int_alu()]));
        warm_caches(&mut cpu);
        cpu.caches().clone()
    }

    /// Table 1 with a 256 KiB 4-way L2, which the 1 MiB warm set overflows.
    fn small_l2() -> CpuConfig {
        CpuConfig {
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 12,
            },
            ..CpuConfig::isca04_table1()
        }
    }

    /// Table 1 with 32-byte L1 lines, half of which the 64-byte walk skips.
    fn short_l1_lines() -> CpuConfig {
        let mut config = CpuConfig::isca04_table1();
        config.l1i.line_bytes = 32;
        config.l1d.line_bytes = 32;
        config
    }

    #[test]
    fn warmed_image_equals_the_walk_at_every_geometry() {
        for config in [CpuConfig::isca04_table1(), small_l2(), short_l1_lines()] {
            let image = warmed_caches(&config);
            // Full state: tags, LRU stamps, access ticks and counters. Not
            // `assert_eq!`: a failure would print every tag.
            assert!(
                image == walked(&config),
                "image drifted from the walk at {:?}",
                config.cache_geometry()
            );
            for level in [image.l1i(), image.l1d(), image.l2()] {
                assert_eq!((level.accesses(), level.misses()), (0, 0));
            }
            assert_eq!((image.l2_accesses(), image.memory_accesses()), (0, 0));
            assert!(image.l1d().contains(crate::stream::layout::L1_BASE));
        }
    }

    #[test]
    fn each_geometry_gets_its_own_image() {
        let table1 = CpuConfig::isca04_table1();
        let slow_memory = CpuConfig {
            memory_latency: 120,
            ..table1
        };
        let first = warmed_caches(&table1);
        for other in [small_l2(), short_l1_lines(), slow_memory] {
            let image = warmed_caches(&other);
            assert_eq!(image.geometry(), other.cache_geometry());
            assert!(image == walked(&other), "{:?}", other.cache_geometry());
            assert!(image != first, "a neighbour's image");
            // Table 1 is still served its own image afterwards.
            assert!(warmed_caches(&table1) == first);
        }
        assert_eq!(first.geometry(), table1.cache_geometry());
    }

    #[test]
    fn shared_stream_matches_fresh_generator_bit_exactly() {
        let profile = spec2k::by_name("gcc").unwrap();
        let mut fresh = StreamGen::new(profile);
        let mut shared = shared_stream(&profile, 2_000);
        // Read far past the pregenerated prefix: the tail snapshot must
        // continue the sequence seamlessly.
        for k in 0..20_000u64 {
            assert_eq!(shared.next_inst(), fresh.next_inst(), "index {k}");
        }
    }

    #[test]
    fn second_request_reuses_the_decoded_prefix() {
        let profile = spec2k::by_name("mesa").unwrap();
        let a = shared_stream(&profile, 1_000);
        let b = shared_stream(&profile, 1_000);
        assert!(Arc::ptr_eq(&a.prefix, &b.prefix), "one decode, two runs");
        // And both replay identically from the start.
        let (mut a, mut b) = (a, b);
        for _ in 0..5_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn growing_a_stored_trace_preserves_the_prefix() {
        let profile = spec2k::by_name("vortex").unwrap();
        let mut small = shared_stream(&profile, 500);
        let mut large = shared_stream(&profile, 50_000);
        for k in 0..60_000u64 {
            assert_eq!(small.next_inst(), large.next_inst(), "index {k}");
        }
    }

    /// The first `n` instructions of `stream` equal `StreamGen::new(profile)`'s.
    fn assert_replays(stream: &mut SharedStream, profile: WorkloadProfile, n: u64) {
        let mut fresh = StreamGen::new(profile);
        for k in 0..n {
            assert_eq!(
                stream.next_inst(),
                fresh.next_inst(),
                "index {k} of {profile:?}"
            );
        }
    }

    /// Prefix bytes of `instructions` packed instructions.
    fn prefix_bytes(instructions: u64) -> usize {
        instructions as usize * size_of::<PackedInst>()
    }

    /// A synthetic profile built from drawn knobs.
    fn drawn_profile(
        seed: u64,
        weights: &[f64],
        mean_dep: f64,
        (l2_fraction, mem_fraction, pointer_chase): (f64, f64, bool),
        episode: Option<(u32, u32, f64, f64, f64)>,
    ) -> WorkloadProfile {
        WorkloadProfile {
            name: "drawn",
            paper_ipc: 1.0,
            paper_violating: false,
            mix: OpMix {
                int_alu: weights[0],
                int_mul: weights[1],
                int_div: weights[2],
                fp_alu: weights[3],
                fp_mul: weights[4],
                fp_div: weights[5],
                load: weights[6],
                store: weights[7],
                branch: weights[8],
            },
            mean_dep,
            l2_fraction,
            mem_fraction,
            pointer_chase,
            mispredict_rate: 0.05,
            episode: episode.map(|(period, periods, rate, go_on, miss)| {
                Episode::resonant(period, periods, rate)
                    .with_continue_prob(go_on)
                    .with_miss_chance(miss)
            }),
            seed,
        }
    }

    /// Room for 8,192 instructions: fewer than two of the proptest's
    /// longest prefixes (5,256).
    const SMALL_BUDGET: usize = 8_192 * size_of::<PackedInst>();

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Streams of three drawn profiles, requested in a drawn order under
        /// a budget too small for all their prefixes, so some requests find
        /// no room and generate as they read: every stream is its
        /// generator's sequence, read up to three prefixes past its own, a
        /// stream is short of its request only when the budget has no room
        /// for the rest, and the store never counts more bytes than its
        /// budget.
        #[test]
        fn every_stream_is_its_generator_within_the_budget(
            seeds in prop::collection::vec(any::<u64>(), 3..4),
            weights in prop::collection::vec(0.0..1.0f64, 9..10),
            mean_dep in 1.0..12.0f64,
            memory in (0.0..0.5f64, 0.0..0.5f64, any::<bool>()),
            episode in prop::option::of((20u32..200, 1u32..9, 0.0..0.02f64, 0.0..1.0f64, 0.0..1.0f64)),
            requests in prop::collection::vec((0usize..3, 0u64..5_000, 0.0..3.0f64), 1..9),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let profiles: Vec<WorkloadProfile> = seeds
                .iter()
                .map(|&seed| drawn_profile(seed, &weights, mean_dep, memory, episode))
                .collect();
            let store = TraceStore::new(SMALL_BUDGET);
            for (which, min_instructions, past) in requests {
                let mut stream = store.stream(&profiles[which], min_instructions);
                let own = stream.prefix.len() as u64;
                let want = min_instructions + SLACK;
                let bytes = store.lock().bytes;
                prop_assert!(bytes <= SMALL_BUDGET);
                prop_assert!(own >= want || prefix_bytes(want - own) > SMALL_BUDGET - bytes);
                let reads = want + (past * want as f64) as u64;
                assert_replays(&mut stream, profiles[which], reads);
            }
        }
    }

    #[test]
    fn a_trace_without_room_generates_as_it_reads() {
        let [gzip, gcc, mcf] = ["gzip", "gcc", "mcf"].map(|n| spec2k::by_name(n).unwrap());
        // Two 1,256-instruction prefixes fit; a third does not.
        let budget = prefix_bytes(2 * (1_000 + SLACK));
        let store = TraceStore::new(budget);
        let gzip_stream = store.stream(&gzip, 1_000);
        let _gcc = store.stream(&gcc, 1_000);
        assert_eq!(store.lock().bytes, budget);
        let mut mcf_stream = store.stream(&mcf, 1_000);
        assert!(mcf_stream.prefix.is_empty(), "no room: nothing decoded");
        assert_replays(&mut mcf_stream, mcf, 20_000);
        {
            let traces = store.lock();
            assert_eq!(traces.bytes, budget, "mcf not stored");
            assert!(!traces.by_profile.contains_key(&format!("{mcf:?}")));
        }
        // The stored traces keep serving; one that cannot grow replays what
        // is stored and generates the rest.
        let again = store.stream(&gzip, 1_000);
        assert!(Arc::ptr_eq(&again.prefix, &gzip_stream.prefix));
        let mut longer = store.stream(&gzip, 5_000);
        assert!(Arc::ptr_eq(&longer.prefix, &gzip_stream.prefix));
        assert_replays(&mut longer, gzip, 20_000);
        assert_eq!(store.lock().bytes, budget);
    }

    /// `profile`'s first `n` instructions as a trace to store.
    fn decoded(profile: WorkloadProfile, n: usize) -> StoredTrace {
        let mut tail = StreamGen::new(profile);
        let prefix = iter::repeat_with(|| pack(tail.next_inst()))
            .take(n)
            .collect();
        StoredTrace { prefix, tail }
    }

    #[test]
    fn a_decode_that_lost_the_room_or_the_race_is_not_stored() {
        let [gzip, gcc] = ["gzip", "gcc"].map(|n| spec2k::by_name(n).unwrap());
        let (key, budget) = (|p: &WorkloadProfile| format!("{p:?}"), prefix_bytes(1_500));
        let store = TraceStore::new(budget);
        let mut traces = store.lock();
        // Two decodes that each saw room when they began: the second to
        // commit finds none left.
        traces.store(budget, key(&gzip), decoded(gzip, 1_000));
        traces.store(budget, key(&gcc), decoded(gcc, 1_000));
        assert_eq!(traces.bytes, prefix_bytes(1_000));
        assert!(!traces.by_profile.contains_key(&key(&gcc)));
        // A shorter decode never replaces a longer one; a longer one that
        // fits does.
        traces.store(budget, key(&gzip), decoded(gzip, 600));
        assert_eq!(traces.by_profile[&key(&gzip)].prefix.len(), 1_000);
        traces.store(budget, key(&gzip), decoded(gzip, 1_500));
        assert_eq!(traces.by_profile[&key(&gzip)].prefix.len(), 1_500);
        assert_eq!(traces.bytes, budget);
    }

    #[test]
    fn a_request_past_the_budget_is_generated_as_read() {
        let twolf = spec2k::by_name("twolf").unwrap();
        let store = TraceStore::new(prefix_bytes(1_024));
        let mut stream = store.stream(&twolf, 1_000_000);
        assert!(stream.prefix.is_empty());
        assert_eq!(store.lock().bytes, 0);
        assert_replays(&mut stream, twolf, 10_000);
        // A request that fits is stored as usual.
        let short = store.stream(&twolf, 500);
        assert_eq!(short.prefix.len() as u64, 500 + SLACK);
        assert_eq!(store.lock().bytes, prefix_bytes(500 + SLACK));
    }

    #[test]
    fn every_spec2k_instruction_survives_packing() {
        for profile in spec2k::all() {
            let mut generator = StreamGen::new(profile);
            for k in 0..200_000 {
                let inst = generator.next_inst();
                assert_eq!(unpack(pack(inst)), inst, "{} at {k}", profile.name);
            }
        }
    }

    #[test]
    fn corpus_streams_replay_the_program_across_a_wrap() {
        for profile in corpus::all() {
            let len = corpus::trace(profile.name).unwrap().insts.len() as u64;
            let mut stream = shared_stream(&profile, len);
            assert!(stream.prefix.is_empty(), "{}: no copy", profile.name);
            assert_replays(&mut stream, profile, len + 1_000);
        }
        let traces = traces().lock();
        assert!(
            traces.by_profile.keys().all(|key| !corpus::is_corpus(
                key.split('"').nth(1).expect("a Debug key quotes its name")
            )),
            "the store holds no corpus trace"
        );
    }
}
