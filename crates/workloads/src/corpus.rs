//! The real-program workload class: RISC-V kernels assembled, executed,
//! and lowered through `cpusim::riscv`.
//!
//! Each corpus app is a [`WorkloadProfile`] whose stream does **not** come
//! from the synthetic generator: [`crate::StreamGen`] recognizes corpus
//! names and replays the program's lowered `SynthInst` trace (looping
//! forever, like a kernel body pinned in its hot loop). The profile's
//! synthetic-generator knobs (`mix`, `mean_dep`, locality fractions, …)
//! are therefore inert documentation values, kept inside
//! [`WorkloadProfile::validate`] bounds.
//!
//! Two things make corpus runs first-class citizens of the caching and
//! serving infrastructure:
//!
//! * the profile `seed` is an FNV-1a hash of the embedded `.s` source, so
//!   every Debug-derived fingerprint (run-store keys, job fingerprints)
//!   changes whenever the program text changes — stale caches can never
//!   serve results for edited programs;
//! * profiles resolve by name through `crate::registry`, exactly like the
//!   synthetic suite, so wire jobs, stored result rows, and harness filters all
//!   work unchanged.
//!
//! Program provenance: `matmul`, `quicksort`, `box_blur`, and `qoi_decode`
//! are the classic real-kernel quartet (dense compute, recursion +
//! data-dependent branches, stencil + divide, byte-granular decompression)
//! ported to RV32IM for this reproduction; `hazards` and `resonance` are
//! purpose-built microbenchmarks — `resonance` expresses the
//! deliberately-resonant instruction stream of the IChannels attack model,
//! which only became possible once real code could run.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use cpusim::isa::SynthInst;
use cpusim::riscv::{self, LoweredTrace};

use crate::profile::{OpMix, WorkloadProfile};

/// Execution budget per corpus program. All shipped programs halt well
/// under this; hitting it is a corpus bug and panics at trace build time.
pub const MAX_TRACE_INSTS: u64 = 1_000_000;

struct App {
    name: &'static str,
    source: &'static str,
    /// Ballpark baseline IPC on the Table 1 machine (documentation, like
    /// the synthetic suite's paper columns).
    ipc: f64,
    /// Whether the program is expected to build noise-margin violations.
    violating: bool,
}

const APPS: [App; 6] = [
    App {
        name: "matmul",
        source: include_str!("../corpus/matmul.s"),
        ipc: 2.5,
        violating: false,
    },
    App {
        name: "quicksort",
        source: include_str!("../corpus/quicksort.s"),
        ipc: 1.5,
        violating: false,
    },
    App {
        name: "box_blur",
        source: include_str!("../corpus/box_blur.s"),
        ipc: 2.0,
        violating: false,
    },
    App {
        name: "qoi_decode",
        source: include_str!("../corpus/qoi_decode.s"),
        ipc: 1.5,
        violating: false,
    },
    App {
        name: "hazards",
        source: include_str!("../corpus/hazards.s"),
        ipc: 1.0,
        violating: false,
    },
    App {
        name: "resonance",
        source: include_str!("../corpus/resonance.s"),
        ipc: 4.0,
        violating: true,
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn profile_for(app: &App) -> WorkloadProfile {
    WorkloadProfile {
        name: app.name,
        paper_ipc: app.ipc,
        paper_violating: app.violating,
        // Inert for corpus apps (the stream is the lowered program trace);
        // values sit inside validate() bounds and feed Debug fingerprints.
        mix: OpMix::integer(),
        mean_dep: 3.0,
        l2_fraction: 0.0,
        mem_fraction: 0.0,
        pointer_chase: false,
        mispredict_rate: 0.0,
        episode: None,
        // Content hash: editing a program re-fingerprints every cache that
        // keys on the profile's Debug representation.
        seed: fnv1a(app.source.as_bytes()),
    }
}

/// All corpus application profiles, in suite order.
pub fn all() -> Vec<WorkloadProfile> {
    APPS.iter().map(profile_for).collect()
}

/// Looks up a corpus profile by application name.
pub fn by_name(name: &str) -> Option<WorkloadProfile> {
    APPS.iter().find(|a| a.name == name).map(profile_for)
}

/// `true` if `name` names a corpus application.
pub fn is_corpus(name: &str) -> bool {
    APPS.iter().any(|a| a.name == name)
}

/// The embedded assembly source of a corpus application.
pub fn source(name: &str) -> Option<&'static str> {
    APPS.iter().find(|a| a.name == name).map(|a| a.source)
}

fn trace_store() -> &'static Mutex<HashMap<&'static str, Arc<LoweredTrace>>> {
    static STORE: OnceLock<Mutex<HashMap<&'static str, Arc<LoweredTrace>>>> = OnceLock::new();
    STORE.get_or_init(Mutex::default)
}

/// The lowered trace of a corpus application: assembled, executed to
/// completion, and lowered once per process, then shared.
///
/// # Panics
///
/// Panics if the embedded program fails to assemble or execute — both are
/// corpus bugs, pinned by `tests/riscv_frontend.rs`.
pub fn trace(name: &str) -> Option<Arc<LoweredTrace>> {
    let app = APPS.iter().find(|a| a.name == name)?;
    let mut store = trace_store().lock().expect("corpus trace store poisoned");
    Some(Arc::clone(store.entry(app.name).or_insert_with(|| {
        let program = riscv::assemble(app.source)
            .unwrap_or_else(|e| panic!("corpus program `{}` failed to assemble: {e}", app.name));
        let trace = riscv::lower(&program, MAX_TRACE_INSTS)
            .unwrap_or_else(|e| panic!("corpus program `{}` failed to execute: {e}", app.name));
        Arc::new(trace)
    })))
}

/// Replays a corpus program's lowered trace as an infinite instruction
/// stream (the program loops back to its entry after the halting `ecall`,
/// with dependence distances reset across the boundary — live-ins carry
/// distance 0, which is exact for the first iteration and conservative
/// afterwards).
#[derive(Clone)]
pub struct CorpusReplay {
    name: &'static str,
    trace: Arc<LoweredTrace>,
    pos: usize,
}

impl fmt::Debug for CorpusReplay {
    // Compact on purpose: StreamGen (and so a corpus SharedStream) derives
    // Debug, and the full trace would print megabytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CorpusReplay")
            .field("name", &self.name)
            .field("len", &self.trace.insts.len())
            .field("pos", &self.pos)
            .finish()
    }
}

impl CorpusReplay {
    /// Builds a replay for a corpus-named profile; `None` for synthetic
    /// profiles.
    ///
    /// # Panics
    ///
    /// Panics if a corpus-named profile's fields were modified: the fields
    /// are inert for replay, so silently accepting a divergent profile
    /// would let two differently-fingerprinted profiles share one stream.
    pub fn for_profile(profile: &WorkloadProfile) -> Option<Self> {
        let canonical = by_name(profile.name)?;
        assert_eq!(
            *profile, canonical,
            "corpus profile `{}` differs from its canonical definition",
            profile.name
        );
        let trace = trace(profile.name).expect("corpus app has a trace");
        Some(CorpusReplay {
            name: canonical.name,
            trace,
            pos: 0,
        })
    }

    /// The next instruction, looping past the end of the program.
    pub fn next_inst(&mut self) -> SynthInst {
        let inst = self.trace.insts[self.pos];
        self.pos += 1;
        if self.pos == self.trace.insts.len() {
            self.pos = 0;
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate_and_have_unique_names_and_seeds() {
        let apps = all();
        assert_eq!(apps.len(), 6);
        for p in &apps {
            p.validate();
        }
        let mut names: Vec<_> = apps.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), apps.len());
        let mut seeds: Vec<_> = apps.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), apps.len(), "source hashes must be distinct");
    }

    #[test]
    fn every_program_assembles_executes_and_lowers() {
        for app in &APPS {
            let t = trace(app.name).unwrap();
            assert!(
                t.summary.dyn_insts > 1_000,
                "{}: suspiciously short ({} insts)",
                app.name,
                t.summary.dyn_insts
            );
            assert_eq!(t.insts.len() as u64, t.summary.dyn_insts);
        }
    }

    #[test]
    fn seed_is_a_content_hash() {
        let p = by_name("matmul").unwrap();
        assert_eq!(p.seed, fnv1a(source("matmul").unwrap().as_bytes()));
    }

    #[test]
    fn replay_loops_past_program_end() {
        let p = by_name("hazards").unwrap();
        let len = trace("hazards").unwrap().insts.len();
        let mut r = CorpusReplay::for_profile(&p).unwrap();
        let first = r.next_inst();
        for _ in 1..len {
            let _ = r.next_inst();
        }
        assert_eq!(
            r.next_inst(),
            first,
            "stream must wrap to the program start"
        );
    }

    #[test]
    fn synthetic_profiles_get_no_replay() {
        let p = crate::spec2k::by_name("gzip").unwrap();
        assert!(CorpusReplay::for_profile(&p).is_none());
    }

    #[test]
    #[should_panic(expected = "differs from its canonical definition")]
    fn tampered_corpus_profile_is_rejected() {
        let mut p = by_name("matmul").unwrap();
        p.mean_dep = 9.0;
        let _ = CorpusReplay::for_profile(&p);
    }
}
