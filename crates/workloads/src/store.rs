//! A process-wide store of decoded instruction traces, so the many runs of
//! an experiment suite that execute the same application — the base and
//! technique runs of a comparison, retries, sweep points — share one
//! workload-stream decode pass instead of each re-running the generator.
//!
//! [`StreamGen`] is deterministic: the instruction at index *k* is a pure
//! function of the profile. The store exploits that by decoding each
//! profile's stream once into an [`Arc`]-shared prefix, together with a
//! snapshot of the generator state at the prefix end. A [`SharedStream`]
//! replays the prefix and, if a consumer reads past it, continues from the
//! snapshot — so it yields exactly the sequence `StreamGen::new(profile)`
//! would, for any read count, and correctness never depends on how much was
//! pregenerated.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use cpusim::isa::{InstructionStream, SynthInst};

use crate::profile::WorkloadProfile;
use crate::stream::StreamGen;

/// Extra instructions decoded beyond the requested minimum: covers the
/// in-flight window a consumer reads past its commit target (reorder
/// buffer + fetch buffer + replay queue) and amortizes store growth.
const SLACK: u64 = 4_096;

/// Prefixes are never grown beyond this many instructions (the tail
/// generator covers the rest), bounding the store's memory at roughly
/// 128 MB per distinct profile.
const MAX_PREFIX: u64 = 4_000_000;

/// One decoded trace: the shared prefix and the generator state at its end.
#[derive(Debug, Clone)]
struct StoredTrace {
    prefix: Arc<Vec<SynthInst>>,
    /// Generator state positioned exactly after `prefix`.
    tail: StreamGen,
}

fn store() -> &'static Mutex<HashMap<String, StoredTrace>> {
    static STORE: OnceLock<Mutex<HashMap<String, StoredTrace>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// An [`InstructionStream`] over a stored trace: replays the shared decoded
/// prefix, then continues generating from the stored tail state. Bit-exact
/// with a fresh `StreamGen` of the same profile for any number of reads.
#[derive(Debug, Clone)]
pub struct SharedStream {
    prefix: Arc<Vec<SynthInst>>,
    pos: usize,
    tail: StreamGen,
}

impl InstructionStream for SharedStream {
    fn next_inst(&mut self) -> SynthInst {
        if let Some(&inst) = self.prefix.get(self.pos) {
            self.pos += 1;
            inst
        } else {
            self.tail.next_inst()
        }
    }
}

/// Returns a stream for `profile` backed by the process-wide trace store,
/// with at least `min_instructions` (plus in-flight slack) pre-decoded.
///
/// The first call for a profile decodes the prefix; later calls — any
/// thread, any run — clone the [`Arc`] and replay it. A request longer than
/// what is stored extends the stored trace from its tail snapshot (never by
/// re-decoding from the start).
pub fn shared_stream(profile: &WorkloadProfile, min_instructions: u64) -> SharedStream {
    // Validate before touching the store: an invalid profile must panic in
    // the caller's frame, never while the store lock is held (a poisoned
    // store would fail every later run in the process).
    profile.validate();
    let want = (min_instructions.saturating_add(SLACK)).min(MAX_PREFIX) as usize;
    let key = format!("{profile:?}");

    let stored = {
        let mut map = store().lock().expect("trace store poisoned");
        map.entry(key.clone())
            .or_insert_with(|| StoredTrace {
                prefix: Arc::new(Vec::new()),
                tail: StreamGen::new(*profile),
            })
            .clone()
    };
    if stored.prefix.len() >= want {
        return SharedStream {
            prefix: stored.prefix,
            pos: 0,
            tail: stored.tail,
        };
    }

    // Extend outside the lock (decode can be long); commit only if still
    // the longest, so concurrent extenders cannot shrink the trace.
    let mut tail = stored.tail.clone();
    let mut extended = Vec::with_capacity(want);
    extended.extend_from_slice(&stored.prefix);
    while extended.len() < want {
        extended.push(tail.next_inst());
    }
    let grown = StoredTrace {
        prefix: Arc::new(extended),
        tail,
    };

    let mut map = store().lock().expect("trace store poisoned");
    let entry = map.get_mut(&key).expect("entry was just inserted");
    if entry.prefix.len() < grown.prefix.len() {
        *entry = grown;
    }
    SharedStream {
        prefix: Arc::clone(&entry.prefix),
        pos: 0,
        tail: entry.tail.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec2k;

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
}
