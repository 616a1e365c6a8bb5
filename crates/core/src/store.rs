//! The run store: the one persistence plane for simulation results.
//!
//! Every completed application run — a sweep point, a base-suite run, a
//! supervised suite's run under `--resume` — is one small record in a
//! [`RunStore`], keyed by a [`CacheKey`]: the 64-bit FNV-1a fingerprint of
//! the run's full identity string ([`run_key`]) plus that string itself,
//! verified on read. A record is a schema-versioned header, a CRC-trailed
//! `id=` identity row, and one CRC-trailed data row, written
//! crash-consistently (`atomic_write`).
//!
//! # Durability
//!
//! A put writes a tmp file and renames it into place, so after any process
//! death a record is whole or absent. The put itself syncs nothing; one
//! barrier, [`RunStore::sync`], does that for many puts:
//!
//! * a record whose put returned survives the death of its process
//!   (SIGKILL, `abort`, an OOM kill): the renamed file lives in the page
//!   cache;
//! * it survives an OS crash or power loss once its suite has returned —
//!   [`crate::engine::run_suite_supervised`] syncs once after its pool
//!   joins, if it put anything — or once its server has drained
//!   ([`crate::server::Server::drain_and_stop`] syncs once after its
//!   workers join);
//! * a power loss before that point leaves the record whole, absent, or
//!   failing its header or CRC check; a failing record is deleted and
//!   re-simulated, never replayed.
//!
//! Off Linux there is no `syncfs(2)`: each put syncs its tmp file before the
//! rename, and the barrier has nothing left to do.
//!
//! The engine reads and writes the store itself (see
//! [`crate::engine::run_suite_supervised`]): stored runs replay, fresh runs
//! are put the moment they succeed. A checkpoint is therefore just the
//! store, a resume is lookups, and a recorded base-suite baseline is one
//! lookup per application. `restuned` keeps its result cache in a store of
//! its own, whose records carry a job's encoded wire result bytes in place
//! of the result row.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use workloads::{registry, WorkloadProfile};

use crate::fault::FaultSpec;
use crate::obs;
use crate::sim::{SimConfig, SimResult, Technique};

/// Bumped when the run-store row format or the meaning of a stored run
/// changes; stale files are discarded on read.
const RUN_SCHEMA: u32 = 1;

/// Default size bound of the run store (256 MiB).
const STORE_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// Age past which an untouched store record is evicted (30 days).
const STORE_MAX_AGE: Duration = Duration::from_secs(30 * 24 * 3600);

/// Age past which a put's tmp file is the leftover of a process that died
/// between creating and renaming it: a live put renames within
/// milliseconds.
const TMP_GRACE: Duration = Duration::from_secs(3600);

/// A fully-qualified cache key: the 64-bit FNV-1a fingerprint plus the
/// identity string it was hashed from.
///
/// Both persisted stores — the engine's run store and the server's result
/// store — keep *both* and verify the identity on read. 64 bits of FNV-1a
/// make an accidental collision unlikely, not impossible, and two
/// different configurations silently sharing one record would replay
/// wrong results with no way to notice; an identity mismatch is therefore
/// treated as a miss with an `obs::warn`, never as a hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a of `identity`.
    pub fingerprint: u64,
    /// The full config identity string the fingerprint was derived from.
    pub identity: String,
}

impl CacheKey {
    /// Hashes `identity` into its fingerprint.
    pub fn from_identity(identity: String) -> CacheKey {
        let fingerprint = fnv1a(identity.as_bytes());
        CacheKey {
            fingerprint,
            identity,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`CacheKey`] of one application run: the workload profile, the technique
/// (with its full config), and the machine configuration. The `Debug`
/// representations include every field recursively, so any parameter change
/// yields a new fingerprint.
pub fn run_key(profile: &WorkloadProfile, technique: &Technique, sim: &SimConfig) -> CacheKey {
    faulted_run_key(profile, technique, sim, &[])
}

/// [`run_key`] of a run computed under the result-perturbing (sensor)
/// `faults`: they are appended to the identity, so a faulted run never
/// shares a record with a clean one. With no faults this *is* `run_key`.
pub(crate) fn faulted_run_key(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    faults: &[FaultSpec],
) -> CacheKey {
    let mut identity = format!("run-v{RUN_SCHEMA}|{profile:?}|{technique:?}|{sim:?}");
    if !faults.is_empty() {
        identity.push_str(&format!("|faults={faults:?}"));
    }
    CacheKey::from_identity(identity)
}

/// The cache directory: `$RESTUNE_CACHE_DIR` when set, otherwise
/// `restune-cache/` inside the build's `target/` directory (located from
/// the running executable's path). The default run store lives in its
/// `store/`, a server's result store in `server/store/`.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RESTUNE_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name().is_some_and(|n| n == "target") {
                return dir.join("restune-cache");
            }
        }
    }
    PathBuf::from("target").join("restune-cache")
}

/// Warns about (and counts) a fingerprint collision: the stored identity
/// under this fingerprint belongs to a different configuration, so the
/// record must be treated as a miss.
fn warn_identity_mismatch(category: &'static str, path: &Path, expected: &str, found: &str) {
    obs::counter_add(&format!("{category}.identity_mismatches"), 1);
    obs::warn(
        category,
        &format!(
            "fingerprint collision at {}: stored identity '{found}' != expected \
             '{expected}'; treating as a miss",
            path.display()
        ),
    );
}

/// Deletes a stale or damaged record and says so on stderr, so the next
/// run doesn't trip over it again.
fn discard_stale(path: &Path, why: &str) {
    let _ = std::fs::remove_file(path);
    obs::warn("cache", &format!("discarded {} ({why})", path.display()));
}

/// Writes `bytes` to `path` crash-consistently: the data goes to a sibling
/// tmp file that is renamed over the target, so a process death at any
/// instant leaves either the old complete file or the new one — never a
/// torn mix. Surviving an OS crash is [`RunStore::sync`]'s job; off Linux,
/// where that barrier is a no-op, the tmp file is synced before its rename.
///
/// Every call gets its own tmp file (process id plus a process-wide
/// sequence number), so concurrent writers of one path — two threads
/// finishing the same run — each rename a complete file and the last
/// rename wins; a shared tmp name would let one writer truncate or rename
/// away the other's file mid-write.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        #[cfg(not(target_os = "linux"))]
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Appends the CRC32 trailer to one serialized row: `<core>\tcrc=<hex8>`.
fn crc_line(core: &str) -> String {
    format!("{core}\tcrc={:08x}", crate::wire::crc32(core.as_bytes()))
}

/// Splits a CRC-trailed row into its core and whether the CRC verifies.
/// `None` means the line is structurally torn (no trailer at all — an
/// interrupted write); `Some((core, false))` means the row is complete but
/// damaged (bit rot, an injected flip).
fn split_crc_line(line: &str) -> Option<(&str, bool)> {
    let (core, crc) = line.rsplit_once("\tcrc=")?;
    if crc.len() != 8 {
        return None;
    }
    let recorded = u32::from_str_radix(crc, 16).ok()?;
    Some((core, recorded == crate::wire::crc32(core.as_bytes())))
}

/// The bit-exact TSV serialization of one result row: floats are stored as
/// `f64::to_bits` hex, so a load reproduces every row bit-for-bit.
fn result_row(r: &SimResult) -> String {
    format!(
        "{}\t{}\t{}\t{:016x}\t{}\t{:016x}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{}",
        r.app,
        r.cycles,
        r.committed,
        r.ipc.to_bits(),
        r.violation_cycles,
        r.worst_noise.volts().to_bits(),
        r.energy_joules.to_bits(),
        r.energy_delay.to_bits(),
        r.first_level_cycles,
        r.second_level_cycles,
        r.sensor_response_cycles,
        r.damping_bound_cycles,
    )
}

fn parse_row(line: &str) -> Option<SimResult> {
    let mut f = line.split('\t');
    let name = f.next()?;
    // Resolve through the registry so `app` stays a `&'static str`; an
    // unknown name means the record predates a suite change and must be
    // discarded.
    let app = registry::by_name(name)?.name;
    let uint = |s: Option<&str>| s?.parse::<u64>().ok();
    let float = |s: Option<&str>| Some(f64::from_bits(u64::from_str_radix(s?, 16).ok()?));
    let result = SimResult {
        app,
        cycles: uint(f.next())?,
        committed: uint(f.next())?,
        ipc: float(f.next())?,
        violation_cycles: uint(f.next())?,
        worst_noise: rlc::units::Volts::new(float(f.next())?),
        energy_joules: float(f.next())?,
        energy_delay: float(f.next())?,
        first_level_cycles: uint(f.next())?,
        second_level_cycles: uint(f.next())?,
        sensor_response_cycles: uint(f.next())?,
        damping_bound_cycles: uint(f.next())?,
    };
    if f.next().is_some() {
        return None;
    }
    Some(result)
}

/// Writes back everything pending on the filesystem holding `dir`.
#[cfg(target_os = "linux")]
fn sync_filesystem(dir: &Path) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::c_int;

    // Raw glibc, no libc crate: the workspace is offline.
    extern "C" {
        fn syncfs(fd: c_int) -> c_int;
    }

    let dir = std::fs::File::open(dir)?;
    // SAFETY: syncfs takes any open file descriptor and only reads it; `dir`
    // stays open for the duration of the call.
    if unsafe { syncfs(dir.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Off Linux every put synced its own record before the rename, so nothing
/// is pending.
#[cfg(not(target_os = "linux"))]
fn sync_filesystem(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// What [`RunStore::evict`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictStats {
    /// Files removed: records, and the tmp files of puts whose process
    /// died before the rename.
    pub files: u64,
    /// Bytes reclaimed.
    pub bytes: u64,
}

/// A content-addressed store of individual run results: one small TSV file
/// per (profile, technique, machine) point, named by fingerprint, carrying
/// the full identity string and per-line CRC32s.
///
/// A fingerprint hit whose stored identity differs (a 64-bit collision) is
/// a miss with an `obs::warn`, never a silent wrong-result reuse, and the
/// colliding file — valid for its own configuration — is left in place.
/// Stale, torn or damaged records are deleted and re-simulated. Writes are
/// crash-consistent, and durable against an OS crash once
/// [`RunStore::sync`] returns (module docs, *Durability*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// A store rooted at `dir` (created lazily on first put).
    pub fn open(dir: PathBuf) -> RunStore {
        RunStore { dir }
    }

    /// The default store: `store/` under [`cache_dir`]
    /// (`$RESTUNE_CACHE_DIR` or `target/restune-cache`).
    pub fn open_default() -> RunStore {
        RunStore::open(cache_dir().join("store"))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the record for `key` lives (whether or not it exists).
    pub(crate) fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("run-{:016x}.tsv", key.fingerprint))
    }

    fn header(key: &CacheKey) -> String {
        format!("restune-run v{RUN_SCHEMA} fp={:016x}", key.fingerprint)
    }

    /// Looks up the stored result for `key`, verifying the fingerprint,
    /// the full identity string, and the row CRC. Every outcome bumps the
    /// `store.hits` / `store.misses` counters; an identity mismatch also
    /// bumps `store.identity_mismatches`.
    pub fn get(&self, key: &CacheKey) -> Option<SimResult> {
        let result = self.read(key, "store", parse_row);
        let counter = if result.is_some() {
            "store.hits"
        } else {
            "store.misses"
        };
        obs::counter_add(counter, 1);
        result
    }

    /// Records `result` under `key`, crash-consistently: the record
    /// survives the death of this process once the call returns, and an OS
    /// crash once [`RunStore::sync`] has returned after it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put(&self, key: &CacheKey, result: &SimResult) -> io::Result<()> {
        self.write(key, &result_row(result))
    }

    /// Looks up a byte-payload record written by [`RunStore::put_payload`],
    /// with the same fingerprint, identity and CRC checks as
    /// [`RunStore::get`]. It bumps no `store.*` counter — the caller owns
    /// its hit/miss accounting — and an identity mismatch is warned and
    /// counted under `category` (`<category>.identity_mismatches`).
    pub(crate) fn get_payload(&self, key: &CacheKey, category: &'static str) -> Option<Vec<u8>> {
        self.read(key, category, hex_decode)
    }

    /// Records opaque `payload` bytes under `key`, crash-consistently: the
    /// same record layout as [`RunStore::put`], with the bytes hex-encoded
    /// in the data row.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn put_payload(&self, key: &CacheKey, payload: &[u8]) -> io::Result<()> {
        self.write(key, &hex_encode(payload))
    }

    /// Reads the record for `key` and decodes its verified data row. A
    /// record with a foreign identity is a miss left in place (it is valid
    /// for its own configuration); a stale, torn or damaged one — bytes
    /// that are not text included, or a data row `decode` rejects — is
    /// deleted.
    fn read<T>(
        &self,
        key: &CacheKey,
        category: &'static str,
        decode: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let path = self.path_for(key);
        let bytes = std::fs::read(&path).ok()?;
        let Ok(text) = String::from_utf8(bytes) else {
            discard_stale(&path, "run record that is not UTF-8 text");
            return None;
        };
        let mut lines = text.lines();
        if lines.next() != Some(Self::header(key).as_str()) {
            discard_stale(&path, "stale or corrupt run record");
            return None;
        }
        match lines.next().and_then(split_crc_line) {
            Some((core, true)) => match core.strip_prefix("id=") {
                Some(identity) if identity == key.identity => {}
                Some(identity) => {
                    warn_identity_mismatch(category, &path, &key.identity, identity);
                    return None;
                }
                None => {
                    discard_stale(&path, "run record missing its identity row");
                    return None;
                }
            },
            _ => {
                discard_stale(&path, "run record with a torn or damaged identity row");
                return None;
            }
        }
        let row = lines
            .next()
            .and_then(split_crc_line)
            .and_then(|(core, intact)| intact.then(|| decode(core))?);
        if row.is_none() {
            discard_stale(&path, "run record with a torn or damaged result row");
        }
        row
    }

    /// The record for `key`: header, CRC'd identity row, CRC'd data row.
    fn record(key: &CacheKey, row: &str) -> String {
        let mut body = Self::header(key);
        body.push('\n');
        body.push_str(&crc_line(&format!("id={}", key.identity)));
        body.push('\n');
        body.push_str(&crc_line(row));
        body.push('\n');
        body
    }

    fn write(&self, key: &CacheKey, row: &str) -> io::Result<()> {
        atomic_write(&self.path_for(key), Self::record(key, row).as_bytes())
    }

    /// The durability barrier: one `syncfs(2)` on the filesystem holding
    /// the store, after which every record put so far survives an OS crash
    /// or power loss (a no-op off Linux, where each put synced its own
    /// record). Counted on `store.syncs`.
    ///
    /// # Errors
    ///
    /// Propagates a failure to open the store directory or to sync.
    pub fn sync(&self) -> io::Result<()> {
        obs::counter_add("store.syncs", 1);
        sync_filesystem(&self.dir)
    }

    /// Bounds the store: removes records untouched for longer than 30 days,
    /// then — oldest first — until the store fits in
    /// `RESTUNE_STORE_MAX_BYTES` (default 256 MiB). It also removes the tmp
    /// file a put leaves behind when its process dies before the rename,
    /// once that file is an hour old. Removals are surfaced on the
    /// `store.evictions` counter. Called at the end of every
    /// [`crate::sweep::run_sweep`], at every
    /// [`crate::server::Server::start`], and after a base suite simulated
    /// into its store; without a bound, a long-lived cache directory would
    /// accumulate every run ever produced.
    pub fn evict(&self) -> EvictStats {
        // An absent store costs one failed directory open, nothing more.
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return EvictStats::default();
        };
        let max_bytes = crate::envcfg::positive_usize(
            "RESTUNE_STORE_MAX_BYTES",
            "store",
            "the 256 MiB default store size bound",
        )
        .map(|b| b as u64)
        .unwrap_or(STORE_MAX_BYTES);

        // (modified, name, path, len) — name breaks mtime ties so the
        // eviction order is deterministic even for records written within
        // one filesystem timestamp granule.
        let mut records = Vec::new();
        let mut stats = EvictStats::default();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str().map(str::to_string) else {
                continue;
            };
            if !name.starts_with("run-") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(modified) = meta.modified() else {
                continue;
            };
            if name.ends_with(".tsv") {
                records.push((modified, name, entry.path(), meta.len()));
            } else if name.contains(".tmp.")
                && modified.elapsed().is_ok_and(|age| age > TMP_GRACE)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                stats.files += 1;
                stats.bytes += meta.len();
            }
        }
        records.sort();

        let mut total: u64 = records.iter().map(|(_, _, _, len)| len).sum();
        for (modified, _, path, len) in &records {
            let expired = modified.elapsed().is_ok_and(|age| age > STORE_MAX_AGE);
            if !(expired || total > max_bytes) {
                continue;
            }
            if std::fs::remove_file(path).is_ok() {
                stats.files += 1;
                stats.bytes += len;
                total -= len;
            }
        }
        if stats.files > 0 {
            obs::counter_add("store.evictions", stats.files);
        }
        stats
    }
}

/// Lowercase hex of `bytes`: the text form of a payload record's data row.
fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
fn hex_decode(text: &str) -> Option<Vec<u8>> {
    let nibble = |c: u8| char::from(c).to_digit(16);
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;
    use proptest::prelude::*;
    use workloads::spec2k;

    fn scratch(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("restune-store-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counter(name: &str) -> u64 {
        obs::snapshot_counters()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    #[test]
    fn store_round_trips_and_treats_collisions_as_misses() {
        let dir = scratch("round-trip");
        let store = RunStore::open(dir.clone());
        let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
        let sim = SimConfig::isca04(4_000);
        let result = crate::sim::run(&profile, &Technique::Base, &sim);
        let key = run_key(&profile, &Technique::Base, &sim);

        assert_eq!(store.get(&key), None, "empty store misses");
        store.put(&key, &result).expect("put succeeds");
        assert_eq!(store.get(&key), Some(result), "round trip is bit-exact");

        // A forced 64-bit collision: same fingerprint, different identity.
        // The impostor must miss (and count the mismatch) without evicting
        // the rightful owner's record.
        let impostor = CacheKey {
            fingerprint: key.fingerprint,
            identity: format!("{}|impostor", key.identity),
        };
        let mismatches_before = counter("store.identity_mismatches");
        assert_eq!(store.get(&impostor), None, "collision is a miss");
        assert_eq!(counter("store.identity_mismatches"), mismatches_before + 1);
        assert_eq!(store.get(&key), Some(result), "owner's record survives");

        // The byte-payload record keeps the same contract. Its bytes cover
        // every value, tabs and newlines included, so the row encoding must
        // not leak them into the line format.
        let payload: Vec<u8> = (0..=255u8).rev().collect();
        let job = CacheKey::from_identity(String::from("job-test|payload-record"));
        assert_eq!(store.get_payload(&job, "server"), None, "empty slot misses");
        store.put_payload(&job, &payload).expect("put succeeds");
        assert_eq!(
            store.get_payload(&job, "server"),
            Some(payload.clone()),
            "payload round trip is byte-exact"
        );
        let impostor = CacheKey {
            fingerprint: job.fingerprint,
            identity: format!("{}|impostor", job.identity),
        };
        let mismatches_before = counter("server.identity_mismatches");
        assert_eq!(store.get_payload(&impostor, "server"), None);
        assert_eq!(counter("server.identity_mismatches"), mismatches_before + 1);
        assert!(
            store.path_for(&job).exists(),
            "a colliding record is left in place"
        );
        assert_eq!(store.get_payload(&job, "server"), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bounds_the_store_oldest_first() {
        let dir = scratch("evict");
        let store = RunStore::open(dir.clone());
        let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
        let sims: Vec<SimConfig> = (1..=3).map(|i| SimConfig::isca04(1_000 * i)).collect();
        for sim in &sims {
            let result = crate::sim::run(&profile, &Technique::Base, sim);
            store
                .put(&run_key(&profile, &Technique::Base, sim), &result)
                .expect("put succeeds");
        }

        // Generous bounds: nothing to evict.
        let kept = store.evict();
        assert_eq!(kept, EvictStats::default());

        // A one-byte size bound evicts everything, oldest first.
        let evicted = with_env(&[("RESTUNE_STORE_MAX_BYTES", Some("1"))], || store.evict());
        assert_eq!(evicted.files, 3, "all records exceed a 1-byte bound");
        assert!(evicted.bytes > 0);
        for sim in &sims {
            assert_eq!(store.get(&run_key(&profile, &Technique::Base, sim)), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_removes_stale_put_leftovers_only() {
        let dir = scratch("tmp-leftovers");
        let store = RunStore::open(dir.clone());
        let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
        let key = run_key(&profile, &Technique::Base, &SimConfig::isca04(20_000));
        store.put(&key, &sample_result()).expect("put succeeds");

        // Tmp files named as `atomic_write` names them, left by a process
        // that died before its rename: one long ago, one just now.
        let stale = store.path_for(&key).with_extension("tmp.4242.0");
        let fresh = store.path_for(&key).with_extension("tmp.4242.1");
        std::fs::write(&stale, b"torn").expect("plant the stale tmp file");
        std::fs::write(&fresh, b"in flight").expect("plant the fresh tmp file");
        std::fs::File::options()
            .write(true)
            .open(&stale)
            .and_then(|f| f.set_modified(std::time::SystemTime::now() - 2 * TMP_GRACE))
            .expect("age the stale tmp file");

        assert_eq!(store.evict(), EvictStats { files: 1, bytes: 4 });
        assert!(!stale.exists(), "a leftover past the grace is removed");
        assert!(fresh.exists(), "a put that may still rename is left alone");
        assert_eq!(store.get(&key), Some(sample_result()), "records stay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A result with every field distinct and full-mantissa floats, so a
    /// damaged row cannot parse back to it by accident.
    fn sample_result() -> SimResult {
        SimResult {
            app: "mcf",
            cycles: 44_035,
            committed: 20_000,
            ipc: 20_000.0 / 44_035.0,
            violation_cycles: 1_234,
            worst_noise: rlc::units::Volts::new(0.061_803_398_874_989_48),
            energy_joules: 1.414_213_562_373_095e-3,
            energy_delay: 2.718_281_828_459_045e-8,
            first_level_cycles: 5_678,
            second_level_cycles: 91,
            sensor_response_cycles: 0,
            damping_bound_cycles: 3,
        }
    }

    /// `bytes` after one mutation: `kind` 0 truncates at `at`, 1 flips bit
    /// `bit` of the byte at `at`, 2 inserts `noise[0]` before `at`, 3
    /// deletes the byte at `at`, and 4 overwrites the bytes from `at` on
    /// with `noise`.
    fn mutate(bytes: &[u8], kind: u8, at: usize, bit: u8, noise: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let inside = at % out.len();
        match kind {
            0 => out.truncate(at % (out.len() + 1)),
            1 => out[inside] ^= 1 << bit,
            2 => out.insert(at % (out.len() + 1), noise[0]),
            3 => {
                out.remove(inside);
            }
            _ => {
                for (slot, &b) in out[inside..].iter_mut().zip(noise) {
                    *slot = b;
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Fuzz the store reader: a put record truncated at any offset,
        /// with any bit flipped, a byte inserted or deleted, or random
        /// bytes substituted must never panic `get` or `get_payload`, and
        /// must read back as exactly the stored value or as a miss that
        /// deleted the damaged file.
        #[test]
        fn a_damaged_record_reads_as_the_stored_value_or_a_deleting_miss(
            kind in 0u8..5,
            at in 0usize..4096,
            bit in 0u8..8,
            noise in proptest::collection::vec(0u8..=255u8, 1..9),
        ) {
            let dir = std::env::temp_dir()
                .join(format!("restune-store-fuzz-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let store = RunStore::open(dir);
            let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
            let key = run_key(&profile, &Technique::Base, &SimConfig::isca04(20_000));
            let result = sample_result();
            let job = CacheKey::from_identity(String::from("job-fuzz|payload-record"));
            let payload: Vec<u8> = (0..=255u8).collect();

            let pristine = RunStore::record(&key, &result_row(&result));
            let damaged = mutate(pristine.as_bytes(), kind, at, bit, &noise);
            std::fs::write(store.path_for(&key), &damaged).expect("damage lands");
            match store.get(&key) {
                Some(read) => prop_assert_eq!(read, result, "kind {} at {}", kind, at),
                None => prop_assert!(
                    !store.path_for(&key).exists(),
                    "a damaged record that misses is deleted (kind {kind} at {at})"
                ),
            }

            let pristine = RunStore::record(&job, &hex_encode(&payload));
            let damaged = mutate(pristine.as_bytes(), kind, at, bit, &noise);
            std::fs::write(store.path_for(&job), &damaged).expect("damage lands");
            match store.get_payload(&job, "server") {
                Some(read) => prop_assert_eq!(read, payload, "kind {} at {}", kind, at),
                None => prop_assert!(
                    !store.path_for(&job).exists(),
                    "a damaged payload record that misses is deleted (kind {kind} at {at})"
                ),
            }
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }
}
