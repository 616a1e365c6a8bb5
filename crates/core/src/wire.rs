//! The byte-level protocol of the process-isolation tier: length-prefixed,
//! CRC-checked frames carrying simulation jobs (parent → worker stdin) and,
//! per job, an acknowledgement and one reply (worker stdout → parent).
//!
//! Everything is hand-rolled over fixed-width little-endian scalars — the
//! workspace is offline, so no serde — and every float crosses the boundary
//! as its `f64::to_bits`, keeping the worker's inputs bit-identical to the
//! parent's. The codec is guarded twice:
//!
//! * each frame carries a CRC32 of its payload, so a torn or corrupted pipe
//!   read is detected rather than mis-decoded;
//! * the job embeds a fingerprint of the `Debug` rendering of everything it
//!   encodes ([`job_fingerprint`]); the worker recomputes it from the
//!   *decoded* values, so any codec drift (a skipped field, a lossy
//!   reconstruction) fails loudly as a transport error instead of silently
//!   simulating the wrong machine.
//!
//! Frame layout: `"RSTF"` magic, version byte, kind byte, `u32` payload
//! length, payload, `u32` CRC32 of the payload. Readers *scan* for the
//! magic, so a worker may emit unrelated bytes around the frame (a libtest
//! shim prints its own chatter) without confusing the parent.

use std::time::Duration;

use workloads::{registry, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::TuningConfig;
use crate::fault::{FailureKind, FaultSpec};
use crate::sim::{InstrumentedRun, PhaseTimings, SimConfig, SimResult, Technique};

/// Frame magic; readers scan input for this sequence.
pub(crate) const MAGIC: [u8; 4] = *b"RSTF";
/// Wire-format version; bump on any layout change.
pub(crate) const VERSION: u8 = 1;

/// Frame kinds.
pub(crate) const KIND_JOB: u8 = 1;
pub(crate) const KIND_RESULT: u8 = 2;
pub(crate) const KIND_FAILURE: u8 = 3;
/// Observability forwarding: a worker's counters and buffered trace lines,
/// written before its reply so the parent can splice them into its own sink.
/// On a server connection the same kind streams a remote job's events back
/// to the requesting tenant, incrementally, between replies.
pub(crate) const KIND_OBS: u8 = 4;
/// Server protocol: one tenant job request (`req_id`, obs flag, job payload).
pub(crate) const KIND_REQUEST: u8 = 5;
/// Server protocol: the reply to one request (`req_id`, cached flag, then a
/// result or classified-failure payload).
pub(crate) const KIND_REPLY: u8 = 6;
/// Server protocol: admission rejected — the queue is full or the server is
/// draining; carries `req_id` and a retry-after hint.
pub(crate) const KIND_BUSY: u8 = 7;
/// Server protocol: the client no longer wants `req_id`.
pub(crate) const KIND_CANCEL: u8 = 8;
/// Server protocol: client liveness beacon (empty payload); lets the server
/// tell an idle-but-healthy tenant from a vanished peer.
pub(crate) const KIND_HEARTBEAT: u8 = 9;
/// Mesh protocol: the server's first frame on every accepted connection —
/// its host generation (fresh per process start, so a restarted host is
/// distinguishable from a long-lived one) and its advertised peer list.
pub(crate) const KIND_HELLO: u8 = 10;
/// Mesh protocol: a half-open circuit-breaker probe (`nonce`); cheap, never
/// queued behind jobs, answered immediately by [`KIND_PROBE_ACK`].
pub(crate) const KIND_PROBE: u8 = 11;
/// Mesh protocol: the reply to one probe (`nonce`, host generation).
pub(crate) const KIND_PROBE_ACK: u8 = 12;
/// Worker protocol: the worker has taken the job frame it just read (empty
/// payload). Sent before the job runs, so the parent can tell a worker that
/// died idle — the job may go to a fresh one — from one that died on it.
pub(crate) const KIND_ACK: u8 = 13;

/// Cap on the fault-spec count a job frame may declare. Counts are read off
/// the wire *before* any allocation, so a corrupt length fails as a
/// transport error instead of a giant `Vec::with_capacity`.
pub(crate) const MAX_JOB_SPECS: usize = 1_024;

/// Cap on the peer-endpoint count a hello frame may advertise; a mesh is a
/// handful of hosts, so anything larger is a corrupt or hostile frame.
pub(crate) const MAX_HELLO_PEERS: usize = 64;

/// Cap on a single frame's declared payload length on a *socket* stream
/// (16 MiB). Pipe readers buffer a whole child's stdout anyway, but the
/// server must bound what an untrusted connection can make it allocate.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 1 << 24;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC32 (the zlib polynomial) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Full identity string of one job's inputs — the preimage of
/// [`job_fingerprint`]. Caches that key on the 64-bit fingerprint persist
/// this string alongside each record and verify it on read, so a
/// fingerprint collision degrades to a miss instead of a wrong result.
pub(crate) fn job_identity(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
) -> String {
    format!("job-v{VERSION}|{profile:?}|{technique:?}|{sim:?}|{specs:?}")
}

/// FNV-1a fingerprint of the `Debug` rendering of one job's inputs. The
/// parent stamps it into the frame (and the worker's argv); the worker
/// recomputes it from the decoded values, so a lossy codec cannot silently
/// simulate the wrong configuration.
pub(crate) fn job_fingerprint(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
) -> u64 {
    crate::store::fnv1a(job_identity(profile, technique, sim, specs).as_bytes())
}

// ---------------------------------------------------------------------------
// Scalar writer / reader
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn take_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub(crate) fn take_f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.take_u64()?))
    }

    pub(crate) fn take_str(&mut self) -> Option<&'a str> {
        let len = self.take_u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// `Some(())` only when every payload byte was consumed — trailing
    /// garbage means a codec mismatch.
    pub(crate) fn done(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wraps a payload into a full frame: magic, version, kind, length, payload,
/// CRC32.
pub(crate) fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Incremental, lenient frame reader for worker pipes: feed it reads with
/// [`PipeScanner::extend`], pull intact frames with
/// [`PipeScanner::next_frame`]. Leading noise, a corrupt candidate (bad
/// version, CRC mismatch), or an unrelated `RSTF` in the noise is skipped,
/// so a worker may emit unrelated bytes around its frames (a libtest shim
/// prints its own chatter) without confusing the parent. Sockets use the
/// strict [`StreamDecoder`] instead.
///
/// The scanner yields the same frames however the stream is split into
/// reads, so a worker's pipe can be consumed as it arrives.
#[derive(Debug, Default)]
pub(crate) struct PipeScanner {
    buf: Vec<u8>,
}

impl PipeScanner {
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` when no byte is buffered: the stream sits at a frame boundary.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The next intact frame, dropping the noise before it; `None` until
    /// one is complete.
    pub(crate) fn next_frame(&mut self) -> Option<(u8, Vec<u8>)> {
        let (kind, payload, end) = scan_frame(&self.buf)?;
        let payload = payload.to_vec();
        self.buf.drain(..end);
        Some((kind, payload))
    }
}

/// The scan behind [`PipeScanner`]: the first intact frame in `bytes`,
/// plus the offset just past it (so the next scan resumes after the payload
/// instead of re-matching magic inside it). A candidate with the wrong
/// version or a failing CRC is skipped; one with the right version whose
/// header or payload has not fully arrived ends the scan, because on a live
/// pipe it cannot yet be told from noise.
fn scan_frame(bytes: &[u8]) -> Option<(u8, &[u8], usize)> {
    let mut start = 0;
    loop {
        let offset = bytes[start..]
            .windows(4)
            .position(|w| w == MAGIC)
            .map(|o| start + o)?;
        start = offset + 1;
        let header = offset + 4;
        if *bytes.get(header)? != VERSION {
            continue;
        }
        let kind = *bytes.get(header + 1)?;
        let len_bytes = bytes.get(header + 2..header + 6)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        let body = header + 6;
        let end = body.checked_add(len)?.checked_add(4)?;
        let frame = bytes.get(body..end)?;
        let (payload, crc_bytes) = frame.split_at(len);
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc == crc32(payload) {
            return Some((kind, payload, end));
        }
    }
}

// ---------------------------------------------------------------------------
// Job codec
// ---------------------------------------------------------------------------

/// One decoded worker job: everything a child needs to run a single
/// application attempt.
pub(crate) struct Job {
    pub profile: WorkloadProfile,
    pub technique: Technique,
    pub sim: SimConfig,
    pub specs: Vec<FaultSpec>,
    pub deadline: Option<Duration>,
    pub fingerprint: u64,
}

const TECH_BASE: u8 = 0;
const TECH_TUNING: u8 = 1;
const TECH_SENSOR: u8 = 2;
const TECH_DAMPING: u8 = 3;

fn put_technique(w: &mut Writer, technique: &Technique) {
    match technique {
        Technique::Base => w.put_u8(TECH_BASE),
        Technique::Tuning(t) => {
            w.put_u8(TECH_TUNING);
            w.put_u64(t.band_min_period.count());
            w.put_u64(t.band_max_period.count());
            w.put_f64(t.variation_threshold.amps());
            for v in [
                t.max_repetition_tolerance,
                t.initial_response_threshold,
                t.second_level_threshold,
                t.initial_response_time,
                t.second_level_time,
                t.first_level_issue_width,
                t.first_level_mem_ports,
                t.response_delay,
            ] {
                w.put_u32(v);
            }
        }
        Technique::Sensor(s) => {
            w.put_u8(TECH_SENSOR);
            w.put_f64(s.target_threshold.volts());
            w.put_f64(s.sensor_noise_pp.volts());
            w.put_u32(s.delay_cycles);
            w.put_u32(s.min_response_cycles);
            w.put_u64(s.noise_seed);
        }
        Technique::Damping(d) => {
            w.put_u8(TECH_DAMPING);
            w.put_f64(d.delta.amps());
            w.put_u32(d.window);
            w.put_f64(d.idle_current.amps());
        }
    }
}

fn take_technique(r: &mut Reader) -> Option<Technique> {
    use rlc::units::{Amps, Cycles, Volts};
    Some(match r.take_u8()? {
        TECH_BASE => Technique::Base,
        TECH_TUNING => Technique::Tuning(TuningConfig {
            band_min_period: Cycles::new(r.take_u64()?),
            band_max_period: Cycles::new(r.take_u64()?),
            variation_threshold: Amps::new(r.take_f64()?),
            max_repetition_tolerance: r.take_u32()?,
            initial_response_threshold: r.take_u32()?,
            second_level_threshold: r.take_u32()?,
            initial_response_time: r.take_u32()?,
            second_level_time: r.take_u32()?,
            first_level_issue_width: r.take_u32()?,
            first_level_mem_ports: r.take_u32()?,
            response_delay: r.take_u32()?,
        }),
        TECH_SENSOR => Technique::Sensor(SensorConfig {
            target_threshold: Volts::new(r.take_f64()?),
            sensor_noise_pp: Volts::new(r.take_f64()?),
            delay_cycles: r.take_u32()?,
            min_response_cycles: r.take_u32()?,
            noise_seed: r.take_u64()?,
        }),
        TECH_DAMPING => Technique::Damping(DampingConfig {
            delta: Amps::new(r.take_f64()?),
            window: r.take_u32()?,
            idle_current: Amps::new(r.take_f64()?),
        }),
        _ => return None,
    })
}

fn put_spec(w: &mut Writer, spec: &FaultSpec) {
    match *spec {
        FaultSpec::SensorStuck {
            from_cycle,
            hold_cycles,
        } => {
            w.put_u8(0);
            w.put_u64(from_cycle);
            w.put_u64(hold_cycles);
        }
        FaultSpec::SensorNoise { sigma, seed } => {
            w.put_u8(1);
            w.put_f64(sigma);
            w.put_u64(seed);
        }
        FaultSpec::SensorDelay { cycles } => {
            w.put_u8(2);
            w.put_u32(cycles);
        }
        FaultSpec::NumericNan { at_cycle } => {
            w.put_u8(3);
            w.put_u64(at_cycle);
        }
        FaultSpec::NumericInf { at_cycle } => {
            w.put_u8(4);
            w.put_u64(at_cycle);
        }
        FaultSpec::NumericOverflow { at_cycle } => {
            w.put_u8(5);
            w.put_u64(at_cycle);
        }
        FaultSpec::WorkerPanic => w.put_u8(6),
        FaultSpec::WorkerStall { millis } => {
            w.put_u8(7);
            w.put_u64(millis);
        }
        FaultSpec::WorkerAbort => w.put_u8(8),
        FaultSpec::WorkerKill => w.put_u8(9),
    }
}

fn take_spec(r: &mut Reader) -> Option<FaultSpec> {
    Some(match r.take_u8()? {
        0 => FaultSpec::SensorStuck {
            from_cycle: r.take_u64()?,
            hold_cycles: r.take_u64()?,
        },
        1 => FaultSpec::SensorNoise {
            sigma: r.take_f64()?,
            seed: r.take_u64()?,
        },
        2 => FaultSpec::SensorDelay {
            cycles: r.take_u32()?,
        },
        3 => FaultSpec::NumericNan {
            at_cycle: r.take_u64()?,
        },
        4 => FaultSpec::NumericInf {
            at_cycle: r.take_u64()?,
        },
        5 => FaultSpec::NumericOverflow {
            at_cycle: r.take_u64()?,
        },
        6 => FaultSpec::WorkerPanic,
        7 => FaultSpec::WorkerStall {
            millis: r.take_u64()?,
        },
        8 => FaultSpec::WorkerAbort,
        9 => FaultSpec::WorkerKill,
        _ => return None,
    })
}

/// Encodes a job payload. The machine configuration crosses the boundary as
/// its instruction budget alone — the isolation tier only spawns workers
/// when the parent's `SimConfig` equals `SimConfig::isca04(instructions)`
/// (checked by the caller and re-checked via the fingerprint), so the child
/// reconstructs it losslessly from the constructor.
pub(crate) fn encode_job(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    deadline: Option<Duration>,
    fingerprint: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(fingerprint);
    w.put_str(profile.name);
    put_technique(&mut w, technique);
    w.put_u64(sim.instructions);
    w.put_u32(specs.len() as u32);
    for spec in specs {
        put_spec(&mut w, spec);
    }
    match deadline {
        Some(d) => {
            w.put_u8(1);
            w.put_u64(d.as_nanos() as u64);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

/// Decodes a job payload; the profile resolves through the workload
/// registry (an unknown name means parent and child disagree on the suite).
pub(crate) fn decode_job(payload: &[u8]) -> Option<Job> {
    let mut r = Reader::new(payload);
    let fingerprint = r.take_u64()?;
    let profile = registry::by_name(r.take_str()?)?;
    let technique = take_technique(&mut r)?;
    let sim = SimConfig::isca04(r.take_u64()?);
    let count = r.take_u32()? as usize;
    if count > MAX_JOB_SPECS {
        return None;
    }
    let mut specs = Vec::with_capacity(count);
    for _ in 0..count {
        specs.push(take_spec(&mut r)?);
    }
    let deadline = match r.take_u8()? {
        0 => None,
        1 => Some(Duration::from_nanos(r.take_u64()?)),
        _ => return None,
    };
    r.done()?;
    Some(Job {
        profile,
        technique,
        sim,
        specs,
        deadline,
        fingerprint,
    })
}

// ---------------------------------------------------------------------------
// Reply codecs
// ---------------------------------------------------------------------------

/// Encodes a successful run's reply payload.
pub(crate) fn encode_result(inst: &InstrumentedRun) -> Vec<u8> {
    let mut w = Writer::new();
    let r = &inst.result;
    w.put_str(r.app);
    w.put_u64(r.cycles);
    w.put_u64(r.committed);
    w.put_f64(r.ipc);
    w.put_u64(r.violation_cycles);
    w.put_f64(r.worst_noise.volts());
    w.put_f64(r.energy_joules);
    w.put_f64(r.energy_delay);
    w.put_u64(r.first_level_cycles);
    w.put_u64(r.second_level_cycles);
    w.put_u64(r.sensor_response_cycles);
    w.put_u64(r.damping_bound_cycles);
    w.put_u64(inst.detector_events);
    for d in [
        inst.phases.controller,
        inst.phases.cpu,
        inst.phases.power,
        inst.phases.supply,
        inst.phases.supply_flush,
    ] {
        w.put_u64(d.as_nanos() as u64);
    }
    w.put_u64(inst.phases.sampled_cycles);
    w.put_u64(inst.wall.as_nanos() as u64);
    w.into_bytes()
}

/// Decodes a successful run's reply payload.
pub(crate) fn decode_result(payload: &[u8]) -> Option<InstrumentedRun> {
    let mut r = Reader::new(payload);
    let app = registry::by_name(r.take_str()?)?.name;
    let result = SimResult {
        app,
        cycles: r.take_u64()?,
        committed: r.take_u64()?,
        ipc: r.take_f64()?,
        violation_cycles: r.take_u64()?,
        worst_noise: rlc::units::Volts::new(r.take_f64()?),
        energy_joules: r.take_f64()?,
        energy_delay: r.take_f64()?,
        first_level_cycles: r.take_u64()?,
        second_level_cycles: r.take_u64()?,
        sensor_response_cycles: r.take_u64()?,
        damping_bound_cycles: r.take_u64()?,
    };
    let detector_events = r.take_u64()?;
    let phases = PhaseTimings {
        controller: Duration::from_nanos(r.take_u64()?),
        cpu: Duration::from_nanos(r.take_u64()?),
        power: Duration::from_nanos(r.take_u64()?),
        supply: Duration::from_nanos(r.take_u64()?),
        supply_flush: Duration::from_nanos(r.take_u64()?),
        sampled_cycles: r.take_u64()?,
    };
    let wall = Duration::from_nanos(r.take_u64()?);
    r.done()?;
    Some(InstrumentedRun {
        result,
        detector_events,
        phases,
        wall,
    })
}

// ---------------------------------------------------------------------------
// Server-protocol codecs
// ---------------------------------------------------------------------------

/// Encodes a tenant request payload: the request id, whether the tenant
/// wants the job's observability events streamed back, and the embedded job
/// payload (exactly [`encode_job`]'s bytes).
pub(crate) fn encode_request(req_id: u64, want_obs: bool, job_payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(req_id);
    w.put_u8(u8::from(want_obs));
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(job_payload);
    bytes
}

/// Decodes a request payload into `(req_id, want_obs, job_payload)`. The
/// job payload is returned raw so the server can separate "the request
/// frame is malformed" (kill the connection) from "the job inside it does
/// not decode" (reply a classified transport failure to `req_id`).
pub(crate) fn decode_request(payload: &[u8]) -> Option<(u64, bool, &[u8])> {
    let (head, job) = (payload.get(..9)?, &payload[9..]);
    let req_id = u64::from_le_bytes(head[..8].try_into().ok()?);
    let want_obs = match head[8] {
        0 => false,
        1 => true,
        _ => return None,
    };
    Some((req_id, want_obs, job))
}

const REPLY_RESULT: u8 = 0;
const REPLY_FAILURE: u8 = 1;

/// Encodes a reply payload: the request id, whether the rows came from the
/// shared result cache, then the result or classified failure.
pub(crate) fn encode_reply(
    req_id: u64,
    cached: bool,
    outcome: &Result<InstrumentedRun, (FailureKind, String)>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(req_id);
    w.put_u8(u8::from(cached));
    let mut bytes = w.into_bytes();
    match outcome {
        Ok(inst) => {
            bytes.push(REPLY_RESULT);
            bytes.extend_from_slice(&encode_result(inst));
        }
        Err((kind, message)) => {
            bytes.push(REPLY_FAILURE);
            bytes.extend_from_slice(&encode_failure(*kind, message));
        }
    }
    bytes
}

/// Assembles a reply payload directly from an [`encode_result`] payload —
/// the server persists exactly these bytes, so both a fresh result and a
/// cache hit are replied without a decode/re-encode round trip.
pub(crate) fn encode_reply_from_result_payload(
    req_id: u64,
    cached: bool,
    result_payload: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(req_id);
    w.put_u8(u8::from(cached));
    let mut bytes = w.into_bytes();
    bytes.push(REPLY_RESULT);
    bytes.extend_from_slice(result_payload);
    bytes
}

/// Decodes a reply payload into `(req_id, cached, outcome)`.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_reply(
    payload: &[u8],
) -> Option<(u64, bool, Result<InstrumentedRun, (FailureKind, String)>)> {
    let head = payload.get(..10)?;
    let req_id = u64::from_le_bytes(head[..8].try_into().ok()?);
    let cached = match head[8] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let outcome = match head[9] {
        REPLY_RESULT => Ok(decode_result(&payload[10..])?),
        REPLY_FAILURE => Err(decode_failure(&payload[10..])?),
        _ => return None,
    };
    Some((req_id, cached, outcome))
}

/// Encodes a busy (admission-rejected) payload with its retry-after hint.
pub(crate) fn encode_busy(req_id: u64, retry_after: Duration) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(req_id);
    w.put_u64(retry_after.as_millis() as u64);
    w.into_bytes()
}

/// Decodes a busy payload into `(req_id, retry_after)`.
pub(crate) fn decode_busy(payload: &[u8]) -> Option<(u64, Duration)> {
    let mut r = Reader::new(payload);
    let req_id = r.take_u64()?;
    let millis = r.take_u64()?;
    r.done()?;
    Some((req_id, Duration::from_millis(millis)))
}

/// Encodes a cancel payload.
pub(crate) fn encode_cancel(req_id: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(req_id);
    w.into_bytes()
}

/// Decodes a cancel payload.
pub(crate) fn decode_cancel(payload: &[u8]) -> Option<u64> {
    let mut r = Reader::new(payload);
    let req_id = r.take_u64()?;
    r.done()?;
    Some(req_id)
}

// ---------------------------------------------------------------------------
// Mesh codecs (hello / probe)
// ---------------------------------------------------------------------------

/// Encodes a hello payload: the host's generation tag and its advertised
/// mesh-peer endpoints.
pub(crate) fn encode_hello(generation: u64, peers: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(generation);
    w.put_u32(peers.len() as u32);
    for peer in peers {
        w.put_str(peer);
    }
    w.into_bytes()
}

/// Decodes a hello payload into `(generation, peers)`.
pub(crate) fn decode_hello(payload: &[u8]) -> Option<(u64, Vec<String>)> {
    let mut r = Reader::new(payload);
    let generation = r.take_u64()?;
    let count = r.take_u32()? as usize;
    if count > MAX_HELLO_PEERS {
        return None;
    }
    let mut peers = Vec::with_capacity(count);
    for _ in 0..count {
        peers.push(r.take_str()?.to_string());
    }
    r.done()?;
    Some((generation, peers))
}

/// Encodes a probe payload.
pub(crate) fn encode_probe(nonce: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(nonce);
    w.into_bytes()
}

/// Decodes a probe payload.
pub(crate) fn decode_probe(payload: &[u8]) -> Option<u64> {
    let mut r = Reader::new(payload);
    let nonce = r.take_u64()?;
    r.done()?;
    Some(nonce)
}

/// Encodes a probe-ack payload: the probe's nonce plus the answering host's
/// generation, so a half-open breaker learns about a restart in one round
/// trip.
pub(crate) fn encode_probe_ack(nonce: u64, generation: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(nonce);
    w.put_u64(generation);
    w.into_bytes()
}

/// Decodes a probe-ack payload into `(nonce, generation)`.
pub(crate) fn decode_probe_ack(payload: &[u8]) -> Option<(u64, u64)> {
    let mut r = Reader::new(payload);
    let nonce = r.take_u64()?;
    let generation = r.take_u64()?;
    r.done()?;
    Some((nonce, generation))
}

// ---------------------------------------------------------------------------
// Strict stream decoder (sockets)
// ---------------------------------------------------------------------------

/// Why a socket stream stopped being decodable. Unlike the pipe readers
/// above — which *scan* through a worker's stdout chatter — a socket is
/// point-to-point and owned entirely by the protocol, so any malformed byte
/// is a violation that kills that connection (and only that connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamError {
    /// The next bytes are not a frame header where one must start.
    Desync,
    /// A declared payload length beyond [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// A complete frame whose CRC32 does not verify (torn mid-write).
    Corrupt,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Desync => write!(f, "bytes where a frame header must start"),
            Self::Oversize(len) => write!(
                f,
                "declared payload length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ),
            Self::Corrupt => write!(f, "frame CRC32 mismatch (torn or corrupted write)"),
        }
    }
}

/// Incremental strict frame decoder for socket streams: feed it reads with
/// [`StreamDecoder::extend`], pull complete frames with
/// [`StreamDecoder::next_frame`]. Length caps apply *before* buffering a
/// frame's payload is required, so a hostile peer cannot force a giant
/// allocation with a forged header.
#[derive(Debug, Default)]
pub(crate) struct StreamDecoder {
    buf: Vec<u8>,
}

impl StreamDecoder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` while an incomplete frame (or any undecoded byte) is
    /// buffered — the server's slow-loris detector times this state.
    pub(crate) fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed, or
    /// the protocol violation that should kill the connection.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, StreamError> {
        let n = self.buf.len();
        let prefix = n.min(4);
        if self.buf[..prefix] != MAGIC[..prefix] {
            return Err(StreamError::Desync);
        }
        if n >= 5 && self.buf[4] != VERSION {
            return Err(StreamError::Desync);
        }
        if n < 10 {
            return Ok(None);
        }
        let kind = self.buf[5];
        let len = u32::from_le_bytes(self.buf[6..10].try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(StreamError::Oversize(len));
        }
        let total = 10 + len + 4;
        if n < total {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(self.buf[10 + len..total].try_into().expect("4-byte slice"));
        if crc != crc32(&self.buf[10..10 + len]) {
            return Err(StreamError::Corrupt);
        }
        let payload = self.buf[10..10 + len].to_vec();
        self.buf.drain(..total);
        Ok(Some((kind, payload)))
    }

    /// Skips buffered bytes forward to the next possible frame start. After
    /// [`StreamDecoder::next_frame`] returns an error, a caller that chooses
    /// to tolerate the corruption (the server does not — it kills the
    /// connection) calls this to resume at the next `RSTF` occurrence. The
    /// byte that *caused* the error is always consumed, so repeated
    /// `next_frame`/`resync` cycles make progress even through a buffer of
    /// pure garbage; a trailing partial match of the magic is kept so a
    /// frame split across reads still decodes.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by the fuzz tier
    pub(crate) fn resync(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // Search from offset 1: offset 0 is whatever just errored, and a
        // Corrupt frame's intact header must not be re-matched forever.
        if let Some(pos) = self.buf.windows(4).skip(1).position(|w| w == MAGIC) {
            self.buf.drain(..pos + 1);
            return;
        }
        // No full magic left; keep the longest suffix that is a prefix of
        // the magic (it may complete on the next read).
        for keep in (1..4.min(self.buf.len() + 1)).rev() {
            if self.buf[self.buf.len() - keep..] == MAGIC[..keep] && self.buf.len() > keep {
                self.buf.drain(..self.buf.len() - keep);
                return;
            }
        }
        self.buf.clear();
    }
}

const FAILURE_TAGS: [(u8, FailureKind); 7] = [
    (0, FailureKind::Panic),
    (1, FailureKind::Timeout),
    (2, FailureKind::Numerical),
    (3, FailureKind::Storage),
    (4, FailureKind::Crash),
    (5, FailureKind::Transport),
    (6, FailureKind::Interrupted),
];

/// Encodes a classified-failure reply payload.
pub(crate) fn encode_failure(kind: FailureKind, message: &str) -> Vec<u8> {
    let tag = FAILURE_TAGS
        .iter()
        .find(|(_, k)| *k == kind)
        .map(|(t, _)| *t)
        .expect("every FailureKind has a wire tag");
    let mut w = Writer::new();
    w.put_u8(tag);
    w.put_str(message);
    w.into_bytes()
}

/// Decodes a classified-failure reply payload.
pub(crate) fn decode_failure(payload: &[u8]) -> Option<(FailureKind, String)> {
    let mut r = Reader::new(payload);
    let tag = r.take_u8()?;
    let kind = FAILURE_TAGS
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, k)| *k)?;
    let message = r.take_str()?.to_string();
    r.done()?;
    Some((kind, message))
}

/// Cap on forwarded counters; far above anything the registry produces.
const MAX_OBS_COUNTERS: usize = 4_096;
/// Cap on forwarded trace lines; the per-run waveform cap bounds real
/// traffic well below this.
const MAX_OBS_LINES: usize = 65_536;

/// Encodes a worker's observability payload: its counter snapshot and the
/// trace lines buffered by the `wire` forwarding sink.
pub(crate) fn encode_obs(counters: &[(String, u64)], lines: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(counters.len() as u32);
    for (name, value) in counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(lines.len() as u32);
    for line in lines {
        w.put_str(line);
    }
    w.into_bytes()
}

/// Decodes an observability payload.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_obs(payload: &[u8]) -> Option<(Vec<(String, u64)>, Vec<String>)> {
    let mut r = Reader::new(payload);
    let counter_count = r.take_u32()? as usize;
    if counter_count > MAX_OBS_COUNTERS {
        return None;
    }
    let mut counters = Vec::with_capacity(counter_count);
    for _ in 0..counter_count {
        let name = r.take_str()?.to_string();
        let value = r.take_u64()?;
        counters.push((name, value));
    }
    let line_count = r.take_u32()? as usize;
    if line_count > MAX_OBS_LINES {
        return None;
    }
    let mut lines = Vec::with_capacity(line_count);
    for _ in 0..line_count {
        lines.push(r.take_str()?.to_string());
    }
    r.done()?;
    Some((counters, lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use workloads::spec2k;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every frame a [`PipeScanner`] yields for `stream`, fed whole and
    /// again one byte at a time: a pipe may split anything anywhere, and
    /// both feeds must yield the same frames.
    fn scan_all(stream: &[u8]) -> Vec<(u8, Vec<u8>)> {
        let mut whole = PipeScanner::default();
        whole.extend(stream);
        let frames: Vec<_> = std::iter::from_fn(|| whole.next_frame()).collect();
        let mut trickled = PipeScanner::default();
        let mut again = Vec::new();
        for byte in stream {
            trickled.extend(std::slice::from_ref(byte));
            again.extend(std::iter::from_fn(|| trickled.next_frame()));
        }
        assert_eq!(frames, again, "the split points changed the frames");
        frames
    }

    #[test]
    fn frame_round_trips_through_surrounding_noise() {
        let payload = b"the payload".to_vec();
        let mut stream = b"running 1 test\nRSTF half-magic noise ".to_vec();
        stream.extend_from_slice(&encode_frame(KIND_RESULT, &payload));
        stream.extend_from_slice(b"\ntest result: ok\n");
        assert_eq!(scan_all(&stream), vec![(KIND_RESULT, payload)]);
        // The frame and the noise before it are consumed; the trailing
        // chatter stays buffered, so the stream is not at a frame boundary.
        let mut scanner = PipeScanner::default();
        scanner.extend(&stream);
        assert!(scanner.next_frame().is_some());
        assert!(scanner.next_frame().is_none() && !scanner.is_empty());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread() {
        let mut frame = encode_frame(KIND_JOB, b"payload-bytes");
        let mid = frame.len() - 6; // inside the payload
        frame[mid] ^= 0x01;
        assert!(scan_all(&frame).is_empty(), "CRC must catch the flip");
        assert!(scan_all(b"no frame here").is_empty());
        assert!(scan_all(&[]).is_empty());
        // A frame after the corrupt one still comes through.
        frame.extend_from_slice(&encode_frame(KIND_ACK, &[]));
        assert_eq!(scan_all(&frame), vec![(KIND_ACK, Vec::new())]);
    }

    #[test]
    fn job_round_trips_bit_exactly_for_every_technique() {
        let profile = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(20_000);
        let techniques = [
            Technique::Base,
            Technique::Tuning(TuningConfig::isca04_table1(100).with_response_delay(5)),
            Technique::Sensor(SensorConfig::table4(20.0, 15.0, 3)),
            Technique::Damping(DampingConfig::isca04_table5(0.25)),
        ];
        let specs = [
            FaultSpec::SensorStuck {
                from_cycle: 256,
                hold_cycles: 64,
            },
            FaultSpec::SensorNoise {
                sigma: 0.125,
                seed: 7,
            },
            FaultSpec::SensorDelay { cycles: 3 },
            FaultSpec::NumericNan { at_cycle: 500 },
            FaultSpec::NumericInf { at_cycle: 501 },
            FaultSpec::NumericOverflow { at_cycle: 502 },
            FaultSpec::WorkerPanic,
            FaultSpec::WorkerStall { millis: 12 },
            FaultSpec::WorkerAbort,
            FaultSpec::WorkerKill,
        ];
        for technique in &techniques {
            let fp = job_fingerprint(&profile, technique, &sim, &specs);
            let payload = encode_job(
                &profile,
                technique,
                &sim,
                &specs,
                Some(Duration::from_millis(1500)),
                fp,
            );
            let job = decode_job(&payload).expect("job decodes");
            assert_eq!(job.profile, profile);
            assert_eq!(&job.technique, technique);
            assert_eq!(job.sim, sim);
            assert_eq!(job.specs, specs);
            assert_eq!(job.deadline, Some(Duration::from_millis(1500)));
            assert_eq!(job.fingerprint, fp);
            // The decoded values fingerprint identically: the codec is
            // provably lossless down to float bits.
            assert_eq!(
                job_fingerprint(&job.profile, &job.technique, &job.sim, &job.specs),
                fp
            );
        }
    }

    #[test]
    fn job_with_unknown_app_or_trailing_bytes_is_rejected() {
        let profile = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(1_000);
        let mut payload = encode_job(&profile, &Technique::Base, &sim, &[], None, 1);
        payload.push(0xAA);
        assert!(decode_job(&payload).is_none(), "trailing bytes must fail");

        let mut w = Writer::new();
        w.put_u64(1);
        w.put_str("not-a-spec2k-app");
        assert!(decode_job(&w.into_bytes()).is_none());
    }

    #[test]
    fn result_reply_round_trips_bit_exactly() {
        let inst = InstrumentedRun {
            result: SimResult {
                app: spec2k::by_name("mcf").unwrap().name,
                cycles: 123_456,
                committed: 120_000,
                ipc: 0.972_345_678_9,
                violation_cycles: 17,
                worst_noise: rlc::units::Volts::new(-0.037_125),
                energy_joules: 1.25e-3,
                energy_delay: 9.5e-9,
                first_level_cycles: 321,
                second_level_cycles: 12,
                sensor_response_cycles: 0,
                damping_bound_cycles: 0,
            },
            detector_events: 42,
            phases: PhaseTimings {
                controller: Duration::from_nanos(1_001),
                cpu: Duration::from_nanos(2_002),
                power: Duration::from_nanos(3_003),
                supply: Duration::from_nanos(4_004),
                supply_flush: Duration::from_nanos(5_005),
                sampled_cycles: 1_929,
            },
            wall: Duration::from_millis(35),
        };
        let decoded = decode_result(&encode_result(&inst)).expect("reply decodes");
        assert_eq!(decoded.result, inst.result);
        assert_eq!(decoded.detector_events, inst.detector_events);
        assert_eq!(decoded.phases, inst.phases);
        assert_eq!(decoded.wall, inst.wall);
    }

    #[test]
    fn obs_payload_round_trips_and_rejects_garbage() {
        let counters = vec![
            ("sim.detector_fires".to_string(), 12),
            ("warn.batch".to_string(), 1),
        ];
        let lines = vec![
            r#"{"kind":"violation","app":"swim","cycle":150123}"#.to_string(),
            r#"{"kind":"warn","wall":0.25,"message":"x"}"#.to_string(),
        ];
        let payload = encode_obs(&counters, &lines);
        let (c, l) = decode_obs(&payload).expect("obs decodes");
        assert_eq!(c, counters);
        assert_eq!(l, lines);

        let empty = encode_obs(&[], &[]);
        assert_eq!(decode_obs(&empty), Some((Vec::new(), Vec::new())));

        let mut torn = payload.clone();
        torn.truncate(torn.len() - 3);
        assert!(decode_obs(&torn).is_none(), "truncation must fail");
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_obs(&trailing).is_none(), "trailing bytes must fail");
    }

    #[test]
    fn multi_frame_streams_scan_in_order() {
        let mut stream = b"libtest chatter ".to_vec();
        stream.extend_from_slice(&encode_frame(KIND_ACK, &[]));
        stream.extend_from_slice(&encode_frame(KIND_OBS, &encode_obs(&[], &[])));
        stream.extend_from_slice(b" between-frame noise RSTF fake ");
        stream.extend_from_slice(&encode_frame(KIND_RESULT, b"reply"));
        stream.extend_from_slice(b"\ntrailing chatter\n");
        let kinds: Vec<u8> = scan_all(&stream).iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, [KIND_ACK, KIND_OBS, KIND_RESULT]);
        assert_eq!(scan_all(&stream)[2].1, b"reply");
        // A payload that itself contains frame-like bytes does not derail
        // the resume point of the multi-frame scan.
        let inner = encode_frame(KIND_FAILURE, b"inner");
        let outer = encode_frame(KIND_RESULT, &inner);
        let mut doubled = outer.clone();
        doubled.extend_from_slice(&encode_frame(KIND_OBS, b"after"));
        assert_eq!(
            scan_all(&doubled),
            vec![(KIND_RESULT, inner), (KIND_OBS, b"after".to_vec())]
        );
    }

    #[test]
    fn job_spec_count_is_capped_before_any_allocation() {
        // Satellite: a corrupt spec count off the wire must fail as a
        // transport error, never reach `Vec::with_capacity`. Hand-roll a
        // payload that is valid up to the count, then lies about it.
        let mut w = Writer::new();
        w.put_u64(0xDEAD_BEEF);
        w.put_str("swim");
        w.put_u8(0); // Technique::Base
        w.put_u64(1_000); // instructions
        w.put_u32(u32::MAX); // a 4-billion-spec allocation bomb
        let payload = w.into_bytes();
        assert!(decode_job(&payload).is_none(), "corrupt count must fail");

        // One past the cap is rejected; at the cap the decode proceeds (and
        // then fails later only because the specs themselves are missing).
        let at_limit = |count: u32| {
            let mut w = Writer::new();
            w.put_u64(1);
            w.put_str("swim");
            w.put_u8(0);
            w.put_u64(1_000);
            w.put_u32(count);
            decode_job(&w.into_bytes())
        };
        assert!(at_limit(MAX_JOB_SPECS as u32 + 1).is_none());
        assert!(at_limit(MAX_JOB_SPECS as u32).is_none(), "truncated specs");
    }

    #[test]
    fn request_and_reply_round_trip() {
        let profile = spec2k::by_name("art").unwrap();
        let sim = SimConfig::isca04(2_000);
        let fp = job_fingerprint(&profile, &Technique::Base, &sim, &[]);
        let job = encode_job(&profile, &Technique::Base, &sim, &[], None, fp);
        for want_obs in [false, true] {
            let payload = encode_request(77, want_obs, &job);
            let (req_id, obs, job_bytes) = decode_request(&payload).expect("request decodes");
            assert_eq!(req_id, 77);
            assert_eq!(obs, want_obs);
            assert_eq!(job_bytes, job.as_slice());
            assert!(decode_job(job_bytes).is_some());
        }
        assert!(decode_request(&[1, 2, 3]).is_none(), "truncated header");

        let failure: Result<InstrumentedRun, _> =
            Err((FailureKind::Timeout, String::from("too slow")));
        let payload = encode_reply(9, true, &failure);
        let (req_id, cached, outcome) = decode_reply(&payload).expect("reply decodes");
        assert_eq!(req_id, 9);
        assert!(cached);
        assert_eq!(
            outcome,
            Err((FailureKind::Timeout, String::from("too slow")))
        );
        assert!(decode_reply(&payload[..9]).is_none(), "truncated reply");
    }

    #[test]
    fn busy_and_cancel_round_trip() {
        let payload = encode_busy(3, Duration::from_millis(250));
        assert_eq!(decode_busy(&payload), Some((3, Duration::from_millis(250))));
        assert!(decode_busy(&payload[..7]).is_none());
        let payload = encode_cancel(42);
        assert_eq!(decode_cancel(&payload), Some(42));
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_cancel(&trailing).is_none());
    }

    #[test]
    fn stream_decoder_yields_frames_incrementally() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(KIND_HEARTBEAT, &[]));
        stream.extend_from_slice(&encode_frame(KIND_CANCEL, &encode_cancel(5)));
        let mut dec = StreamDecoder::new();
        // Feed one byte at a time: every prefix is either "need more" or a
        // complete frame, never an error.
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(frame) = dec.next_frame().expect("valid stream") {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, KIND_HEARTBEAT);
        assert_eq!(got[1].0, KIND_CANCEL);
        assert!(!dec.has_partial());
    }

    #[test]
    fn stream_decoder_rejects_desync_oversize_and_corruption() {
        // Garbage where a header must start.
        let mut dec = StreamDecoder::new();
        dec.extend(b"not a frame");
        assert_eq!(dec.next_frame(), Err(StreamError::Desync));

        // Right magic, wrong version.
        let mut dec = StreamDecoder::new();
        dec.extend(b"RSTF\xFF");
        assert_eq!(dec.next_frame(), Err(StreamError::Desync));

        // A forged length cannot force a giant buffer.
        let mut dec = StreamDecoder::new();
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.push(VERSION);
        forged.push(KIND_REQUEST);
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        dec.extend(&forged);
        assert!(matches!(dec.next_frame(), Err(StreamError::Oversize(_))));

        // A flipped payload bit is caught by the CRC.
        let mut dec = StreamDecoder::new();
        let mut frame = encode_frame(KIND_CANCEL, &encode_cancel(1));
        frame[12] ^= 0x01;
        dec.extend(&frame);
        assert_eq!(dec.next_frame(), Err(StreamError::Corrupt));
    }

    #[test]
    fn hello_probe_and_probe_ack_round_trip() {
        let peers = vec![
            String::from("/tmp/mesh-a.sock"),
            String::from("host-b:7777"),
        ];
        let payload = encode_hello(0xFEED_F00D, &peers);
        assert_eq!(decode_hello(&payload), Some((0xFEED_F00D, peers)));
        let empty = encode_hello(1, &[]);
        assert_eq!(decode_hello(&empty), Some((1, Vec::new())));
        let mut trailing = encode_hello(1, &[]);
        trailing.push(0);
        assert!(
            decode_hello(&trailing).is_none(),
            "trailing bytes must fail"
        );

        // A forged peer count is rejected before any allocation.
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u32(u32::MAX);
        assert!(decode_hello(&w.into_bytes()).is_none());

        let payload = encode_probe(99);
        assert_eq!(decode_probe(&payload), Some(99));
        assert!(decode_probe(&payload[..7]).is_none());

        let payload = encode_probe_ack(99, 0xABCD);
        assert_eq!(decode_probe_ack(&payload), Some((99, 0xABCD)));
        assert!(decode_probe_ack(&payload[..15]).is_none());
    }

    #[test]
    fn resync_skips_to_the_next_frame_after_each_error_class() {
        let sentinel = encode_frame(KIND_CANCEL, &encode_cancel(7));

        // Desync: garbage, then a frame.
        let mut dec = StreamDecoder::new();
        dec.extend(b"garbage bytes");
        dec.extend(&sentinel);
        assert_eq!(dec.next_frame(), Err(StreamError::Desync));
        dec.resync();
        assert_eq!(
            dec.next_frame()
                .expect("frame after resync")
                .map(|(k, _)| k),
            Some(KIND_CANCEL)
        );
        assert!(!dec.has_partial());

        // Corrupt: a torn frame, then a good one. The corrupt frame's own
        // intact header must not be re-matched forever.
        let mut dec = StreamDecoder::new();
        let mut torn = encode_frame(KIND_CANCEL, &encode_cancel(1));
        torn[12] ^= 0x01;
        dec.extend(&torn);
        dec.extend(&sentinel);
        assert_eq!(dec.next_frame(), Err(StreamError::Corrupt));
        dec.resync();
        assert_eq!(
            dec.next_frame()
                .expect("frame after resync")
                .map(|(k, _)| k),
            Some(KIND_CANCEL)
        );

        // Oversize: a forged length, then a good frame.
        let mut dec = StreamDecoder::new();
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.push(VERSION);
        forged.push(KIND_REQUEST);
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        dec.extend(&forged);
        dec.extend(&sentinel);
        assert!(matches!(dec.next_frame(), Err(StreamError::Oversize(_))));
        dec.resync();
        assert_eq!(
            dec.next_frame()
                .expect("frame after resync")
                .map(|(k, _)| k),
            Some(KIND_CANCEL)
        );

        // A trailing partial magic survives resync so a frame split across
        // reads still decodes.
        let mut dec = StreamDecoder::new();
        dec.extend(b"junk RS");
        assert_eq!(dec.next_frame(), Err(StreamError::Desync));
        dec.resync();
        dec.extend(&sentinel[2..]);
        // The kept "RS" completes into the sentinel frame.
        assert_eq!(
            dec.next_frame()
                .expect("split frame decodes")
                .map(|(k, _)| k),
            Some(KIND_CANCEL)
        );
    }

    /// Drives a decoder over `bytes` to quiescence: every error is followed
    /// by a resync, so the loop always consumes the buffer or stops at a
    /// genuine partial frame.
    fn drain_decoder(dec: &mut StreamDecoder, got: &mut Vec<(u8, Vec<u8>)>) {
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => return,
                Err(_) => dec.resync(),
            }
        }
    }

    proptest! {
        /// Satellite: fuzz the strict stream decoder. Arbitrary noise, a
        /// truncation of a valid frame, and more noise must never panic,
        /// and the decoder must resynchronize on the valid sentinel frames
        /// that follow.
        #[test]
        fn stream_decoder_never_panics_and_resyncs_after_noise(
            noise in proptest::collection::vec(0u8..=255u8, 0..96),
            cut in 0usize..64,
            chunk in 1usize..17,
        ) {
            let torn = encode_frame(KIND_CANCEL, &encode_cancel(5));
            let sentinel = encode_frame(KIND_CANCEL, &encode_cancel(7));
            let mut stream = noise.clone();
            stream.extend_from_slice(&torn[..cut.min(torn.len())]);
            // Two sentinels: even if the truncated header's declared length
            // swallows bytes of the first, the second stays intact.
            stream.extend_from_slice(&sentinel);
            stream.extend_from_slice(&sentinel);

            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            for part in stream.chunks(chunk) {
                dec.extend(part);
                drain_decoder(&mut dec, &mut got);
            }
            prop_assert!(
                got.iter()
                    .any(|(k, p)| *k == KIND_CANCEL && decode_cancel(p) == Some(7)),
                "sentinel frame lost after {} noise bytes, cut {}",
                noise.len(),
                cut
            );
        }
    }

    #[test]
    fn failure_reply_round_trips_every_kind() {
        for (_, kind) in FAILURE_TAGS {
            let payload = encode_failure(kind, "what happened");
            let (k, msg) = decode_failure(&payload).expect("failure decodes");
            assert_eq!(k, kind);
            assert_eq!(msg, "what happened");
        }
        assert!(decode_failure(&[250, 0, 0, 0, 0]).is_none(), "unknown tag");
    }
}
