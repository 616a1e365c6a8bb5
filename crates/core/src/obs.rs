//! Structured observability: cycle-stamped event tracing, waveform capture
//! around violations, and a counter registry aggregated across worker tiers.
//!
//! The paper's analysis lives in its traces — supply-voltage-vs-time plots
//! around resonance buildup (Figures 3/4) and the detector's view of current
//! swings — and this module makes the reproduction emit the same raw
//! material. Three pieces:
//!
//! * **Event log** — cycle-stamped simulation events (detector fire,
//!   response entry/exit, noise-margin violation, fault injection) and
//!   wall-stamped engine events (suite/run lifecycle, retry/backoff,
//!   warnings), written as JSON lines through a pluggable [`TraceSink`].
//! * **Waveform capture** — a fixed-size [`rlc::WaveformRing`] taps the
//!   supply's per-cycle current/noise so a compact trace window around each
//!   violation and detector event can be dumped ([`CycleTracer`]).
//! * **Counter registry** — named monotonic counters, merged across worker
//!   tiers: a process-isolated worker runs with `RESTUNE_TRACE=wire`, which
//!   buffers its events and counters for forwarding home over an RSTF
//!   `KIND_OBS` frame instead of writing them locally.
//!
//! Tracing is **off by default** and bit-exact-neutral: every emission point
//! is an observer of values the simulation already computes, so enabling a
//! sink never changes a result. Enable it with `RESTUNE_TRACE=PATH` (or
//! `--trace-out PATH` on the harnesses); `RESTUNE_TRACE=wire` is the
//! internal forwarding mode the process-isolation tier uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rlc::units::Volts;
use rlc::WaveformRing;

use crate::sim::CycleRecord;

/// Where emitted JSON lines go. Implementations must tolerate being called
/// from multiple threads in sequence (the global sink is mutex-guarded) and
/// should buffer internally — `write_line` sits on event paths.
pub trait TraceSink: Send {
    /// Writes one complete JSON-lines record (no trailing newline).
    fn write_line(&mut self, line: &str);
    /// Flushes any buffered lines to the underlying store.
    fn flush(&mut self) {}
}

/// The global sink: what happens to an emitted line.
enum SinkState {
    /// `RESTUNE_TRACE` has not been consulted yet.
    Unconfigured,
    /// Tracing disabled: lines are dropped before being built.
    Off,
    /// Lines append to a JSON-lines file.
    File(std::io::BufWriter<std::fs::File>),
    /// Lines buffer in memory for forwarding over the wire (`KIND_OBS`).
    Forward(Vec<String>),
    /// A caller-installed sink (tests, embedders).
    Custom(Box<dyn TraceSink>),
}

static SINK: Mutex<SinkState> = Mutex::new(SinkState::Unconfigured);
/// Fast-path mirror of whether the sink is active, so disabled runs pay one
/// relaxed load per emission site instead of a mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide epoch wall-stamped events are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// What a `RESTUNE_TRACE` value asks for.
#[derive(Debug, PartialEq, Eq)]
enum TraceMode {
    Off,
    Wire,
    File(std::path::PathBuf),
}

fn mode_from_env(value: Option<&str>) -> TraceMode {
    match value {
        None => TraceMode::Off,
        Some(v) => match v.trim() {
            "" | "0" | "off" => TraceMode::Off,
            "wire" => TraceMode::Wire,
            path => TraceMode::File(std::path::PathBuf::from(path)),
        },
    }
}

/// Consults `RESTUNE_TRACE` on first use; later calls see the cached state.
fn ensure_init(state: &mut SinkState) {
    if !matches!(state, SinkState::Unconfigured) {
        return;
    }
    let env = std::env::var("RESTUNE_TRACE").ok();
    *state = match mode_from_env(env.as_deref()) {
        TraceMode::Off => SinkState::Off,
        TraceMode::Wire => SinkState::Forward(Vec::new()),
        TraceMode::File(path) => match open_trace_file(&path) {
            Ok(file) => SinkState::File(file),
            Err(e) => {
                eprintln!(
                    "restune: cannot open RESTUNE_TRACE file {}: {e}; tracing disabled",
                    path.display()
                );
                SinkState::Off
            }
        },
    };
    let _ = epoch();
    ENABLED.store(!matches!(state, SinkState::Off), Ordering::Relaxed);
}

fn open_trace_file(path: &Path) -> std::io::Result<std::io::BufWriter<std::fs::File>> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    Ok(std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// `true` when a sink is active and events will be recorded. The first call
/// consults `RESTUNE_TRACE`; explicit configuration ([`trace_to_file`],
/// [`set_sink`]) overrides the environment.
pub fn trace_enabled() -> bool {
    if ENABLED.load(Ordering::Relaxed) {
        return true;
    }
    let mut state = SINK.lock().expect("trace sink poisoned");
    ensure_init(&mut state);
    !matches!(*state, SinkState::Off)
}

/// Routes all subsequent events to a fresh JSON-lines file at `path`
/// (parents created, existing file truncated), overriding `RESTUNE_TRACE`.
///
/// # Errors
///
/// Returns the error when the file cannot be created; the previous sink
/// state is kept.
pub fn trace_to_file(path: &Path) -> std::io::Result<()> {
    let file = open_trace_file(path)?;
    let mut state = SINK.lock().expect("trace sink poisoned");
    *state = SinkState::File(file);
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Installs a custom sink (tests, embedders), overriding `RESTUNE_TRACE`.
pub fn set_sink(sink: Box<dyn TraceSink>) {
    let mut state = SINK.lock().expect("trace sink poisoned");
    *state = SinkState::Custom(sink);
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables tracing: subsequent events are dropped. The counter registry is
/// left untouched.
pub fn disable_trace() {
    let mut state = SINK.lock().expect("trace sink poisoned");
    *state = SinkState::Off;
    ENABLED.store(false, Ordering::Relaxed);
}

/// Emits the final counter snapshot (one `counter` event per entry) and
/// flushes the sink. Harness mains call this once on exit via the
/// `init_trace` guard; calling it with tracing disabled is a no-op.
pub fn finish_trace() {
    if !trace_enabled() {
        return;
    }
    for (name, value) in snapshot_counters() {
        Event::engine("counter")
            .str_field("name", &name)
            .u64_field("value", value)
            .emit();
    }
    let mut state = SINK.lock().expect("trace sink poisoned");
    match &mut *state {
        SinkState::File(file) => {
            let _ = file.flush();
        }
        SinkState::Custom(sink) => sink.flush(),
        _ => {}
    }
}

fn emit_line(line: String) {
    let mut state = SINK.lock().expect("trace sink poisoned");
    ensure_init(&mut state);
    match &mut *state {
        SinkState::Unconfigured => unreachable!("ensure_init leaves a configured state"),
        SinkState::Off => {}
        SinkState::File(file) => {
            let _ = file.write_all(line.as_bytes()).and_then(|()| {
                // Line-buffered on purpose: a crashed run keeps every
                // complete event written before the crash.
                file.write_all(b"\n")
            });
            let _ = file.flush();
        }
        SinkState::Forward(lines) => lines.push(line),
        SinkState::Custom(sink) => sink.write_line(&line),
    }
}

/// Takes the buffered events and counters of this process's `wire`
/// (forwarding) sink, or `None` when the sink is not in forwarding mode.
/// A process-isolated worker calls this once before writing its reply frame
/// so the parent can splice the worker's observability into its own.
#[allow(clippy::type_complexity)]
pub fn take_forwarded() -> Option<(Vec<(String, u64)>, Vec<String>)> {
    let lines = {
        let mut state = SINK.lock().expect("trace sink poisoned");
        ensure_init(&mut state);
        match &mut *state {
            SinkState::Forward(lines) => std::mem::take(lines),
            _ => return None,
        }
    };
    Some((take_counters(), lines))
}

/// Splices a worker's forwarded observability into this process: its event
/// lines are written to the local sink verbatim and its counters merge
/// (by addition) into the local registry.
pub fn absorb_forwarded(counters: &[(String, u64)], lines: &[String]) {
    for (name, value) in counters {
        counter_add(name, *value);
    }
    for line in lines {
        emit_line(line.clone());
    }
}

/// A shared in-memory sink for tests: clone it, install it with
/// [`TraceBuffer::install`], and read back [`TraceBuffer::lines`].
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    lines: Arc<Mutex<Vec<String>>>,
}

struct TraceBufferSink(Arc<Mutex<Vec<String>>>);

impl TraceSink for TraceBufferSink {
    fn write_line(&mut self, line: &str) {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .push(line.to_string());
    }
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs this buffer as the global sink (see [`set_sink`]).
    pub fn install(&self) {
        set_sink(Box::new(TraceBufferSink(Arc::clone(&self.lines))));
    }

    /// The lines captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace buffer poisoned").clone()
    }
}

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Adds `delta` to the named monotonic counter. Counters are cheap but not
/// free — call this at event granularity (a detector fire, a retry), never
/// per cycle.
pub fn counter_add(name: &str, delta: u64) {
    let mut counters = COUNTERS.lock().expect("counter registry poisoned");
    *counters.entry(name.to_string()).or_insert(0) += delta;
}

/// The current counter values, sorted by name.
pub fn snapshot_counters() -> Vec<(String, u64)> {
    let counters = COUNTERS.lock().expect("counter registry poisoned");
    counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Drains the counter registry, returning the final values sorted by name.
pub fn take_counters() -> Vec<(String, u64)> {
    let mut counters = COUNTERS.lock().expect("counter registry poisoned");
    std::mem::take(&mut *counters).into_iter().collect()
}

// ---------------------------------------------------------------------------
// Event construction
// ---------------------------------------------------------------------------

/// Builder for one JSON-lines event. Constructed pre-stamped as either a
/// cycle-stamped simulation event ([`Event::sim`]) or a wall-stamped engine
/// event ([`Event::engine`]); when tracing is disabled every method is a
/// no-op, so call sites need no `if` of their own.
#[derive(Debug)]
pub struct Event {
    buf: Option<String>,
}

fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// A cycle-stamped simulation event: carries `kind`, `app`, `cycle`.
    pub fn sim(kind: &str, app: &str, cycle: u64) -> Self {
        if !trace_enabled() {
            return Self { buf: None };
        }
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"kind\":\"");
        json_escape_into(&mut buf, kind);
        buf.push_str("\",\"app\":\"");
        json_escape_into(&mut buf, app);
        let _ = write!(buf, "\",\"cycle\":{cycle}");
        Self { buf: Some(buf) }
    }

    /// A wall-stamped engine event: carries `kind` and `wall` (seconds
    /// since the first observability use in this process).
    pub fn engine(kind: &str) -> Self {
        if !trace_enabled() {
            return Self { buf: None };
        }
        let wall = epoch().elapsed().as_secs_f64();
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"kind\":\"");
        json_escape_into(&mut buf, kind);
        let _ = write!(buf, "\",\"wall\":{wall}");
        Self { buf: Some(buf) }
    }

    /// Adds a string field.
    #[must_use]
    pub fn str_field(mut self, name: &str, value: &str) -> Self {
        if let Some(buf) = &mut self.buf {
            buf.push_str(",\"");
            json_escape_into(buf, name);
            buf.push_str("\":\"");
            json_escape_into(buf, value);
            buf.push('"');
        }
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64_field(mut self, name: &str, value: u64) -> Self {
        if let Some(buf) = &mut self.buf {
            buf.push_str(",\"");
            json_escape_into(buf, name);
            let _ = write!(buf, "\":{value}");
        }
        self
    }

    /// Adds a floating-point field (`null` for non-finite values).
    #[must_use]
    pub fn f64_field(mut self, name: &str, value: f64) -> Self {
        if let Some(buf) = &mut self.buf {
            buf.push_str(",\"");
            json_escape_into(buf, name);
            if value.is_finite() {
                let _ = write!(buf, "\":{value}");
            } else {
                buf.push_str("\":null");
            }
        }
        self
    }

    /// Adds a pre-rendered JSON value (for arrays such as waveform
    /// samples). The caller is responsible for `raw` being valid JSON.
    #[must_use]
    pub fn raw_field(mut self, name: &str, raw: &str) -> Self {
        if let Some(buf) = &mut self.buf {
            buf.push_str(",\"");
            json_escape_into(buf, name);
            buf.push_str("\":");
            buf.push_str(raw);
        }
        self
    }

    /// Closes the record and sends it to the sink.
    pub fn emit(self) {
        if let Some(mut buf) = self.buf {
            buf.push('}');
            emit_line(buf);
        }
    }
}

/// Reports an engine warning: one line on stderr (the pre-observability
/// behavior, kept so interactive users still see it) plus a structured
/// `warn` event and a `warn.<category>` counter when tracing is active.
pub fn warn(category: &str, message: &str) {
    eprintln!("restune: {message}");
    counter_add(&format!("warn.{category}"), 1);
    Event::engine("warn")
        .str_field("category", category)
        .str_field("message", message)
        .emit();
}

// ---------------------------------------------------------------------------
// Cycle-level tracer with waveform capture
// ---------------------------------------------------------------------------

/// Cycles of context kept before a trigger in a waveform window.
const PRE_TRIGGER_CYCLES: u64 = 64;
/// Cycles captured after a trigger before the window is dumped.
const POST_TRIGGER_CYCLES: u64 = 32;
/// Cap on dumped windows per run, so a pathological run cannot flood the
/// trace (violation episodes beyond the cap still emit their point events).
const MAX_WINDOWS_PER_RUN: u32 = 8;

/// The per-run observer wired into the simulation loop when tracing is
/// active: detects event edges in the per-cycle [`CycleRecord`] stream,
/// emits cycle-stamped events, and taps every cycle's supply current/noise
/// into a [`WaveformRing`] so a window around each violation and detector
/// event can be dumped (the paper's Figure 3/4-style traces).
///
/// Strictly read-only over the simulation state: a run traced by this
/// observer is bit-exact with an untraced run.
#[derive(Debug)]
pub struct CycleTracer {
    enabled: bool,
    app: &'static str,
    margin: f64,
    ring: WaveformRing,
    in_violation: bool,
    restricted: bool,
    /// `(trigger_cycle, reason)` of the window waiting for its post-trigger
    /// context.
    pending: Option<(u64, &'static str)>,
    windows: u32,
    last_cycle: u64,
}

impl CycleTracer {
    /// Builds the tracer for one run. `margin` is the supply's noise margin
    /// in volts (the violation threshold). When tracing is disabled the
    /// tracer is dormant: [`CycleTracer::observe`] returns immediately.
    pub fn new(app: &'static str, technique: &str, margin: Volts) -> Self {
        let enabled = trace_enabled();
        if enabled {
            Event::sim("run-start", app, 0)
                .str_field("technique", technique)
                .f64_field("margin_volts", margin.volts())
                .emit();
        }
        Self {
            enabled,
            app,
            margin: margin.volts(),
            ring: WaveformRing::new((PRE_TRIGGER_CYCLES + POST_TRIGGER_CYCLES) as usize),
            in_violation: false,
            restricted: false,
            pending: None,
            windows: 0,
            last_cycle: 0,
        }
    }

    /// `true` when this run is traced. A dormant tracer observes nothing,
    /// so a simulation loop may leave it detached and build no records.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Observes one simulated cycle.
    pub fn observe(&mut self, rec: &CycleRecord) {
        if !self.enabled {
            return;
        }
        self.last_cycle = rec.cycle;
        self.ring.record(rec.cycle, rec.current, rec.noise);

        if let Some(count) = rec.event_count {
            counter_add("sim.detector_fires", 1);
            Event::sim("detector-fire", self.app, rec.cycle)
                .u64_field("count", u64::from(count))
                .f64_field("current_amps", rec.current.amps())
                .emit();
            self.trigger(rec.cycle, "detector-fire");
        }

        if rec.restricted != self.restricted {
            self.restricted = rec.restricted;
            let kind = if rec.restricted {
                counter_add("sim.response_entries", 1);
                "response-enter"
            } else {
                "response-exit"
            };
            Event::sim(kind, self.app, rec.cycle).emit();
        }

        let violating = rec.noise.abs().volts() > self.margin;
        if violating != self.in_violation {
            self.in_violation = violating;
            if violating {
                counter_add("sim.violation_episodes", 1);
                Event::sim("violation", self.app, rec.cycle)
                    .f64_field("noise_volts", rec.noise.volts())
                    .f64_field("margin_volts", self.margin)
                    .emit();
                self.trigger(rec.cycle, "violation");
            }
        }

        if let Some((trigger, reason)) = self.pending {
            if rec.cycle >= trigger + POST_TRIGGER_CYCLES {
                self.dump_window(trigger, reason);
            }
        }
    }

    /// Arms a waveform window at `cycle` unless one is already pending (the
    /// earliest trigger wins — its pre-context is the interesting part) or
    /// the per-run cap is exhausted.
    fn trigger(&mut self, cycle: u64, reason: &'static str) {
        if self.pending.is_none() && self.windows < MAX_WINDOWS_PER_RUN {
            self.pending = Some((cycle, reason));
        }
    }

    fn dump_window(&mut self, trigger: u64, reason: &'static str) {
        self.pending = None;
        self.windows += 1;
        counter_add("sim.waveform_windows", 1);
        let samples = self.ring.snapshot();
        let mut raw = String::with_capacity(samples.len() * 24 + 2);
        raw.push('[');
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                raw.push(',');
            }
            let _ = write!(
                raw,
                "[{},{},{}]",
                s.cycle,
                s.current.amps(),
                s.noise.volts()
            );
        }
        raw.push(']');
        Event::sim("waveform", self.app, trigger)
            .str_field("trigger", reason)
            .u64_field("samples_len", samples.len() as u64)
            .raw_field("samples", &raw)
            .emit();
    }

    /// Flushes a still-pending window (a trigger near the end of the run)
    /// with whatever context the ring holds. Call once after the run.
    pub fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some((trigger, reason)) = self.pending {
            self.dump_window(trigger, reason);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON-lines parsing and schema validation
// ---------------------------------------------------------------------------

/// A parsed JSON value, as produced by [`parse_json`]. Only what the trace
/// tooling needs: no number-precision guarantees beyond `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            // Surrogates are not produced by our emitter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str upstream).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8 in number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("malformed number '{text}'"))
    }
}

/// Parses one JSON document (as emitted on a trace line).
///
/// # Errors
///
/// Returns a byte-positioned description of the first syntax error, or of
/// trailing garbage after the document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// Validates one trace line against the event-log schema: it must parse as
/// a JSON object carrying a string `kind` and either a numeric `cycle`
/// (with a string `app` — simulation events) or a numeric `wall` (engine
/// events).
///
/// # Errors
///
/// Returns what is malformed or missing.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = parse_json(line)?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err("event is not a JSON object".to_string());
    }
    if value.get("kind").and_then(JsonValue::as_str).is_none() {
        return Err("event lacks a string 'kind'".to_string());
    }
    let cycle = value.get("cycle").and_then(JsonValue::as_f64);
    let wall = value.get("wall").and_then(JsonValue::as_f64);
    match (cycle, wall) {
        (None, None) => Err("event carries neither 'cycle' nor 'wall'".to_string()),
        (Some(_), _) if value.get("app").and_then(JsonValue::as_str).is_none() => {
            Err("cycle-stamped event lacks a string 'app'".to_string())
        }
        _ => Ok(()),
    }
}

/// Emits the cycle-stamped `fault-armed` events for the specs injected into
/// one run — called by the supervised runner before the simulation starts,
/// so the trace shows what was armed even when the fault kills the run.
pub(crate) fn note_armed_faults(app: &str, specs: &[crate::fault::FaultSpec]) {
    if specs.is_empty() || !trace_enabled() {
        return;
    }
    for spec in specs {
        counter_add("sim.faults_armed", 1);
        Event::sim("fault-armed", app, 0)
            .str_field("class", spec.class())
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc::units::Amps;

    /// Global-sink tests must not interleave; reuse the env lock that
    /// already serializes environment-sensitive tests.
    fn with_trace_buffer(f: impl FnOnce(&TraceBuffer)) {
        crate::testenv::with_env(&[("RESTUNE_TRACE", None)], || {
            let buffer = TraceBuffer::new();
            buffer.install();
            f(&buffer);
            disable_trace();
        });
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(mode_from_env(None), TraceMode::Off);
        assert_eq!(mode_from_env(Some("")), TraceMode::Off);
        assert_eq!(mode_from_env(Some("0")), TraceMode::Off);
        assert_eq!(mode_from_env(Some("off")), TraceMode::Off);
        assert_eq!(mode_from_env(Some("wire")), TraceMode::Wire);
        assert_eq!(
            mode_from_env(Some("/tmp/t.jsonl")),
            TraceMode::File(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn events_are_schema_valid_and_escaped() {
        with_trace_buffer(|buffer| {
            Event::sim("detector-fire", "gzip", 42)
                .u64_field("count", 3)
                .f64_field("current_amps", 82.5)
                .emit();
            Event::engine("warn")
                .str_field("message", "weird \"quote\"\nand newline")
                .f64_field("bad", f64::NAN)
                .emit();
            let lines = buffer.lines();
            assert_eq!(lines.len(), 2);
            for line in &lines {
                validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            }
            let first = parse_json(&lines[0]).unwrap();
            assert_eq!(
                first.get("kind").and_then(JsonValue::as_str),
                Some("detector-fire")
            );
            assert_eq!(first.get("cycle").and_then(JsonValue::as_f64), Some(42.0));
            assert_eq!(first.get("count").and_then(JsonValue::as_f64), Some(3.0));
            let second = parse_json(&lines[1]).unwrap();
            assert_eq!(
                second.get("message").and_then(JsonValue::as_str),
                Some("weird \"quote\"\nand newline")
            );
            assert_eq!(second.get("bad"), Some(&JsonValue::Null));
        });
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        with_trace_buffer(|buffer| {
            disable_trace();
            Event::sim("violation", "mcf", 7).emit();
            assert!(buffer.lines().is_empty());
            assert!(!trace_enabled());
        });
    }

    #[test]
    fn counters_accumulate_and_drain() {
        with_trace_buffer(|_| {
            let _ = take_counters();
            counter_add("test.a", 2);
            counter_add("test.a", 3);
            counter_add("test.b", 1);
            let snap = snapshot_counters();
            assert!(snap.contains(&("test.a".to_string(), 5)));
            assert!(snap.contains(&("test.b".to_string(), 1)));
            let taken = take_counters();
            assert_eq!(taken, snap);
            assert!(snapshot_counters().is_empty());
        });
    }

    #[test]
    fn forwarding_buffers_and_absorbs() {
        crate::testenv::with_env(&[("RESTUNE_TRACE", None)], || {
            let _ = take_counters();
            // Simulate the worker side: a forwarding sink.
            {
                let mut state = SINK.lock().unwrap();
                *state = SinkState::Forward(Vec::new());
            }
            ENABLED.store(true, Ordering::Relaxed);
            Event::sim("violation", "swim", 9)
                .f64_field("noise_volts", -0.06)
                .emit();
            counter_add("sim.violation_episodes", 1);
            let (counters, lines) = take_forwarded().expect("forward mode");
            assert_eq!(lines.len(), 1);
            assert_eq!(counters, vec![("sim.violation_episodes".to_string(), 1)]);
            assert!(take_forwarded().expect("still forwarding").1.is_empty());

            // Simulate the parent side: absorb into a buffer sink.
            let buffer = TraceBuffer::new();
            buffer.install();
            counter_add("sim.violation_episodes", 2);
            absorb_forwarded(&counters, &lines);
            assert_eq!(buffer.lines(), lines);
            assert!(snapshot_counters().contains(&("sim.violation_episodes".to_string(), 3)));
            assert!(take_forwarded().is_none(), "buffer sink does not forward");
            let _ = take_counters();
            disable_trace();
        });
    }

    #[test]
    fn file_sink_writes_lines() {
        crate::testenv::with_env(&[("RESTUNE_TRACE", None)], || {
            let path =
                std::env::temp_dir().join(format!("restune_obs_file_{}.jsonl", std::process::id()));
            trace_to_file(&path).unwrap();
            Event::engine("suite-start")
                .str_field("scope", "base")
                .emit();
            finish_trace();
            disable_trace();
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.lines().count() >= 1);
            for line in body.lines() {
                validate_line(line).unwrap();
            }
            let _ = std::fs::remove_file(&path);
        });
    }

    #[test]
    fn tracer_detects_edges_and_dumps_windows() {
        use cpusim::CycleEvents;
        with_trace_buffer(|buffer| {
            let mut tracer = CycleTracer::new("testapp", "tuning", Volts::new(0.05));
            let record =
                |cycle: u64, noise: f64, count: Option<u32>, restricted: bool| CycleRecord {
                    cycle,
                    current: Amps::new(70.0 + cycle as f64 * 0.01),
                    noise: Volts::new(noise),
                    event_count: count,
                    restricted,
                    events: CycleEvents::default(),
                };
            for c in 0..200u64 {
                let noise = if (150..=160).contains(&c) { 0.08 } else { 0.01 };
                let count = if c == 100 { Some(2) } else { None };
                let restricted = (100..140).contains(&c);
                tracer.observe(&record(c, noise, count, restricted));
            }
            tracer.finish();

            let lines = buffer.lines();
            for line in &lines {
                validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            }
            let kinds: Vec<String> = lines
                .iter()
                .map(|l| {
                    parse_json(l)
                        .unwrap()
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect();
            for expected in [
                "run-start",
                "detector-fire",
                "response-enter",
                "response-exit",
                "violation",
                "waveform",
            ] {
                assert!(
                    kinds.iter().any(|k| k == expected),
                    "missing {expected}: {kinds:?}"
                );
            }
            // The detector window dumps once its post-trigger context is in;
            // the violation at 150 arms a second window.
            let waveforms: Vec<&String> = lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"waveform\""))
                .collect();
            assert_eq!(waveforms.len(), 2, "one window per trigger");
            let wf = parse_json(waveforms[0]).unwrap();
            assert_eq!(
                wf.get("trigger").and_then(JsonValue::as_str),
                Some("detector-fire")
            );
            let JsonValue::Array(samples) = wf.get("samples").unwrap() else {
                panic!("samples must be an array");
            };
            assert!(!samples.is_empty());
            // Samples are chronological [cycle, current, noise] triples
            // ending at (or after) the trigger cycle.
            let JsonValue::Array(first) = &samples[0] else {
                panic!("sample must be a triple");
            };
            assert_eq!(first.len(), 3);
            let cycles: Vec<f64> = samples
                .iter()
                .map(|s| match s {
                    JsonValue::Array(t) => t[0].as_f64().unwrap(),
                    _ => panic!("sample must be a triple"),
                })
                .collect();
            assert!(cycles.windows(2).all(|w| w[0] < w[1]), "chronological");
            assert!(cycles.iter().any(|&c| c >= 100.0), "covers the trigger");
            assert!(cycles.iter().any(|&c| c < 100.0), "has pre-trigger context");
        });
    }

    #[test]
    fn tracer_caps_windows_per_run() {
        use cpusim::CycleEvents;
        with_trace_buffer(|buffer| {
            let mut tracer = CycleTracer::new("testapp", "base", Volts::new(0.05));
            // Violation episodes every 200 cycles, far more than the cap.
            for c in 0..((MAX_WINDOWS_PER_RUN as u64 + 6) * 200) {
                let noise = if c % 200 < 3 { 0.09 } else { 0.0 };
                tracer.observe(&CycleRecord {
                    cycle: c,
                    current: Amps::new(70.0),
                    noise: Volts::new(noise),
                    event_count: None,
                    restricted: false,
                    events: CycleEvents::default(),
                });
            }
            tracer.finish();
            let windows = buffer
                .lines()
                .iter()
                .filter(|l| l.contains("\"kind\":\"waveform\""))
                .count();
            assert_eq!(windows as u32, MAX_WINDOWS_PER_RUN);
        });
    }

    #[test]
    fn json_parser_round_trips_tricky_documents() {
        let doc = r#"{"kind":"x","wall":1.5e-3,"neg":-2,"arr":[[1,2.5,-3e2],[]],"s":"a\"b\\c\ndA","t":true,"n":null}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(v.get("neg").and_then(JsonValue::as_f64), Some(-2.0));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        let JsonValue::Array(arr) = v.get("arr").unwrap() else {
            panic!("arr");
        };
        assert_eq!(arr.len(), 2);

        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn schema_validation_rules() {
        assert!(validate_line(r#"{"kind":"warn","wall":0.5}"#).is_ok());
        assert!(validate_line(r#"{"kind":"violation","app":"swim","cycle":9}"#).is_ok());
        // Not an object.
        assert!(validate_line("[1,2]").is_err());
        // Missing kind.
        assert!(validate_line(r#"{"app":"swim","cycle":9}"#).is_err());
        // Neither cycle nor wall.
        assert!(validate_line(r#"{"kind":"x","app":"swim"}"#).is_err());
        // Cycle-stamped without app.
        assert!(validate_line(r#"{"kind":"x","cycle":9}"#).is_err());
        // Unparsable.
        assert!(validate_line("not json").is_err());
    }
}
