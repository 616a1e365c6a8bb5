//! The out-of-order core: an RUU-style (SimpleScalar) unified-window
//! machine with fetch, dispatch, issue, execute, writeback, and commit.
//!
//! The window is the reorder buffer itself: issue selects ready,
//! oldest-first instructions directly from the ROB, which matches the
//! register-update-unit organization of the paper's base simulator.
//! External controllers throttle the machine per cycle through
//! [`PipelineControls`].

use std::collections::VecDeque;

use crate::branch::{BranchModel, BranchPredictor};
use crate::cache::{CacheHierarchy, ServiceLevel};
use crate::config::CpuConfig;
use crate::control::PipelineControls;
use crate::isa::{InstructionStream, OpClass, SynthInst};
use crate::memsys::MissTracker;
use crate::stats::{CycleEvents, RunStats};

/// Execution state of one in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// In the window, waiting for operands or an issue slot.
    Waiting,
    /// Issued; completes at the contained cycle.
    Executing { done_at: u64 },
    /// Execution finished; awaiting in-order commit.
    Completed,
}

/// Sentinel terminating a wakeup subscriber chain.
const NO_SUB: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    inst: SynthInst,
    state: InstState,
    /// Head of this entry's wakeup subscriber chain: the `seq` of the
    /// youngest waiting consumer blocked on this producer ([`NO_SUB`] when
    /// none). Event scheduling only; unused under [`ScanMode::FullScan`].
    subs: u64,
    /// The next subscriber in the chain this entry is linked into.
    next_sub: u64,
}

/// How the core finds work each cycle.
///
/// Both modes issue and complete exactly the same instructions on exactly
/// the same cycles — `FullScan` exists as the executable specification the
/// event-driven scheduler is property-tested against, and as the scheduler
/// of the pre-kernel reference loop that the kernel benchmark measures
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Event-driven scheduling: waiting instructions subscribe to one
    /// unready producer and are woken at its completion, issue walks a
    /// ready list, and writeback drains an executing list — no whole-window
    /// scans on the hot path.
    #[default]
    Event,
    /// The classic RUU scans: issue and writeback walk the entire window
    /// every cycle.
    FullScan,
}

/// Per-cycle occupancy bookkeeping for the functional-unit pools.
#[derive(Debug, Clone, Copy, Default)]
struct FuUsage {
    int_alu: u32,
    int_mul_div: u32,
    fp_alu: u32,
    fp_mul_div: u32,
    mem_ports: u32,
}

/// The out-of-order processor core.
///
/// # Examples
///
/// ```
/// use cpusim::{Cpu, CpuConfig, PipelineControls};
/// use cpusim::isa::{LoopStream, SynthInst};
///
/// let mut cpu = Cpu::new(
///     CpuConfig::isca04_table1(),
///     LoopStream::new(vec![SynthInst::int_alu(); 4]),
/// );
/// for _ in 0..100 {
///     cpu.tick(PipelineControls::free());
/// }
/// assert!(cpu.stats().committed > 0);
/// ```
#[derive(Debug)]
pub struct Cpu<S> {
    config: CpuConfig,
    stream: S,
    caches: CacheHierarchy,
    /// The unified window as a ring indexed by `seq & rob_mask`. The window
    /// is contiguous in `seq` — it holds `rob_head..next_seq`, oldest first
    /// — and a squash reuses the squashed seqs, so a live seq never shares
    /// a slot with another. Slots outside the window hold stale entries.
    rob: Vec<RobEntry>,
    /// `rob.len() - 1`; the ring is `rob_entries` rounded up to a power of
    /// two, while dispatch still stops at `rob_entries`.
    rob_mask: u64,
    /// The oldest in-window `seq` (equal to `next_seq` when it is empty).
    rob_head: u64,
    /// Fetched but not yet dispatched instructions, in program order.
    fetch_buffer: VecDeque<SynthInst>,
    /// Squashed instructions awaiting re-fetch after a redirect, in order.
    replay: VecDeque<SynthInst>,
    /// Cycles remaining until fetch resumes after a mispredict redirect.
    redirect_stall: u32,
    /// Cycles remaining until the next I-cache line is available (I-miss).
    ifetch_stall: u32,
    /// Cycle the unpipelined integer divider frees up.
    int_div_busy_until: u64,
    /// Cycle the unpipelined FP divider frees up.
    fp_div_busy_until: u64,
    /// In-flight load/store count (LSQ occupancy).
    lsq_occupancy: u32,
    /// Optional MSHR/bandwidth limiter.
    miss_tracker: Option<MissTracker>,
    /// Optional real branch predictor (predictor-driven branch model).
    predictor: Option<BranchPredictor>,
    next_seq: u64,
    cycle: u64,
    stats: RunStats,
    /// Scheduling strategy (see [`ScanMode`]).
    scan: ScanMode,
    /// Event scheduling: `seq`s of waiting entries whose sources are all
    /// ready. Sorted ascending at issue time (oldest first).
    ready: Vec<u64>,
    /// Event scheduling: `(done_at, seq)` of every in-flight instruction.
    executing: Vec<(u64, u64)>,
    /// Reusable issue-selection buffer (`seq`s picked this cycle).
    issue_scratch: Vec<u64>,
    /// Reusable writeback buffer (`seq`s completing this cycle).
    completing_scratch: Vec<u64>,
    /// Reusable squash buffer (instructions queued for replay).
    squash_scratch: Vec<SynthInst>,
}

impl<S: InstructionStream> Cpu<S> {
    /// Creates a core reading instructions from `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CpuConfig::validate`]).
    pub fn new(config: CpuConfig, stream: S) -> Self {
        Self::with_scan_mode(config, stream, ScanMode::default())
    }

    /// Creates a core with an explicit scheduling strategy (see
    /// [`ScanMode`]); [`Cpu::new`] uses the event-driven default.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CpuConfig::validate`]).
    pub fn with_scan_mode(config: CpuConfig, stream: S, scan: ScanMode) -> Self {
        config.validate();
        let caches = CacheHierarchy::new(&config);
        Self::assemble(config, stream, scan, caches)
    }

    /// Creates a core (event-driven scheduling, like [`Cpu::new`]) whose
    /// caches start as `caches` instead of empty: the way to start a run
    /// from an already warmed hierarchy without building an empty one first.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`CpuConfig::validate`]), or
    /// if `caches` was built for another geometry than `config`'s; the
    /// message names the level that differs.
    pub fn with_caches(config: CpuConfig, stream: S, caches: CacheHierarchy) -> Self {
        config.validate();
        let (have, want) = (caches.geometry(), config.cache_geometry());
        for (level, have, want) in [
            ("L1I", have.l1i, want.l1i),
            ("L1D", have.l1d, want.l1d),
            ("L2", have.l2, want.l2),
        ] {
            assert!(
                have == want,
                "Cpu::with_caches: the hierarchy's {level} is {have:?}, the CPU config's is {want:?}"
            );
        }
        assert!(
            have.memory_latency == want.memory_latency,
            "Cpu::with_caches: the hierarchy's memory latency is {} cycles, the CPU config's is {}",
            have.memory_latency,
            want.memory_latency
        );
        Self::assemble(config, stream, ScanMode::default(), caches)
    }

    /// Builds a core around a validated `config` and its `caches`.
    fn assemble(config: CpuConfig, stream: S, scan: ScanMode, caches: CacheHierarchy) -> Self {
        let miss_tracker = config.memory_system.map(MissTracker::new);
        let predictor = match config.branch_model {
            BranchModel::Profile => None,
            BranchModel::Predictor { kind, entries } => Some(BranchPredictor::new(kind, entries)),
        };
        let ring = u64::from(config.rob_entries).next_power_of_two();
        let stale = RobEntry {
            seq: u64::MAX,
            inst: SynthInst::int_alu(),
            state: InstState::Completed,
            subs: NO_SUB,
            next_sub: NO_SUB,
        };
        Self {
            miss_tracker,
            predictor,
            caches,
            rob: vec![stale; ring as usize],
            rob_mask: ring - 1,
            rob_head: 0,
            fetch_buffer: VecDeque::with_capacity(config.fetch_buffer as usize),
            replay: VecDeque::new(),
            redirect_stall: 0,
            ifetch_stall: 0,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            lsq_occupancy: 0,
            next_seq: 0,
            cycle: 0,
            stats: RunStats::default(),
            scan,
            ready: Vec::with_capacity(config.rob_entries as usize),
            executing: Vec::with_capacity(config.rob_entries as usize),
            issue_scratch: Vec::with_capacity(config.issue_width as usize),
            completing_scratch: Vec::with_capacity(config.rob_entries as usize),
            squash_scratch: Vec::with_capacity(config.rob_entries as usize),
            config,
            stream,
        }
    }

    /// The scheduling strategy this core was built with.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The cache hierarchy (for miss-rate statistics).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Mutable access to the cache hierarchy, for pre-warming working sets
    /// before measurement (the simulation-time stand-in for the paper's
    /// 2-billion-instruction fast-forward past initialization code).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The branch predictor's own statistics (predictions, misprediction
    /// rate), when the predictor-driven branch model is active. Counts
    /// every *resolution* (squash-replayed branches resolve more than
    /// once, as speculative hardware does).
    pub fn predictor_stats(&self) -> Option<(u64, f64)> {
        self.predictor
            .as_ref()
            .map(|bp| (bp.predictions(), bp.misprediction_rate()))
    }

    /// The ring slot of `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// Instructions in the window.
    fn rob_len(&self) -> u64 {
        self.next_seq - self.rob_head
    }

    /// Looks up a window entry by sequence number: O(1), one mask.
    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        if seq < self.rob_head || seq >= self.next_seq {
            return None;
        }
        let e = &self.rob[self.slot(seq)];
        debug_assert_eq!(e.seq, seq, "window must be contiguous in seq");
        Some(e)
    }

    /// `true` when the producer `dist` instructions before `seq` has
    /// completed (or already committed). `dist == 0` means no dependence.
    fn source_ready(&self, seq: u64, dist: u32) -> bool {
        if dist == 0 {
            return true;
        }
        let producer = match seq.checked_sub(dist as u64) {
            Some(p) => p,
            None => return true, // before the beginning of time
        };
        match self.entry(producer) {
            None => true, // committed long ago
            Some(e) => matches!(e.state, InstState::Completed),
        }
    }

    fn execution_latency(&mut self, inst: &SynthInst, events: &mut CycleEvents) -> u64 {
        let lat = &self.config.latency;
        match inst.op {
            OpClass::IntAlu | OpClass::Branch => lat.int_alu as u64,
            OpClass::IntMul => lat.int_mul as u64,
            OpClass::IntDiv => lat.int_div as u64,
            OpClass::FpAlu => lat.fp_alu as u64,
            OpClass::FpMul => lat.fp_mul as u64,
            OpClass::FpDiv => lat.fp_div as u64,
            OpClass::Load => {
                let r = self.caches.access_data(inst.addr);
                events.l1d_accesses += 1;
                match r.level {
                    ServiceLevel::L1 => {}
                    ServiceLevel::L2 => {
                        events.l2_accesses += 1;
                        self.stats.l1d_misses += 1;
                    }
                    ServiceLevel::Memory => {
                        events.l2_accesses += 1;
                        events.mem_accesses += 1;
                        self.stats.l1d_misses += 1;
                        self.stats.l2_misses += 1;
                    }
                }
                if r.level != ServiceLevel::L1 {
                    if let Some(tracker) = &mut self.miss_tracker {
                        return tracker.admit_miss(
                            self.cycle,
                            r.latency,
                            r.level == ServiceLevel::Memory,
                        ) as u64;
                    }
                }
                r.latency as u64
            }
            // Store issue is address generation; the write happens at
            // commit. One cycle to compute the address.
            OpClass::Store => 1,
        }
    }

    /// Squashes every window entry younger than `seq` and queues the
    /// squashed instructions (plus the whole fetch buffer) for replay in
    /// program order.
    fn squash_younger_than(&mut self, seq: u64) {
        // Entries in the ROB younger than the branch, oldest first.
        let mut replayed = std::mem::take(&mut self.squash_scratch);
        replayed.clear();
        for younger in seq + 1..self.next_seq {
            let inst = self.rob[self.slot(younger)].inst;
            if inst.op.is_mem() {
                self.lsq_occupancy -= 1;
            }
            replayed.push(inst);
        }
        // Fetch buffer contents are younger than anything in the ROB.
        replayed.extend(self.fetch_buffer.drain(..));
        // The next sequence numbers will be re-assigned at re-dispatch;
        // pull the replayed instructions before new stream instructions.
        for &inst in replayed.iter().rev() {
            self.replay.push_front(inst);
        }
        self.squash_scratch = replayed;
        // Reuse the squashed sequence numbers for the replayed instructions:
        // the window must stay contiguous in `seq` for O(1) lookup, and
        // dependence distances are relative so re-dispatch at the same seq
        // resolves identically.
        self.next_seq = seq + 1;
        self.redirect_stall = self.config.mispredict_penalty;
        self.ifetch_stall = 0;
        // Squashed sequence numbers are about to be reused, so every
        // subscriber chain, ready entry, and executing entry keyed by seq
        // is suspect: rebuild the event-scheduling state from the surviving
        // window. Squashes are per-mispredict, so this O(window) pass is
        // off the hot path.
        if self.scan == ScanMode::Event {
            self.rebuild_event_state();
        }
    }

    /// Re-derives the ready list, executing list, and subscriber chains
    /// from the window's instruction states alone.
    fn rebuild_event_state(&mut self) {
        self.ready.clear();
        self.executing.clear();
        for seq in self.rob_head..self.next_seq {
            let idx = self.slot(seq);
            self.rob[idx].subs = NO_SUB;
            self.rob[idx].next_sub = NO_SUB;
        }
        for seq in self.rob_head..self.next_seq {
            match self.rob[self.slot(seq)].state {
                InstState::Waiting => self.link_or_ready(seq),
                InstState::Executing { done_at } => self.executing.push((done_at, seq)),
                InstState::Completed => {}
            }
        }
    }

    /// The producer `dist` before `seq` when it is still in the window and
    /// not yet completed — i.e. the dependence actually blocks issue.
    fn unready_producer(&self, seq: u64, dist: u32) -> Option<u64> {
        if dist == 0 {
            return None;
        }
        let producer = seq.checked_sub(dist as u64)?;
        match self.entry(producer) {
            Some(e) if !matches!(e.state, InstState::Completed) => Some(producer),
            _ => None,
        }
    }

    /// Files the waiting entry `seq` for issue: onto the ready list when
    /// both sources are ready, otherwise into the subscriber chain of one
    /// blocking producer (re-checked and re-filed at that producer's
    /// completion).
    fn link_or_ready(&mut self, seq: u64) {
        let idx = self.slot(seq);
        let inst = self.rob[idx].inst;
        let blocker = self
            .unready_producer(seq, inst.src1_dist)
            .or_else(|| self.unready_producer(seq, inst.src2_dist));
        match blocker {
            Some(producer) => {
                let p_idx = self.slot(producer);
                self.rob[idx].next_sub = self.rob[p_idx].subs;
                self.rob[p_idx].subs = seq;
            }
            None => self.ready.push(seq),
        }
    }

    /// Wakes every consumer subscribed to the just-completed `producer`:
    /// each is re-checked and either goes ready or re-subscribes to its
    /// other (still unready) producer.
    fn wake_subscribers(&mut self, producer: u64) {
        let p_idx = self.slot(producer);
        let mut next = std::mem::replace(&mut self.rob[p_idx].subs, NO_SUB);
        while next != NO_SUB {
            let c_idx = self.slot(next);
            let seq = next;
            next = std::mem::replace(&mut self.rob[c_idx].next_sub, NO_SUB);
            debug_assert_eq!(self.rob[c_idx].state, InstState::Waiting);
            self.link_or_ready(seq);
        }
    }

    fn next_instruction(&mut self) -> SynthInst {
        self.replay
            .pop_front()
            .unwrap_or_else(|| self.stream.next_inst())
    }

    fn fetch(&mut self, controls: &PipelineControls, events: &mut CycleEvents) {
        if controls.stall_fetch {
            return;
        }
        if self.redirect_stall > 0 {
            self.redirect_stall -= 1;
            return;
        }
        if self.ifetch_stall > 0 {
            self.ifetch_stall -= 1;
            return;
        }
        let room = self.config.fetch_buffer as usize - self.fetch_buffer.len();
        let n = room.min(self.config.fetch_width as usize);
        if n == 0 {
            return;
        }
        // One I-cache access per fetch group (the group shares a line in
        // this synthetic model; the stream's pc stride decides miss rates).
        let mut fetched = 0;
        let mut icache_checked = false;
        for _ in 0..n {
            let inst = self.next_instruction();
            if !icache_checked {
                icache_checked = true;
                events.l1i_accesses += 1;
                let r = self.caches.access_inst(inst.pc);
                if r.level != ServiceLevel::L1 {
                    if r.level == ServiceLevel::Memory {
                        events.mem_accesses += 1;
                    }
                    events.l2_accesses += 1;
                    // Stall fetch until the line returns; this instruction
                    // still enters the buffer with the line.
                    self.ifetch_stall = r.latency - self.config.l1i.latency;
                }
            }
            self.fetch_buffer.push_back(inst);
            fetched += 1;
            if self.ifetch_stall > 0 {
                break; // the rest of the group waits for the I-miss
            }
        }
        events.fetched = fetched;
    }

    fn dispatch(&mut self, events: &mut CycleEvents) {
        let mut dispatched = 0;
        while dispatched < self.config.dispatch_width
            && self.rob_len() < u64::from(self.config.rob_entries)
        {
            let Some(&inst) = self.fetch_buffer.front() else {
                break;
            };
            if inst.op.is_mem() && self.lsq_occupancy >= self.config.lsq_entries {
                break;
            }
            self.fetch_buffer.pop_front();
            if inst.op.is_mem() {
                self.lsq_occupancy += 1;
            }
            let seq = self.next_seq;
            let idx = self.slot(seq);
            self.rob[idx] = RobEntry {
                seq,
                inst,
                state: InstState::Waiting,
                subs: NO_SUB,
                next_sub: NO_SUB,
            };
            self.next_seq += 1;
            dispatched += 1;
            if self.scan == ScanMode::Event {
                self.link_or_ready(seq);
            }
        }
        events.dispatched = dispatched;
    }

    fn issue(&mut self, controls: &PipelineControls, events: &mut CycleEvents) {
        if controls.stall_issue {
            self.stats.stalled_cycles += 1;
            return;
        }
        let width = controls
            .issue_width_limit
            .map_or(self.config.issue_width, |w| w.min(self.config.issue_width));
        let ports = controls
            .mem_ports_limit
            .map_or(self.config.mem_ports, |p| p.min(self.config.mem_ports));
        let mut picker = IssuePicker {
            usage: FuUsage::default(),
            issued: 0,
            issued_current: 0.0,
            width,
            ports,
            fu: self.config.fu,
            cap: controls.issue_current_cap,
            int_div_free: self.int_div_busy_until <= self.cycle,
            fp_div_free: self.fp_div_busy_until <= self.cycle,
        };
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        match self.scan {
            ScanMode::Event => self.select_from_ready(&mut picker, &mut to_issue),
            ScanMode::FullScan => self.select_by_scan(&mut picker, &mut to_issue),
        }

        for &seq in &to_issue {
            let idx = self.slot(seq);
            let inst = self.rob[idx].inst;
            let latency = self.execution_latency(&inst, events);
            match inst.op {
                OpClass::IntDiv => self.int_div_busy_until = self.cycle + latency,
                OpClass::FpDiv => self.fp_div_busy_until = self.cycle + latency,
                _ => {}
            }
            let done_at = self.cycle + latency;
            let e = &mut self.rob[idx];
            debug_assert_eq!(e.seq, seq);
            e.state = InstState::Executing { done_at };
            events.issued[inst.op.index()] += 1;
            if self.scan == ScanMode::Event {
                self.executing.push((done_at, seq));
            }
        }
        self.issue_scratch = to_issue;
    }

    /// The classic selection: walk the whole window oldest-first, checking
    /// readiness as we go.
    fn select_by_scan(&mut self, picker: &mut IssuePicker, to_issue: &mut Vec<u64>) {
        for seq in self.rob_head..self.next_seq {
            let e = &self.rob[self.slot(seq)];
            if e.state != InstState::Waiting {
                continue;
            }
            if !(self.source_ready(e.seq, e.inst.src1_dist)
                && self.source_ready(e.seq, e.inst.src2_dist))
            {
                continue;
            }
            match picker.consider(e.inst.op) {
                Verdict::Take => to_issue.push(e.seq),
                Verdict::Skip => {}
                Verdict::Stop => break,
            }
        }
    }

    /// Event-driven selection: the ready list holds exactly the waiting
    /// entries whose sources are all complete, so sorting it ascending
    /// reproduces the full scan's oldest-first candidate order.
    fn select_from_ready(&mut self, picker: &mut IssuePicker, to_issue: &mut Vec<u64>) {
        if self.ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        let mut kept = 0usize;
        let mut stopped = false;
        for i in 0..ready.len() {
            let seq = ready[i];
            if stopped {
                ready[kept] = seq;
                kept += 1;
                continue;
            }
            let e = &self.rob[self.slot(seq)];
            debug_assert_eq!(e.seq, seq);
            debug_assert_eq!(e.state, InstState::Waiting);
            match picker.consider(e.inst.op) {
                Verdict::Take => to_issue.push(seq),
                Verdict::Skip => {
                    ready[kept] = seq;
                    kept += 1;
                }
                Verdict::Stop => {
                    ready[kept] = seq;
                    kept += 1;
                    stopped = true;
                }
            }
        }
        ready.truncate(kept);
        self.ready = ready;
    }

    fn writeback(&mut self, events: &mut CycleEvents) {
        let mispredicted_branch = match self.scan {
            ScanMode::Event => self.complete_from_executing(events),
            ScanMode::FullScan => self.complete_by_scan(events),
        };
        if let Some(seq) = mispredicted_branch {
            // The branch resolves: everything younger is wrong-path.
            events.mispredict_redirect = true;
            self.stats.mispredicts += 1;
            // Clear the flag so the replayed world does not re-squash on
            // this same branch (it stays in the window, already resolved).
            let idx = self.slot(seq);
            self.rob[idx].inst.mispredict = false;
            self.squash_younger_than(seq);
        }
    }

    /// The classic completion pass: walk the whole window in order, finish
    /// anything whose latency has elapsed. Returns the oldest branch that
    /// resolved mispredicted this cycle.
    fn complete_by_scan(&mut self, events: &mut CycleEvents) -> Option<u64> {
        let cycle = self.cycle;
        let mut mispredicted_branch: Option<u64> = None;
        let predictor = &mut self.predictor;
        for seq in self.rob_head..self.next_seq {
            let e = &mut self.rob[(seq & self.rob_mask) as usize];
            if let InstState::Executing { done_at } = e.state {
                if done_at <= cycle {
                    e.state = InstState::Completed;
                    events.completed += 1;
                    if e.inst.op == OpClass::Branch {
                        // Resolve: either the stream's profile-driven flag,
                        // or a real predictor against the ground-truth
                        // direction. (Out-of-order resolution scrambles
                        // predictor history slightly, as speculative-update
                        // hardware does.)
                        let mispredicted = match predictor {
                            None => e.inst.mispredict,
                            Some(bp) => {
                                let predicted = bp.predict(e.inst.pc);
                                bp.update(e.inst.pc, e.inst.taken, predicted)
                            }
                        };
                        if mispredicted && mispredicted_branch.is_none() {
                            mispredicted_branch = Some(e.seq);
                        }
                    }
                }
            }
        }
        mispredicted_branch
    }

    /// Event-driven completion: drain the executing list instead of
    /// scanning the window. Entries are processed in ascending `seq` so
    /// predictor updates and the choice of the redirecting branch happen
    /// in window order, exactly as [`Cpu::complete_by_scan`] does.
    fn complete_from_executing(&mut self, events: &mut CycleEvents) -> Option<u64> {
        let cycle = self.cycle;
        let mut completing = std::mem::take(&mut self.completing_scratch);
        completing.clear();
        let mut i = 0usize;
        while i < self.executing.len() {
            if self.executing[i].0 <= cycle {
                completing.push(self.executing.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        completing.sort_unstable();
        let mut mispredicted_branch: Option<u64> = None;
        let predictor = &mut self.predictor;
        for &seq in &completing {
            let e = &mut self.rob[(seq & self.rob_mask) as usize];
            debug_assert_eq!(e.seq, seq);
            e.state = InstState::Completed;
            events.completed += 1;
            if e.inst.op == OpClass::Branch {
                let mispredicted = match predictor {
                    None => e.inst.mispredict,
                    Some(bp) => {
                        let predicted = bp.predict(e.inst.pc);
                        bp.update(e.inst.pc, e.inst.taken, predicted)
                    }
                };
                if mispredicted && mispredicted_branch.is_none() {
                    mispredicted_branch = Some(seq);
                }
            }
        }
        // Wakeups run after every completion above so a consumer whose two
        // producers both finished this cycle is seen ready on its first
        // wake rather than re-subscribing to an already-finished producer.
        for &seq in &completing {
            self.wake_subscribers(seq);
        }
        self.completing_scratch = completing;
        mispredicted_branch
    }

    fn commit(&mut self, events: &mut CycleEvents) {
        let mut committed = 0;
        while committed < self.config.commit_width && self.rob_head < self.next_seq {
            let e = self.rob[self.slot(self.rob_head)];
            if e.state != InstState::Completed {
                break;
            }
            self.rob_head += 1;
            if e.inst.op.is_mem() {
                self.lsq_occupancy -= 1;
                if e.inst.op == OpClass::Store {
                    // The store writes the data cache at commit.
                    let r = self.caches.access_data(e.inst.addr);
                    events.l1d_accesses += 1;
                    if r.level != ServiceLevel::L1 {
                        events.l2_accesses += 1;
                        self.stats.l1d_misses += 1;
                        if r.level == ServiceLevel::Memory {
                            events.mem_accesses += 1;
                            self.stats.l2_misses += 1;
                        }
                    }
                }
            }
            self.stats.committed_by_class[e.inst.op.index()] += 1;
            committed += 1;
        }
        events.committed = committed;
    }

    /// Advances the core by one cycle under the given controls and returns
    /// the cycle's events.
    pub fn tick(&mut self, controls: PipelineControls) -> CycleEvents {
        let mut events = CycleEvents::default();
        // Back-to-front so a stage does not see same-cycle work from the
        // stage before it.
        self.commit(&mut events);
        self.writeback(&mut events);
        self.issue(&controls, &mut events);
        self.dispatch(&mut events);
        self.fetch(&controls, &mut events);
        events.rob_occupancy = self.rob_len() as u32;
        events.phantom = controls.phantom;
        self.cycle += 1;
        self.stats.absorb(&events);
        events
    }

    /// Runs until `n` total instructions have committed, with free controls.
    /// Returns the cycles elapsed during this call.
    pub fn run_until_committed(&mut self, n: u64) -> u64 {
        let start_cycles = self.cycle;
        let target = self.stats.committed + n;
        while self.stats.committed < target {
            self.tick(PipelineControls::free());
        }
        self.cycle - start_cycles
    }
}

/// What the issue-admission logic decided for one ready candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Issue it this cycle.
    Take,
    /// Structural hazard: skip it, keep scanning younger candidates.
    Skip,
    /// Width or damping-cap limit: stop selecting for this cycle.
    Stop,
}

/// The per-cycle issue-admission state — width, functional-unit pools,
/// memory ports, divider occupancy, and pipeline damping's issue-current
/// cap. Both scan modes feed their candidates (oldest first) through the
/// same `consider`, so their admission decisions are identical by
/// construction.
struct IssuePicker {
    usage: FuUsage,
    issued: u32,
    issued_current: f64,
    width: u32,
    ports: u32,
    fu: crate::config::FuConfig,
    cap: Option<f64>,
    int_div_free: bool,
    fp_div_free: bool,
}

impl IssuePicker {
    #[inline]
    fn consider(&mut self, op: OpClass) -> Verdict {
        if self.issued >= self.width {
            return Verdict::Stop;
        }
        // Structural hazards.
        let available = match op {
            OpClass::IntAlu | OpClass::Branch => self.usage.int_alu < self.fu.int_alu,
            OpClass::IntMul => self.usage.int_mul_div < self.fu.int_mul_div,
            OpClass::IntDiv => self.usage.int_mul_div < self.fu.int_mul_div && self.int_div_free,
            OpClass::FpAlu => self.usage.fp_alu < self.fu.fp_alu,
            OpClass::FpMul => self.usage.fp_mul_div < self.fu.fp_mul_div,
            OpClass::FpDiv => self.usage.fp_mul_div < self.fu.fp_mul_div && self.fp_div_free,
            OpClass::Load | OpClass::Store => self.usage.mem_ports < self.ports,
        };
        if !available {
            return Verdict::Skip;
        }
        // Pipeline damping's per-cycle issue-current cap, using the
        // a-priori per-class estimates. At least one instruction always
        // issues: current granularity is per-instruction, so a single
        // op above the cap cannot be subdivided (and must not livelock
        // the machine).
        if let Some(cap) = self.cap {
            let est = apriori_issue_current(op);
            if self.issued_current + est > cap && self.issued > 0 {
                return Verdict::Stop; // damping bounds this cycle's current
            }
            self.issued_current += est;
        }
        match op {
            OpClass::IntAlu | OpClass::Branch => self.usage.int_alu += 1,
            OpClass::IntMul | OpClass::IntDiv => self.usage.int_mul_div += 1,
            OpClass::FpAlu => self.usage.fp_alu += 1,
            OpClass::FpMul | OpClass::FpDiv => self.usage.fp_mul_div += 1,
            OpClass::Load | OpClass::Store => self.usage.mem_ports += 1,
        }
        self.issued += 1;
        Verdict::Take
    }
}

/// The a-priori per-instruction current estimates of pipeline damping \[14\],
/// in amps per issued instruction. The paper expresses estimates in
/// abstract units and scales each unit to the processor configuration; here
/// the unit is calibrated so that full-width mixed issue estimates the
/// machine's full dynamic current range (≈70 A above idle at 8-wide issue),
/// making δ directly comparable to the resonant current variation
/// threshold.
#[inline]
pub fn apriori_issue_current(op: OpClass) -> f64 {
    const UNIT: f64 = 3.0;
    match op {
        OpClass::IntAlu | OpClass::Branch => 2.0 * UNIT,
        OpClass::IntMul | OpClass::IntDiv => 4.0 * UNIT,
        OpClass::FpAlu => 3.0 * UNIT,
        OpClass::FpMul | OpClass::FpDiv => 5.0 * UNIT,
        OpClass::Load | OpClass::Store => 4.0 * UNIT,
    }
}

impl<S: InstructionStream> Cpu<S> {
    /// One-line internal state summary for debugging and tests.
    pub fn debug_state(&self) -> String {
        format!(
            "rob={} fb={} replay={} lsq={} redirect={} ifetch={} committed={}",
            self.rob_len(),
            self.fetch_buffer.len(),
            self.replay.len(),
            self.lsq_occupancy,
            self.redirect_stall,
            self.ifetch_stall,
            self.stats.committed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoopStream;

    fn cpu_with(body: Vec<SynthInst>) -> Cpu<LoopStream> {
        Cpu::new(CpuConfig::isca04_table1(), LoopStream::new(body))
    }

    fn alu_loop() -> LoopStream {
        LoopStream::new(vec![SynthInst::int_alu()])
    }

    #[test]
    fn with_caches_starts_from_the_given_contents() {
        let config = CpuConfig::isca04_table1();
        let mut caches = CacheHierarchy::new(&config);
        caches.access_data(0x1000);
        caches.reset_stats();
        let cpu = Cpu::with_caches(config, alu_loop(), caches.clone());
        assert!(cpu.caches() == &caches);
        assert!(cpu.caches().l1d().contains(0x1000));
    }

    #[test]
    #[should_panic(expected = "the hierarchy's L2 is")]
    fn with_caches_rejects_a_hierarchy_of_another_geometry() {
        let table1 = CpuConfig::isca04_table1();
        let mut other = table1;
        other.l2.size_bytes = 256 * 1024;
        let _ = Cpu::with_caches(table1, alu_loop(), CacheHierarchy::new(&other));
    }

    #[test]
    #[should_panic(expected = "the hierarchy's memory latency is 120 cycles")]
    fn with_caches_rejects_a_hierarchy_of_another_memory_latency() {
        let table1 = CpuConfig::isca04_table1();
        let other = CpuConfig {
            memory_latency: 120,
            ..table1
        };
        let _ = Cpu::with_caches(table1, alu_loop(), CacheHierarchy::new(&other));
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            ipc > 7.0,
            "independent ALU stream should approach width 8, got {ipc}"
        );
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        // Every instruction depends on its predecessor: IPC ≈ 1.
        let mut cpu = cpu_with(vec![SynthInst::int_alu().with_deps(1, 0)]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            (0.8..=1.1).contains(&ipc),
            "serial chain IPC should be ~1, got {ipc}"
        );
    }

    #[test]
    fn issue_width_limit_caps_throughput() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::first_level(4, 1));
        }
        let ipc = cpu.stats().ipc();
        assert!(ipc < 4.2, "issue limited to 4, got IPC {ipc}");
        assert!(ipc > 3.0, "should still sustain near 4, got {ipc}");
    }

    #[test]
    fn full_stall_commits_nothing_after_drain() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..100 {
            cpu.tick(PipelineControls::free());
        }
        // Let in-flight work drain, then verify no commits under stall.
        for _ in 0..20 {
            cpu.tick(PipelineControls::second_level());
        }
        let committed_before = cpu.stats().committed;
        for _ in 0..50 {
            cpu.tick(PipelineControls::second_level());
        }
        assert_eq!(
            cpu.stats().committed,
            committed_before,
            "stalled core must not commit"
        );
    }

    #[test]
    fn mem_port_limit_bounds_load_throughput() {
        let body: Vec<SynthInst> = (0..8).map(|k| SynthInst::load(64 * k, 0)).collect();
        let mut warm = cpu_with(body.clone());
        for _ in 0..3_000 {
            warm.tick(PipelineControls::free());
        }
        let free_ipc = warm.stats().ipc();

        let mut limited = cpu_with(body);
        for _ in 0..3_000 {
            limited.tick(PipelineControls {
                mem_ports_limit: Some(1),
                ..PipelineControls::default()
            });
        }
        let limited_ipc = limited.stats().ipc();
        assert!(
            limited_ipc < free_ipc * 0.7,
            "1 port ({limited_ipc}) should be well below 2 ports ({free_ipc})"
        );
        assert!(
            limited_ipc <= 1.05,
            "1 port caps load IPC at ~1, got {limited_ipc}"
        );
    }

    #[test]
    fn l2_missing_pointer_chase_is_memory_bound() {
        // A dependent load chain over a huge working set: each load misses
        // to memory (94 cycles), IPC ≈ 2/94.
        let mut n = 0u64;
        let stream = move || {
            n += 1;
            // Stride of 1 MiB over a 4 GiB region defeats both caches.
            let inst = SynthInst::load((n * (1 << 20)) % (1 << 32), 2);
            if n.is_multiple_of(2) {
                SynthInst::int_alu().with_deps(1, 0)
            } else {
                inst
            }
        };
        let mut cpu = Cpu::new(CpuConfig::isca04_table1(), stream);
        for _ in 0..20_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(ipc < 0.25, "memory-bound chain should crawl, got IPC {ipc}");
        assert!(cpu.stats().l2_misses > 100, "expected many L2 misses");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let no_mispredict = vec![SynthInst::int_alu(), SynthInst::branch(false)];
        let mut a = cpu_with(no_mispredict);
        for _ in 0..5_000 {
            a.tick(PipelineControls::free());
        }

        // Mispredict roughly every 16 instructions.
        let mut body: Vec<SynthInst> = vec![SynthInst::int_alu(); 15];
        body.push(SynthInst::branch(true));
        let mut b = cpu_with(body);
        for _ in 0..5_000 {
            b.tick(PipelineControls::free());
        }
        assert!(
            b.stats().mispredicts > 50,
            "mispredicts = {}",
            b.stats().mispredicts
        );
        assert!(
            b.stats().ipc() < a.stats().ipc() * 0.8,
            "mispredicting stream IPC {} should trail clean stream {}",
            b.stats().ipc(),
            a.stats().ipc()
        );
    }

    #[test]
    fn squash_replays_correct_path() {
        // After a squash the same (replayed) instructions must eventually
        // commit: total commits advance beyond the branch.
        let mut body: Vec<SynthInst> = vec![SynthInst::int_alu(); 3];
        body.push(SynthInst::branch(true));
        let mut cpu = cpu_with(body);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        assert!(
            cpu.stats().committed > 500,
            "committed = {}",
            cpu.stats().committed
        );
        // Branches commit too.
        assert!(cpu.stats().committed_by_class[OpClass::Branch.index()] > 100);
    }

    #[test]
    fn run_until_committed_reaches_target() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu(); 4]);
        let cycles = cpu.run_until_committed(10_000);
        assert!(cpu.stats().committed >= 10_000);
        assert!(cycles > 0);
    }

    #[test]
    fn rob_occupancy_reported_and_bounded() {
        let mut cpu = cpu_with(vec![SynthInst::load(1 << 30, 1).with_deps(1, 0)]);
        let mut max_occ = 0;
        for _ in 0..2_000 {
            let ev = cpu.tick(PipelineControls::free());
            max_occ = max_occ.max(ev.rob_occupancy);
        }
        assert!(max_occ <= 128);
        assert!(
            max_occ > 32,
            "slow loads should back up the window, got {max_occ}"
        );
    }

    #[test]
    fn phantom_level_is_echoed_in_events() {
        let mut cpu = cpu_with(vec![SynthInst::int_alu()]);
        let ev = cpu.tick(PipelineControls::second_level());
        assert_eq!(ev.phantom, Some(crate::control::PhantomLevel::Medium));
    }

    #[test]
    fn divider_is_unpipelined() {
        // Back-to-back independent divides cannot exceed 1 per 12 cycles
        // per 2 units.
        let body = vec![SynthInst {
            op: OpClass::IntDiv,
            ..SynthInst::int_alu()
        }];
        let mut cpu = cpu_with(body);
        for _ in 0..2_000 {
            cpu.tick(PipelineControls::free());
        }
        let ipc = cpu.stats().ipc();
        assert!(
            ipc < 0.30,
            "unpipelined divides should throttle IPC, got {ipc}"
        );
    }

    #[test]
    fn event_and_full_scan_schedulers_are_identical() {
        // A stream mixing dependences, loads that miss, divides, and
        // mispredicting branches, under controls that exercise width
        // limits, port limits, stalls, and the damping cap: both
        // schedulers must agree cycle-for-cycle. Besides Table 1's
        // 128-entry window (a power of two), windows of 96 and 200 entries
        // under the predictor branch model exercise the ROB ring's capacity
        // rounding, its wrap, and squashes across the wrap.
        schedulers_agree(CpuConfig::isca04_table1());
        for rob_entries in [96, 200] {
            let mut config = CpuConfig::isca04_table1();
            config.rob_entries = rob_entries;
            config.branch_model = BranchModel::Predictor {
                kind: crate::branch::PredictorKind::Bimodal,
                entries: 64,
            };
            schedulers_agree(config);
        }
    }

    fn schedulers_agree(config: CpuConfig) {
        let mut n = 0u64;
        let stream = move || {
            n += 1;
            match n % 11 {
                0 => SynthInst::branch(n.is_multiple_of(33)).with_taken(n % 7 < 3),
                1 | 2 => SynthInst::load((n * (1 << 14)) % (1 << 28), (n % 5) as u32),
                3 => SynthInst {
                    op: OpClass::IntDiv,
                    ..SynthInst::int_alu()
                },
                4..=6 => SynthInst::int_alu().with_deps((n % 7) as u32, (n % 3) as u32),
                7 => SynthInst::load(64 * n, 1),
                _ => SynthInst::int_alu(),
            }
        };
        let controls = |cycle: u64| match cycle % 97 {
            0..=9 => PipelineControls::first_level(4, 1),
            10..=12 => PipelineControls::second_level(),
            13..=20 => PipelineControls {
                issue_current_cap: Some(14.0),
                ..PipelineControls::default()
            },
            _ => PipelineControls::free(),
        };
        let mut event = Cpu::with_scan_mode(config, stream, ScanMode::Event);
        let mut scan = Cpu::with_scan_mode(config, stream, ScanMode::FullScan);
        let mut max_occupancy = 0;
        for cycle in 0..30_000 {
            let a = event.tick(controls(cycle));
            let b = scan.tick(controls(cycle));
            assert_eq!(a, b, "cycle {cycle} events diverged");
            max_occupancy = max_occupancy.max(a.rob_occupancy);
        }
        assert_eq!(event.stats(), scan.stats());
        assert!(
            event.stats().committed > 10_000,
            "stream must make progress"
        );
        assert!(event.stats().mispredicts > 10, "squashes must be exercised");
        assert_eq!(
            max_occupancy, config.rob_entries,
            "the window must fill to its configured size, not the ring's"
        );
    }

    #[test]
    fn damping_current_cap_throttles_issue() {
        let mut free = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            free.tick(PipelineControls::free());
        }
        let mut capped = cpu_with(vec![SynthInst::int_alu(); 8]);
        for _ in 0..2_000 {
            capped.tick(PipelineControls {
                issue_current_cap: Some(2.0), // two ALU ops' worth
                ..PipelineControls::default()
            });
        }
        assert!(
            capped.stats().ipc() < free.stats().ipc() * 0.5,
            "cap {} vs free {}",
            capped.stats().ipc(),
            free.stats().ipc()
        );
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use crate::branch::PredictorKind;
    use crate::isa::LoopStream;
    use crate::memsys::MemorySystemConfig;

    #[test]
    fn predictor_model_learns_biased_branches() {
        // All branches at one PC, always taken: a gshare predictor learns
        // them, so mispredicts stay rare even with mispredict flags unset.
        let mut config = CpuConfig::isca04_table1();
        config.branch_model = BranchModel::Predictor {
            kind: PredictorKind::Gshare { history_bits: 8 },
            entries: 4096,
        };
        let body = vec![
            SynthInst::int_alu().at_pc(0x100),
            SynthInst::branch(false).with_taken(true).at_pc(0x104),
        ];
        let mut cpu = Cpu::new(config, LoopStream::new(body));
        for _ in 0..3_000 {
            cpu.tick(PipelineControls::free());
        }
        let rate = cpu.stats().mispredicts as f64
            / cpu.stats().committed_by_class[OpClass::Branch.index()].max(1) as f64;
        assert!(
            rate < 0.05,
            "biased branch must be learned, mispredict rate {rate}"
        );
    }

    #[test]
    fn predictor_model_squashes_on_hard_branches() {
        // Branch directions alternate pseudo-randomly with a bimodal
        // predictor: mispredicts (and their squashes) must occur.
        let mut config = CpuConfig::isca04_table1();
        config.branch_model = BranchModel::Predictor {
            kind: PredictorKind::Bimodal,
            entries: 64,
        };
        let mut flip = 0u64;
        let stream = move || {
            flip = flip.wrapping_mul(6364136223846793005).wrapping_add(1);
            SynthInst::branch(false)
                .with_taken(flip >> 63 == 1)
                .at_pc(0x200)
        };
        let mut cpu = Cpu::new(config, stream);
        for _ in 0..3_000 {
            cpu.tick(PipelineControls::free());
        }
        assert!(
            cpu.stats().mispredicts > 50,
            "got {} mispredicts",
            cpu.stats().mispredicts
        );
        assert!(
            cpu.stats().committed > 300,
            "machine must keep making progress"
        );
    }

    #[test]
    fn mshr_limit_slows_memory_parallel_loads() {
        // Independent memory-missing loads: unlimited MSHRs overlap them;
        // a single MSHR serializes them.
        let body: Vec<SynthInst> = (0..8).map(|k| SynthInst::load(1 << (28 + k), 0)).collect();
        let run = |memory_system: Option<MemorySystemConfig>| -> f64 {
            let mut config = CpuConfig::isca04_table1();
            config.memory_system = memory_system;
            let mut n = 0u64;
            let stream = move || {
                n += 1;
                // 1 MiB stride over 4 GiB: every load misses to memory.
                SynthInst::load((n * (1 << 20)) % (1 << 32), 0)
            };
            let mut cpu = Cpu::new(config, stream);
            for _ in 0..20_000 {
                cpu.tick(PipelineControls::free());
            }
            cpu.stats().ipc()
        };
        let unlimited = run(None);
        let one_mshr = run(Some(MemorySystemConfig {
            mshrs: 1,
            mem_interval: 1,
        }));
        assert!(
            one_mshr < unlimited * 0.25,
            "1 MSHR ({one_mshr}) must serialize far below unlimited ({unlimited})"
        );
        let _ = body;
    }

    #[test]
    fn bandwidth_limit_throttles_memory_streams() {
        let run = |interval: u32| -> f64 {
            let mut config = CpuConfig::isca04_table1();
            config.memory_system = Some(MemorySystemConfig {
                mshrs: 64,
                mem_interval: interval,
            });
            let mut n = 0u64;
            let stream = move || {
                n += 1;
                SynthInst::load((n * (1 << 20)) % (1 << 32), 0)
            };
            let mut cpu = Cpu::new(config, stream);
            for _ in 0..20_000 {
                cpu.tick(PipelineControls::free());
            }
            cpu.stats().ipc()
        };
        let fast = run(1);
        let slow = run(50);
        assert!(slow < fast * 0.6, "slow channel {slow} vs fast {fast}");
    }

    #[test]
    fn default_config_is_unaffected_by_new_features() {
        // Profile model + no memory system: identical machine as before.
        let config = CpuConfig::isca04_table1();
        assert_eq!(config.branch_model, BranchModel::Profile);
        assert!(config.memory_system.is_none());
    }
}
