//! Resonant-event identification and repetition counting
//! (Sections 3.1.1–3.1.3).
//!
//! Each cycle, the quarter-period adders are compared against `M·T/8`; a
//! crossing flags a **resonant event** of high-to-low or low-to-high
//! polarity, recorded one bit per cycle in the high-low / low-high history
//! shift registers. When a *new* event is detected (the first cycle of a
//! run — events of the same polarity in consecutive cycles count once), the
//! registers are probed at all half-period offsets in the resonance band,
//! chaining alternating-polarity events backward to produce the **resonant
//! event count**.

use crate::config::TuningConfig;
use crate::detector::history::CurrentHistory;

/// The polarity of a resonant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Current fell by more than the threshold over a half period.
    HighLow,
    /// Current rose by more than the threshold over a half period.
    LowHigh,
}

impl Polarity {
    /// The opposite polarity.
    pub fn opposite(self) -> Self {
        match self {
            Polarity::HighLow => Polarity::LowHigh,
            Polarity::LowHigh => Polarity::HighLow,
        }
    }
}

/// A newly detected resonant event together with its repetition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResonantEvent {
    /// Polarity of the new event.
    pub polarity: Polarity,
    /// The resonant event count: this event plus the chain of
    /// alternating-polarity events at half-period spacings behind it.
    pub count: u32,
}

/// One polarity's event-history shift register (one bit per cycle).
#[derive(Debug, Clone)]
struct BitHistory {
    bits: Vec<bool>,
    head: usize, // position of the *current* cycle's bit
}

impl BitHistory {
    fn new(len: usize) -> Self {
        Self {
            bits: vec![false; len.max(8)],
            head: 0,
        }
    }

    /// Shift in an empty bit for the new cycle.
    fn advance(&mut self) {
        self.head += 1;
        if self.head == self.bits.len() {
            self.head = 0;
        }
        self.bits[self.head] = false;
    }

    fn set_current(&mut self) {
        self.bits[self.head] = true;
    }

    /// The bit `offset` cycles ago (0 = current cycle).
    fn get(&self, offset: usize) -> bool {
        if offset >= self.bits.len() {
            return false;
        }
        let n = self.bits.len();
        self.bits[(self.head + n - offset) % n]
    }

    /// Any bit set in `[from, to]` cycles ago? Returns the smallest such
    /// offset.
    fn first_in(&self, from: usize, to: usize) -> Option<usize> {
        (from..=to).find(|&o| self.get(o))
    }
}

/// Every quarter period's event threshold `M·T/8`, in band order (the
/// order of [`CurrentHistory::quarter_diffs`]).
pub(crate) fn band_thresholds(config: &TuningConfig) -> Vec<f64> {
    config
        .quarter_periods()
        .map(|q| config.event_threshold(q))
        .collect()
}

/// The resonant-behavior detector: current history + band-wide event
/// identification + repetition counting.
///
/// Feed it one whole-amp current sample per cycle with
/// [`EventDetector::observe`]; it returns `Some(ResonantEvent)` on the first
/// cycle of each newly detected event run, with the current resonant event
/// count.
#[derive(Debug, Clone)]
pub struct EventDetector {
    config: TuningConfig,
    history: CurrentHistory,
    /// `M·T/8` per quarter period, in band order: built once by
    /// [`band_thresholds`], so each has the bits
    /// [`TuningConfig::event_threshold`] gives.
    thresholds: Vec<f64>,
    high_low: BitHistory,
    low_high: BitHistory,
    events_detected: u64,
}

impl EventDetector {
    /// Creates a detector for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TuningConfig) -> Self {
        config.validate();
        let q = config.quarter_periods();
        let len = config.history_length();
        Self {
            history: CurrentHistory::new(*q.start(), *q.end()),
            thresholds: band_thresholds(&config),
            high_low: BitHistory::new(len),
            low_high: BitHistory::new(len),
            config,
            events_detected: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TuningConfig {
        &self.config
    }

    /// Total new (deduplicated) events detected so far.
    pub fn events_detected(&self) -> u64 {
        self.events_detected
    }

    /// Observes one cycle's current (whole amps) and reports a newly
    /// detected resonant event, if any, with its repetition count.
    pub fn observe(&mut self, whole_amps: i64) -> Option<ResonantEvent> {
        self.history.push(whole_amps);
        self.high_low.advance();
        self.low_high.advance();
        if !self.history.warm() {
            return None;
        }

        // Identify: any quarter period whose |recent − older| ≥ M·T/8.
        let mut rose = false;
        let mut fell = false;
        for (diff, &thr) in self.history.quarter_diffs().zip(&self.thresholds) {
            if diff as f64 >= thr {
                rose = true;
            } else if (diff as f64) <= -thr {
                fell = true;
            }
        }
        // Record this cycle's bits (both can fire at different periods; the
        // dominant, first-detected polarity wins for counting).
        let polarity = match (fell, rose) {
            (true, _) => {
                self.high_low.set_current();
                if rose {
                    self.low_high.set_current();
                }
                Polarity::HighLow
            }
            (false, true) => {
                self.low_high.set_current();
                Polarity::LowHigh
            }
            (false, false) => return None,
        };

        // Dedup: same polarity in the immediately preceding cycle means this
        // is a continuation of the same event run, not a new event.
        let register = match polarity {
            Polarity::HighLow => &self.high_low,
            Polarity::LowHigh => &self.low_high,
        };
        if register.get(1) {
            return None;
        }
        self.events_detected += 1;

        // Count: chain alternating polarities backward at half-period
        // offsets anywhere in the band.
        let h_min = *self.config.half_periods().start() as usize;
        let h_max = *self.config.half_periods().end() as usize;
        let mut count = 1u32;
        let mut look_polarity = polarity.opposite();
        let mut base = 0usize;
        while count < self.config.max_repetition_tolerance + 4 {
            let register = match look_polarity {
                Polarity::HighLow => &self.high_low,
                Polarity::LowHigh => &self.low_high,
            };
            match register.first_in(base + h_min, base + h_max) {
                Some(offset) => {
                    count += 1;
                    look_polarity = look_polarity.opposite();
                    base = offset;
                }
                None => break,
            }
        }
        Some(ResonantEvent { polarity, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> EventDetector {
        EventDetector::new(TuningConfig::isca04_table1(100))
    }

    /// Feeds a square wave of the given peak-to-peak amplitude and period,
    /// returning the maximum event count seen.
    fn drive_square(det: &mut EventDetector, p2p: i64, period: u64, cycles: u64) -> u32 {
        let mid = 70i64;
        let mut max_count = 0;
        for c in 0..cycles {
            let i = if (c / (period / 2)).is_multiple_of(2) {
                mid + p2p / 2
            } else {
                mid - p2p / 2
            };
            if let Some(ev) = det.observe(i) {
                max_count = max_count.max(ev.count);
            }
        }
        max_count
    }

    #[test]
    fn constant_current_produces_no_events() {
        let mut det = detector();
        for _ in 0..2000 {
            assert!(det.observe(70).is_none());
        }
        assert_eq!(det.events_detected(), 0);
    }

    #[test]
    fn resonant_square_wave_counts_up() {
        let mut det = detector();
        let max = drive_square(&mut det, 40, 100, 1000);
        assert!(
            max >= 4,
            "sustained resonant wave should reach the tolerance, got {max}"
        );
        assert!(det.events_detected() >= 8);
    }

    #[test]
    fn small_variations_are_ignored() {
        // For a square wave the quarter-sum difference is X·T/4, so the
        // M·T/8 rule fires at X = M/2 = 16 A; 12 A stays below it.
        let mut det = detector();
        let max = drive_square(&mut det, 12, 100, 4000);
        assert_eq!(max, 0, "sub-threshold variations must not register");
    }

    #[test]
    fn square_wave_detection_threshold_is_half_m() {
        // Boundary check of the M·T/8 rule for square shapes.
        let mut below = detector();
        assert_eq!(drive_square(&mut below, 14, 100, 2000), 0);
        let mut above = detector();
        assert!(drive_square(&mut above, 20, 100, 2000) > 0);
    }

    #[test]
    fn off_band_variations_are_ignored() {
        // A 40 A wave at a 24-cycle period: its quarter period (6) is far
        // below the band's adders (21–29) and the in-band quarter sums of a
        // fast wave average out.
        let mut det = detector();
        let max = drive_square(&mut det, 40, 24, 4000);
        assert_eq!(
            max, 0,
            "off-band variations must not register, got count {max}"
        );
    }

    #[test]
    fn band_edge_periods_are_detected() {
        for period in [84u64, 100, 118] {
            let mut det = detector();
            let max = drive_square(&mut det, 40, period, 1200);
            assert!(
                max >= 3,
                "period {period} should be detected in-band, got {max}"
            );
        }
    }

    #[test]
    fn isolated_step_counts_one_ish() {
        // A single step change is one event (maybe two as the wavefront
        // passes both window halves) but no sustained chain.
        let mut det = detector();
        let mut max_count = 0;
        for c in 0..1500u64 {
            let i = if c < 700 { 50 } else { 90 };
            if let Some(ev) = det.observe(i) {
                max_count = max_count.max(ev.count);
            }
        }
        assert!(
            max_count <= 2,
            "isolated step must not chain, got {max_count}"
        );
    }

    #[test]
    fn alternating_polarities_chain() {
        let mut det = detector();
        let mut polarities = Vec::new();
        for c in 0..600u64 {
            let i = if (c / 50) % 2 == 0 { 90 } else { 50 };
            if let Some(ev) = det.observe(i) {
                polarities.push(ev.polarity);
            }
        }
        assert!(polarities.len() >= 6);
        // Consecutive new events alternate polarity.
        for w in polarities.windows(2) {
            assert_eq!(w[0].opposite(), w[1], "polarities must alternate");
        }
    }

    #[test]
    fn count_decreases_after_wave_stops() {
        let mut det = detector();
        // Drive resonance, then go quiet, then a lone step: its count must
        // be small because old events left the history registers.
        let _ = drive_square(&mut det, 40, 100, 800);
        for _ in 0..1500 {
            let _ = det.observe(70);
        }
        let mut last = 0;
        for c in 0..200u64 {
            let i = if c < 50 { 70 } else { 40 };
            if let Some(ev) = det.observe(i) {
                last = last.max(ev.count);
            }
        }
        assert!(last <= 2, "stale events must age out, got count {last}");
    }

    #[test]
    fn polarity_opposite_is_involutive() {
        assert_eq!(Polarity::HighLow.opposite(), Polarity::LowHigh);
        assert_eq!(Polarity::LowHigh.opposite().opposite(), Polarity::LowHigh);
    }

    #[test]
    fn whole_amp_quantization_is_sufficient() {
        // Same wave ±0.4 A of noise quantized to whole amps: detection is
        // unaffected (Section 5.1.2's precision claim).
        let mut det = detector();
        let mut max_count = 0;
        for c in 0..1000u64 {
            let base = if (c / 50) % 2 == 0 { 90.0 } else { 50.0 };
            let noisy = base + 0.4 * ((c as f64 * 0.7).sin());
            if let Some(ev) = det.observe(noisy.round() as i64) {
                max_count = max_count.max(ev.count);
            }
        }
        assert!(
            max_count >= 4,
            "quantized detection should still chain, got {max_count}"
        );
    }
}
