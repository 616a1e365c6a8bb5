//! Pipeline damping (Powell & Vijaykumar, ISCA'03) — reference \[14\] of the
//! paper.
//!
//! Damping bounds the worst-case variation of *estimated* chip current over
//! a resonant period to δ, using a-priori per-instruction-class current
//! estimates at issue. Our implementation enforces, each cycle, that the
//! estimated issued current keeps the max−min spread of the trailing
//! half-period window within δ: the upper bound (window min + δ) throttles
//! issue (the frontend-damping issue constraint), and the lower bound
//! (window max − δ) pads with phantom operations. Current may still drift,
//! but no faster than δ per half period — variation at resonant timescales
//! is bounded. As the paper notes, damping addresses only the resonant
//! frequency; covering the whole band requires tightening δ, which is how
//! Table 5's δ = 1, 0.5, 0.25 sweep arises.

use cpusim::{apriori_issue_current, CycleEvents, OpClass, PhantomLevel, PipelineControls};
use rlc::units::Amps;
use std::collections::VecDeque;

/// Configuration of pipeline damping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampingConfig {
    /// Worst-case allowed current variation over a resonant period (δ).
    pub delta: Amps,
    /// The damping window: half the resonant period (50 cycles in Table 1).
    pub window: u32,
    /// Idle-floor current used when converting the window mean to an
    /// absolute phantom floor (the chip's idle current, 35 A).
    pub idle_current: Amps,
}

impl DampingConfig {
    /// Damping at the paper's Table 1 machine with δ expressed relative to
    /// the 32 A resonant current variation threshold (Table 5 uses 1, 0.5,
    /// and 0.25).
    pub fn isca04_table5(delta_relative: f64) -> Self {
        Self {
            delta: Amps::new(32.0 * delta_relative),
            window: 50,
            idle_current: Amps::new(35.0),
        }
    }
}

/// Cycles over which the raw per-cycle estimate is boxcar-smoothed before
/// entering the damping window. Damping targets variation at *resonant*
/// timescales (~100 cycles); single-cycle issue bubbles are content at
/// clock-rate frequencies that the supply absorbs, and reacting to them
/// would throttle far beyond the technique's intent.
const SMOOTH: usize = 16;

/// The pipeline-damping controller. It watches the *issued* instruction
/// stream (via [`CycleEvents`]) to maintain its estimated-current window,
/// and emits per-cycle issue-current caps and phantom floors.
#[derive(Debug, Clone)]
pub struct PipelineDamping {
    config: DampingConfig,
    /// Raw estimates of the last [`SMOOTH`] cycles (pre-filter).
    recent: VecDeque<f64>,
    /// Smoothed estimated current for each of the last `window` cycles.
    history: VecDeque<f64>,
    throttled_cycles: u64,
    padded_cycles: u64,
}

impl PipelineDamping {
    /// Creates a damping controller.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive δ or a zero window.
    pub fn new(config: DampingConfig) -> Self {
        assert!(config.delta.amps() > 0.0, "delta must be positive");
        assert!(config.window > 0, "damping window must be nonzero");
        Self {
            recent: VecDeque::with_capacity(SMOOTH + 1),
            history: VecDeque::with_capacity(super::reserved_slots(config.window)),
            config,
            throttled_cycles: 0,
            padded_cycles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DampingConfig {
        &self.config
    }

    /// Cycles in which the issue cap was binding (issue was throttled).
    pub fn throttled_cycles(&self) -> u64 {
        self.throttled_cycles
    }

    /// Cycles in which phantom padding was required.
    pub fn padded_cycles(&self) -> u64 {
        self.padded_cycles
    }

    /// The a-priori estimated current of the instructions issued in `ev`.
    pub fn estimated_issue_current(ev: &CycleEvents) -> f64 {
        OpClass::ALL
            .iter()
            .map(|&op| ev.issued_of(op) as f64 * apriori_issue_current(op))
            .sum()
    }

    /// Computes the controls for the *next* cycle from the events of the
    /// cycle just completed.
    pub fn tick(&mut self, ev: &CycleEvents) -> PipelineControls {
        let issued = Self::estimated_issue_current(ev);
        self.recent.push_back(issued);
        if self.recent.len() > SMOOTH {
            self.recent.pop_front();
        }
        let smoothed = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
        self.history.push_back(smoothed);
        if self.history.len() > self.config.window as usize {
            self.history.pop_front();
        }
        if self.history.len() < self.config.window as usize {
            // Window not yet full ("always-on" damping still needs one
            // window of warmup before its bounds are meaningful).
            return PipelineControls::free();
        }
        let w_min = self.history.iter().cloned().fold(f64::MAX, f64::min);
        let w_max = self.history.iter().cloned().fold(f64::MIN, f64::max);
        let delta = self.config.delta.amps();
        // Keep the window's spread within δ; when the window itself already
        // exceeds δ (transient), at least do not widen it further. The
        // fall-side bound is looser (2δ): resonant build-up needs repeated
        // *rises*, which the cap bounds tightly, while phantom-padding every
        // stall would burn energy out of proportion to its noise benefit.
        let cap = (w_min + delta).max(w_max - delta);
        let floor = (w_max - 2.0 * delta).max(0.0);

        if smoothed > cap {
            self.throttled_cycles += 1;
        }
        let mut controls = PipelineControls {
            issue_current_cap: Some(cap),
            ..PipelineControls::default()
        };
        if smoothed < floor {
            self.padded_cycles += 1;
            // Pad with phantoms up to the floor: the floor is estimated
            // dynamic issue current (calibrated in chip amps); the absolute
            // chip floor adds the idle current.
            let target = (self.config.idle_current.amps() + floor).round();
            controls.phantom = Some(PhantomLevel::Floor(target.clamp(0.0, 255.0) as u8));
        }
        controls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_with_issue(int_alu: u32) -> CycleEvents {
        let mut ev = CycleEvents::default();
        ev.issued[OpClass::IntAlu.index()] = int_alu;
        ev
    }

    #[test]
    fn steady_issue_is_unthrottled() {
        let mut d = PipelineDamping::new(DampingConfig::isca04_table5(1.0));
        for _ in 0..500 {
            let c = d.tick(&events_with_issue(4));
            if c.issue_current_cap.is_some() {
                // Steady 16 A of estimated issue: window spread is 0, so
                // cap = 16 + 32 and floor = 0: neither binds.
                assert!(c.phantom.is_none());
            }
        }
        assert_eq!(d.throttled_cycles(), 0);
        assert_eq!(d.padded_cycles(), 0);
    }

    #[test]
    fn estimated_current_uses_apriori_table() {
        let mut ev = CycleEvents::default();
        ev.issued[OpClass::IntAlu.index()] = 2; // 2 × 6.0 A
        ev.issued[OpClass::Load.index()] = 1; // 12.0 A
        ev.issued[OpClass::FpMul.index()] = 1; // 15.0 A
        let est = PipelineDamping::estimated_issue_current(&ev);
        assert!((est - 39.0).abs() < 1e-12, "estimate = {est}");
    }

    #[test]
    fn burst_after_idle_is_throttled() {
        let mut d = PipelineDamping::new(DampingConfig::isca04_table5(0.25));
        // 50 idle cycles, then a burst: the cap binds.
        for _ in 0..60 {
            let _ = d.tick(&CycleEvents::default());
        }
        // A sustained burst: the smoothed estimate rises past the cap.
        let mut c = d.tick(&events_with_issue(8));
        for _ in 0..SMOOTH {
            c = d.tick(&events_with_issue(8));
        }
        assert!(c.issue_current_cap.expect("window warm") < 48.0);
        assert!(d.throttled_cycles() >= 1);
    }

    #[test]
    fn idle_after_burst_is_padded() {
        let mut d = PipelineDamping::new(DampingConfig::isca04_table5(0.25));
        for _ in 0..60 {
            let _ = d.tick(&events_with_issue(8)); // steady 8 A
        }
        // A sustained idle stretch: the smoothed estimate falls below the
        // fall-side floor.
        let mut c = d.tick(&CycleEvents::default());
        for _ in 0..SMOOTH {
            c = d.tick(&CycleEvents::default());
        }
        assert!(
            matches!(c.phantom, Some(PhantomLevel::Floor(_))),
            "drop below floor must phantom-pad, got {c:?}"
        );
        assert!(d.padded_cycles() >= 1);
    }

    #[test]
    fn tighter_delta_throttles_more() {
        let run = |rel: f64| -> u64 {
            let mut d = PipelineDamping::new(DampingConfig::isca04_table5(rel));
            for c in 0..2000u64 {
                // Alternating 50-cycle bursts and idles (resonant shape).
                let ev = if (c / 50) % 2 == 0 {
                    events_with_issue(8)
                } else {
                    CycleEvents::default()
                };
                let _ = d.tick(&ev);
            }
            d.throttled_cycles() + d.padded_cycles()
        };
        let loose = run(1.0);
        let tight = run(0.25);
        assert!(
            tight > loose,
            "tight δ ({tight}) must bind more than loose ({loose})"
        );
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn zero_delta_panics() {
        let _ = PipelineDamping::new(DampingConfig {
            delta: Amps::new(0.0),
            window: 50,
            idle_current: Amps::new(35.0),
        });
    }
}
