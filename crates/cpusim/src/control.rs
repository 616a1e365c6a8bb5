//! External per-cycle pipeline controls.
//!
//! Every inductive-noise technique in the paper ultimately acts through a
//! small set of knobs: reducing issue width and memory ports (resonance
//! tuning's first-level response), stalling fetch/issue, and "issuing"
//! phantom operations that consume current but do no work (the second-level
//! response of resonance tuning, the phantom-fire response of \[10\], and the
//! padding of pipeline damping \[14\]). [`PipelineControls`] is the interface
//! those controllers use; the CPU reads it at the start of each cycle.

/// The activity level phantom operations maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhantomLevel {
    /// Medium current (resonance tuning's second-level response: stall while
    /// holding the chip at a mid current so the stall itself does not create
    /// a resonant swing).
    Medium,
    /// High current (the response of \[10\] when supply voltage is too *high*:
    /// fire the L1 caches and functional units to pull voltage down).
    High,
    /// Hold chip current at no less than the given whole-amp level (pipeline
    /// damping's phantom padding when real issue falls short of its window
    /// floor).
    Floor(u8),
}

/// Per-cycle control inputs to the pipeline. `Default` is "run free".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineControls {
    /// Upper bound on instructions issued this cycle (`None` = configured
    /// width). Resonance tuning's first-level response sets 4.
    pub issue_width_limit: Option<u32>,
    /// Upper bound on data-cache ports usable this cycle (`None` =
    /// configured ports). Resonance tuning's first-level response sets 1.
    pub mem_ports_limit: Option<u32>,
    /// Stall instruction issue entirely this cycle.
    pub stall_issue: bool,
    /// Stall instruction fetch this cycle.
    pub stall_fetch: bool,
    /// Phantom-operation level, if any. Phantom activity consumes energy but
    /// performs no work; it sets a floor on chip activity.
    pub phantom: Option<PhantomLevel>,
    /// Per-cycle cap on *estimated* issued current, in the a-priori current
    /// units of pipeline damping \[14\] (`None` = uncapped). Used only by the
    /// damping baseline.
    pub issue_current_cap: Option<f64>,
}

impl PipelineControls {
    /// Unrestricted execution.
    #[inline]
    pub fn free() -> Self {
        Self::default()
    }

    /// Resonance tuning's first-level response: reduced issue width and
    /// memory ports.
    pub fn first_level(issue_width: u32, mem_ports: u32) -> Self {
        Self {
            issue_width_limit: Some(issue_width),
            mem_ports_limit: Some(mem_ports),
            ..Self::default()
        }
    }

    /// Resonance tuning's second-level response: full issue stall with
    /// phantom operations holding a medium current.
    pub fn second_level() -> Self {
        Self {
            stall_issue: true,
            stall_fetch: true,
            phantom: Some(PhantomLevel::Medium),
            ..Self::default()
        }
    }

    /// `true` when any restriction is active.
    #[inline]
    pub fn is_restricted(&self) -> bool {
        *self != Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_free() {
        let c = PipelineControls::default();
        assert!(!c.is_restricted());
        assert_eq!(c, PipelineControls::free());
    }

    #[test]
    fn first_level_sets_limits_only() {
        let c = PipelineControls::first_level(4, 1);
        assert_eq!(c.issue_width_limit, Some(4));
        assert_eq!(c.mem_ports_limit, Some(1));
        assert!(!c.stall_issue);
        assert!(c.phantom.is_none());
        assert!(c.is_restricted());
    }

    #[test]
    fn second_level_stalls_with_medium_phantom() {
        let c = PipelineControls::second_level();
        assert!(c.stall_issue);
        assert!(c.stall_fetch);
        assert_eq!(c.phantom, Some(PhantomLevel::Medium));
        assert!(c.is_restricted());
    }
}
