//! The current history register and quarter-period adders (Section 3.1.1).
//!
//! Hardware model: the per-cycle whole-amp current readings of the last
//! `2·q_max` cycles live in a shift register; one small adder per
//! quarter-period length `q` maintains the sums of the most-recent `q`
//! cycles and of the `q` cycles before those, updated incrementally each
//! cycle exactly as a hardware accumulator would (add the entering sample,
//! subtract the leaving one).
//!
//! The register is a fixed ring of `2·q_max + 1` slots, zero before the
//! first sample. During warm-up an adder's window reaches back before the
//! first cycle, where nothing may be subtracted; the unwritten slots it
//! reads there hold zero, so one branch-free update serves every cycle.

/// Incrementally maintained sums over the last `q` and previous `q` cycles
/// of the current history, for one quarter-period length.
#[derive(Debug, Clone)]
struct QuarterAdder {
    q: u32,
    recent: i64,
    older: i64,
}

/// The current history register plus the per-quarter-period adders covering
/// the resonance band.
#[derive(Debug, Clone)]
pub struct CurrentHistory {
    /// Whole-amp samples in a ring of `2·q_max + 1` slots; `newest` holds
    /// the latest.
    samples: Vec<i64>,
    newest: usize,
    /// One adder per quarter period, in band order (`q_min` first).
    adders: Vec<QuarterAdder>,
    q_min: u32,
    q_max: u32,
    cycles: u64,
}

impl CurrentHistory {
    /// Creates a history covering quarter periods `q_min..=q_max`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or starts below 2 cycles.
    pub fn new(q_min: u32, q_max: u32) -> Self {
        assert!(q_min >= 2, "quarter periods must span at least 2 cycles");
        assert!(q_min <= q_max, "quarter-period range must be non-empty");
        Self {
            samples: vec![0; (2 * q_max + 1) as usize],
            newest: 0,
            adders: (q_min..=q_max)
                .map(|q| QuarterAdder {
                    q,
                    recent: 0,
                    older: 0,
                })
                .collect(),
            q_min,
            q_max,
            cycles: 0,
        }
    }

    /// The sample `back` cycles before the newest (`back < 2·q_max + 1`).
    #[inline]
    fn sample_back(&self, back: usize) -> i64 {
        let slot = match self.newest.checked_sub(back) {
            Some(slot) => slot,
            None => self.newest + self.samples.len() - back,
        };
        self.samples[slot]
    }

    /// Pushes one cycle's whole-amp current sample.
    pub fn push(&mut self, amps: i64) {
        self.newest += 1;
        if self.newest == self.samples.len() {
            self.newest = 0;
        }
        self.samples[self.newest] = amps;
        self.cycles += 1;
        // Update each adder incrementally: recent covers the newest q
        // samples, older the q before those. A slot not yet written reads 0.
        for i in 0..self.adders.len() {
            let q = self.adders[i].q as usize;
            let leaving_recent = self.sample_back(q);
            let leaving_older = self.sample_back(2 * q);
            let a = &mut self.adders[i];
            a.recent += amps - leaving_recent;
            a.older += leaving_recent - leaving_older;
        }
    }

    /// Total cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `true` once at least `2·q` samples have been seen for the longest
    /// quarter period (the adders are warm).
    pub fn warm(&self) -> bool {
        self.cycles >= (2 * self.q_max) as u64
    }

    /// The signed difference `recent − older` for quarter period `q`, the
    /// quantity compared against `M·T/8` to flag a resonant half wave.
    /// Positive means current rose (low→high); negative means it fell.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the configured range.
    pub fn quarter_diff(&self, q: u32) -> i64 {
        assert!(
            (self.q_min..=self.q_max).contains(&q),
            "quarter period must be within the configured band"
        );
        let a = &self.adders[(q - self.q_min) as usize];
        a.recent - a.older
    }

    /// Every quarter period's `recent − older`, in band order (`q_min`
    /// first) — the per-cycle walk the event detector compares against its
    /// thresholds.
    pub fn quarter_diffs(&self) -> impl Iterator<Item = i64> + '_ {
        self.adders.iter().map(|a| a.recent - a.older)
    }

    /// All configured quarter periods.
    pub fn quarter_periods(&self) -> impl Iterator<Item = u32> + '_ {
        self.adders.iter().map(|a| a.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_current_has_zero_diff() {
        let mut h = CurrentHistory::new(21, 29);
        for _ in 0..100 {
            h.push(70);
        }
        assert!(h.warm());
        for q in 21..=29 {
            assert_eq!(h.quarter_diff(q), 0, "q = {q}");
        }
    }

    #[test]
    fn step_up_gives_positive_diff() {
        let mut h = CurrentHistory::new(25, 25);
        for _ in 0..25 {
            h.push(40);
        }
        for _ in 0..25 {
            h.push(80);
        }
        // recent 25 cycles at 80, older 25 at 40: diff = 25·40 = 1000.
        assert_eq!(h.quarter_diff(25), 1000);
    }

    #[test]
    fn step_down_gives_negative_diff() {
        let mut h = CurrentHistory::new(25, 25);
        for _ in 0..25 {
            h.push(80);
        }
        for _ in 0..25 {
            h.push(40);
        }
        assert_eq!(h.quarter_diff(25), -1000);
    }

    #[test]
    fn incremental_matches_brute_force() {
        // Property: the incremental adders always equal a brute-force sum,
        // read one quarter period at a time or as the detector's band-order
        // walk; and the detector's prebuilt thresholds are, bit for bit,
        // the config's M·T/8. Covered: a narrow test band, Table 1, and the
        // bands calibrated for PDNs at 0.7× and 1.5× the Table 1 inductance.
        use crate::config::TuningConfig;
        use crate::detector::events::band_thresholds;
        use rlc::units::Amps;

        let calibrated = |pdn_scale: f64| {
            let sim = crate::sweep::sim_for(pdn_scale, 1).expect("valid PDN scale");
            TuningConfig::calibrated(&sim.supply, sim.clock, Amps::new(70.0), 100)
                .expect("band calibrates")
        };
        let configs = [
            TuningConfig::isca04_table1(100),
            calibrated(0.7),
            calibrated(1.5),
        ];
        assert_ne!(configs[1].quarter_periods(), configs[2].quarter_periods());
        let mut bands = vec![(5u32, 12u32)];
        bands.extend(
            configs
                .iter()
                .map(|c| (*c.quarter_periods().start(), *c.quarter_periods().end())),
        );
        for (q_min, q_max) in bands {
            let mut h = CurrentHistory::new(q_min, q_max);
            let mut all: Vec<i64> = Vec::new();
            let mut x = 37i64;
            for k in 0..(8 * q_max as i64 + 150) {
                // A deterministic pseudo-random-ish sequence.
                x = (x * 31 + k) % 97;
                all.push(x);
                h.push(x);
                let n = all.len();
                let brute: Vec<i64> = (q_min..=q_max)
                    .map(|q| {
                        let qq = q as usize;
                        let recent: i64 = all[n.saturating_sub(qq)..].iter().sum();
                        let older: i64 = all[n.saturating_sub(2 * qq)..n.saturating_sub(qq)]
                            .iter()
                            .sum();
                        recent - older
                    })
                    .collect();
                for (q, &want) in (q_min..=q_max).zip(&brute) {
                    assert_eq!(h.quarter_diff(q), want, "cycle {k} q {q}");
                }
                let walked: Vec<i64> = h.quarter_diffs().collect();
                assert_eq!(walked, brute, "cycle {k} band {q_min}..={q_max}");
            }
        }
        for config in &configs {
            let prebuilt = band_thresholds(config);
            let expected: Vec<u64> = config
                .quarter_periods()
                .map(|q| config.event_threshold(q).to_bits())
                .collect();
            let got: Vec<u64> = prebuilt.iter().map(|t| t.to_bits()).collect();
            assert_eq!(
                got,
                expected,
                "thresholds of {:?}",
                config.quarter_periods()
            );
        }
    }

    #[test]
    fn warm_after_two_max_quarters() {
        let mut h = CurrentHistory::new(21, 29);
        for k in 0..58 {
            assert_eq!(h.warm(), k >= 58, "cycle {k}");
            h.push(1);
        }
        assert!(h.warm());
    }

    #[test]
    #[should_panic(expected = "within the configured band")]
    fn out_of_range_quarter_panics() {
        let h = CurrentHistory::new(21, 29);
        let _ = h.quarter_diff(30);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = CurrentHistory::new(29, 21);
    }

    #[test]
    fn triangle_wave_diff_peaks_at_xt_over_8() {
        // Section 3.1.1: for a triangle wave of peak-to-peak X the
        // quarter-sum difference is X·T/8.
        let q = 25u32;
        let t = 4 * q; // period 100
        let x = 40i64; // peak-to-peak
        let mut h = CurrentHistory::new(q, q);
        let mut peak = 0i64;
        for c in 0..500u32 {
            let phase = (c % t) as f64 / t as f64;
            let tri = if phase < 0.5 {
                4.0 * phase - 1.0
            } else {
                3.0 - 4.0 * phase
            };
            h.push((x as f64 / 2.0 * tri).round() as i64);
            if c > 2 * t {
                peak = peak.max(h.quarter_diff(q).abs());
            }
        }
        let expect = x * t as i64 / 8; // X·T/8 = 40·100/8 = 500
        let err = (peak - expect).abs() as f64 / expect as f64;
        assert!(err < 0.05, "peak diff {peak} vs X·T/8 = {expect}");
    }
}
