//! The unified workload registry: every application the infrastructure can
//! run, across workload classes.
//!
//! Anything that resolves an application *name* back to a profile — wire
//! decoding, run-store record parsing, fault bookkeeping — must go through
//! this module rather than `spec2k` directly, so the real-program corpus
//! participates in caching, resuming, and serving exactly like the
//! synthetic suite. Suite-sized constants should likewise be derived from
//! [`all`] (or the per-class `all()`s) instead of hard-coding 26.

use crate::profile::WorkloadProfile;
use crate::{corpus, spec2k};

/// Every registered application: the synthetic SPEC2K suite followed by
/// the RISC-V corpus.
pub fn all() -> Vec<WorkloadProfile> {
    let mut apps = spec2k::all();
    apps.extend(corpus::all());
    apps
}

/// Resolves an application name across all workload classes.
pub fn by_name(name: &str) -> Option<WorkloadProfile> {
    spec2k::by_name(name).or_else(|| corpus::by_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_both_classes() {
        let apps = all();
        assert_eq!(apps.len(), spec2k::all().len() + corpus::all().len());
        assert!(by_name("gzip").is_some());
        assert!(by_name("matmul").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn names_are_unique_across_classes() {
        let mut names: Vec<_> = all().iter().map(|p| p.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "workload names must be globally unique");
    }

    #[test]
    fn by_name_round_trips_every_app() {
        for p in all() {
            assert_eq!(by_name(p.name), Some(p));
        }
    }
}
