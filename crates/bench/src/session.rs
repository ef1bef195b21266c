//! Session-loop benchmark fixture: a non-allocating target.
//!
//! [`NullTarget`] is the measurement harness for the engine itself: its
//! `handle` hits one coverage branch keyed on the first input byte and
//! returns an empty response, so every heap allocation observed during an
//! iteration is attributable to the engine, not the subject. A bounded
//! branch space means a seeded warmup saturates coverage, putting the
//! engine in the steady state (no retention, no outbox traffic) that the
//! zero-allocation gate measures.

use cmfuzz_config_model::{ConfigSpace, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageProbe};
use cmfuzz_fuzzer::{StartError, Target, TargetResponse};

/// A target whose `handle` performs no heap allocation: it hits the
/// coverage branch selected by the first input byte and replies with
/// [`TargetResponse::empty`]. Never faults.
#[derive(Debug)]
pub struct NullTarget {
    branches: usize,
    probe: Option<CoverageProbe>,
}

impl NullTarget {
    /// Creates a target with `branches` coverage branches (first input
    /// byte modulo `branches` selects the branch hit).
    #[must_use]
    pub fn new(branches: usize) -> Self {
        NullTarget {
            branches: branches.max(1),
            probe: None,
        }
    }
}

impl Target for NullTarget {
    fn name(&self) -> &str {
        "null"
    }

    fn branch_count(&self) -> usize {
        self.branches
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![],
            files: vec![],
        }
    }

    fn start(&mut self, _config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        probe.hit(BranchId::from_index(0));
        self.probe = Some(probe);
        Ok(())
    }

    fn begin_session(&mut self) {}

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        let probe = self.probe.as_ref().expect("started");
        let branch = usize::from(input.first().copied().unwrap_or(0)) % self.branches;
        probe.hit(BranchId::from_index(branch as u32));
        TargetResponse::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
    use cmfuzz_protocols::spec_by_name;

    #[test]
    fn null_target_covers_branches_without_faulting() {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let mut engine = FuzzEngine::new(NullTarget::new(32), parsed, EngineConfig::default());
        engine.start(&ResolvedConfig::new()).expect("starts");
        for _ in 0..200 {
            engine.run_iteration();
        }
        assert!(engine.covered_count() > 1, "first-byte branches get hit");
        assert_eq!(
            engine.fault_log().unique_count(),
            0,
            "null target never faults"
        );
    }
}
