//! Shared plumbing for the simulated protocol servers.

use cmfuzz_config_model::{Condition, ConstraintSet, GuardKind, GuardTable, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageProbe};
use cmfuzz_fuzzer::StartError;

/// Per-target coverage hook: a detachable probe the server hits with its
/// branch enum discriminants.
///
/// Servers keep one `Cov` and call [`Cov::hit`] at every instrumented
/// branch; before `start` attaches a probe, hits are silently dropped
/// (the server is "uninstrumented").
#[derive(Debug, Default)]
pub(crate) struct Cov {
    probe: Option<CoverageProbe>,
}

impl Cov {
    /// Attaches the campaign's probe (called from [`Declarations::boot`]).
    pub(crate) fn attach(&mut self, probe: CoverageProbe) {
        self.probe = Some(probe);
    }

    /// Records a hit on branch `index`.
    pub(crate) fn hit(&self, index: u32) {
        if let Some(probe) = &self.probe {
            probe.hit(BranchId::from_index(index));
        }
    }
}

/// A server's startup declarations, compiled once for booting.
///
/// Each server declares its startup behaviour once, as a [`ConstraintSet`]
/// and a [`GuardTable`], and boots from them: [`Declarations::boot`]
/// refuses with the reason of the first violated constraint, otherwise
/// attaches the probe and hits every [`GuardKind::Startup`] branch whose
/// conditions hold.
///
/// A boot evaluates few conditions. Relation quantification boots
/// thousands of configurations that bind one or two items each, and
/// evaluating every condition on every boot would make a probe boot about
/// a third slower than the checks it replaces. So each distinct
/// condition's truth on the empty configuration is computed here once,
/// and a boot re-evaluates only the conditions that read an item the
/// configuration binds.
#[derive(Debug)]
pub(crate) struct Declarations {
    /// The declared startup conflicts.
    pub(crate) constraints: ConstraintSet,
    /// The declared branch guards, handler guards included.
    pub(crate) guards: GuardTable,
    /// The distinct conditions of the constraints and startup guards; bit
    /// `i` of every mask below stands for `conditions[i]`.
    conditions: Vec<Condition>,
    /// The conditions that hold on the empty configuration.
    on_empty: u64,
    /// Item name → the conditions reading it. No name holds a `[`, so an
    /// indexed list's slots are read under its key: `auth.mechanisms[3]`
    /// under `auth.mechanisms`.
    readers: Vec<(String, u64)>,
    /// Each constraint's conditions, in declaration order.
    refusals: Vec<u64>,
    /// Each startup guard's branch and conditions, in declaration order.
    startup: Vec<(u32, u64)>,
}

impl Declarations {
    /// Compiles a server's declarations.
    ///
    /// # Panics
    ///
    /// If they hold more than 64 distinct conditions, or a condition on
    /// one slot of an indexed list.
    pub(crate) fn new(constraints: ConstraintSet, guards: GuardTable) -> Self {
        let mut conditions: Vec<Condition> = Vec::new();
        let mut mask_of = |conjunction: &[Condition]| {
            conjunction.iter().fold(0u64, |mask, condition| {
                let bit = conditions
                    .iter()
                    .position(|c| c == condition)
                    .unwrap_or_else(|| {
                        conditions.push(condition.clone());
                        conditions.len() - 1
                    });
                assert!(bit < 64, "more than 64 distinct startup conditions");
                mask | 1 << bit
            })
        };
        let refusals = constraints
            .constraints()
            .iter()
            .map(|constraint| mask_of(constraint.conditions()))
            .collect();
        let startup = guards
            .iter()
            .filter(|guard| guard.kind() == GuardKind::Startup)
            .map(|guard| (guard.branch(), mask_of(guard.conditions())))
            .collect();

        let empty = ResolvedConfig::new();
        let mut on_empty = 0u64;
        let mut readers: Vec<(String, u64)> = Vec::new();
        for (bit, condition) in conditions.iter().enumerate() {
            if condition.matches(&empty) {
                on_empty |= 1 << bit;
            }
            for item in condition.referenced_items() {
                assert!(!item.contains('['), "condition on a list slot: {item}");
                match readers.iter_mut().find(|(name, _)| name == item) {
                    Some((_, mask)) => *mask |= 1 << bit,
                    None => readers.push((item.to_owned(), 1 << bit)),
                }
            }
        }
        Declarations {
            constraints,
            guards,
            conditions,
            on_empty,
            readers,
            refusals,
            startup,
        }
    }

    /// Boots from the declarations: refuses `resolved` with the reason of
    /// the first constraint it violates, otherwise attaches `probe` to
    /// `cov` and hits every startup branch whose conditions hold.
    pub(crate) fn boot(
        &self,
        resolved: &ResolvedConfig,
        cov: &mut Cov,
        probe: CoverageProbe,
    ) -> Result<(), StartError> {
        let mut stale = 0u64;
        for (name, _) in resolved.iter() {
            let item = name.split_once('[').map_or(name, |(key, _)| key);
            if let Some((_, readers)) = self.readers.iter().find(|(n, _)| n == item) {
                stale |= readers;
            }
        }
        let mut held = self.on_empty & !stale;
        while stale != 0 {
            let bit = stale.trailing_zeros();
            stale &= stale - 1;
            if self.conditions[bit as usize].matches(resolved) {
                held |= 1 << bit;
            }
        }
        let violated = |&mask: &u64| mask != 0 && held & mask == mask;
        if let Some(i) = self.refusals.iter().position(violated) {
            return Err(StartError::new(self.constraints.constraints()[i].reason()));
        }
        cov.attach(probe);
        for &(branch, mask) in &self.startup {
            if held & mask == mask {
                cov.hit(branch);
            }
        }
        Ok(())
    }
}

/// Hits one branch per matched prefix byte of `target` in `value`,
/// starting at branch index `base`.
///
/// This models how compiled string comparisons look under branch coverage:
/// each loop iteration of the `memcmp`/`strcmp` is its own edge, which is
/// precisely what lets coverage-guided fuzzers solve multi-byte magic
/// values one byte at a time while blind generation cannot.
pub(crate) fn prefix_ladder(cov: &Cov, base: u32, target: &[u8], value: &[u8]) {
    for (k, &expected) in target.iter().enumerate() {
        if value.get(k) == Some(&expected) {
            cov.hit(base + k as u32);
        } else {
            break;
        }
    }
}

/// Reads a big-endian u16 at `offset`.
pub(crate) fn be16(data: &[u8], offset: usize) -> Option<u16> {
    Some(u16::from_be_bytes([
        *data.get(offset)?,
        *data.get(offset + 1)?,
    ]))
}

/// Reads a big-endian u32 at `offset`.
pub(crate) fn be32(data: &[u8], offset: usize) -> Option<u32> {
    Some(u32::from_be_bytes([
        *data.get(offset)?,
        *data.get(offset + 1)?,
        *data.get(offset + 2)?,
        *data.get(offset + 3)?,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_coverage::CoverageMap;

    #[test]
    fn unattached_cov_drops_hits() {
        let cov = Cov::default();
        cov.hit(0); // must not panic
    }

    #[test]
    fn attached_cov_records() {
        let map = CoverageMap::new(4);
        let mut cov = Cov::default();
        cov.attach(map.probe());
        cov.hit(2);
        assert_eq!(map.hit_count(BranchId::from_index(2)), 1);
    }

    #[test]
    fn be_readers_bounds_checked() {
        let data = [1u8, 2, 3, 4, 5];
        assert_eq!(be16(&data, 0), Some(0x0102));
        assert_eq!(be16(&data, 3), Some(0x0405));
        assert_eq!(be16(&data, 4), None);
        assert_eq!(be32(&data, 1), Some(0x0203_0405));
        assert_eq!(be32(&data, 2), None);
    }
}
