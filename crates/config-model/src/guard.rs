//! Branch guards: the config predicates gating a target's coverage regions.
//!
//! A *branch guard* declares, for one instrumented branch, the set of
//! configuration [`Condition`]s that must hold for the branch to be
//! coverable at all. Guards are the specification the reachability
//! analyzer (`cmfuzz-analyze`) mines: a branch whose guard is
//! unsatisfiable within a partition's configuration space is *statically
//! dead* for that partition, and budget spent chasing it is wasted.
//!
//! Guards come in two strengths ([`GuardKind`]):
//!
//! * [`GuardKind::Startup`] — **exact**: the branch is covered *iff* the
//!   conditions hold and the server boots (startup-path branches fire
//!   unconditionally once their gate is open).
//! * [`GuardKind::Handler`] — **necessary-only**: the conditions are
//!   required for the branch to fire, but actually covering it also needs
//!   the right wire traffic. A satisfiable handler guard proves the branch
//!   *may* be reachable; an unsatisfiable one still proves it dead.
//!
//! Declaring a guard is therefore always sound for dead-branch claims and
//! never promises coverage the fuzzer must deliver.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_config_model::{BranchGuard, Condition, GuardKind, GuardTable};
//!
//! let table = GuardTable::new().with(BranchGuard::new(
//!     7,
//!     "start::tls",
//!     GuardKind::Startup,
//!     vec![Condition::bool_is("tls_enabled", true, false)],
//! ));
//! assert_eq!(table.len(), 1);
//! assert_eq!(table.guards()[0].region(), "start::tls");
//! ```

use std::fmt;

use crate::Condition;

/// How tightly a guard's conditions bind the branch (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardKind {
    /// Exact: covered iff the conditions hold and startup succeeds.
    Startup,
    /// Necessary-only: conditions must hold, traffic must also cooperate.
    Handler,
}

impl fmt::Display for GuardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GuardKind::Startup => "startup",
            GuardKind::Handler => "handler",
        })
    }
}

/// One branch's guard: the conditions gating one coverage region.
///
/// `branch` is the dense `cmfuzz_coverage`-style branch index inside the
/// declaring target's ID space; `region` is a stable human-readable label
/// (`"module::function#case"` by convention) used in diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchGuard {
    branch: u32,
    region: String,
    kind: GuardKind,
    conditions: Vec<Condition>,
}

impl BranchGuard {
    /// Builds a guard over `branch` labelled `region`.
    ///
    /// The conjunction of `conditions` must be *necessary* for the branch
    /// to fire; an empty conjunction means the branch is config-unguarded
    /// (reachable under every bootable configuration).
    #[must_use]
    pub fn new(branch: u32, region: &str, kind: GuardKind, conditions: Vec<Condition>) -> Self {
        BranchGuard {
            branch,
            region: region.to_owned(),
            kind,
            conditions,
        }
    }

    /// The dense branch index inside the declaring target's ID space.
    #[must_use]
    pub fn branch(&self) -> u32 {
        self.branch
    }

    /// The stable human-readable region label.
    #[must_use]
    pub fn region(&self) -> &str {
        &self.region
    }

    /// Whether the guard is exact (startup) or necessary-only (handler).
    #[must_use]
    pub fn kind(&self) -> GuardKind {
        self.kind
    }

    /// The conjunction of conditions gating the branch.
    #[must_use]
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// Every config item name referenced by the guard's conditions.
    #[must_use]
    pub fn referenced_items(&self) -> Vec<&str> {
        let mut items: Vec<&str> = Vec::new();
        for cond in &self.conditions {
            for item in cond.referenced_items() {
                if !items.contains(&item) {
                    items.push(item);
                }
            }
        }
        items
    }
}

impl fmt::Display for BranchGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} [{}]:", self.branch, self.region, self.kind)?;
        if self.conditions.is_empty() {
            return write!(f, " (unguarded)");
        }
        for (i, cond) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, " &&")?;
            }
            write!(f, " {cond}")?;
        }
        Ok(())
    }
}

/// A target's full guard declaration: one entry per guarded branch.
///
/// Branches absent from the table are treated as unguarded — the analyzer
/// never claims them dead. The table is ordered as declared; targets list
/// guards in ascending branch order by convention.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardTable {
    guards: Vec<BranchGuard>,
}

impl GuardTable {
    /// Creates an empty table (a target with no declared guards).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style push.
    #[must_use]
    pub fn with(mut self, guard: BranchGuard) -> Self {
        self.guards.push(guard);
        self
    }

    /// Appends a guard.
    pub fn push(&mut self, guard: BranchGuard) {
        self.guards.push(guard);
    }

    /// All declared guards, in declaration order.
    #[must_use]
    pub fn guards(&self) -> &[BranchGuard] {
        &self.guards
    }

    /// Number of guarded branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// Whether the target declares no guards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// Iterates over the declared guards.
    pub fn iter(&self) -> impl Iterator<Item = &BranchGuard> {
        self.guards.iter()
    }
}

impl FromIterator<BranchGuard> for GuardTable {
    fn from_iter<I: IntoIterator<Item = BranchGuard>>(iter: I) -> Self {
        GuardTable {
            guards: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BranchGuard {
        BranchGuard::new(
            3,
            "start::auth",
            GuardKind::Startup,
            vec![
                Condition::str_is("auth-method", "tls", "none"),
                Condition::bool_is("tls_enabled", true, false),
            ],
        )
    }

    #[test]
    fn guard_exposes_attributes() {
        let g = sample();
        assert_eq!(g.branch(), 3);
        assert_eq!(g.region(), "start::auth");
        assert_eq!(g.kind(), GuardKind::Startup);
        assert_eq!(g.conditions().len(), 2);
    }

    #[test]
    fn referenced_items_dedup_in_order() {
        let g = BranchGuard::new(
            0,
            "r",
            GuardKind::Handler,
            vec![
                Condition::int_above_item("frame", "mtu", 0, 0),
                Condition::int_within("mtu", 1, 10, 5),
            ],
        );
        assert_eq!(g.referenced_items(), vec!["frame", "mtu"]);
    }

    #[test]
    fn display_joins_conditions() {
        let s = sample().to_string();
        assert!(s.contains("start::auth"), "{s}");
        assert!(s.contains("startup"), "{s}");
        assert!(s.contains("&&"), "{s}");
        let unguarded = BranchGuard::new(1, "r", GuardKind::Handler, vec![]);
        assert!(unguarded.to_string().contains("unguarded"));
    }

    #[test]
    fn table_builder_and_iter() {
        let table = GuardTable::new().with(sample());
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        assert_eq!(table.iter().count(), 1);
        let collected: GuardTable = table.guards().iter().cloned().collect();
        assert_eq!(collected, table);
        assert!(GuardTable::new().is_empty());
    }
}
