//! Finite-domain constraint propagation over configuration spaces.
//!
//! The reachability analyzer (`reach.rs`) asks one question per branch
//! guard: *is there a bootable configuration, inside a given finite
//! configuration space, under which every guard condition holds?* This
//! module supplies the propagation half of the answer: enumerated-set
//! domains per config item, arc-consistency over the one cross-item
//! predicate ([`Predicate::IntAboveItem`]), and unit propagation over the
//! target's negated startup constraints (a bootable config must *avoid*
//! every declared conflict).
//!
//! Design notes, in soundness order:
//!
//! * Domains are **enumerated candidate sets** (`{unbound, v1, v2, …}`).
//!   Every filtering step evaluates the real condition on one candidate
//!   ([`Condition::matches_value`], which is [`Condition::matches`] on the
//!   one-binding configuration) and reads integers through
//!   [`ConfigValue::int_or`], the coercion `ResolvedConfig::int_or` itself
//!   delegates to. So the solver inherits the exact lenient coercions the
//!   servers use — there is no second, subtly different, predicate
//!   semantics to drift.
//! * Propagation only ever *removes* candidates that support no solution,
//!   so an emptied domain is a proof of unsatisfiability within the space,
//!   and the recorded [`Solver::into_chain`] is a human-checkable replay of the
//!   refutation.
//! * List predicates (`ListHasOrEmpty`/`ListLacks`) span indexed slots and
//!   are never propagated (always [`Status::Unknown`]) — the enumeration
//!   pass in `reach.rs` decides them concretely, keeping every claim here
//!   conservative.
//!
//! Propagation is deliberately incomplete (arc consistency does not decide
//! conjunctions across keys); `reach.rs` pairs it with exhaustive
//! enumeration of the propagated domains, which *is* complete for the
//! finite space.

use std::collections::BTreeMap;
use std::fmt;

use cmfuzz_config_model::{Condition, ConfigConstraint, ConfigValue, Predicate};

/// Highest indexed-list slot the solver expands for list predicates,
/// mirroring the (private) scan bound of `cmfuzz_config_model`'s list
/// predicates; kept in lockstep by `list_scan_matches_config_model`.
pub(crate) const LIST_SCAN: usize = 8;

/// Tri-valued truth of a condition over a domain product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Every configuration in the space satisfies the condition.
    True,
    /// No configuration in the space satisfies the condition.
    False,
    /// Some do, some don't (or the predicate is not propagatable).
    Unknown,
}

/// The candidate set for one configuration item: an optional *unbound*
/// marker (the item is absent, predicates see their defaults) plus an
/// ordered list of concrete values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Domain {
    /// Whether the item may be left unset.
    pub can_unbound: bool,
    /// Concrete candidate values, in declaration order.
    pub values: Vec<ConfigValue>,
}

impl Domain {
    /// A domain holding exactly the given candidates.
    pub(crate) fn new(can_unbound: bool, values: Vec<ConfigValue>) -> Self {
        Domain {
            can_unbound,
            values,
        }
    }

    /// Number of candidates including the unbound marker.
    pub(crate) fn size(&self) -> usize {
        self.values.len() + usize::from(self.can_unbound)
    }

    /// Whether no candidate survives (the refutation terminal).
    pub(crate) fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The `i`-th candidate of [`Domain::candidates`]'s order: unbound
    /// first when allowed, then the values in declaration order.
    pub(crate) fn candidate(&self, i: usize) -> Option<&ConfigValue> {
        match (self.can_unbound, i) {
            (true, 0) => None,
            (true, i) => Some(&self.values[i - 1]),
            (false, i) => Some(&self.values[i]),
        }
    }

    /// Iterates candidates as `Option<&ConfigValue>` (None = unbound).
    fn candidates(&self) -> impl Iterator<Item = Option<&ConfigValue>> {
        self.can_unbound
            .then_some(None)
            .into_iter()
            .chain(self.values.iter().map(Some))
    }
}

/// Canonical rendering for propagation chains: `{unbound, 1, 2}`.
impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, candidate) in self.candidates().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match candidate {
                Some(value) => write!(f, "{value}")?,
                None => f.write_str("unbound")?,
            }
        }
        f.write_str("}")
    }
}

/// The domain of a key the solver holds no domain for: unbound only.
static UNBOUND: Domain = Domain {
    can_unbound: true,
    values: Vec::new(),
};

/// `(min, max)` of a domain's integer views; `None` for an empty domain.
fn int_bounds(domain: &Domain, default: i64) -> Option<(i64, i64)> {
    domain
        .candidates()
        .map(|v| ConfigValue::int_or(v, default))
        .fold(None, |acc, v| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })
}

/// Arc-consistency solver over a finite configuration space.
///
/// Keys absent from the domain map are treated as permanently unbound
/// (single-candidate domains); the caller is responsible for seeding a
/// domain for every key it wants reasoned about.
#[derive(Debug, Clone)]
pub(crate) struct Solver<'k> {
    domains: BTreeMap<&'k str, Domain>,
    chain: Vec<String>,
    unsat: bool,
}

impl<'k> Solver<'k> {
    /// Builds a solver over the given per-item domains.
    pub(crate) fn new(domains: BTreeMap<&'k str, Domain>) -> Self {
        Solver {
            domains,
            chain: Vec::new(),
            unsat: false,
        }
    }

    /// The propagation chain recorded so far (deterministic replay).
    #[cfg(test)]
    pub(crate) fn chain(&self) -> &[String] {
        &self.chain
    }

    /// Consumes the solver, yielding its propagation chain.
    pub(crate) fn into_chain(self) -> Vec<String> {
        self.chain
    }

    /// Whether propagation proved the space unsatisfiable.
    pub(crate) fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The current (possibly narrowed) domains.
    pub(crate) fn domains(&self) -> &BTreeMap<&'k str, Domain> {
        &self.domains
    }

    fn domain(&self, key: &str) -> &Domain {
        self.domains.get(key).unwrap_or(&UNBOUND)
    }

    /// Replaces `key`'s domain with its narrowed form and records the step.
    fn shrink(&mut self, prefix: &str, cond: &Condition, key: &'k str, narrowed: Domain) {
        self.chain
            .push(format!("{prefix} {cond}; domain({key}) = {narrowed}"));
        let empty = narrowed.is_empty();
        match self.domains.get_mut(key) {
            Some(domain) => *domain = narrowed,
            None => {
                self.domains.insert(key, narrowed);
            }
        }
        if empty {
            self.chain
                .push(format!("domain({key}) is empty -> unsatisfiable"));
            self.unsat = true;
        }
    }

    /// Restricts domains so the condition *can* hold; returns whether any
    /// domain shrank. `prefix` tags the chain entry (`"require"` for guard
    /// conditions).
    fn narrow(&mut self, cond: &'k Condition, keep_matching: bool, prefix: &str) -> bool {
        if self.unsat {
            return false;
        }
        match cond.predicate() {
            // List predicates span indexed slots; enumeration decides them.
            Predicate::ListHasOrEmpty { .. } | Predicate::ListLacks { .. } => false,
            Predicate::IntAboveItem {
                other,
                default,
                other_default,
            } => {
                // Refuting `key > other` (i.e. requiring `key <= other`) is
                // the mirror pruning; both directions share the bounds
                // logic below.
                let key = cond.key();
                let mut changed = false;
                // Prune the left side against the right side's bounds, then
                // the right side against the (possibly narrowed) left.
                for _ in 0..2 {
                    let other_bounds = int_bounds(self.domain(other), *other_default);
                    let narrowed =
                        filter_by_int(self.domain(key), *default, |v| match other_bounds {
                            // `key > other` needs a partner below it; `key <= other`
                            // needs a partner at or above it.
                            Some((lo, hi)) => {
                                if keep_matching {
                                    v > lo
                                } else {
                                    v <= hi
                                }
                            }
                            None => false,
                        });
                    if let Some(narrowed) = narrowed {
                        self.shrink(prefix, cond, key, narrowed);
                        changed = true;
                        if self.unsat {
                            return changed;
                        }
                    }
                    let key_bounds = int_bounds(self.domain(key), *default);
                    let narrowed =
                        filter_by_int(self.domain(other), *other_default, |v| match key_bounds {
                            Some((lo, hi)) => {
                                if keep_matching {
                                    v < hi
                                } else {
                                    v >= lo
                                }
                            }
                            None => false,
                        });
                    if let Some(narrowed) = narrowed {
                        self.shrink(prefix, cond, other, narrowed);
                        changed = true;
                        if self.unsat {
                            return changed;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                changed
            }
            _ => {
                let keep = |v: Option<&ConfigValue>| cond.matches_value(v) == keep_matching;
                match filter_domain(self.domain(cond.key()), keep) {
                    Some(narrowed) => {
                        self.shrink(prefix, cond, cond.key(), narrowed);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Asserts a guard condition: the space keeps only configurations that
    /// may satisfy it.
    pub(crate) fn require(&mut self, cond: &'k Condition) -> bool {
        self.narrow(cond, true, "require")
    }

    /// The condition's truth over the current domain product.
    pub(crate) fn status(&self, cond: &Condition) -> Status {
        match cond.predicate() {
            Predicate::ListHasOrEmpty { .. } | Predicate::ListLacks { .. } => Status::Unknown,
            Predicate::IntAboveItem {
                other,
                default,
                other_default,
            } => {
                let key_bounds = int_bounds(self.domain(cond.key()), *default);
                let other_bounds = int_bounds(self.domain(other), *other_default);
                match (key_bounds, other_bounds) {
                    (Some((klo, khi)), Some((olo, ohi))) => {
                        if klo > ohi {
                            Status::True
                        } else if khi <= olo {
                            Status::False
                        } else {
                            Status::Unknown
                        }
                    }
                    _ => Status::False,
                }
            }
            _ => {
                let mut any_true = false;
                let mut any_false = false;
                for candidate in self.domain(cond.key()).candidates() {
                    if cond.matches_value(candidate) {
                        any_true = true;
                    } else {
                        any_false = true;
                    }
                    if any_true && any_false {
                        return Status::Unknown;
                    }
                }
                match (any_true, any_false) {
                    (true, false) => Status::True,
                    (false, true) => Status::False,
                    // An empty domain satisfies nothing.
                    _ => Status::False,
                }
            }
        }
    }

    /// Runs guard-condition assertion and negated-constraint unit
    /// propagation to fixpoint.
    ///
    /// A bootable configuration must avoid *every* startup constraint, so a
    /// constraint whose conditions are all forced [`Status::True`] proves
    /// the space unsatisfiable, and one with a single undecided condition
    /// forces that condition false.
    pub(crate) fn solve(&mut self, guard: &'k [Condition], constraints: &[&'k ConfigConstraint]) {
        for cond in guard {
            self.require(cond);
            if self.unsat {
                return;
            }
        }
        loop {
            let mut changed = false;
            // Re-assert guard conditions: IntAboveItem pruning can bite
            // again after another key's domain narrowed.
            for cond in guard {
                changed |= self.require(cond);
                if self.unsat {
                    return;
                }
            }
            for &constraint in constraints {
                let conditions = constraint.conditions();
                // The conflict is already avoided when any condition is
                // forced false; otherwise count the undecided ones.
                let mut undecided = 0usize;
                let mut last_undecided = 0usize;
                let mut avoided = false;
                for (i, cond) in conditions.iter().enumerate() {
                    match self.status(cond) {
                        Status::False => {
                            avoided = true;
                            break;
                        }
                        Status::Unknown => {
                            undecided += 1;
                            last_undecided = i;
                        }
                        Status::True => {}
                    }
                }
                if avoided {
                    continue;
                }
                if undecided == 0 {
                    self.chain.push(format!(
                        "every remaining configuration violates constraint \"{}\" -> unsatisfiable",
                        constraint.reason()
                    ));
                    self.unsat = true;
                    return;
                }
                if undecided == 1 {
                    let cond = &conditions[last_undecided];
                    let prefix = format!("constraint \"{}\" forbids", constraint.reason());
                    changed |= self.narrow(cond, false, &prefix);
                    if self.unsat {
                        return;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// The candidates of `domain` that pass `keep`, or `None` when all of
/// them do (nothing to narrow).
fn filter_domain(domain: &Domain, keep: impl Fn(Option<&ConfigValue>) -> bool) -> Option<Domain> {
    let can_unbound = domain.can_unbound && keep(None);
    if can_unbound == domain.can_unbound && domain.values.iter().all(|v| keep(Some(v))) {
        return None;
    }
    let values = domain
        .values
        .iter()
        .filter(|v| keep(Some(v)))
        .cloned()
        .collect();
    Some(Domain::new(can_unbound, values))
}

/// The candidates whose integer view passes `keep`, or `None` when all of
/// them do.
fn filter_by_int(domain: &Domain, default: i64, keep: impl Fn(i64) -> bool) -> Option<Domain> {
    filter_domain(domain, |v| keep(ConfigValue::int_or(v, default)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::{ConstraintSet, ResolvedConfig};

    fn ints(vals: &[i64]) -> Vec<ConfigValue> {
        vals.iter().map(|v| ConfigValue::Int(*v)).collect()
    }

    fn str_val(v: &str) -> ConfigValue {
        ConfigValue::Str(v.to_owned())
    }

    fn space(entries: &[(&'static str, bool, Vec<ConfigValue>)]) -> BTreeMap<&'static str, Domain> {
        entries
            .iter()
            .map(|(k, unbound, vals)| (*k, Domain::new(*unbound, vals.clone())))
            .collect()
    }

    #[test]
    fn require_filters_candidates_and_unbound() {
        let within = Condition::int_within("n", 4, 10, 0);
        let mut solver = Solver::new(space(&[("n", true, ints(&[0, 5, 10]))]));
        solver.require(&within);
        let d = &solver.domains()["n"];
        assert!(!d.can_unbound, "default 0 fails [4, 10]");
        assert_eq!(d.values, ints(&[5, 10]));
        assert!(!solver.is_unsat());
        assert_eq!(solver.chain().len(), 1);
        assert!(
            solver.chain()[0].contains("require"),
            "{:?}",
            solver.chain()
        );
    }

    #[test]
    fn emptied_domain_is_unsat_with_chain() {
        let mode_b = Condition::str_is("mode", "b", "a");
        let mut solver = Solver::new(space(&[("mode", false, vec![str_val("a")])]));
        solver.require(&mode_b);
        assert!(solver.is_unsat());
        assert!(solver
            .chain()
            .last()
            .expect("terminal step")
            .contains("unsatisfiable"));
    }

    #[test]
    fn status_is_tri_valued() {
        let solver = Solver::new(space(&[("n", false, ints(&[3, 4]))]));
        assert_eq!(
            solver.status(&Condition::int_below("n", 10, 0)),
            Status::True
        );
        assert_eq!(
            solver.status(&Condition::int_below("n", 3, 0)),
            Status::False
        );
        assert_eq!(
            solver.status(&Condition::int_below("n", 4, 0)),
            Status::Unknown
        );
        assert_eq!(
            solver.status(&Condition::list_lacks("n", "x")),
            Status::Unknown,
            "list predicates are never propagated"
        );
    }

    #[test]
    fn constraint_unit_propagation_forces_the_last_condition_false() {
        // Constraint: tls && auth=external conflicts. Guard forces tls on,
        // so auth=external must be refuted out of the domain.
        let domains = space(&[
            ("tls", false, vec![ConfigValue::Bool(true)]),
            ("auth", true, vec![str_val("external"), str_val("plain")]),
        ]);
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "tls conflicts with external auth",
            vec![
                Condition::bool_is("tls", true, false),
                Condition::str_is("auth", "external", "none"),
            ],
        ));
        let guard = [Condition::bool_is("tls", true, false)];
        let linked: Vec<_> = constraints.constraints().iter().collect();
        let mut solver = Solver::new(domains);
        solver.solve(&guard, &linked);
        assert!(!solver.is_unsat());
        let auth = &solver.domains()["auth"];
        assert_eq!(auth.values, vec![str_val("plain")]);
        assert!(auth.can_unbound, "default \"none\" avoids the conflict");
        assert!(
            solver.chain().iter().any(|step| step.contains("forbids")),
            "{:?}",
            solver.chain()
        );
    }

    #[test]
    fn fully_forced_constraint_is_unsat() {
        let domains = space(&[("tls", false, vec![ConfigValue::Bool(true)])]);
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "tls unsupported",
            vec![Condition::bool_is("tls", true, false)],
        ));
        let guard = [Condition::bool_is("tls", true, false)];
        let linked: Vec<_> = constraints.constraints().iter().collect();
        let mut solver = Solver::new(domains);
        solver.solve(&guard, &linked);
        assert!(solver.is_unsat());
        assert!(solver
            .chain()
            .last()
            .expect("terminal")
            .contains("tls unsupported"));
    }

    #[test]
    fn int_above_item_prunes_both_sides() {
        let domains = space(&[
            ("frag", true, ints(&[100, 200, 300])),
            ("max", false, ints(&[150, 250])),
        ]);
        // frag (default 100) must exceed max.
        let guard = [Condition::int_above_item("frag", "max", 100, 0)];
        let mut solver = Solver::new(domains);
        solver.solve(&guard, &[]);
        assert!(!solver.is_unsat());
        let frag = &solver.domains()["frag"];
        // 100 (bound and unbound) cannot exceed min(max)=150.
        assert!(!frag.can_unbound);
        assert_eq!(frag.values, ints(&[200, 300]));
        // Both 150 and 250 stay: 300 > 250.
        assert_eq!(solver.domains()["max"].values, ints(&[150, 250]));
    }

    #[test]
    fn unknown_key_defaults_to_unbound_only_domain() {
        let solver = Solver::new(BTreeMap::new());
        // Unbound "n" sees default 7: below 10 holds everywhere.
        assert_eq!(
            solver.status(&Condition::int_below("n", 10, 7)),
            Status::True
        );
        assert_eq!(
            solver.status(&Condition::int_below("n", 5, 7)),
            Status::False
        );
    }

    #[test]
    fn domain_render_is_canonical() {
        let d = Domain::new(true, ints(&[1, 2]));
        assert_eq!(d.to_string(), "{unbound, 1, 2}");
        assert_eq!(Domain::new(false, Vec::new()).to_string(), "{}");
    }

    /// Lockstep with the private `LIST_SCAN` in `cmfuzz_config_model`: a
    /// list member bound at the last scanned slot must still be seen.
    #[test]
    fn list_scan_matches_config_model() {
        let cond = Condition::list_lacks("m", "x");
        let mut cfg = ResolvedConfig::new();
        cfg.set(&format!("m[{}]", LIST_SCAN - 1), str_val("x"));
        assert!(!cond.matches(&cfg), "slot {} is scanned", LIST_SCAN - 1);
        let mut cfg = ResolvedConfig::new();
        cfg.set(&format!("m[{LIST_SCAN}]"), str_val("x"));
        assert!(cond.matches(&cfg), "slot {LIST_SCAN} is beyond the scan");
    }
}
