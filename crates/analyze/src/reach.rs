//! Branch reachability analysis (the `CM06x` checks).
//!
//! Given a target's [`GuardTable`] (which config predicates gate which
//! coverage regions), its startup [`ConstraintSet`], and a configuration
//! space, this module proves per branch either:
//!
//! * **reachable** — with a canonical *witness* configuration that
//!   satisfies the guard and violates no startup constraint (so the server
//!   boots and the branch's gate is open), or
//! * **statically dead** — with a machine-checkable propagation chain
//!   showing why no configuration in the space opens the gate, or
//! * **unknown** — the solver hit a stated limit and claims nothing
//!   (`CM064`).
//!
//! Two space shapes exist ([`ReachSpace`]):
//!
//! * [`ReachSpace::Partition`] — one campaign instance's *finite* space:
//!   the initial configuration plus the per-item values adaptive mutation
//!   may substitute. Enumeration over the guard's key closure is exact
//!   here, so dead claims (`CM060`) are sound by exhaustion, with the
//!   propagation chain as the human-readable explanation.
//! * [`ReachSpace::Global`] — the whole model. Candidate sets are closed
//!   over every interval boundary mentioned by any relevant predicate
//!   (plus the `i64` extremes and an unlisted-string sentinel), which
//!   makes the enumeration decisive for the predicate vocabulary; a dead
//!   claim here (`CM061`) means the guard contradicts the declared
//!   constraints outright.
//!
//! Soundness stance: guards declare conditions *necessary* for their
//! branch (exact for [`GuardKind::Startup`]), so an unsatisfiable guard
//! proves the branch dead, while a satisfiable one never promises the
//! fuzzer will cover a handler branch — reachability is an upper bound by
//! construction, which is exactly what the fleet scheduler needs.

use std::collections::{BTreeMap, BTreeSet};

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigModel, ConfigValue, ConstraintSet, GuardKind,
    GuardTable, Predicate, ResolvedConfig,
};

use crate::solve::{Domain, Solver, LIST_SCAN};
use crate::{Diagnostic, Report, Severity};

/// Hard cap on enumerated candidate configurations per guard; beyond it
/// the analyzer reports `CM064` and claims nothing. Sized so the widest
/// builtin guard closure (a list predicate fanning out over all
/// [`LIST_SCAN`] slots alongside its linked constraints) still certifies.
const ENUM_CAP: u128 = 1 << 20;

/// The configuration space a reachability query ranges over.
#[derive(Debug, Clone)]
pub enum ReachSpace {
    /// One campaign instance's finite space.
    Partition {
        /// The instance's initial configuration (keys outside `domains`
        /// stay at these bindings in every reachable configuration).
        base: ResolvedConfig,
        /// Per-item candidate values adaptive mutation can produce;
        /// `None` marks "may be left unbound".
        domains: BTreeMap<String, Vec<Option<ConfigValue>>>,
    },
    /// The unrestricted space of the whole model.
    Global,
}

/// Verdict for one guarded branch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachStatus {
    /// A certified witness: boots the server and opens the branch's gate.
    Reachable {
        /// The canonical witness configuration.
        witness: ResolvedConfig,
    },
    /// Proven unreachable within the space.
    Dead {
        /// The propagation/enumeration steps of the refutation.
        chain: Vec<String>,
    },
    /// The solver hit a limit; nothing is claimed either way.
    Unknown {
        /// Why certification failed.
        reason: String,
    },
}

/// One branch's reachability result.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchReach {
    branch: u32,
    region: String,
    kind: GuardKind,
    status: ReachStatus,
}

impl BranchReach {
    /// The guarded branch's dense index.
    #[must_use]
    pub fn branch(&self) -> u32 {
        self.branch
    }

    /// The guard's human-readable region label.
    #[must_use]
    pub fn region(&self) -> &str {
        &self.region
    }

    /// The guard strength.
    #[must_use]
    pub fn kind(&self) -> GuardKind {
        self.kind
    }

    /// The verdict.
    #[must_use]
    pub fn status(&self) -> &ReachStatus {
        &self.status
    }
}

/// A full reachability analysis over one (subject × space) pair.
#[derive(Debug, Clone)]
pub struct ReachAnalysis {
    subject: String,
    branch_count: usize,
    report: Report,
    branches: Vec<BranchReach>,
}

impl ReachAnalysis {
    /// The subject analyzed.
    #[must_use]
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The diagnostics produced (canonically sorted).
    #[must_use]
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Consumes the analysis, yielding its diagnostics.
    #[must_use]
    pub fn into_report(self) -> Report {
        self.report
    }

    /// Per-guard verdicts, in guard declaration order.
    #[must_use]
    pub fn branches(&self) -> &[BranchReach] {
        &self.branches
    }

    /// Branch indices proven statically dead (sorted, deduplicated).
    #[must_use]
    pub fn dead_branches(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self
            .branches
            .iter()
            .filter(|b| matches!(b.status, ReachStatus::Dead { .. }))
            .map(BranchReach::branch)
            .collect();
        set.into_iter().collect()
    }

    /// Upper bound on coverable branches: the branch space minus the
    /// proven-dead branches (unguarded and unknown branches count as
    /// reachable — the analyzer only subtracts what it proved).
    #[must_use]
    pub fn reachable_branch_count(&self) -> usize {
        self.branch_count - self.dead_branches().len()
    }

    /// Canonical one-line-per-guard text summary (byte-identical across
    /// runs; witnesses render with sorted keys via `ResolvedConfig`).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut rows: Vec<&BranchReach> = self.branches.iter().collect();
        rows.sort_by(|a, b| (a.branch, &a.region).cmp(&(b.branch, &b.region)));
        let mut out = String::new();
        for row in rows {
            let verdict = match &row.status {
                ReachStatus::Reachable { witness } => format!("reachable witness={witness}"),
                ReachStatus::Dead { chain } => format!("dead: {}", chain.join("; ")),
                ReachStatus::Unknown { reason } => format!("unknown: {reason}"),
            };
            out.push_str(&format!(
                "reach[{}] branch#{} {} [{}]: {}\n",
                self.subject, row.branch, row.region, row.kind, verdict
            ));
        }
        out.push_str(&format!(
            "{}: {} guarded, {} dead, {} of {} branches reachable\n",
            self.subject,
            self.branches.len(),
            self.dead_branches().len(),
            self.reachable_branch_count(),
            self.branch_count
        ));
        out
    }
}

/// Proves reachability for every guard of one subject over one space.
///
/// Emits `CM062`/`CM063` for malformed guards, `CM060` (partition) or
/// `CM061` (global) for proven-dead branches, and `CM064` when a solver
/// limit prevents certification. Certified-reachable branches produce no
/// diagnostic — their witnesses ride on the returned [`ReachAnalysis`].
#[must_use]
pub fn analyze_reachability(
    subject: &str,
    guards: &GuardTable,
    constraints: &ConstraintSet,
    model: &ConfigModel,
    branch_count: usize,
    space: &ReachSpace,
) -> ReachAnalysis {
    let mut analyses = analyze_reachability_over(
        subject,
        guards,
        constraints,
        model,
        branch_count,
        std::slice::from_ref(space),
    );
    analyses.pop().expect("one analysis per space")
}

/// [`analyze_reachability`] over several spaces of one subject, one
/// analysis per space, in order.
///
/// Each guard's key closure and linked constraints do not depend on the
/// space, so they are worked out once. Spaces that give a guard the same
/// candidate domains share its solve; only the witness differs, since it
/// extends each space's own base configuration.
#[must_use]
pub fn analyze_reachability_over(
    subject: &str,
    guards: &GuardTable,
    constraints: &ConstraintSet,
    model: &ConfigModel,
    branch_count: usize,
    spaces: &[ReachSpace],
) -> Vec<ReachAnalysis> {
    let mut reports: Vec<Report> = spaces.iter().map(|_| Report::new()).collect();
    let mut branches: Vec<Vec<BranchReach>> = spaces.iter().map(|_| Vec::new()).collect();
    let all = constraints.constraints();
    // Every constraint's evaluation keys, computed once for all guards.
    let constraint_keys: Vec<Vec<String>> = all
        .iter()
        .map(|c| c.conditions().iter().flat_map(cond_eval_keys).collect())
        .collect();
    for guard in guards.iter() {
        let path = format!("branch:{}", guard.region());
        if guard.branch() as usize >= branch_count {
            for (report, branches) in reports.iter_mut().zip(&mut branches) {
                report.push(Diagnostic::new(
                    "CM063",
                    Severity::Error,
                    subject,
                    &path,
                    &format!(
                        "guard branch index {} is outside the branch space (0..{branch_count})",
                        guard.branch()
                    ),
                    "fix the branch index in the guard table",
                ));
                branches.push(row(
                    guard,
                    ReachStatus::Unknown {
                        reason: "branch index outside the branch space".to_owned(),
                    },
                ));
            }
            continue;
        }
        let unknown: Vec<&str> = guard
            .referenced_items()
            .into_iter()
            .filter(|item| !model_knows(model, item))
            .collect();
        if !unknown.is_empty() {
            for (report, branches) in reports.iter_mut().zip(&mut branches) {
                for item in &unknown {
                    report.push(Diagnostic::new(
                        "CM062",
                        Severity::Error,
                        subject,
                        &path,
                        &format!("guard references unknown config item \"{item}\""),
                        "declare the item in the target's config space or fix the guard key",
                    ));
                }
                branches.push(row(
                    guard,
                    ReachStatus::Unknown {
                        reason: format!("guard references unknown items: {}", unknown.join(", ")),
                    },
                ));
            }
            continue;
        }

        // Key closure: the guard's evaluation keys, extended with every
        // constraint transitively sharing a key — exactly the keys whose
        // values can influence whether the guard holds on a bootable
        // config.
        let guard_keys: Vec<String> = guard.conditions().iter().flat_map(cond_eval_keys).collect();
        let mut closure: BTreeSet<&str> = guard_keys.iter().map(String::as_str).collect();
        let mut linked: Vec<usize> = Vec::new();
        loop {
            let mut grew = false;
            for (i, keys) in constraint_keys.iter().enumerate() {
                if linked.contains(&i) {
                    continue;
                }
                if keys.iter().any(|k| closure.contains(k.as_str())) {
                    closure.extend(keys.iter().map(String::as_str));
                    linked.push(i);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        linked.sort_unstable();
        let linked: Vec<&ConfigConstraint> = linked.iter().map(|&i| &all[i]).collect();
        let relevant_conds: Vec<&Condition> = guard
            .conditions()
            .iter()
            .chain(linked.iter().flat_map(|c| c.conditions()))
            .collect();

        // Solves so far, by the candidate domains they ran over.
        let mut solved: Vec<(BTreeMap<&str, Domain>, ReachStatus)> = Vec::new();
        for (s, space) in spaces.iter().enumerate() {
            let mut domains: BTreeMap<&str, Domain> = closure
                .iter()
                .map(|&k| (k, build_domain(k, space, model, &relevant_conds)))
                .collect();
            if matches!(space, ReachSpace::Global) {
                extend_cross_item(&mut domains, &relevant_conds);
            }
            let status = match solved.iter().find(|(seen, _)| *seen == domains) {
                Some((_, status)) => status.clone(),
                None => {
                    let status = solve_guard(guard, &linked, &domains);
                    solved.push((domains, status.clone()));
                    status
                }
            };
            let status = over_base(status, space, &closure, all);
            if let Some(diagnostic) = diagnose(subject, &path, space, &status) {
                reports[s].push(diagnostic);
            }
            branches[s].push(row(guard, status));
        }
    }
    spaces
        .iter()
        .zip(reports)
        .zip(branches)
        .map(|((_, mut report), branches)| {
            report.sort();
            ReachAnalysis {
                subject: subject.to_owned(),
                branch_count,
                report,
                branches,
            }
        })
        .collect()
}

/// The diagnostic a guard's verdict in `space` reports, if any.
fn diagnose(
    subject: &str,
    path: &str,
    space: &ReachSpace,
    status: &ReachStatus,
) -> Option<Diagnostic> {
    match status {
        ReachStatus::Dead { chain } => {
            let (code, severity, scope, hint) = match space {
                ReachSpace::Partition { .. } => (
                    "CM060",
                    Severity::Warn,
                    "statically dead in this partition",
                    "widen the partition's value domains or drop the branch from its goals",
                ),
                ReachSpace::Global => (
                    "CM061",
                    Severity::Error,
                    "statically dead under every configuration",
                    "the guard contradicts the declared constraints; fix the guard table or the constraint set",
                ),
            };
            Some(Diagnostic::new(
                code,
                severity,
                subject,
                path,
                &format!("branch is {scope}: {}", chain.join("; ")),
                hint,
            ))
        }
        ReachStatus::Unknown { reason } => Some(Diagnostic::new(
            "CM064",
            Severity::Warn,
            subject,
            path,
            &format!("reachability not certified: {reason}"),
            "simplify the guard or raise the solver enumeration cap",
        )),
        ReachStatus::Reachable { .. } => None,
    }
}

/// Turns a solve's closure bindings into `space`'s witness: its base
/// configuration with the closure keys rebound. A witness that some
/// startup constraint outside the closure still blocks certifies nothing.
fn over_base(
    status: ReachStatus,
    space: &ReachSpace,
    closure: &BTreeSet<&str>,
    constraints: &[ConfigConstraint],
) -> ReachStatus {
    let ReachStatus::Reachable { witness: bindings } = status else {
        return status;
    };
    let witness = match space {
        ReachSpace::Partition { base, .. } => {
            let mut witness = base.clone();
            for &key in closure {
                match bindings.get(key) {
                    Some(value) => witness.set(key, value.clone()),
                    None => {
                        witness.unset(key);
                    }
                }
            }
            witness
        }
        ReachSpace::Global => bindings,
    };
    if constraints.iter().any(|c| c.violated_by(&witness)) {
        ReachStatus::Unknown {
            reason: format!(
                "witness {witness} is blocked by a startup constraint outside the guard's key closure"
            ),
        }
    } else {
        ReachStatus::Reachable { witness }
    }
}

fn row(guard: &BranchGuard, status: ReachStatus) -> BranchReach {
    BranchReach {
        branch: guard.branch(),
        region: guard.region().to_owned(),
        kind: guard.kind(),
        status,
    }
}

/// Whether the model declares `item` — directly, or as the base of
/// flattened indexed-list entities (`item[0]`, …).
fn model_knows(model: &ConfigModel, item: &str) -> bool {
    if model.entity(item).is_some() {
        return true;
    }
    let prefix = format!("{item}[");
    model
        .entities()
        .iter()
        .any(|e| e.name().starts_with(&prefix))
}

/// The concrete config keys a condition evaluates (list predicates expand
/// to their indexed slots).
fn cond_eval_keys(cond: &Condition) -> Vec<String> {
    match cond.predicate() {
        Predicate::ListHasOrEmpty { .. } | Predicate::ListLacks { .. } => (0..LIST_SCAN)
            .map(|i| format!("{}[{i}]", cond.key()))
            .collect(),
        Predicate::IntAboveItem { other, .. } => vec![cond.key().to_owned(), other.clone()],
        _ => vec![cond.key().to_owned()],
    }
}

/// Proves one guard over the candidate `domains` of its key closure. A
/// reachable verdict's witness binds the closure keys only; see
/// [`over_base`].
fn solve_guard(
    guard: &BranchGuard,
    linked: &[&ConfigConstraint],
    domains: &BTreeMap<&str, Domain>,
) -> ReachStatus {
    let keys: Vec<&str> = domains.keys().copied().collect();
    let mut solver = Solver::new(domains.clone());
    solver.solve(guard.conditions(), linked);

    if solver.is_unsat() {
        // Defensive cross-check: exhaustively confirm the refutation over
        // the *un-narrowed* domains when the space is small enough.
        if product_size(&keys, domains) <= ENUM_CAP
            && enumerate(&keys, domains, guard.conditions(), linked).is_some()
        {
            return ReachStatus::Unknown {
                reason: "propagation and enumeration disagree; claiming nothing".to_owned(),
            };
        }
        return ReachStatus::Dead {
            chain: solver.into_chain(),
        };
    }

    let narrowed = solver.domains();
    let size = product_size(&keys, narrowed);
    if size > ENUM_CAP {
        return ReachStatus::Unknown {
            reason: format!(
                "candidate space of {size} configurations exceeds the {ENUM_CAP} enumeration cap"
            ),
        };
    }
    match enumerate(&keys, narrowed, guard.conditions(), linked) {
        Some(witness) => ReachStatus::Reachable { witness },
        None => {
            let mut chain = solver.into_chain();
            chain.push(format!(
                "exhausted {size} candidate configurations over [{}]; none satisfies the guard on a bootable config",
                keys.join(", ")
            ));
            ReachStatus::Dead { chain }
        }
    }
}

/// Builds the candidate domain for one evaluation key.
fn build_domain(
    key: &str,
    space: &ReachSpace,
    model: &ConfigModel,
    conds: &[&Condition],
) -> Domain {
    match space {
        ReachSpace::Partition { base, domains } => {
            if let Some(candidates) = domains.get(key) {
                let can_unbound = candidates.iter().any(Option::is_none);
                let values = candidates.iter().filter_map(Clone::clone).collect();
                Domain::new(can_unbound, values)
            } else if let Some(value) = base.get(key) {
                Domain::new(false, vec![value.clone()])
            } else {
                Domain::new(true, Vec::new())
            }
        }
        ReachSpace::Global => {
            let mut values: Vec<ConfigValue> = Vec::new();
            if let Some(entity) = model.entity(key) {
                values.extend(entity.values().iter().cloned());
            }
            for cond in conds {
                boundary_values(cond, key, &mut values);
            }
            dedup(&mut values);
            Domain::new(true, values)
        }
    }
}

/// Pushes the predicate's decision-boundary values for `key` (the values
/// at and adjacent to every interval endpoint, every mentioned string,
/// and an unlisted-string sentinel), making the finite candidate set
/// decisive for the predicate vocabulary.
fn boundary_values(cond: &Condition, key: &str, out: &mut Vec<ConfigValue>) {
    let applies = cond.key() == key;
    match cond.predicate() {
        Predicate::BoolIs { .. } if applies => {
            out.push(ConfigValue::Bool(true));
            out.push(ConfigValue::Bool(false));
        }
        Predicate::IntEquals { expected, .. } if applies => {
            push_ints(
                out,
                &[
                    expected.saturating_sub(1),
                    *expected,
                    expected.saturating_add(1),
                ],
            );
        }
        Predicate::IntBelow { limit, .. } if applies => {
            push_ints(out, &[limit.saturating_sub(1), *limit, i64::MIN]);
        }
        Predicate::IntWithin { min, max, .. } | Predicate::IntOutside { min, max, .. }
            if applies =>
        {
            push_ints(
                out,
                &[
                    min.saturating_sub(1),
                    *min,
                    *max,
                    max.saturating_add(1),
                    i64::MIN,
                    i64::MAX,
                ],
            );
        }
        Predicate::IntAboveItem {
            other,
            default,
            other_default,
        } => {
            if applies {
                push_ints(out, &[*default, other_default.saturating_add(1), i64::MAX]);
            }
            if other == key {
                push_ints(out, &[*other_default, default.saturating_sub(1), i64::MIN]);
            }
        }
        Predicate::StrIs { expected, default } if applies => {
            out.push(ConfigValue::Str(expected.clone()));
            out.push(ConfigValue::Str(default.clone()));
        }
        Predicate::StrIn { any_of, default } if applies => {
            out.extend(any_of.iter().cloned().map(ConfigValue::Str));
            out.push(ConfigValue::Str(default.clone()));
        }
        Predicate::StrNotIn { allowed, default } if applies => {
            out.extend(allowed.iter().cloned().map(ConfigValue::Str));
            out.push(ConfigValue::Str(default.clone()));
            let mut unlisted = "cmfuzz-unlisted".to_owned();
            while allowed.contains(&unlisted) || default == &unlisted {
                unlisted.push('+');
            }
            out.push(ConfigValue::Str(unlisted));
        }
        // List predicates evaluate the indexed slots of their base key.
        Predicate::ListHasOrEmpty { value } | Predicate::ListLacks { value }
            if key.starts_with(&format!("{}[", cond.key())) =>
        {
            out.push(ConfigValue::Str(value.clone()));
        }
        _ => {}
    }
}

fn push_ints(out: &mut Vec<ConfigValue>, values: &[i64]) {
    out.extend(values.iter().map(|v| ConfigValue::Int(*v)));
}

fn dedup(values: &mut Vec<ConfigValue>) {
    let mut seen: Vec<ConfigValue> = Vec::with_capacity(values.len());
    values.retain(|v| {
        if seen.contains(v) {
            false
        } else {
            seen.push(v.clone());
            true
        }
    });
}

/// One cross-extension pass for `IntAboveItem`: each side's candidates
/// gain the values just above/below the other side's, so a satisfiable
/// strict inequality always has a witnessing pair in the grid.
fn extend_cross_item(domains: &mut BTreeMap<&str, Domain>, conds: &[&Condition]) {
    for cond in conds {
        let Predicate::IntAboveItem {
            other,
            default,
            other_default,
        } = cond.predicate()
        else {
            continue;
        };
        let other_ints: Vec<i64> = domains
            .get(other.as_str())
            .map(|d| d.values.iter().filter_map(ConfigValue::as_int).collect())
            .unwrap_or_default();
        let key_ints: Vec<i64> = domains
            .get(cond.key())
            .map(|d| d.values.iter().filter_map(ConfigValue::as_int).collect())
            .unwrap_or_default();
        if let Some(domain) = domains.get_mut(cond.key()) {
            let mut extended: Vec<i64> = other_ints.iter().map(|v| v.saturating_add(1)).collect();
            extended.push(other_default.saturating_add(1));
            push_ints(&mut domain.values, &extended);
            dedup(&mut domain.values);
        }
        if let Some(domain) = domains.get_mut(other.as_str()) {
            let mut extended: Vec<i64> = key_ints.iter().map(|v| v.saturating_sub(1)).collect();
            extended.push(default.saturating_sub(1));
            push_ints(&mut domain.values, &extended);
            dedup(&mut domain.values);
        }
    }
}

fn product_size(keys: &[&str], domains: &BTreeMap<&str, Domain>) -> u128 {
    keys.iter().fold(1u128, |acc, k| {
        let size = domains.get(*k).map_or(1, Domain::size) as u128;
        acc.saturating_mul(size.max(1))
    })
}

/// Exhaustively walks the domain product in canonical (sorted-key,
/// declaration-value) order, returning the bindings of `keys` in the first
/// configuration that satisfies every guard condition and avoids every
/// linked constraint.
///
/// The conditions read only `keys` (the guard's key closure), and every
/// key's domain already holds what the space's base binds it to, so the
/// walk needs no other binding. One configuration is walked in place: each
/// odometer step rebinds only the keys whose candidate changed.
fn enumerate(
    keys: &[&str],
    domains: &BTreeMap<&str, Domain>,
    guard_conds: &[Condition],
    linked: &[&ConfigConstraint],
) -> Option<ResolvedConfig> {
    let candidates: Vec<&Domain> = keys.iter().map(|k| &domains[*k]).collect();
    if candidates.iter().any(|d| d.is_empty()) {
        return None;
    }
    let mut config = ResolvedConfig::new();
    let mut odometer = vec![0usize; keys.len()];
    // Positions `changed..` must be rebound before the next test.
    let mut changed = 0;
    loop {
        for pos in changed..keys.len() {
            match candidates[pos].candidate(odometer[pos]) {
                Some(value) => config.set(keys[pos], value.clone()),
                None => {
                    config.unset(keys[pos]);
                }
            }
        }
        if guard_conds.iter().all(|c| c.matches(&config))
            && !linked.iter().any(|c| c.violated_by(&config))
        {
            return Some(config);
        }
        // Advance the odometer, rightmost key fastest.
        let mut pos = keys.len();
        loop {
            if pos == 0 {
                return None;
            }
            pos -= 1;
            odometer[pos] += 1;
            if odometer[pos] < candidates[pos].size() {
                break;
            }
            odometer[pos] = 0;
        }
        changed = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::{ConfigConstraint, ConfigEntity, GuardTable, Mutability, ValueType};

    fn model(entities: Vec<ConfigEntity>) -> ConfigModel {
        ConfigModel::from_entities(entities)
    }

    fn bool_entity(name: &str) -> ConfigEntity {
        ConfigEntity::new(
            name,
            ValueType::Boolean,
            Mutability::Mutable,
            vec![ConfigValue::Bool(false), ConfigValue::Bool(true)],
        )
    }

    fn int_entity(name: &str, values: &[i64]) -> ConfigEntity {
        ConfigEntity::new(
            name,
            ValueType::Number,
            Mutability::Mutable,
            values.iter().map(|v| ConfigValue::Int(*v)).collect(),
        )
    }

    fn partition(domains: &[(&str, Vec<Option<ConfigValue>>)]) -> ReachSpace {
        ReachSpace::Partition {
            base: ResolvedConfig::new(),
            domains: domains
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        }
    }

    fn opts(values: &[i64]) -> Vec<Option<ConfigValue>> {
        let mut out = vec![None];
        out.extend(values.iter().map(|v| Some(ConfigValue::Int(*v))));
        out
    }

    #[test]
    fn dead_branch_in_partition_gets_cm060_with_chain() {
        let guards = GuardTable::new().with(BranchGuard::new(
            2,
            "start::big-cache",
            GuardKind::Startup,
            vec![Condition::int_within("cache", 500, i64::MAX, 100)],
        ));
        // The partition can only reach cache ∈ {unbound(100), 0, 200}.
        let space = partition(&[("cache", opts(&[0, 200]))]);
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![int_entity("cache", &[100, 0, 200])]),
            8,
            &space,
        );
        assert_eq!(analysis.dead_branches(), vec![2]);
        assert_eq!(analysis.reachable_branch_count(), 7);
        let diag = &analysis.report().diagnostics()[0];
        assert_eq!(diag.code(), "CM060");
        assert_eq!(diag.severity(), Severity::Warn);
        assert!(
            diag.message().contains("unsatisfiable"),
            "{}",
            diag.message()
        );
    }

    #[test]
    fn reachable_branch_gets_certified_witness() {
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "start::tls",
            GuardKind::Startup,
            vec![Condition::bool_is("tls", true, false)],
        ));
        let space = partition(&[(
            "tls",
            vec![
                None,
                Some(ConfigValue::Bool(true)),
                Some(ConfigValue::Bool(false)),
            ],
        )]);
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![bool_entity("tls")]),
            4,
            &space,
        );
        assert!(analysis.report().is_empty(), "{:?}", analysis.report());
        let ReachStatus::Reachable { witness } = analysis.branches()[0].status() else {
            panic!("expected reachable, got {:?}", analysis.branches()[0]);
        };
        assert!(Condition::bool_is("tls", true, false).matches(witness));
    }

    #[test]
    fn constraint_interaction_kills_branch() {
        // Guard needs tls; the only auth value the partition offers
        // conflicts with tls at startup.
        let guards = GuardTable::new().with(BranchGuard::new(
            1,
            "handler::secure",
            GuardKind::Handler,
            vec![Condition::bool_is("tls", true, false)],
        ));
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "tls requires certificates",
            vec![
                Condition::bool_is("tls", true, false),
                Condition::bool_is("have-certs", false, false),
            ],
        ));
        let space = partition(&[
            ("tls", vec![None, Some(ConfigValue::Bool(true))]),
            // have-certs is pinned false in this partition.
        ]);
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &constraints,
            &model(vec![bool_entity("tls"), bool_entity("have-certs")]),
            4,
            &space,
        );
        assert_eq!(analysis.dead_branches(), vec![1]);
        let message = analysis.report().diagnostics()[0].message();
        assert!(message.contains("tls requires certificates"), "{message}");
    }

    #[test]
    fn global_mode_finds_witness_beyond_typical_values() {
        // Guard requires a value outside the entity's typical list; the
        // boundary closure must still find it.
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "start::huge",
            GuardKind::Startup,
            vec![Condition::int_within("queue", 900, 1000, 10)],
        ));
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![int_entity("queue", &[10, 0, 20])]),
            4,
            &ReachSpace::Global,
        );
        let ReachStatus::Reachable { witness } = analysis.branches()[0].status() else {
            panic!("expected reachable, got {:?}", analysis.branches()[0]);
        };
        let v = witness.int_or("queue", 10);
        assert!((900..=1000).contains(&v), "witness {witness}");
    }

    #[test]
    fn globally_contradictory_guard_is_cm061_error() {
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "start::ghost",
            GuardKind::Startup,
            vec![Condition::int_within("port", 70000, 80000, 1883)],
        ));
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 1883)],
        ));
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &constraints,
            &model(vec![int_entity("port", &[1883])]),
            4,
            &ReachSpace::Global,
        );
        let diag = &analysis.report().diagnostics()[0];
        assert_eq!(diag.code(), "CM061");
        assert_eq!(diag.severity(), Severity::Error);
        assert_eq!(analysis.dead_branches(), vec![0]);
    }

    #[test]
    fn unknown_item_and_bad_index_are_cm062_cm063() {
        let guards = GuardTable::new()
            .with(BranchGuard::new(
                0,
                "start::typo",
                GuardKind::Startup,
                vec![Condition::bool_is("no-such-item", true, false)],
            ))
            .with(BranchGuard::new(
                99,
                "start::overflow",
                GuardKind::Startup,
                vec![],
            ));
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![bool_entity("tls")]),
            4,
            &ReachSpace::Global,
        );
        let codes: Vec<&str> = analysis
            .report()
            .diagnostics()
            .iter()
            .map(Diagnostic::code)
            .collect();
        assert_eq!(codes, vec!["CM062", "CM063"]);
        assert!(
            analysis.dead_branches().is_empty(),
            "malformed guards claim nothing"
        );
    }

    #[test]
    fn int_above_item_guard_resolves_via_cross_extension() {
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "handler::fragment",
            GuardKind::Handler,
            vec![Condition::int_above_item("frag", "mtu", 1300, 1400)],
        ));
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![
                int_entity("frag", &[1300]),
                int_entity("mtu", &[1400]),
            ]),
            4,
            &ReachSpace::Global,
        );
        let ReachStatus::Reachable { witness } = analysis.branches()[0].status() else {
            panic!("expected reachable, got {:?}", analysis.branches()[0]);
        };
        assert!(
            witness.int_or("frag", 1300) > witness.int_or("mtu", 1400),
            "witness {witness}"
        );
    }

    #[test]
    fn list_guard_is_decided_concretely() {
        let mech = ConfigEntity::new(
            "mech[0]",
            ValueType::String,
            Mutability::Mutable,
            vec![ConfigValue::Str("plain".to_owned())],
        );
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "start::external",
            GuardKind::Startup,
            vec![Condition::list_has_or_empty("mech", "external")],
        ));
        let analysis = analyze_reachability(
            "demo",
            &guards,
            &ConstraintSet::new(),
            &model(vec![mech]),
            4,
            &ReachSpace::Global,
        );
        let ReachStatus::Reachable { witness } = analysis.branches()[0].status() else {
            panic!("expected reachable, got {:?}", analysis.branches()[0]);
        };
        assert!(Condition::list_has_or_empty("mech", "external").matches(witness));
    }

    #[test]
    fn render_text_is_deterministic_and_sorted() {
        let guards = GuardTable::new().with(BranchGuard::new(
            0,
            "start::tls",
            GuardKind::Startup,
            vec![Condition::bool_is("tls", true, false)],
        ));
        let run = || {
            analyze_reachability(
                "demo",
                &guards,
                &ConstraintSet::new(),
                &model(vec![bool_entity("tls")]),
                4,
                &ReachSpace::Global,
            )
            .render_text()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(
            a.contains("reach[demo] branch#0 start::tls [startup]: reachable"),
            "{a}"
        );
        assert!(a.ends_with("4 branches reachable\n"), "{a}");
    }
}
