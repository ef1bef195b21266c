//! Pairwise relation-weight quantification via startup coverage
//! (paper §III-B1).

use cmfuzz_config_model::{ConfigModel, ResolvedConfig};
use cmfuzz_coverage::{CoverageMap, CoverageSnapshot};
use cmfuzz_fuzzer::Target;

use crate::graph::RelationGraph;

/// How a pair's probed coverage figures are turned into its relation
/// weight.
///
/// The paper specifies "the highest coverage across all combinations" and
/// normalization, but on targets whose every configuration pair boots with
/// a large shared base of startup branches, that literal rule makes every
/// edge's rank track the two entities' solo contributions: Algorithm 2's
/// attach rule then chains all entities into one group (verified by the
/// `MaxAbsolute` ablation bench). `Interaction` therefore refines the
/// weight to the pair's *synergy*: the branches covered only when the two
/// items are set together — beyond the default baseline and beyond what
/// either value unlocks alone. This matches the paper's rationale —
/// "configurations with synergistic relations often unlock new execution
/// paths when used together" — and produces the sparse, subsystem-clustered
/// relation graph its Figure 3 depicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMode {
    /// Peak pairwise synergy: `max over combos of
    /// |pair_coverage \ (baseline ∪ solo₁ ∪ solo₂)|` (default).
    #[default]
    Interaction,
    /// The paper's literal rule: peak absolute startup branch count over
    /// all combinations (ablation — degenerates on dense graphs).
    MaxAbsolute,
    /// Mean marginal branch count over combinations (ablation).
    Mean,
}

/// Options for relation quantification.
#[derive(Debug, Clone)]
pub struct RelationOptions {
    /// Cap on values probed per entity (the paper "explores all possible
    /// value combinations for each pair"; entity value sets here are small,
    /// so a cap of 3–4 per entity keeps the full quadratic probe cheap
    /// while covering the default plus the most interesting alternatives).
    pub values_per_entity: usize,
    /// Weight aggregation mode.
    pub mode: WeightMode,
}

impl Default for RelationOptions {
    fn default() -> Self {
        RelationOptions {
            values_per_entity: 4,
            mode: WeightMode::Interaction,
        }
    }
}

/// Quantifies pairwise relation weights by probing startup coverage with a
/// caller-supplied probe function, and returns the normalized
/// relation-aware graph.
///
/// `probe` receives a configuration binding a value assignment, writes the
/// startup coverage into the caller's snapshot, and returns whether the
/// target booted. A configuration that fails to start (a conflicting
/// configuration) contributes zero coverage, per the paper, whatever the
/// probe left in the snapshot. Pairs whose weight is zero across all
/// combinations get no edge.
///
/// # Examples
///
/// ```
/// use cmfuzz::relation::{quantify_with, RelationOptions};
/// use cmfuzz_config_model::{extract_model, ConfigSpace};
/// use cmfuzz_coverage::CoverageSnapshot;
///
/// let model = extract_model(&ConfigSpace {
///     cli: vec!["--a=1".to_owned(), "--b=true".to_owned()],
///     files: vec![],
/// });
/// // A toy probe: branch 0 always; branch 1 only when both items are set.
/// let graph = quantify_with(&model, &RelationOptions::default(), |config, out| {
///     let hits: Vec<usize> = if config.len() == 2 { vec![0, 1] } else { vec![0] };
///     *out = CoverageSnapshot::from_hits(2, hits);
///     true
/// });
/// assert_eq!(graph.edge_count(), 1);
/// assert_eq!(graph.weight_between("a", "b"), Some(1.0));
/// ```
pub fn quantify_with<F>(
    model: &ConfigModel,
    options: &RelationOptions,
    mut probe: F,
) -> RelationGraph
where
    F: FnMut(&ResolvedConfig, &mut CoverageSnapshot) -> bool,
{
    let mut graph = RelationGraph::new();
    let mutable: Vec<_> = model.mutable_entities().collect();
    for entity in &mutable {
        graph.add_node(entity.name());
    }
    // One configuration, rebound in place for every solo and pair probe.
    let mut config = ResolvedConfig::new();
    let mut baseline = CoverageSnapshot::empty(0);
    if !probe(&config, &mut baseline) {
        baseline.clear_to_capacity(0);
    }
    // A configuration that fails to boot reads as empty coverage at the
    // baseline's capacity.
    let capacity = baseline.capacity();
    let mut run = |config: &ResolvedConfig, out: &mut CoverageSnapshot| {
        if !probe(config, out) {
            out.clear_to_capacity(capacity);
        }
    };

    // Solo coverage per (entity, value): what that value reaches when set
    // alone. The interaction term of a combination subtracts the union of
    // the *specific* values' solo coverage.
    let mut solo: Vec<Vec<CoverageSnapshot>> = Vec::with_capacity(mutable.len());
    for entity in &mutable {
        let mut row = Vec::with_capacity(options.values_per_entity);
        for value in entity.values().iter().take(options.values_per_entity) {
            config.set(entity.name(), value.clone());
            let mut snapshot = CoverageSnapshot::empty(capacity);
            run(&config, &mut snapshot);
            row.push(snapshot);
        }
        config.unset(entity.name());
        solo.push(row);
    }

    let mut pair = CoverageSnapshot::empty(capacity);
    let mut known = CoverageSnapshot::empty(capacity);
    for (i, first) in mutable.iter().enumerate() {
        for (j, second) in mutable.iter().enumerate().skip(i + 1) {
            let mut best_abs = 0usize;
            let mut best_interaction = 0usize;
            let mut sum_marginal = 0usize;
            let mut combos = 0usize;
            for (vi, v1) in first
                .values()
                .iter()
                .take(options.values_per_entity)
                .enumerate()
            {
                config.set(first.name(), v1.clone());
                for (vj, v2) in second
                    .values()
                    .iter()
                    .take(options.values_per_entity)
                    .enumerate()
                {
                    config.set(second.name(), v2.clone());
                    run(&config, &mut pair);
                    // Known set: baseline ∪ solo(first=v1) ∪ solo(second=v2).
                    known.clone_from(&baseline);
                    known.union_with(&solo[i][vi]);
                    known.union_with(&solo[j][vj]);
                    best_abs = best_abs.max(pair.covered_count());
                    best_interaction = best_interaction.max(pair.newly_covered(&known));
                    sum_marginal += pair.newly_covered(&baseline);
                    combos += 1;
                }
            }
            config.unset(second.name());
            let weight = match options.mode {
                WeightMode::Interaction => best_interaction as f64,
                WeightMode::MaxAbsolute => best_abs as f64,
                WeightMode::Mean => {
                    if combos == 0 {
                        0.0
                    } else {
                        sum_marginal as f64 / combos as f64
                    }
                }
            };
            // "if the coverage for a pair of entities is zero across all
            // combinations, CMFuzz does not create an edge".
            if weight > 0.0 {
                graph.add_edge(first.name(), second.name(), weight);
            }
        }
        config.unset(first.name());
    }
    graph.normalize_weights();
    graph
}

/// Quantifies relation weights against a real [`Target`]: each combination
/// boots the target on one coverage map, reset before every boot, and
/// measures startup coverage.
///
/// # Examples
///
/// See [`quantify_with`]; this function only supplies the probe.
pub fn quantify_target<T: Target + ?Sized>(
    target: &mut T,
    model: &ConfigModel,
    options: &RelationOptions,
) -> RelationGraph {
    let map = CoverageMap::new(target.branch_count());
    quantify_with(model, options, |config, out| {
        boot_into(target, &map, config, out)
    })
}

/// Boots `target` under `config` on `map`, cleared first, and on success
/// copies the startup coverage into `out`. Returns whether it booted.
pub(crate) fn boot_into<T: Target + ?Sized>(
    target: &mut T,
    map: &CoverageMap,
    config: &ResolvedConfig,
    out: &mut CoverageSnapshot,
) -> bool {
    map.reset();
    let booted = target.start(config, map.probe()).is_ok();
    if booted {
        map.snapshot_into(out);
    }
    booted
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::{extract_model, ConfigSpace};
    use cmfuzz_protocols::spec_by_name;

    fn toy_model(cli: &[&str]) -> ConfigModel {
        extract_model(&ConfigSpace {
            cli: cli.iter().map(|s| (*s).to_owned()).collect(),
            files: vec![],
        })
    }

    fn snap(capacity: usize, hits: &[usize]) -> CoverageSnapshot {
        CoverageSnapshot::from_hits(capacity, hits.iter().copied())
    }

    #[test]
    fn all_zero_pairs_get_no_edge() {
        let model = toy_model(&["--a=1", "--b=2", "--c=3"]);
        let graph = quantify_with(&model, &RelationOptions::default(), |_, out| {
            *out = snap(8, &[]);
            true
        });
        assert_eq!(graph.edge_count(), 0);
        assert_eq!(graph.node_count(), 3, "nodes exist even without edges");
    }

    #[test]
    fn failed_starts_count_as_zero() {
        let model = toy_model(&["--a=1", "--b=2"]);
        let graph = quantify_with(&model, &RelationOptions::default(), |_, _| false);
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn interaction_mode_ignores_additive_pairs() {
        let model = toy_model(&["--a=1", "--b=2", "--c=3"]);
        // Branch 0 baseline; branch 1 when `a` set, 2 when `b`, 3 when `c`;
        // branch 4 only when a AND b are set together.
        let graph = quantify_with(&model, &RelationOptions::default(), |config, out| {
            let mut hits = vec![0usize];
            if config.get("a").is_some() {
                hits.push(1);
            }
            if config.get("b").is_some() {
                hits.push(2);
            }
            if config.get("c").is_some() {
                hits.push(3);
            }
            if config.get("a").is_some() && config.get("b").is_some() {
                hits.push(4);
            }
            *out = snap(8, &hits);
            true
        });
        assert_eq!(graph.edge_count(), 1, "only the synergistic pair");
        assert_eq!(graph.weight_between("a", "b"), Some(1.0));
        assert_eq!(graph.weight_between("a", "c"), None);
    }

    #[test]
    fn interaction_counts_replaced_branches() {
        // Setting `a` REPLACES baseline branch 0 with branch 1 (no count
        // change); setting both replaces with joint branch 2. The set-based
        // interaction still sees the joint branch.
        let model = toy_model(&["--a=1", "--b=2"]);
        let graph = quantify_with(&model, &RelationOptions::default(), |config, out| {
            let hits: Vec<usize> = match (config.get("a").is_some(), config.get("b").is_some()) {
                (false, false) => vec![0],
                (true, false) => vec![1],
                (false, true) => vec![0, 3],
                (true, true) => vec![1, 2, 3],
            };
            *out = snap(8, &hits);
            true
        });
        assert_eq!(graph.edge_count(), 1);
    }

    #[test]
    fn max_absolute_mode_keeps_every_booting_pair() {
        let model = toy_model(&["--a=1", "--b=2", "--c=3"]);
        let graph = quantify_with(
            &model,
            &RelationOptions {
                values_per_entity: 2,
                mode: WeightMode::MaxAbsolute,
            },
            |_, out| {
                *out = snap(4, &[0, 1]);
                true
            },
        );
        assert_eq!(graph.edge_count(), 3, "all pairs have coverage");
    }

    #[test]
    fn mean_mode_averages_marginals() {
        let model = toy_model(&["--a=1", "--b=2"]);
        let mut pair_calls = 0usize;
        let graph = quantify_with(
            &model,
            &RelationOptions {
                values_per_entity: 2,
                mode: WeightMode::Mean,
            },
            |config, out| {
                if config.len() == 2 {
                    pair_calls += 1;
                    *out = snap(8, &[0, 1]);
                } else {
                    *out = snap(8, &[0]);
                }
                true
            },
        );
        assert_eq!(pair_calls, 4, "2x2 combinations probed");
        assert_eq!(graph.edge_count(), 1, "positive mean marginal");
    }

    #[test]
    fn values_per_entity_caps_pair_probe_count() {
        let model = toy_model(&["--a=10", "--b=20"]); // numbers have ~6 values
        let mut pair_calls = 0usize;
        let _ = quantify_with(
            &model,
            &RelationOptions {
                values_per_entity: 2,
                mode: WeightMode::Interaction,
            },
            |config, out| {
                if config.len() == 2 {
                    pair_calls += 1;
                }
                *out = snap(4, &[0]);
                true
            },
        );
        assert_eq!(pair_calls, 4);
    }

    #[test]
    fn immutable_entities_are_excluded() {
        let model = toy_model(&["--a=1", "--certfile=/x/y.crt"]);
        let graph = quantify_with(&model, &RelationOptions::default(), |_, out| {
            *out = snap(4, &[0]);
            true
        });
        assert_eq!(graph.node_count(), 1, "path entity excluded");
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn real_target_produces_sparse_synergy_graph() {
        let spec = spec_by_name("mosquitto").expect("mqtt spec");
        let mut target = (spec.build)();
        let model = extract_model(&target.config_space());
        let graph = quantify_target(&mut target, &model, &RelationOptions::default());
        // Sparse: far fewer edges than the complete graph.
        let nodes = graph.node_count();
        assert!(graph.edge_count() > 2, "some synergies exist");
        assert!(
            graph.edge_count() < nodes * (nodes - 1) / 4,
            "graph is sparse: {} edges over {} nodes",
            graph.edge_count(),
            nodes
        );
        for e in graph.edges() {
            assert!((0.0..=1.0).contains(&e.weight));
        }
        // The broker's known synergies surface as edges.
        assert!(
            graph.weight_between("persistence", "bridge-mode").is_some(),
            "bridge/persistence synergy missing"
        );
        assert!(
            graph.weight_between("tls_enabled", "auth-method").is_some(),
            "tls/auth synergy missing"
        );
        // A genuinely unrelated pair has none.
        assert!(graph.weight_between("v", "max_keepalive").is_none());
    }
}
