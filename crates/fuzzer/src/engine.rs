//! The fuzzing engine: one generation-based fuzzing instance.

use std::fmt;

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::{CoverageMap, CoverageSnapshot};
use cmfuzz_telemetry::EngineTelemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pit::PitDefinition;
use crate::{
    AddOutcome, CompiledStateModel, Corpus, CorpusConfig, DataModel, Fault, FaultLog,
    FieldNameTable, ModelId, ModelTable, Mutator, RenderProgram, Seed, StartError, Target,
};

/// Tunables of a fuzzing instance.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::EngineConfig;
///
/// let config = EngineConfig { seed: 7, ..EngineConfig::default() };
/// assert_eq!(config.max_session_len, 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// RNG seed; two engines with the same seed, target and Pit behave
    /// identically.
    pub seed: u64,
    /// Maximum transitions walked per session.
    pub max_session_len: usize,
    /// Maximum stacked byte-level mutation operators per message.
    pub mutation_stack: u32,
    /// Seed-corpus capacity (0 = unbounded).
    pub corpus_capacity: usize,
    /// Probability of perturbing data-model field values before a session.
    pub model_mutation_rate: f64,
    /// Probability of re-mutating a retained corpus seed instead of
    /// generating fresh bytes from the model.
    pub seed_reuse_rate: f64,
    /// Probability of applying byte-level havoc to a generated message.
    pub byte_mutation_rate: f64,
    /// Optional token dictionary spliced into havoc stacks (AFL-style);
    /// empty by default, leaving mutation behaviour unchanged.
    pub dictionary: Vec<Vec<u8>>,
    /// Corpus intelligence switches (near-dedup, rarity-weighted pick,
    /// rarity eviction). The default disables all three, preserving the
    /// historical uniform-pick FIFO corpus byte-for-byte; exact
    /// duplicates are dropped regardless.
    pub corpus: CorpusConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            max_session_len: 6,
            mutation_stack: 4,
            corpus_capacity: 256,
            model_mutation_rate: 0.3,
            seed_reuse_rate: 0.5,
            byte_mutation_rate: 0.6,
            dictionary: Vec::new(),
            corpus: CorpusConfig::default(),
        }
    }
}

/// Cumulative execution statistics of one fuzzing instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sessions executed.
    pub sessions: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Messages generated from a field-mutated model copy.
    pub model_mutations: u64,
    /// Messages taken from a retained corpus seed.
    pub seed_reuses: u64,
    /// Messages that additionally went through byte-level havoc.
    pub byte_mutations: u64,
    /// Fault events observed, duplicates included.
    pub crashes_observed: u64,
    /// Seeds retained by the corpus.
    pub seeds_retained: u64,
    /// Seeds dropped as byte-identical duplicates of retained seeds.
    pub seeds_deduped_exact: u64,
    /// Seeds dropped as MinHash near-duplicates of retained seeds.
    pub seeds_deduped_near: u64,
    /// Seeds evicted to respect the corpus capacity.
    pub seeds_evicted: u64,
    /// Seeds accepted from sibling instances or fleet-wide sharing.
    pub seeds_imported: u64,
}

/// What one fuzzing iteration (one protocol session) produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationOutcome {
    /// Branches covered for the first time by this instance.
    pub new_branches: usize,
    /// Previously unseen unique faults triggered.
    pub new_faults: usize,
    /// Protocol messages sent during the session.
    pub messages_sent: usize,
}

/// One fuzzing instance: a target, the shared Pit models, a coverage map
/// and the mutation/corpus machinery (the paper's per-instance Peach
/// process).
///
/// # Examples
///
/// See the `cmfuzz-protocols` crate tests and the repository examples; the
/// engine needs a [`Target`] implementation to run.
pub struct FuzzEngine<T: Target> {
    target: T,
    config: EngineConfig,
    map: CoverageMap,
    accumulated: CoverageSnapshot,
    /// Pristine data models, exactly as parsed from the Pit.
    working_models: Vec<DataModel>,
    /// Interned model names; dense ids shared by plans, seeds and the
    /// corpus. Engines built from the same Pit intern in the same order,
    /// so ids agree across a campaign's instances.
    models: ModelTable,
    /// Interned id of each working model, parallel to `working_models`.
    model_ids: Vec<ModelId>,
    /// [`ModelId::index`] → slot of the *first* working model with that
    /// name (duplicate names keep find-first semantics); `None` for ids
    /// interned from plans or transitions that match no data model.
    model_index: Vec<Option<usize>>,
    /// Per-model precompiled renders of the pristine models.
    programs: Vec<RenderProgram>,
    /// Per-model field-name tables (shape-level, so scratch copies reuse
    /// them).
    name_tables: Vec<FieldNameTable>,
    /// Mutable twins of `working_models`, restored to pristine values and
    /// re-mutated in place instead of cloning a model per field mutation.
    scratch_models: Vec<DataModel>,
    /// Recompile target for mutated scratch models.
    scratch_program: RenderProgram,
    /// Scratch for [`RenderProgram::compile_into`] length resolution.
    lengths_scratch: Vec<usize>,
    /// State model compiled to dense indices, if the Pit declares one.
    compiled_state: Option<CompiledStateModel>,
    /// Reusable session-plan buffer.
    plan_scratch: Vec<ModelId>,
    /// Batch arena: every message of a [`FuzzEngine::run_batch`] call,
    /// rendered back to back; capacity stabilizes at the high-water batch
    /// footprint.
    arena: Vec<u8>,
    /// `(offset, len)` of each arena message, in send order.
    arena_ranges: Vec<(u32, u32)>,
    /// Scratch for faults reported by [`Target::handle_batch`].
    batch_faults: Vec<(usize, Fault)>,
    corpus: Corpus,
    mutator: Mutator,
    faults: FaultLog,
    rng: StdRng,
    started: bool,
    /// Fixed session plans (SPFuzz-style path partitioning); when
    /// non-empty they replace random state walks, cycling in order.
    session_plans: Vec<Vec<ModelId>>,
    next_plan: usize,
    stats: EngineStats,
    /// Seeds retained since the last [`FuzzEngine::export_new_seeds`]
    /// drain, for cross-instance synchronization.
    outbox: Vec<Seed>,
    /// Seeds accepted by [`FuzzEngine::queue_import`] and not yet offered
    /// to the corpus by [`FuzzEngine::settle_imports`].
    queued_imports: Vec<Seed>,
    /// Metric handles mirrored into on every iteration; detached (and
    /// never read) unless [`FuzzEngine::attach_telemetry`] was called.
    telemetry: EngineTelemetry,
}

/// Renders the state that decides every future session: accumulated
/// coverage, both RNG stream positions, the corpus and queued imports,
/// the outbox, faults, statistics, the next fixed plan and the target.
/// Compiled models and scratch buffers are left out, so two engines that
/// will behave alike render alike, whatever batch sizes brought them
/// there.
impl<T: Target + fmt::Debug> fmt::Debug for FuzzEngine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FuzzEngine")
            .field("accumulated", &self.accumulated)
            .field("rng", &self.rng.state())
            .field("mutator_rng", &self.mutator.rng_state())
            .field("corpus", &self.corpus.iter().collect::<Vec<_>>())
            .field("queued_imports", &self.queued_imports)
            .field("outbox", &self.outbox)
            .field("faults", &self.faults)
            .field("stats", &self.stats)
            .field("next_plan", &self.next_plan)
            .field("started", &self.started)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl<T: Target> FuzzEngine<T> {
    /// Creates an engine for `target` driven by the models in `pit`.
    #[must_use]
    pub fn new(target: T, pit: PitDefinition, config: EngineConfig) -> Self {
        let map = CoverageMap::new(target.branch_count());
        let accumulated = CoverageSnapshot::empty(target.branch_count());
        let working_models = pit.data_models().to_vec();

        // Intern data-model names first (declaration order), then state
        // transitions: the order is a pure function of the Pit, so every
        // engine of a campaign assigns identical ids.
        let mut models = ModelTable::new();
        let mut model_ids = Vec::with_capacity(working_models.len());
        let mut model_index: Vec<Option<usize>> = Vec::new();
        for (slot, model) in working_models.iter().enumerate() {
            let id = models.intern(model.name());
            model_ids.push(id);
            if model_index.len() <= id.index() {
                model_index.resize(id.index() + 1, None);
            }
            if model_index[id.index()].is_none() {
                model_index[id.index()] = Some(slot);
            }
        }
        let compiled_state = pit
            .state_model()
            .map(|sm| CompiledStateModel::compile(sm, &mut models));
        if model_index.len() < models.len() {
            model_index.resize(models.len(), None);
        }

        // Compile each pristine model once; renders replay the flat
        // programs instead of re-walking the field tree.
        let mut programs = Vec::with_capacity(working_models.len());
        let mut name_tables = Vec::with_capacity(working_models.len());
        let mut lengths_scratch = Vec::new();
        for model in &working_models {
            let names = FieldNameTable::build(model);
            let mut program = RenderProgram::new();
            program.compile_into(model, &names, &mut lengths_scratch);
            programs.push(program);
            name_tables.push(names);
        }
        let scratch_models = working_models.clone();

        let mutator = Mutator::new(config.seed ^ 0x006d_7574_6174_6f72)
            .with_dictionary(config.dictionary.clone());
        let rng = StdRng::seed_from_u64(config.seed);
        let corpus = Corpus::with_config(config.corpus_capacity, config.corpus);
        FuzzEngine {
            target,
            config,
            map,
            accumulated,
            working_models,
            models,
            model_ids,
            model_index,
            programs,
            name_tables,
            scratch_models,
            scratch_program: RenderProgram::new(),
            lengths_scratch,
            compiled_state,
            plan_scratch: Vec::new(),
            arena: Vec::new(),
            arena_ranges: Vec::new(),
            batch_faults: Vec::new(),
            corpus,
            mutator,
            faults: FaultLog::new(),
            rng,
            started: false,
            session_plans: Vec::new(),
            next_plan: 0,
            stats: EngineStats::default(),
            outbox: Vec::new(),
            queued_imports: Vec::new(),
            telemetry: EngineTelemetry::detached(),
        }
    }

    /// Cumulative execution statistics.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Mirrors this engine's per-iteration statistics into shared metric
    /// handles (typically [`EngineTelemetry::for_pipeline`] handles, shared
    /// across all instances of one campaign).
    pub fn attach_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = telemetry;
    }

    /// Pins the engine to fixed session plans (sequences of data-model
    /// names), cycling through them instead of walking the state model
    /// randomly. This is how SPFuzz-style schedulers partition the state
    /// path space across instances. An empty list restores random walks.
    ///
    /// Names are interned once here; the hot loop replays ids. A plan
    /// name matching no data model renders as an empty message, like the
    /// name-lookup implementation did.
    pub fn set_session_plans(&mut self, plans: &[Vec<String>]) {
        self.session_plans.clear();
        for plan in plans {
            self.session_plans
                .push(plan.iter().map(|name| self.models.intern(name)).collect());
        }
        self.next_plan = 0;
    }

    /// Interned id of a data-model name, if the Pit (or a session plan)
    /// declares it. Useful for building [`Seed`]s to import.
    #[must_use]
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.models.get(name)
    }

    /// Drains the seeds retained since the last call, for synchronization
    /// with sibling instances.
    pub fn export_new_seeds(&mut self) -> Vec<Seed> {
        std::mem::take(&mut self.outbox)
    }

    /// Imports seeds shared by sibling instances (they do not re-enter the
    /// outbox, so synchronization does not echo). Seeds the corpus
    /// already holds — the common case when synchronization echoes a
    /// seed back through a third instance — are dropped silently; only
    /// actually-retained imports count toward `seeds_imported`.
    pub fn import_seeds(&mut self, seeds: &[Seed]) {
        for seed in seeds {
            if self.corpus.add(seed.clone()).retained() {
                self.stats.seeds_imported += 1;
                self.telemetry.seeds_shared_in.incr();
            }
        }
    }

    /// Queues a seed shared from another campaign, returning whether it
    /// was accepted: a seed already retained or queued verbatim is
    /// refused. Accepted seeds count toward `seeds_imported` at once but
    /// reach the corpus only at the next [`FuzzEngine::settle_imports`],
    /// in queue order, so duplicates and evictions are decided then.
    pub fn queue_import(&mut self, seed: &Seed) -> bool {
        let queued = self
            .queued_imports
            .iter()
            .any(|s| s.content_hash() == seed.content_hash() && s.bytes == seed.bytes);
        if queued || self.corpus.contains_exact(seed) {
            return false;
        }
        self.queued_imports.push(seed.clone());
        self.stats.seeds_imported += 1;
        true
    }

    /// Offers every queued import to the corpus, in queue order. This
    /// touches no statistics: the imports were counted when they were
    /// queued.
    pub fn settle_imports(&mut self) {
        for seed in std::mem::take(&mut self.queued_imports) {
            self.corpus.add(seed);
        }
    }

    /// Boots (or reboots) the target under `config`, returning the startup
    /// coverage snapshot. Coverage accumulates across restarts, matching
    /// how the paper counts an instance's branches over its whole 24 hours
    /// even as configuration values are mutated.
    ///
    /// # Errors
    ///
    /// Propagates the target's [`StartError`] for conflicting
    /// configurations; the engine stays unstarted.
    pub fn start(&mut self, config: &ResolvedConfig) -> Result<CoverageSnapshot, StartError> {
        let before = self.map.snapshot();
        self.target.start(config, self.map.probe())?;
        self.started = true;
        let after = self.map.snapshot();
        self.accumulated.union_with(&after);
        // Startup coverage is what the boot added beyond what was there.
        Ok(CoverageSnapshot::from_hits(
            after.capacity(),
            after
                .covered_ids()
                .filter(|id| !before.is_covered(*id))
                .map(|id| id.index() as usize),
        ))
    }

    /// Runs `sessions` fuzzing iterations as one batch: each session walks
    /// the state model and generates or mutates one message per
    /// transition, every message is rendered into the shared byte arena,
    /// each session's messages cross the target as one burst
    /// ([`Target::handle_batch`]), and the whole batch is settled with a
    /// single word-parallel coverage diff. `run_batch(1)` is one fuzzing
    /// iteration.
    ///
    /// Batching is purely a throughput knob — `run_batch(n)` is
    /// bit-identical to `n` calls of `run_batch(1)`, for every `n`:
    /// generation draws the same RNG sequence (mutations are confined
    /// to each message's arena tail), per-session retention decisions come
    /// from the map's first-hit counter (exactly what the per-session
    /// absorb would have returned, since the accumulated set tracks the
    /// map at batch boundaries), and faults bisect back to their session
    /// in send order. The returned outcome aggregates the batch.
    ///
    /// # Panics
    ///
    /// Panics if the engine was never successfully [`start`](Self::start)ed.
    pub fn run_batch(&mut self, sessions: usize) -> IterationOutcome {
        assert!(self.started, "run_batch before successful start");
        let mut outcome = IterationOutcome::default();
        if sessions == 0 {
            return outcome;
        }
        let mut plan = std::mem::take(&mut self.plan_scratch);
        let mut arena = std::mem::take(&mut self.arena);
        let mut ranges = std::mem::take(&mut self.arena_ranges);
        let mut faults = std::mem::take(&mut self.batch_faults);
        arena.clear();
        ranges.clear();

        for _ in 0..sessions {
            self.target.begin_session();
            plan.clear();
            if !self.session_plans.is_empty() {
                plan.extend_from_slice(
                    &self.session_plans[self.next_plan % self.session_plans.len()],
                );
                self.next_plan = self.next_plan.wrapping_add(1);
            } else {
                self.plan_random_session_into(&mut plan);
            }

            // The first-hit counter before the session: retention below
            // compares against it instead of absorbing per session.
            let covered_before = self.map.covered_count();
            let first_message = ranges.len();
            for &model_id in &plan {
                let start = arena.len();
                self.generate_message_into(model_id, &mut arena, start);
                ranges.push((start as u32, (arena.len() - start) as u32));
            }

            faults.clear();
            self.target
                .handle_batch(&arena, &ranges[first_message..], &mut faults);
            for (_, fault) in faults.drain(..) {
                self.stats.crashes_observed += 1;
                self.telemetry.faults_observed.incr();
                if self.faults.record(fault) {
                    outcome.new_faults += 1;
                }
            }
            outcome.messages_sent += plan.len();
            self.stats.messages += plan.len() as u64;
            self.telemetry.messages.add(plan.len() as u64);

            // Retention must be decided now (the next session's corpus
            // picks depend on it), but without draining the dirty words:
            // the map's first-hit counter delta over the session equals
            // what a per-session absorb would have returned, because the
            // accumulated set matches the map at batch boundaries.
            if self.map.covered_count() > covered_before {
                // In batch mode the un-drained dirty words accumulate
                // across the batch's sessions, so the peeked score covers
                // everything new since the batch began — a coarser
                // measurement than per-iteration scoring, which is why
                // rarity scoring is opt-in rather than free with
                // batching.
                let rarity = self.pending_rarity();
                for (&model_id, &(start, len)) in plan.iter().zip(&ranges[first_message..]) {
                    let seed = Seed::with_rarity(
                        &arena[start as usize..(start + len) as usize],
                        model_id,
                        rarity,
                    );
                    let added = self.corpus.add(seed.clone());
                    self.record_add(added);
                    if added.retained() {
                        self.outbox.push(seed);
                    }
                }
            }
            self.stats.sessions += 1;
            self.telemetry.sessions.incr();
            self.telemetry.session_messages.record(plan.len() as u64);
        }

        // One word-parallel diff settles the whole batch's coverage.
        outcome.new_branches = self.map.absorb_new(&mut self.accumulated);
        debug_assert_eq!(
            self.accumulated.covered_count(),
            self.map.covered_count(),
            "accumulated set lost sync with the map across a batch"
        );
        self.telemetry.batches.incr();
        self.telemetry.batch_sessions.record(sessions as u64);
        self.plan_scratch = plan;
        self.arena = arena;
        self.arena_ranges = ranges;
        self.batch_faults = faults;
        outcome
    }

    /// Generates one message for `model_id` into the arena tail
    /// `data[from..]`. Mutations are confined to the appended tail, so the
    /// draw sequence and resulting bytes are independent of `from`.
    fn generate_message_into(&mut self, model_id: ModelId, data: &mut Vec<u8>, from: usize) {
        // Generation-side mutation perturbs a persistent scratch twin
        // of the model, so the pristine structure survives —
        // interesting variants persist through the corpus instead.
        let mutate_fields = self.rng.random::<f64>() < self.config.model_mutation_rate;

        if !mutate_fields && self.rng.random::<f64>() < self.config.seed_reuse_rate {
            match self.corpus.pick_for_model(&mut self.rng, model_id) {
                Some(seed) => {
                    self.stats.seed_reuses += 1;
                    self.telemetry.seed_reuses.incr();
                    data.extend_from_slice(&seed.bytes);
                }
                None => self.render_into(model_id, data),
            }
        } else if mutate_fields {
            self.stats.model_mutations += 1;
            self.telemetry.model_mutations.incr();
            if let Some(slot) = self.model_slot(model_id) {
                let scratch = &mut self.scratch_models[slot];
                scratch.restore_values_from(&self.working_models[slot]);
                self.mutator.mutate_model(scratch);
                self.scratch_program.compile_into(
                    scratch,
                    &self.name_tables[slot],
                    &mut self.lengths_scratch,
                );
                self.scratch_program.render_into(data);
            }
            // Unknown model: empty message, no mutator draw — same as
            // the name-lookup implementation.
        } else {
            self.render_into(model_id, data);
        }

        if self.rng.random::<f64>() < self.config.byte_mutation_rate {
            self.stats.byte_mutations += 1;
            self.telemetry.byte_mutations.incr();
            self.mutator
                .mutate_tail(data, from, self.config.mutation_stack);
        }
    }

    fn plan_random_session_into(&mut self, plan: &mut Vec<ModelId>) {
        match &self.compiled_state {
            Some(compiled) => {
                compiled.session_into(&mut self.rng, self.config.max_session_len, plan);
            }
            None => {
                // No state model: single random message.
                if !self.working_models.is_empty() {
                    let i = self.rng.random_range(0..self.working_models.len());
                    plan.push(self.model_ids[i]);
                }
            }
        }
    }

    /// Rarity score for seeds about to be retained: the hit-count mass of
    /// the rarest coverage word flagged dirty since the last absorb.
    /// Constant 0 unless the corpus configuration actually consumes
    /// scores, so default-config engines never touch the peek path.
    fn pending_rarity(&self) -> u32 {
        if self.config.corpus.scores_rarity() {
            self.map.peek_new_rarity().unwrap_or(0)
        } else {
            0
        }
    }

    /// Folds a corpus add outcome into stats and telemetry.
    fn record_add(&mut self, outcome: AddOutcome) {
        match outcome {
            AddOutcome::Added { evicted } => {
                self.stats.seeds_retained += 1;
                self.telemetry.seeds_retained.incr();
                if evicted {
                    self.stats.seeds_evicted += 1;
                    self.telemetry.seeds_evicted.incr();
                }
            }
            AddOutcome::DuplicateExact => {
                self.stats.seeds_deduped_exact += 1;
                self.telemetry.seeds_deduped_exact.incr();
            }
            AddOutcome::DuplicateNear => {
                self.stats.seeds_deduped_near += 1;
                self.telemetry.seeds_deduped_near.incr();
            }
        }
    }

    /// Slot of the first working model interned as `model`, if any.
    fn model_slot(&self, model: ModelId) -> Option<usize> {
        self.model_index.get(model.index()).copied().flatten()
    }

    /// Appends the precompiled render of `model` to `out`; unknown ids
    /// (plan names matching no data model) append nothing.
    fn render_into(&self, model: ModelId, out: &mut Vec<u8>) {
        if let Some(slot) = self.model_slot(model) {
            self.programs[slot].render_into(out);
        }
    }

    /// Number of branches this instance has covered so far.
    ///
    /// Served from the map's first-hit counter, so the per-round
    /// saturation check is a single atomic load instead of a bitset scan.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.map.covered_count()
    }

    /// Snapshot of everything covered so far.
    #[must_use]
    pub fn coverage(&self) -> &CoverageSnapshot {
        &self.accumulated
    }

    /// The instance's deduplicated fault log.
    #[must_use]
    pub fn fault_log(&self) -> &FaultLog {
        &self.faults
    }

    /// The retained seed corpus.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Seeds queued by [`FuzzEngine::queue_import`], not yet settled.
    #[must_use]
    pub fn queued_imports(&self) -> &[Seed] {
        &self.queued_imports
    }

    /// Seeds currently retained.
    #[must_use]
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Approximate bytes resident in the seed corpus (see
    /// [`Corpus::approx_bytes`]).
    #[must_use]
    pub fn corpus_bytes(&self) -> usize {
        self.corpus.approx_bytes()
    }

    /// The target, for inspection.
    #[must_use]
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Whether a successful start has happened.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pit;
    use crate::{Fault, FaultKind, TargetResponse};
    use cmfuzz_config_model::ConfigSpace;
    use cmfuzz_coverage::{BranchId, CoverageProbe};

    /// A tiny deterministic target: covers branch 0 at startup, branch 1
    /// on any input, branch 2 on inputs starting with 0xFF (and crashes).
    #[derive(Debug)]
    struct ToyTarget {
        probe: Option<CoverageProbe>,
        require_flag: bool,
    }

    impl ToyTarget {
        fn new() -> Self {
            ToyTarget {
                probe: None,
                require_flag: false,
            }
        }
    }

    impl Target for ToyTarget {
        fn name(&self) -> &str {
            "toy"
        }
        fn branch_count(&self) -> usize {
            3
        }
        fn config_space(&self) -> ConfigSpace {
            ConfigSpace {
                cli: vec!["--flag".to_owned()],
                files: vec![],
            }
        }
        fn start(
            &mut self,
            config: &ResolvedConfig,
            probe: CoverageProbe,
        ) -> Result<(), StartError> {
            if self.require_flag && !config.bool_or("flag", false) {
                return Err(StartError::new("flag required"));
            }
            probe.hit(BranchId::from_index(0));
            self.probe = Some(probe);
            Ok(())
        }
        fn begin_session(&mut self) {}
        fn handle(&mut self, input: &[u8]) -> TargetResponse {
            let probe = self.probe.as_ref().expect("started");
            probe.hit(BranchId::from_index(1));
            if input.first() == Some(&0xFF) {
                probe.hit(BranchId::from_index(2));
                return TargetResponse::crash(Fault::new(FaultKind::Segv, "toy_handle"));
            }
            TargetResponse::reply(vec![0x01])
        }
    }

    fn toy_pit() -> PitDefinition {
        pit::parse(
            r#"<Peach>
              <DataModel name="Msg"><Number name="op" size="8" value="0"/></DataModel>
              <StateModel name="S" initialState="I">
                <State name="I"><Action dataModel="Msg" next="I"/></State>
              </StateModel>
            </Peach>"#,
        )
        .expect("toy pit parses")
    }

    #[test]
    fn start_reports_startup_coverage() {
        let mut engine = FuzzEngine::new(ToyTarget::new(), toy_pit(), EngineConfig::default());
        let startup = engine
            .start(&ResolvedConfig::new())
            .expect("starts under defaults");
        assert_eq!(startup.covered_count(), 1);
        assert!(startup.is_covered(BranchId::from_index(0)));
        assert!(engine.is_started());
    }

    #[test]
    fn start_error_propagates() {
        let mut target = ToyTarget::new();
        target.require_flag = true;
        let mut engine = FuzzEngine::new(target, toy_pit(), EngineConfig::default());
        assert!(engine.start(&ResolvedConfig::new()).is_err());
        assert!(!engine.is_started());
    }

    #[test]
    #[should_panic(expected = "before successful start")]
    fn iteration_without_start_panics() {
        let mut engine = FuzzEngine::new(ToyTarget::new(), toy_pit(), EngineConfig::default());
        let _ = engine.run_batch(1);
    }

    #[test]
    fn iterations_find_coverage_and_faults() {
        let mut engine = FuzzEngine::new(
            ToyTarget::new(),
            toy_pit(),
            EngineConfig {
                seed: 3,
                ..EngineConfig::default()
            },
        );
        engine.start(&ResolvedConfig::new()).unwrap();
        let mut total_new = 0;
        for _ in 0..300 {
            let outcome = engine.run_batch(1);
            total_new += outcome.new_branches;
        }
        // Branch 1 always; branch 2 (0xFF head) should be found by havoc.
        assert_eq!(engine.covered_count(), 3, "all branches reached");
        assert!(total_new >= 2);
        assert_eq!(engine.fault_log().unique_count(), 1);
        assert!(engine.fault_log().contains(FaultKind::Segv, "toy_handle"));
        assert_eq!(engine.stats().sessions, 300);
        assert!(engine.corpus_len() > 0, "interesting inputs retained");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = |seed: u64| {
            let mut engine = FuzzEngine::new(
                ToyTarget::new(),
                toy_pit(),
                EngineConfig {
                    seed,
                    ..EngineConfig::default()
                },
            );
            engine.start(&ResolvedConfig::new()).unwrap();
            let mut news = Vec::new();
            for _ in 0..100 {
                news.push(engine.run_batch(1).new_branches);
            }
            (
                news,
                engine.covered_count(),
                engine.fault_log().unique_count(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn restart_accumulates_coverage() {
        let mut engine = FuzzEngine::new(ToyTarget::new(), toy_pit(), EngineConfig::default());
        engine.start(&ResolvedConfig::new()).unwrap();
        let first = engine.covered_count();
        // Restart under the same config: startup coverage is no longer new.
        let startup = engine.start(&ResolvedConfig::new()).unwrap();
        assert_eq!(startup.covered_count(), 0, "no new startup branches");
        assert_eq!(engine.covered_count(), first);
    }

    #[test]
    fn stats_track_execution_composition() {
        let mut engine = FuzzEngine::new(
            ToyTarget::new(),
            toy_pit(),
            EngineConfig {
                seed: 5,
                ..EngineConfig::default()
            },
        );
        engine.start(&ResolvedConfig::new()).unwrap();
        for _ in 0..100 {
            engine.run_batch(1);
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions, 100);
        assert!(stats.messages >= 100, "at least one message per session");
        assert!(stats.byte_mutations > 0);
        assert!(stats.model_mutations > 0);
        assert!(
            stats.byte_mutations <= stats.messages,
            "mutated subset of messages"
        );
        assert!(stats.crashes_observed >= 1, "toy target crashes on 0xFF");
    }

    #[test]
    fn telemetry_handles_mirror_engine_stats() {
        use cmfuzz_coverage::VirtualClock;
        use cmfuzz_telemetry::Telemetry;

        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        let mut engine = FuzzEngine::new(
            ToyTarget::new(),
            toy_pit(),
            EngineConfig {
                seed: 5,
                ..EngineConfig::default()
            },
        );
        engine.attach_telemetry(EngineTelemetry::for_pipeline(&telemetry));
        engine.start(&ResolvedConfig::new()).unwrap();
        // Single-session and multi-session batches must flush into the
        // same counters.
        for _ in 0..25 {
            engine.run_batch(1);
        }
        engine.run_batch(25);
        let stats = engine.stats();
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("engine.sessions"), Some(stats.sessions));
        assert_eq!(snap.counter("engine.messages"), Some(stats.messages));
        assert_eq!(
            snap.counter("engine.model_mutations"),
            Some(stats.model_mutations)
        );
        assert_eq!(snap.counter("engine.seed_reuses"), Some(stats.seed_reuses));
        assert_eq!(
            snap.counter("engine.byte_mutations"),
            Some(stats.byte_mutations)
        );
        assert_eq!(
            snap.counter("engine.faults_observed"),
            Some(stats.crashes_observed)
        );
        let histogram = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        let (_, hist) = histogram("engine.session_messages");
        assert_eq!(hist.count, stats.sessions);
        assert_eq!(hist.sum, stats.messages);
        assert_eq!(snap.counter("engine.batches"), Some(26));
        let (_, batches) = histogram("engine.batch_sessions");
        assert_eq!(batches.count, 26);
        assert_eq!(batches.sum, 50);
    }

    #[test]
    fn corpus_capacity_config_is_respected() {
        // Regression: `corpus_capacity` used to be ignored in favour of a
        // hardcoded 256. With capacity 1 the corpus must evict down to a
        // single retained seed no matter how much coverage is found.
        let mut engine = FuzzEngine::new(
            ToyTarget::new(),
            toy_pit(),
            EngineConfig {
                seed: 3,
                corpus_capacity: 1,
                ..EngineConfig::default()
            },
        );
        engine.start(&ResolvedConfig::new()).unwrap();
        for _ in 0..300 {
            engine.run_batch(1);
        }
        assert_eq!(engine.covered_count(), 3, "coverage still found");
        assert_eq!(engine.corpus_len(), 1, "capacity 1 evicts to one seed");
    }

    /// Faults deterministically on the first message of one known session
    /// (0-based), for pinning mid-batch fault bisection.
    #[derive(Debug)]
    struct FaultAtSession {
        probe: Option<CoverageProbe>,
        fault_session: u64,
        sessions_begun: u64,
        fired: bool,
    }

    impl FaultAtSession {
        fn new(fault_session: u64) -> Self {
            FaultAtSession {
                probe: None,
                fault_session,
                sessions_begun: 0,
                fired: false,
            }
        }
    }

    impl Target for FaultAtSession {
        fn name(&self) -> &str {
            "fault-at"
        }
        fn branch_count(&self) -> usize {
            2
        }
        fn config_space(&self) -> ConfigSpace {
            ConfigSpace::default()
        }
        fn start(&mut self, _: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
            probe.hit(BranchId::from_index(0));
            self.probe = Some(probe);
            Ok(())
        }
        fn begin_session(&mut self) {
            self.sessions_begun += 1;
        }
        fn handle(&mut self, _input: &[u8]) -> TargetResponse {
            self.probe
                .as_ref()
                .expect("started")
                .hit(BranchId::from_index(1));
            if self.sessions_begun == self.fault_session + 1 && !self.fired {
                self.fired = true;
                return TargetResponse::crash(Fault::new(
                    FaultKind::HeapUseAfterFree,
                    "session_trap",
                ));
            }
            TargetResponse::empty()
        }
    }

    #[test]
    fn run_batch_is_bit_identical_to_iteration_loop() {
        let total = 126;
        let run = |batch: usize| -> (Vec<usize>, String) {
            let mut engine = FuzzEngine::new(
                ToyTarget::new(),
                toy_pit(),
                EngineConfig {
                    seed: 23,
                    ..EngineConfig::default()
                },
            );
            engine.start(&ResolvedConfig::new()).unwrap();
            let mut news = Vec::new();
            let mut remaining = total;
            while remaining > 0 {
                let n = batch.min(remaining);
                news.push(engine.run_batch(n).new_branches);
                remaining -= n;
            }
            (news, format!("{engine:?}"))
        };
        // Batch size 1 is the iteration loop: one session per call.
        let (reference_news, reference_state) = run(1);
        for batch in [7usize, 64, 256] {
            let (news, state) = run(batch);
            assert_eq!(
                state, reference_state,
                "batch size {batch} diverged from the iteration loop"
            );
            assert_eq!(
                news.iter().sum::<usize>(),
                reference_news.iter().sum::<usize>(),
                "batch size {batch} found different total coverage"
            );
        }
    }

    #[test]
    fn run_batch_zero_is_a_no_op() {
        let mut engine = FuzzEngine::new(ToyTarget::new(), toy_pit(), EngineConfig::default());
        engine.start(&ResolvedConfig::new()).unwrap();
        assert_eq!(engine.run_batch(0), IterationOutcome::default());
        assert_eq!(engine.stats().sessions, 0);
    }

    #[test]
    fn mid_batch_faults_bisect_to_the_same_session_at_every_batch_size() {
        // Satellite gate: a subject faulting at a known session index must
        // produce the same fault log, stats, and full engine state no
        // matter how sessions are grouped into batches.
        let total = 96;
        let fault_session = 41;
        let run = |batches: &[usize]| -> String {
            assert_eq!(batches.iter().sum::<usize>(), total);
            let mut engine = FuzzEngine::new(
                FaultAtSession::new(fault_session),
                toy_pit(),
                EngineConfig {
                    seed: 31,
                    ..EngineConfig::default()
                },
            );
            engine.start(&ResolvedConfig::new()).unwrap();
            for &n in batches {
                engine.run_batch(n);
            }
            assert_eq!(engine.fault_log().unique_count(), 1);
            assert!(engine
                .fault_log()
                .contains(FaultKind::HeapUseAfterFree, "session_trap"));
            assert_eq!(engine.stats().crashes_observed, 1);
            format!("{engine:?}")
        };
        let by_ones = run(&vec![1; total]);
        let mut by_sevens = vec![7; 12];
        by_sevens.push(12);
        assert_eq!(run(&by_sevens), by_ones);
        assert_eq!(run(&[64, 32]), by_ones);
        assert_eq!(run(&[96]), by_ones);
        // A cut right before the faulting session, inside the batch that
        // would have carried it.
        assert_eq!(run(&[37, 27, 32]), by_ones);
    }

    #[test]
    fn model_id_resolves_pit_models() {
        let engine = FuzzEngine::new(ToyTarget::new(), toy_pit(), EngineConfig::default());
        assert!(engine.model_id("Msg").is_some());
        assert!(engine.model_id("Ghost").is_none());
    }

    #[test]
    fn engine_without_state_model_sends_single_messages() {
        let pit = pit::parse(
            r#"<Peach><DataModel name="Msg"><Number name="op" size="8" value="0"/></DataModel></Peach>"#,
        )
        .unwrap();
        let mut engine = FuzzEngine::new(ToyTarget::new(), pit, EngineConfig::default());
        engine.start(&ResolvedConfig::new()).unwrap();
        let outcome = engine.run_batch(1);
        assert_eq!(outcome.messages_sent, 1);
    }
}
