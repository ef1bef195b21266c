//! The campaign control plane: a [`FleetManager`] stepped by a dedicated
//! engine thread, with thread-safe admission and live control around it.
//!
//! The split is strict: the engine thread is the *only* thread that plans,
//! executes and commits waves, so campaign execution — and with it every
//! engine RNG draw — is serialized exactly as an offline
//! [`cmfuzz_fleet::run_fleet`] would serialize it. The engine holds the
//! manager lock only to plan a wave and to commit it, never while the
//! slices run, so admission, status and control flips are answered
//! within a plan or commit rather than after a whole wave. Control
//! applied mid-wave reaches the running slices at their next round
//! boundary; a `result` for a campaign whose slice is in flight waits for
//! the commit. Telemetry streams through a [`FanoutHub`] that is fed
//! *after* each wave commits. Nothing a client does can reorder engine
//! randomness; the worst it can do is decide *which* campaigns the next
//! wave schedules, and how far a slice runs, which per-campaign results
//! are invariant to (the soak gate holds the service to exactly that).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cmfuzz::CampaignError;
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fleet::{
    CampaignStatus, CoverageGradient, FleetManager, FleetOptions, RoundRobin, SchedulingPolicy,
    UcbBandit,
};
use cmfuzz_telemetry::json::ObjectWriter;
use cmfuzz_telemetry::sink::JsonlSink;
use cmfuzz_telemetry::{FanoutHub, FanoutOptions, FanoutSink, FanoutSubscriber, Telemetry};

use crate::proto::{result_digest, BoundError, Submission};

/// Configuration for one control plane.
#[derive(Debug, Clone)]
pub struct PlaneOptions {
    /// Fleet scheduling knobs (slots, slice, total budget, seed sharing).
    pub fleet: FleetOptions,
    /// Scheduling policy name; see [`build_policy`].
    pub policy: String,
    /// Telemetry fan-out tuning (per-subscriber queues, eviction).
    pub fanout: FanoutOptions,
    /// Also append every event to this JSONL file (schema header first).
    pub jsonl_out: Option<PathBuf>,
}

impl Default for PlaneOptions {
    fn default() -> Self {
        PlaneOptions {
            fleet: FleetOptions::default(),
            policy: "round-robin".into(),
            fanout: FanoutOptions::default(),
            jsonl_out: None,
        }
    }
}

/// Instantiates a scheduling policy by its stable name.
#[must_use]
pub fn build_policy(name: &str) -> Option<Box<dyn SchedulingPolicy>> {
    match name {
        "round-robin" => Some(Box::new(RoundRobin::new())),
        "coverage-gradient" => Some(Box::new(CoverageGradient::new())),
        "ucb-bandit" => Some(Box::new(UcbBandit::new())),
        _ => None,
    }
}

struct PlaneShared {
    manager: Mutex<FleetManager>,
    /// Signaled on admission/resume/extension so an idle engine re-checks
    /// eligibility immediately instead of at its next poll tick.
    wake: Condvar,
    /// Signaled after every wave commit, for readers waiting on a run that
    /// was out on the wave.
    committed: Condvar,
    stop: AtomicBool,
    last_error: Mutex<Option<String>>,
    telemetry: Telemetry,
    hub: FanoutHub,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running control plane; dropping it without [`ControlPlane::shutdown`]
/// leaks the engine thread until process exit, so servers call `shutdown`.
pub struct ControlPlane {
    shared: Arc<PlaneShared>,
    policy_name: String,
    engine: Option<JoinHandle<()>>,
}

impl ControlPlane {
    /// Starts an empty control plane and its engine thread.
    ///
    /// # Errors
    ///
    /// Unknown policy names and an unwritable `jsonl_out` path.
    pub fn start(options: PlaneOptions) -> Result<Self, String> {
        let mut policy = build_policy(&options.policy)
            .ok_or_else(|| format!("unknown policy {:?}", options.policy))?;
        let hub = FanoutHub::new(options.fanout);
        let mut builder = Telemetry::builder(VirtualClock::new())
            .capacity(64 * 1024)
            .sink(Box::new(FanoutSink::new(&hub)));
        if let Some(path) = &options.jsonl_out {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            builder = builder.sink(Box::new(sink));
        }
        let telemetry = builder.build();
        hub.attach_metrics(&telemetry);

        let shared = Arc::new(PlaneShared {
            manager: Mutex::new(FleetManager::new(options.fleet, &telemetry)),
            wake: Condvar::new(),
            committed: Condvar::new(),
            stop: AtomicBool::new(false),
            last_error: Mutex::new(None),
            telemetry,
            hub,
        });

        let engine_shared = Arc::clone(&shared);
        let engine = std::thread::Builder::new()
            .name("cmfuzz-plane-engine".into())
            .spawn(move || {
                let shared = engine_shared;
                while !shared.stop.load(Ordering::Acquire) {
                    let mut manager = lock(&shared.manager);
                    let mut wave = match manager.plan_wave(policy.as_mut()) {
                        Ok(wave) => wave,
                        Err(_idle) => {
                            let _ = shared
                                .wake
                                .wait_timeout(manager, Duration::from_millis(5))
                                .unwrap_or_else(PoisonError::into_inner);
                            continue;
                        }
                    };
                    drop(manager);
                    wave.execute();
                    let committed = lock(&shared.manager).commit_wave(wave, policy.as_mut());
                    shared.committed.notify_all();
                    if let Err(error) = committed {
                        *lock(&shared.last_error) = Some(error.to_string());
                        break;
                    }
                    // Publish the wave's events to subscribers before the
                    // next wave starts, without the manager lock so clients
                    // are never blocked behind sink I/O.
                    shared.telemetry.drain();
                }
                shared.telemetry.drain();
            })
            .map_err(|e| format!("cannot spawn engine thread: {e}"))?;

        Ok(ControlPlane {
            shared,
            policy_name: options.policy,
            engine: Some(engine),
        })
    }

    /// The scheduling policy this plane runs.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Admits a submission (all-or-nothing, preflight-validated against
    /// the live fleet) and wakes the engine. Returns the admitted ids.
    ///
    /// Campaigns submitted with `paused: true` are paused under the same
    /// manager lock that admits them — the engine cannot take the lock in
    /// between, so a staged campaign is guaranteed to run zero waves
    /// until an explicit resume.
    ///
    /// # Errors
    ///
    /// `(exit_code, message)` following the repo convention: 3 for
    /// preflight/model rejections (counts above their admission bounds
    /// included), 2 for operational failures (unknown subjects).
    pub fn submit(&self, submission: &Submission) -> Result<Vec<String>, (i32, String)> {
        submission
            .check_bounds()
            .map_err(|error| (BoundError::EXIT_CODE, error.to_string()))?;
        let campaigns = submission.materialize().map_err(|m| (2, m))?;
        let ids: Vec<String> = campaigns.iter().map(|c| c.id.clone()).collect();
        let mut manager = lock(&self.shared.manager);
        manager
            .admit_batch(campaigns)
            .map_err(|error: CampaignError| (error.exit_code(), error.to_string()))?;
        for campaign in &submission.campaigns {
            if campaign.paused {
                manager.pause(&campaign.id);
            }
        }
        drop(manager);
        self.shared.wake.notify_all();
        Ok(ids)
    }

    /// Status rows for every admitted campaign, in admission order.
    #[must_use]
    pub fn status(&self) -> Vec<CampaignStatus> {
        lock(&self.shared.manager).status()
    }

    /// Pauses a campaign at its next round boundary.
    pub fn pause(&self, id: &str) -> bool {
        lock(&self.shared.manager).pause(id)
    }

    /// Resumes a paused campaign and wakes the engine.
    pub fn resume(&self, id: &str) -> bool {
        let resumed = lock(&self.shared.manager).resume(id);
        if resumed {
            self.shared.wake.notify_all();
        }
        resumed
    }

    /// Permanently kills a campaign (its slice stops at the next round
    /// boundary; its run is kept for reporting).
    pub fn kill(&self, id: &str) -> bool {
        let killed = lock(&self.shared.manager).kill(id);
        if killed {
            self.shared.wake.notify_all();
        }
        killed
    }

    /// Kills every campaign — the global kill switch path.
    pub fn kill_all(&self) -> usize {
        let mut manager = lock(&self.shared.manager);
        let ids: Vec<String> = manager.status().iter().map(|s| s.id.clone()).collect();
        let killed = ids.iter().filter(|id| manager.kill(id)).count();
        drop(manager);
        self.shared.wake.notify_all();
        killed
    }

    /// Extends a campaign's budget (strictly upward) and wakes the engine.
    pub fn extend_budget(&self, id: &str, budget: Ticks) -> bool {
        let extended = lock(&self.shared.manager).extend_budget(id, budget);
        if extended {
            self.shared.wake.notify_all();
        }
        extended
    }

    /// Deterministic FNV-1a digest of the campaign's current result
    /// (`None` until it has been scheduled at least once). The result is
    /// read from the live run under the manager lock; the digest is
    /// computed after the lock is released. While the campaign's slice is
    /// in flight, this waits for the wave's commit and digests the
    /// post-wave result.
    #[must_use]
    pub fn result_digest(&self, id: &str) -> Option<String> {
        let mut manager = lock(&self.shared.manager);
        // The engine commits every wave it plans; only an engine that
        // died mid-wave leaves a run out for good.
        while manager.is_leased(id) && self.engine.as_ref().is_some_and(|e| !e.is_finished()) {
            manager = self
                .shared
                .committed
                .wait_timeout(manager, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let result = manager.campaign_result(id);
        drop(manager);
        result.map(|result| result_digest(&result))
    }

    /// Whether every non-killed campaign ran to its budget.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        let manager = lock(&self.shared.manager);
        !manager.is_empty() && manager.all_complete()
    }

    /// Virtual ticks consumed across the whole fleet so far.
    #[must_use]
    pub fn spent(&self) -> Ticks {
        lock(&self.shared.manager).spent()
    }

    /// The error that halted the engine, if any.
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        lock(&self.shared.last_error).clone()
    }

    /// The telemetry fan-out hub (for in-process subscribers).
    #[must_use]
    pub fn hub(&self) -> &FanoutHub {
        &self.shared.hub
    }

    /// Subscribes a named telemetry tail.
    #[must_use]
    pub fn subscribe(&self, name: &str) -> FanoutSubscriber {
        self.shared.hub.subscribe(name)
    }

    /// Metrics registry snapshot rendered as one JSON object with
    /// `counters` and `gauges` maps (bus overflow/lag and fan-out
    /// drop/eviction counters included).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let snapshot = self.shared.telemetry.metrics_snapshot();
        let mut counters = ObjectWriter::new();
        for (name, value) in &snapshot.counters {
            counters.u64_field(name, *value);
        }
        let mut gauges = ObjectWriter::new();
        for (name, value) in &snapshot.gauges {
            gauges.u64_field(name, *value);
        }
        let mut obj = ObjectWriter::new();
        obj.raw_field("counters", &counters.finish());
        obj.raw_field("gauges", &gauges.finish());
        obj.finish()
    }

    /// Stops the engine thread, publishes any buffered events, and flushes
    /// file sinks. Idempotent-by-construction: consumes the plane.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        self.shared.telemetry.drain();
        self.shared.telemetry.flush();
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::CampaignSubmission;
    use cmfuzz_fleet::CampaignState;

    fn submission() -> Submission {
        Submission {
            campaigns: vec![
                CampaignSubmission {
                    id: "m/0".into(),
                    subject: "mosquitto".into(),
                    instances: 1,
                    budget: 300,
                    sample_interval: 100,
                    saturation_window: 200,
                    seed: 3,
                    share_group: None,
                    paused: false,
                },
                CampaignSubmission {
                    id: "d/0".into(),
                    subject: "dnsmasq".into(),
                    instances: 1,
                    budget: 300,
                    sample_interval: 100,
                    saturation_window: 200,
                    seed: 7,
                    share_group: None,
                    paused: false,
                },
            ],
        }
    }

    fn plane_options() -> PlaneOptions {
        PlaneOptions {
            fleet: FleetOptions {
                slots: 2,
                slice: Ticks::new(100),
                ..FleetOptions::default()
            },
            ..PlaneOptions::default()
        }
    }

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        for _ in 0..deadline_ms {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    #[test]
    fn served_results_match_offline_run_fleet() {
        let submission = submission();
        let plane = ControlPlane::start(plane_options()).expect("plane starts");
        let admitted = plane.submit(&submission).expect("admitted");
        assert_eq!(admitted, vec!["m/0".to_owned(), "d/0".to_owned()]);
        assert!(
            wait_until(10_000, || plane.all_complete()),
            "fleet completes under the engine thread"
        );

        let offline = cmfuzz_fleet::run_fleet(
            &submission.materialize().expect("materialize"),
            &mut RoundRobin::new(),
            &plane_options().fleet,
        )
        .expect("offline fleet");
        for outcome in &offline.campaigns {
            assert_eq!(
                plane.result_digest(&outcome.id).expect("served digest"),
                result_digest(outcome.result()),
                "{} drifted between served and offline execution",
                outcome.id
            );
        }
        plane.shutdown();
    }

    #[test]
    fn a_result_for_an_in_flight_slice_waits_for_the_commit() {
        // One campaign whose whole budget is one lease: once that lease is
        // counted, the slice is in flight or already committed, and either
        // way the digest must be the finished campaign's.
        let mut single = submission();
        single.campaigns.truncate(1);
        single.campaigns[0].budget = 2_000;
        let options = PlaneOptions {
            fleet: FleetOptions {
                slots: 1,
                slice: Ticks::new(2_000),
                ..FleetOptions::default()
            },
            ..PlaneOptions::default()
        };
        let plane = ControlPlane::start(options.clone()).expect("plane starts");
        plane.submit(&single).expect("admitted");
        assert!(
            wait_until(10_000, || plane.status()[0].leases == 1),
            "the campaign is leased"
        );
        let digest = plane
            .result_digest("m/0")
            .expect("a leased campaign always has a result");
        let status = plane.status();
        assert_eq!(status[0].state, CampaignState::Complete);
        assert_eq!(status[0].consumed, Ticks::new(2_000));

        let offline = cmfuzz_fleet::run_fleet(
            &single.materialize().expect("materialize"),
            &mut RoundRobin::new(),
            &options.fleet,
        )
        .expect("offline fleet");
        assert_eq!(digest, result_digest(offline.campaigns[0].result()));
        // The streamed digest is the digest of the whole `Debug` string.
        assert_eq!(
            digest,
            crate::fnv1a_hex(&format!("{:?}", offline.campaigns[0].result()))
        );
        plane.shutdown();
    }

    #[test]
    fn duplicate_submission_is_rejected_with_preflight_code() {
        let plane = ControlPlane::start(plane_options()).expect("plane starts");
        plane.submit(&submission()).expect("first admission");
        let (code, message) = plane.submit(&submission()).expect_err("duplicate ids");
        assert_eq!(code, 3, "preflight rejections map to exit code 3");
        assert!(message.contains("CM050"), "{message}");
        let (code, _) = plane
            .submit(&Submission {
                campaigns: vec![CampaignSubmission {
                    subject: "no-such-subject".into(),
                    ..submission().campaigns[0].clone()
                }],
            })
            .expect_err("unknown subject");
        assert_eq!(code, 2, "operational failures map to exit code 2");
        plane.shutdown();
    }

    #[test]
    fn live_control_signals_apply_between_waves() {
        // Stage both campaigns paused so no wave can run before the
        // control verbs land — pre-pause is applied atomically with
        // admission, making every assertion below race-free.
        let mut staged = submission();
        for campaign in &mut staged.campaigns {
            campaign.paused = true;
        }
        let plane = ControlPlane::start(plane_options()).expect("plane starts");
        plane.submit(&staged).expect("admitted");
        assert!(plane.kill("d/0"));
        assert!(!plane.pause("d/0"), "killed campaigns reject control");
        assert!(!plane.resume("d/0"), "kills are permanent");
        let status = plane.status();
        assert_eq!(status[0].state, CampaignState::Paused);
        assert_eq!(status[0].leases, 0, "pre-paused campaign never ran");
        assert_eq!(status[1].state, CampaignState::Killed);
        assert!(!plane.all_complete(), "paused campaign is not complete");

        assert!(plane.resume("m/0"));
        assert!(
            wait_until(10_000, || plane.all_complete()),
            "resumed campaign runs to its budget"
        );
        plane.shutdown();
    }

    #[test]
    fn subscribers_see_the_event_stream_and_metrics_surface_fanout() {
        let plane = ControlPlane::start(plane_options()).expect("plane starts");
        let tail = plane.subscribe("test-tail");
        plane.submit(&submission()).expect("admitted");
        let mut seen_finish = 0usize;
        assert!(
            wait_until(10_000, || {
                seen_finish += tail
                    .poll()
                    .iter()
                    .filter(|r| r.event.kind() == "campaign_finished")
                    .count();
                seen_finish >= 2
            }),
            "both campaigns publish campaign_finished to the tail"
        );
        let metrics = plane.metrics_json();
        assert!(metrics.contains("\"fanout.subscribers\":1"), "{metrics}");
        assert!(metrics.contains("\"bus.events_emitted\""), "{metrics}");
        plane.shutdown();
    }
}
