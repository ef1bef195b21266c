//! The control-plane soak harness behind `cmfuzz-serve --smoke`.
//!
//! One run stands up a real plane + TCP server, attaches on the order of
//! a thousand concurrent telemetry subscribers, drives the whole client
//! command surface over live sockets (submit, status, pause/resume, kill,
//! tail, metrics, a deliberate rate-limit burst), and then holds the
//! service to the determinism gate: the digests of every surviving
//! campaign, fetched over the wire, must be bit-identical to an offline
//! [`cmfuzz_fleet::run_fleet`] of the same submission. Per-campaign
//! results are slicing- and scheduling-invariant (rare-seed sharing off),
//! so any drift here means the control plane leaked into engine RNG.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{FleetOptions, RoundRobin};
use cmfuzz_telemetry::json::{parse, JsonValue, ObjectWriter};
use cmfuzz_telemetry::FanoutOptions;

use crate::net::{serve, BlockingClient, ServerOptions};
use crate::plane::{ControlPlane, PlaneOptions};
use crate::proto::{result_digest, CampaignSubmission, Request, Submission};
use crate::rate::RateLimits;

/// Soak harness knobs.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Concurrent in-process telemetry subscribers.
    pub subscribers: usize,
    /// Threads polling those subscribers.
    pub poll_threads: usize,
    /// Per-campaign budget in virtual ticks.
    pub budget: u64,
    /// Where to write the JSONL telemetry artifact, if anywhere.
    pub jsonl_out: Option<PathBuf>,
    /// Overall deadline before the harness gives up.
    pub deadline: Duration,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            subscribers: 1000,
            poll_threads: 8,
            budget: 600,
            jsonl_out: None,
            deadline: Duration::from_secs(120),
        }
    }
}

/// What the soak run observed; [`SoakReport::passed`] is the gate.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Subscribers attached to the fan-out hub.
    pub subscribers: usize,
    /// Events the hub published.
    pub events_published: u64,
    /// Events delivered across all subscribers (sum of polls).
    pub events_delivered: u64,
    /// Events dropped on full subscriber queues.
    pub events_dropped: u64,
    /// Subscribers evicted for lagging.
    pub subscribers_evicted: u64,
    /// Telemetry lines the TCP tail client received.
    pub tail_lines: u64,
    /// Whether the tail stream led with the versioned schema header.
    pub tail_schema_ok: bool,
    /// Served-vs-offline digest comparisons that matched.
    pub digest_matches: usize,
    /// Digest comparisons performed (the surviving campaigns).
    pub digest_total: usize,
    /// Whether the pause → status → resume cycle behaved.
    pub paused_resumed: bool,
    /// Whether the sacrificial campaign was killed and stayed killed.
    pub killed: bool,
    /// Whether the deliberate burst tripped the rate limiter.
    pub rate_limited: bool,
    /// Median wall time of a request on the control connection, from
    /// sending it to reading its reply (informational; no gate).
    pub request_p50_ms: f64,
    /// Slowest request on the control connection (informational).
    pub request_max_ms: f64,
    /// Requests timed on the control connection.
    pub requests_timed: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl SoakReport {
    /// The CI gate: all control paths exercised, zero digest drift, and
    /// the full subscriber fleet stayed attached (evictions are allowed —
    /// they're the backpressure design working — but delivery must have
    /// happened at scale).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.digest_total > 0
            && self.digest_matches == self.digest_total
            && self.paused_resumed
            && self.killed
            && self.rate_limited
            && self.tail_schema_ok
            && self.tail_lines > 0
            && self.events_delivered > 0
    }

    /// Renders the report as a JSON object for the bench artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = ObjectWriter::new();
        obj.str_field("experiment", "serve_soak");
        obj.u64_field("subscribers", self.subscribers as u64);
        obj.u64_field("events_published", self.events_published);
        obj.u64_field("events_delivered", self.events_delivered);
        obj.u64_field("events_dropped", self.events_dropped);
        obj.u64_field("subscribers_evicted", self.subscribers_evicted);
        obj.u64_field("tail_lines", self.tail_lines);
        obj.raw_field("tail_schema_ok", bool_json(self.tail_schema_ok));
        obj.u64_field("digest_matches", self.digest_matches as u64);
        obj.u64_field("digest_total", self.digest_total as u64);
        obj.raw_field("paused_resumed", bool_json(self.paused_resumed));
        obj.raw_field("killed", bool_json(self.killed));
        obj.raw_field("rate_limited", bool_json(self.rate_limited));
        obj.raw_field("request_p50_ms", &format!("{:.3}", self.request_p50_ms));
        obj.raw_field("request_max_ms", &format!("{:.3}", self.request_max_ms));
        obj.u64_field("requests_timed", self.requests_timed);
        obj.raw_field("passed", bool_json(self.passed()));
        obj.raw_field("wall_seconds", &format!("{:.3}", self.wall.as_secs_f64()));
        obj.finish()
    }
}

fn bool_json(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// The soak fleet: two survivors the digest gate compares, plus a
/// sacrificial campaign whose budget is far too large to finish — it
/// exists to be killed mid-run.
fn soak_submission(budget: u64) -> Submission {
    let campaign = |id: &str, subject: &str, seed: u64, budget: u64| CampaignSubmission {
        id: id.into(),
        subject: subject.into(),
        instances: 2,
        budget,
        sample_interval: 100,
        saturation_window: 200,
        seed,
        share_group: None,
        paused: false,
    };
    Submission {
        campaigns: vec![
            campaign("soak/mosquitto", "mosquitto", 3, budget),
            campaign("soak/dnsmasq", "dnsmasq", 7, budget),
            campaign("soak/sacrifice", "libcoap", 11, 1_000_000),
        ],
    }
}

fn fleet_options() -> FleetOptions {
    FleetOptions {
        slots: 2,
        slice: Ticks::new(100),
        ..FleetOptions::default()
    }
}

/// The soak's control connection: every request on it is timed from
/// sending it to reading its reply.
struct TimedClient {
    client: BlockingClient,
    ms: Vec<f64>,
}

impl TimedClient {
    fn request(&mut self, request: &Request) -> std::io::Result<String> {
        let started = Instant::now();
        let reply = self.client.request(request);
        self.ms.push(started.elapsed().as_secs_f64() * 1e3);
        reply
    }

    /// `(p50, max)` of the timed requests, in milliseconds.
    fn latency(&self) -> (f64, f64) {
        let mut ms = self.ms.clone();
        ms.sort_by(f64::total_cmp);
        let p50 = ms
            .get(ms.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0.0);
        (p50, ms.last().copied().unwrap_or(0.0))
    }
}

fn ok(line: &str) -> bool {
    parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

/// Runs the full soak. Failures of the *harness* (sockets, timeouts)
/// come back as `Err`; gate verdicts live in the report.
///
/// # Errors
///
/// Harness-level failures: bind/connect errors, protocol violations, and
/// the deadline expiring before the fleet completes.
#[allow(clippy::too_many_lines)]
pub fn run_soak(options: &SoakOptions) -> Result<SoakReport, String> {
    let started = Instant::now();
    let submission = soak_submission(options.budget);

    let plane = Arc::new(
        ControlPlane::start(PlaneOptions {
            fleet: fleet_options(),
            policy: "round-robin".into(),
            fanout: FanoutOptions::default(),
            jsonl_out: options.jsonl_out.clone(),
        })
        .map_err(|e| format!("plane: {e}"))?,
    );

    // Subscriber fleet first, so every subscriber sees the whole stream.
    let delivered = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let subscribers: Vec<_> = (0..options.subscribers)
        .map(|i| plane.subscribe(&format!("soak-{i}")))
        .collect();
    let poll_threads: Vec<_> = chunk_evenly(subscribers, options.poll_threads.max(1))
        .into_iter()
        .map(|chunk| {
            let delivered = Arc::clone(&delivered);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let mut any = false;
                    for subscriber in &chunk {
                        let n = subscriber.poll().len();
                        if n > 0 {
                            any = true;
                            delivered.fetch_add(n as u64, Ordering::Relaxed);
                        }
                    }
                    if !any {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                // Final drain so end-of-run events are counted.
                for subscriber in &chunk {
                    delivered.fetch_add(subscriber.poll().len() as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // TCP front end.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server_options = ServerOptions {
        limits: RateLimits {
            requests_per_sec: 50,
            burst: 20,
        },
        ..ServerOptions::default()
    };
    let server_plane = Arc::clone(&plane);
    let server = std::thread::spawn(move || serve(&listener, &server_plane, &server_options));

    let connect = || {
        BlockingClient::connect(&addr, Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))
    };
    let mut control = TimedClient {
        client: connect()?,
        ms: Vec::new(),
    };

    // Tail client: runs on its own connection + thread, collecting lines.
    let tail_lines = Arc::new(AtomicU64::new(0));
    let tail_schema_ok = Arc::new(AtomicBool::new(false));
    let mut tail_client = connect()?;
    let tail_thread = {
        let tail_lines = Arc::clone(&tail_lines);
        let tail_schema_ok = Arc::clone(&tail_schema_ok);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if !matches!(tail_client.request(&Request::Tail), Ok(line) if ok(&line)) {
                return;
            }
            if let Ok(header) = tail_client.read_line() {
                tail_schema_ok.store(
                    header == cmfuzz_telemetry::schema_header_line(),
                    Ordering::Release,
                );
            }
            while !stop.load(Ordering::Acquire) {
                match tail_client.read_line() {
                    Ok(_line) => {
                        tail_lines.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => break,
                }
            }
        })
    };

    // Submit over the wire.
    let response = control
        .request(&Request::Submit(submission.clone()))
        .map_err(|e| format!("submit: {e}"))?;
    if !ok(&response) {
        return Err(format!("submission rejected: {response}"));
    }

    // Pause the first campaign once it has made some progress, verify it
    // stops leasing, then resume it.
    let survivor = &submission.campaigns[0].id;
    let mut paused_resumed = false;
    let deadline = started + options.deadline;
    wait_for(deadline, || {
        plane.status().first().is_some_and(|s| s.leases > 0)
    })?;
    if ok(&control
        .request(&Request::Pause {
            id: survivor.clone(),
        })
        .map_err(|e| format!("pause: {e}"))?)
    {
        wait_for(deadline, || {
            plane
                .status()
                .first()
                .is_some_and(|s| s.state.label() == "paused")
        })?;
        let leases_at_pause = plane.status()[0].leases;
        std::thread::sleep(Duration::from_millis(50));
        let still_paused = plane.status()[0].leases == leases_at_pause;
        let resumed = ok(&control
            .request(&Request::Resume {
                id: survivor.clone(),
            })
            .map_err(|e| format!("resume: {e}"))?);
        paused_resumed = still_paused && resumed;
    }

    // Kill the sacrificial campaign mid-run.
    let sacrifice = &submission.campaigns[2].id;
    let kill_ok = ok(&control
        .request(&Request::Kill {
            id: sacrifice.clone(),
        })
        .map_err(|e| format!("kill: {e}"))?);
    // A killed campaign rejects further control — that's what makes the
    // kill permanent rather than a pause with different spelling.
    let kill_permanent = !ok(&control
        .request(&Request::Resume {
            id: sacrifice.clone(),
        })
        .map_err(|e| format!("resume-after-kill: {e}"))?);

    // Deliberate burst from a dedicated connection to trip the limiter.
    let mut burst = connect()?;
    let mut rate_limited = false;
    for _ in 0..60 {
        let line = burst
            .request(&Request::Status)
            .map_err(|e| format!("burst: {e}"))?;
        if line.contains("rate limited") {
            rate_limited = true;
            break;
        }
    }

    // Let the survivors run to their budgets.
    wait_for(deadline, || plane.all_complete())?;

    // Digest gate: served digests vs the offline fleet of the survivors.
    // (Per-campaign results are invariant to the sacrifice's presence —
    // sharing is off — so the offline fleet omits it rather than paying
    // for its million-tick budget.)
    let survivors = Submission {
        campaigns: submission.campaigns[..2].to_vec(),
    };
    let offline = cmfuzz_fleet::run_fleet(
        &survivors
            .materialize()
            .map_err(|e| format!("materialize: {e}"))?,
        &mut RoundRobin::new(),
        &fleet_options(),
    )
    .map_err(|e| format!("offline fleet: {e}"))?;
    let mut digest_matches = 0;
    for outcome in &offline.campaigns {
        let line = control
            .request(&Request::Result {
                id: outcome.id.clone(),
            })
            .map_err(|e| format!("result: {e}"))?;
        let served = parse(&line)
            .ok()
            .and_then(|v| v.get("digest").and_then(|d| d.as_str().map(str::to_owned)))
            .ok_or_else(|| format!("malformed result response: {line}"))?;
        if served == result_digest(outcome.result()) {
            digest_matches += 1;
        }
    }

    // Tear down: server first (so the tail connection closes), then the
    // subscriber fleet, then the plane.
    let _ = control.request(&Request::Shutdown);
    let summary = server
        .join()
        .map_err(|_| "server thread panicked".to_owned())
        .and_then(|r| r.map_err(|e| format!("serve: {e}")))?;
    stop.store(true, Ordering::Release);
    let _ = tail_thread.join();
    for thread in poll_threads {
        let _ = thread.join();
    }

    let (request_p50_ms, request_max_ms) = control.latency();
    let hub = plane.hub();
    let report = SoakReport {
        subscribers: options.subscribers,
        events_published: hub.events_published(),
        events_delivered: delivered.load(Ordering::Acquire),
        events_dropped: hub.events_dropped(),
        subscribers_evicted: hub.subscribers_evicted(),
        tail_lines: tail_lines.load(Ordering::Acquire),
        tail_schema_ok: tail_schema_ok.load(Ordering::Acquire),
        digest_matches,
        digest_total: offline.campaigns.len(),
        paused_resumed,
        killed: kill_ok && kill_permanent,
        rate_limited: rate_limited || summary.rate_limited > 0,
        request_p50_ms,
        request_max_ms,
        requests_timed: control.ms.len() as u64,
        wall: started.elapsed(),
    };
    if let Ok(plane) = Arc::try_unwrap(plane) {
        plane.shutdown();
    }
    Ok(report)
}

fn wait_for(deadline: Instant, mut done: impl FnMut() -> bool) -> Result<(), String> {
    while !done() {
        if Instant::now() >= deadline {
            return Err("soak deadline expired".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Splits `items` into `parts` contiguous chunks of near-equal size.
fn chunk_evenly<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let mut chunks: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        chunks[i % parts].push(item);
    }
    chunks.retain(|chunk| !chunk.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_distributes_every_item() {
        let chunks = chunk_evenly((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), 10);
        assert!(chunks.iter().all(|c| c.len() >= 2));
        assert_eq!(chunk_evenly(Vec::<u8>::new(), 4).len(), 0);
    }

    #[test]
    fn a_small_soak_run_passes_end_to_end() {
        // The CI-scale soak (1000 subscribers) runs under
        // `cmfuzz-serve --smoke`; this keeps a scaled-down version in the
        // regular test suite so regressions surface before CI.
        let report = run_soak(&SoakOptions {
            subscribers: 64,
            poll_threads: 4,
            budget: 300,
            jsonl_out: None,
            deadline: Duration::from_secs(90),
        })
        .expect("soak harness runs");
        assert!(report.passed(), "{}", report.to_json());
        assert_eq!(report.digest_total, 2);
        // submit, pause, resume, kill, resume-after-kill, two results and
        // shutdown, all on the control connection.
        assert_eq!(report.requests_timed, 8);
        assert!(report.request_p50_ms <= report.request_max_ms);
    }
}
