//! End-to-end tests of the served control plane over real TCP sockets:
//! every wire verb, the exit-code contract, rate limiting, the kill
//! switch, and — the one that matters most — zero digest drift between
//! served and offline execution of the same submission.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{FleetOptions, RoundRobin};
use cmfuzz_server::{
    parse_json, result_digest, serve, BlockingClient, CampaignSubmission, ControlPlane, JsonValue,
    PlaneOptions, RateLimits, Request, ServeSummary, ServerOptions, StopReason, Submission,
};
use cmfuzz_telemetry::schema_header_line;

fn fleet_options() -> FleetOptions {
    FleetOptions {
        slots: 2,
        slice: Ticks::new(100),
        ..FleetOptions::default()
    }
}

fn submission() -> Submission {
    let campaign = |id: &str, subject: &str, seed: u64| CampaignSubmission {
        id: id.into(),
        subject: subject.into(),
        instances: 1,
        budget: 300,
        sample_interval: 100,
        saturation_window: 200,
        seed,
        share_group: None,
        paused: false,
    };
    Submission {
        campaigns: vec![
            campaign("itest/m", "mosquitto", 3),
            campaign("itest/d", "dnsmasq", 7),
        ],
    }
}

struct Server {
    addr: String,
    handle: JoinHandle<ServeSummary>,
}

fn start_server(options: ServerOptions) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let plane = ControlPlane::start(PlaneOptions {
            fleet: fleet_options(),
            ..PlaneOptions::default()
        })
        .expect("plane starts");
        let summary = serve(&listener, &plane, &options).expect("serve loop");
        plane.shutdown();
        summary
    });
    Server { addr, handle }
}

fn client(addr: &str) -> BlockingClient {
    BlockingClient::connect(addr, Duration::from_secs(30)).expect("connect")
}

fn assert_ok(response: &str) -> JsonValue {
    let value = parse_json(response).expect("response is JSON");
    assert_eq!(
        value.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{response}"
    );
    value
}

fn error_code(response: &str) -> u64 {
    let value = parse_json(response).expect("response is JSON");
    assert_eq!(
        value.get("ok").and_then(JsonValue::as_bool),
        Some(false),
        "{response}"
    );
    value
        .get("exit_code")
        .and_then(JsonValue::as_u64)
        .expect("failures carry exit_code")
}

/// Polls status over the wire until every campaign reaches `state`.
fn wait_for_states(client: &mut BlockingClient, state: &str, deadline_ms: u64) -> bool {
    for _ in 0..deadline_ms {
        let response = client.request(&Request::Status).expect("status");
        let value = assert_ok(&response);
        let campaigns = value
            .get("campaigns")
            .and_then(JsonValue::as_array)
            .expect("campaign rows");
        if !campaigns.is_empty()
            && campaigns
                .iter()
                .all(|row| row.get("state").and_then(JsonValue::as_str) == Some(state))
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

fn shutdown(client: &mut BlockingClient, server: Server) -> ServeSummary {
    let response = client.request(&Request::Shutdown).expect("shutdown");
    assert_ok(&response);
    server.handle.join().expect("server thread")
}

#[test]
fn served_submission_matches_offline_digests_bit_for_bit() {
    let server = start_server(ServerOptions::default());
    let mut c = client(&server.addr);

    let response = c
        .request(&Request::Submit(submission()))
        .expect("submit over the wire");
    let value = assert_ok(&response);
    let admitted: Vec<String> = value
        .get("admitted")
        .and_then(JsonValue::as_array)
        .expect("admitted ids")
        .iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    assert_eq!(admitted, vec!["itest/m".to_owned(), "itest/d".to_owned()]);

    assert!(
        wait_for_states(&mut c, "complete", 20_000),
        "served fleet completes"
    );

    let offline = cmfuzz_fleet::run_fleet(
        &submission().materialize().expect("materialize"),
        &mut RoundRobin::new(),
        &fleet_options(),
    )
    .expect("offline fleet");
    assert_eq!(offline.campaigns.len(), 2);
    for outcome in &offline.campaigns {
        let response = c
            .request(&Request::Result {
                id: outcome.id.clone(),
            })
            .expect("result over the wire");
        let value = assert_ok(&response);
        assert_eq!(
            value.get("digest").and_then(JsonValue::as_str),
            Some(result_digest(outcome.result()).as_str()),
            "{} drifted between served and offline execution",
            outcome.id
        );
    }

    let summary = shutdown(&mut c, server);
    assert_eq!(summary.reason, StopReason::Requested);
    assert!(summary.requests >= 4);
}

#[test]
fn control_verbs_and_exit_codes_over_the_wire() {
    let server = start_server(ServerOptions::default());
    let mut c = client(&server.addr);

    // Stage everything paused so control assertions are race-free.
    let mut staged = submission();
    for campaign in &mut staged.campaigns {
        campaign.paused = true;
    }
    assert_ok(&c.request(&Request::Submit(staged)).expect("submit"));
    assert!(wait_for_states(&mut c, "paused", 5_000));

    // Duplicate ids are a preflight rejection: exit code 3.
    let dup = c.request(&Request::Submit(submission())).expect("dup");
    assert_eq!(error_code(&dup), 3, "{dup}");

    // Unknown subjects are operational failures: exit code 2.
    let mut unknown = submission();
    unknown.campaigns[0].id = "itest/u".into();
    unknown.campaigns[0].subject = "no-such-subject".into();
    let response = c.request(&Request::Submit(unknown)).expect("unknown");
    assert_eq!(error_code(&response), 2, "{response}");

    // Kills are permanent; further control of the victim fails with 2.
    assert_ok(
        &c.request(&Request::Kill {
            id: "itest/d".into(),
        })
        .expect("kill"),
    );
    let resumed = c
        .request(&Request::Resume {
            id: "itest/d".into(),
        })
        .expect("resume killed");
    assert_eq!(error_code(&resumed), 2, "{resumed}");

    // A result for a never-scheduled campaign does not exist yet.
    let result = c
        .request(&Request::Result {
            id: "itest/m".into(),
        })
        .expect("early result");
    assert_eq!(error_code(&result), 2, "{result}");

    // Budget extension only goes upward.
    let shrink = c
        .request(&Request::Extend {
            id: "itest/m".into(),
            budget: 100,
        })
        .expect("shrink");
    assert_eq!(error_code(&shrink), 2, "{shrink}");
    assert_ok(
        &c.request(&Request::Extend {
            id: "itest/m".into(),
            budget: 400,
        })
        .expect("extend"),
    );

    // Resume the survivor; the killed campaign stays killed while the
    // survivor runs to its extended budget.
    assert_ok(
        &c.request(&Request::Resume {
            id: "itest/m".into(),
        })
        .expect("resume"),
    );
    assert!(
        {
            let mut done = false;
            for _ in 0..20_000 {
                let response = c.request(&Request::Status).expect("status");
                let value = assert_ok(&response);
                let rows = value
                    .get("campaigns")
                    .and_then(JsonValue::as_array)
                    .expect("rows");
                let state_of = |id: &str| {
                    rows.iter()
                        .find(|r| r.get("id").and_then(JsonValue::as_str) == Some(id))
                        .and_then(|r| r.get("state").and_then(JsonValue::as_str))
                        .map(str::to_owned)
                };
                assert_eq!(state_of("itest/d").as_deref(), Some("killed"));
                if state_of("itest/m").as_deref() == Some("complete") {
                    done = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done
        },
        "resumed campaign completes its extended budget"
    );

    // Malformed lines are usage errors.
    c.send("this is not json").expect("send garbage");
    let garbage = c.read_line().expect("garbage response");
    assert_eq!(error_code(&garbage), 2, "{garbage}");

    shutdown(&mut c, server);
}

#[test]
fn tail_streams_schema_header_then_events() {
    let server = start_server(ServerOptions::default());
    let mut tail = client(&server.addr);
    assert_ok(&tail.request(&Request::Tail).expect("tail"));
    assert_eq!(
        tail.read_line().expect("header"),
        schema_header_line(),
        "first tail line is the schema header"
    );

    let mut c = client(&server.addr);
    assert_ok(&c.request(&Request::Submit(submission())).expect("submit"));
    assert!(wait_for_states(&mut c, "complete", 20_000));

    let mut finished = 0;
    while finished < 2 {
        let line = tail.read_line().expect("tail line");
        assert!(
            cmfuzz_telemetry::json::is_valid(&line),
            "tail emits valid JSON: {line}"
        );
        if line.contains("\"campaign_finished\"") {
            finished += 1;
        }
    }

    // Metrics surface the fan-out subscriber the tail registered.
    let metrics = c.request(&Request::Metrics).expect("metrics");
    let value = assert_ok(&metrics);
    let rendered = value
        .get("metrics")
        .map(|_| metrics.clone())
        .expect("metrics object");
    assert!(rendered.contains("fanout.subscribers"), "{rendered}");
    assert!(rendered.contains("bus.events_emitted"), "{rendered}");

    shutdown(&mut c, server);
}

#[test]
fn rate_limited_clients_get_budget_errors_not_service_loss() {
    let server = start_server(ServerOptions {
        limits: RateLimits {
            requests_per_sec: 10,
            burst: 5,
        },
        ..ServerOptions::default()
    });
    let mut c = client(&server.addr);

    let mut limited: u64 = 0;
    let mut answered: u64 = 0;
    for _ in 0..40 {
        let response = c.request(&Request::Status).expect("status");
        let value = parse_json(&response).expect("JSON");
        if value.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            answered += 1;
        } else {
            assert_eq!(error_code(&response), 2, "{response}");
            assert!(response.contains("rate limited"), "{response}");
            limited += 1;
        }
    }
    assert!(limited > 0, "a 40-request burst against burst=5 must trip");
    assert!(answered >= 5, "the burst allowance is honoured");

    // The connection survives limiting: once tokens refill, requests
    // succeed again.
    std::thread::sleep(Duration::from_millis(300));
    assert_ok(&c.request(&Request::Status).expect("recovered"));

    let summary = shutdown(&mut c, server);
    assert_eq!(limited, summary.rate_limited);
}

#[test]
fn kill_switch_stops_the_server_and_kills_the_fleet() {
    let switch = Arc::new(AtomicBool::new(false));
    let server = start_server(ServerOptions {
        kill_override: Some(Arc::clone(&switch)),
        ..ServerOptions::default()
    });
    let mut c = client(&server.addr);

    // A long-budget campaign that would run for a while unattended.
    let mut long = submission();
    long.campaigns.truncate(1);
    long.campaigns[0].budget = 1_000_000;
    assert_ok(&c.request(&Request::Submit(long)).expect("submit"));

    switch.store(true, Ordering::Release);
    let summary = server.handle.join().expect("server thread");
    assert_eq!(summary.reason, StopReason::KillSwitch);

    // The connection receives the kill notice before the server exits.
    let notice = c.read_line().expect("kill notice");
    assert_eq!(error_code(&notice), 2, "{notice}");
    assert!(notice.contains("kill switch"), "{notice}");
}
