//! The server against clients that misbehave on the wire: requests split
//! across writes, lines at and past the 1 MiB cap, invalid UTF-8, a client
//! that connects and stalls, one that disconnects mid-reply, and a tail
//! that never reads. Then against well-framed lines with hostile content:
//! nesting deep enough to overflow a recursive parser, and counts large
//! enough to exhaust memory. Each adversary gets the answer (or the drop)
//! it earned, a well-behaved client on its own connection is served
//! digests equal to an offline `run_fleet`, and `shutdown` returns with
//! every connection thread joined.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{FleetOptions, RoundRobin};
use cmfuzz_server::{
    parse_json, result_digest, serve, BlockingClient, CampaignSubmission, ControlPlane, JsonValue,
    PlaneOptions, Request, ServeSummary, ServerOptions, StopReason, Submission,
};

/// The server's request-line cap, newline excluded.
const MAX_LINE: usize = 1024 * 1024;

const TIMEOUT: Duration = Duration::from_secs(30);

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
            campaign("adv/m", "mosquitto", 3),
            campaign("adv/d", "dnsmasq", 7),
        ],
    }
}

fn start_server() -> (String, JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let plane = ControlPlane::start(PlaneOptions {
            fleet: fleet_options(),
            ..PlaneOptions::default()
        })
        .expect("plane starts");
        let summary = serve(&listener, &plane, &ServerOptions::default()).expect("serve loop");
        plane.shutdown();
        summary
    });
    (addr, handle)
}

/// A raw connection: writes exactly the bytes given, reads lines.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Raw { stream, reader }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// The next reply line, or `None` once the server closed the
    /// connection (EOF or reset).
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_owned()),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::ConnectionReset) => None,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn reply_ok(line: &str) -> bool {
    parse_json(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

fn status_line() -> Vec<u8> {
    let mut line = Request::Status.to_line().into_bytes();
    line.push(b'\n');
    line
}

/// Asserts the offline fleet's digests are the ones `client` is served.
fn assert_offline_digests(client: &mut BlockingClient) {
    let offline = cmfuzz_fleet::run_fleet(
        &submission().materialize().expect("materialize"),
        &mut RoundRobin::new(),
        &fleet_options(),
    )
    .expect("offline fleet");
    for outcome in &offline.campaigns {
        let line = client
            .request(&Request::Result {
                id: outcome.id.clone(),
            })
            .expect("result");
        let value = parse_json(&line).expect("result is JSON");
        assert_eq!(
            value.get("digest").and_then(JsonValue::as_str),
            Some(result_digest(outcome.result()).as_str()),
            "{} drifted beside misbehaving clients",
            outcome.id
        );
    }
}

fn wait_complete(client: &mut BlockingClient) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let line = client.request(&Request::Status).expect("status");
        let value = parse_json(&line).expect("status is JSON");
        let rows = value
            .get("campaigns")
            .and_then(JsonValue::as_array)
            .expect("campaign rows");
        if rows
            .iter()
            .all(|row| row.get("state").and_then(JsonValue::as_str) == Some("complete"))
        {
            return;
        }
        assert!(Instant::now() < deadline, "fleet did not complete: {line}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn misbehaving_clients_cannot_disturb_service_or_digests() {
    let (addr, server) = start_server();
    let mut good = BlockingClient::connect(&addr, TIMEOUT).expect("connect");
    assert!(reply_ok(
        &good
            .request(&Request::Submit(submission()))
            .expect("submit")
    ));

    // A tail that never reads, and a client that connects and stalls
    // with half a request: both stay open through everything below.
    let mut deaf_tail = Raw::connect(&addr);
    deaf_tail.write(format!("{}\n", Request::Tail.to_line()).as_bytes());
    let mut staller = Raw::connect(&addr);
    staller.write(b"{\"cmd\":");

    // One request split across several writes.
    let mut split = Raw::connect(&addr);
    let request = status_line();
    for piece in request.chunks(3) {
        split.write(piece);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(reply_ok(&split.line().expect("split request answered")));

    // A line exactly at the cap is a request; the connection stays.
    let mut at_cap = Raw::connect(&addr);
    let mut line = Request::Status.to_line().into_bytes();
    line.resize(MAX_LINE, b' ');
    line.push(b'\n');
    at_cap.write(&line);
    assert!(reply_ok(&at_cap.line().expect("line at the cap answered")));
    at_cap.write(&status_line());
    assert!(reply_ok(&at_cap.line().expect("connection survives")));

    // One byte past the cap without a newline drops the connection.
    let mut past_cap = Raw::connect(&addr);
    let _ = past_cap.stream.write_all(&vec![b'a'; MAX_LINE + 1]);
    assert_eq!(past_cap.line(), None, "the flooder is dropped");

    // Invalid UTF-8 is a usage error, and the connection survives it.
    let mut garbled = Raw::connect(&addr);
    garbled.write(b"{\"cmd\":\"st\xff\xfeatus\"}\n");
    let error = garbled.line().expect("invalid UTF-8 answered");
    assert!(!reply_ok(&error), "{error}");
    assert!(error.contains("\"exit_code\":2"), "{error}");
    garbled.write(&status_line());
    assert!(reply_ok(&garbled.line().expect("connection survives")));

    // A burst of requests, then gone before reading any reply.
    let mut quitter = Raw::connect(&addr);
    quitter.write(&status_line().repeat(100));
    let _ = quitter.stream.shutdown(Shutdown::Both);
    drop(quitter);

    // The well-behaved client is served throughout, and its digests are
    // the offline fleet's.
    wait_complete(&mut good);
    assert_offline_digests(&mut good);

    // Shutdown returns with every connection thread joined, the stalled
    // and deaf ones included: their sockets are closed on the way out.
    assert!(reply_ok(
        &good.request(&Request::Shutdown).expect("shutdown")
    ));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.is_finished() {
        assert!(
            Instant::now() < deadline,
            "serve did not return with stalled and deaf clients connected"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let summary = server.join().expect("server thread");
    assert_eq!(summary.reason, StopReason::Requested);
    assert_eq!(summary.connections, 8);
    assert_eq!(staller.line(), None, "the stalled client is disconnected");
    let mut streamed = Vec::new();
    let _ = deaf_tail.stream.read_to_end(&mut streamed);
    assert!(
        streamed.starts_with(b"{\"ok\":true"),
        "the deaf tail was acknowledged before it stopped reading"
    );
}

#[test]
fn hostile_request_content_gets_typed_errors() {
    let (addr, server) = start_server();
    let mut good = BlockingClient::connect(&addr, TIMEOUT).expect("connect");
    assert!(reply_ok(
        &good
            .request(&Request::Submit(submission()))
            .expect("submit")
    ));

    // 100 000 levels of nesting, 100 KB and 500 KB: well under the line
    // cap, and deep enough to overflow the connection thread's stack in a
    // parser without a depth limit. Each is a usage error, and the
    // connection survives it.
    let mut nester = Raw::connect(&addr);
    for unit in ["[", "{\"a\":"] {
        let mut line = unit.repeat(100_000).into_bytes();
        line.push(b'\n');
        nester.write(&line);
        let error = nester.line().expect("deep nesting answered");
        assert!(!reply_ok(&error), "{error}");
        assert!(error.contains("\"exit_code\":2"), "{error}");
        assert!(error.contains("nesting deeper than the limit"), "{error}");
    }
    nester.write(&status_line());
    assert!(reply_ok(&nester.line().expect("connection survives")));

    // A count that would size four billion instances is a preflight
    // rejection, answered before anything is allocated from it.
    let mut hoarder = Raw::connect(&addr);
    hoarder.write(
        b"{\"cmd\":\"submit\",\"fleet\":{\"campaigns\":[{\"id\":\"huge\",\
          \"subject\":\"dnsmasq\",\"budget\":200,\"instances\":4000000000,\
          \"paused\":true}]}}\n",
    );
    let error = hoarder.line().expect("oversized count answered");
    assert!(!reply_ok(&error), "{error}");
    assert!(error.contains("\"exit_code\":3"), "{error}");
    assert!(error.contains("admission bound 64"), "{error}");
    hoarder.write(&status_line());
    let status = hoarder.line().expect("connection survives");
    assert!(reply_ok(&status), "{status}");
    assert!(!status.contains("huge"), "nothing was admitted: {status}");

    wait_complete(&mut good);
    assert_offline_digests(&mut good);

    assert!(reply_ok(
        &good.request(&Request::Shutdown).expect("shutdown")
    ));
    let summary = server.join().expect("server thread");
    assert_eq!(summary.reason, StopReason::Requested);
}
