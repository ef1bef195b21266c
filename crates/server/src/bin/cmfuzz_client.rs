//! `cmfuzz-client`: command-line client for a running `cmfuzz-serve`.
//!
//! One subcommand per control verb; every response is printed verbatim
//! (it is already one line of JSON). Exit codes follow the repo
//! convention: 0 on `"ok": true`, the server-provided `exit_code` (2
//! operational, 3 preflight) on `"ok": false`, and 2 for local failures
//! (unreachable server, bad usage).

use std::process::exit;
use std::time::Duration;

use cmfuzz_server::net::BlockingClient;
use cmfuzz_server::proto::{Request, Submission};
use cmfuzz_telemetry::json::{parse, JsonValue};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut connect = String::from("127.0.0.1:7070");
    let mut max_tail_lines: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => match iter.next() {
                Some(addr) => connect = addr.clone(),
                None => usage_error("--connect expects host:port"),
            },
            "--max-lines" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => max_tail_lines = Some(n),
                _ => usage_error("--max-lines expects a positive count"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => rest.push(other.to_owned()),
        }
    }

    let request = match rest.first().map(String::as_str) {
        Some("submit") => {
            let Some(path) = rest.get(1) else {
                usage_error("submit expects a submission file path");
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(error) => {
                    eprintln!("[cmfuzz-client] cannot read {path}: {error}");
                    exit(2);
                }
            };
            match Submission::from_json_text(&text) {
                Ok(submission) => Request::Submit(submission),
                Err(message) => {
                    eprintln!("[cmfuzz-client] {path}: {message}");
                    exit(2);
                }
            }
        }
        Some("status") => Request::Status,
        Some("pause") => Request::Pause { id: id_arg(&rest) },
        Some("resume") => Request::Resume { id: id_arg(&rest) },
        Some("kill") => Request::Kill { id: id_arg(&rest) },
        Some("extend") => {
            let id = id_arg(&rest);
            let Some(budget) = rest
                .get(2)
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&n| n > 0)
            else {
                usage_error("extend expects <id> <budget-ticks>");
            };
            Request::Extend { id, budget }
        }
        Some("result") => Request::Result { id: id_arg(&rest) },
        Some("metrics") => Request::Metrics,
        Some("tail") => Request::Tail,
        Some("shutdown") => Request::Shutdown,
        Some(other) => usage_error(&format!("unknown command {other:?}")),
        None => usage_error("missing command"),
    };

    let mut client = match BlockingClient::connect(&connect, Duration::from_secs(60)) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("[cmfuzz-client] cannot connect to {connect}: {error}");
            exit(2);
        }
    };
    let response = match client.request(&request) {
        Ok(response) => response,
        Err(error) => {
            eprintln!("[cmfuzz-client] request failed: {error}");
            exit(2);
        }
    };
    println!("{response}");

    let parsed = parse(&response).ok();
    let ok = parsed
        .as_ref()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        .unwrap_or(false);
    if !ok {
        let code = parsed
            .as_ref()
            .and_then(|v| v.get("exit_code").and_then(JsonValue::as_u64))
            .unwrap_or(1);
        exit(i32::try_from(code).unwrap_or(1));
    }

    if matches!(request, Request::Tail) {
        // Stream telemetry lines (the first is the schema header) until
        // the server goes away or --max-lines is reached.
        let mut lines = 0u64;
        while let Ok(line) = client.read_line() {
            println!("{line}");
            lines += 1;
            if max_tail_lines.is_some_and(|max| lines >= max) {
                break;
            }
        }
    }
    exit(0);
}

fn id_arg(rest: &[String]) -> String {
    match rest.get(1) {
        Some(id) => id.clone(),
        None => usage_error("this command expects a campaign id"),
    }
}

const USAGE: &str = "usage: cmfuzz-client [--connect <host:port>] <command> [args]\n\
    \n\
    submit <file>        admit the submission JSON ({\"campaigns\": [...]})\n\
    status               one status row per campaign\n\
    pause <id>           pause a campaign at its next round boundary\n\
    resume <id>          resume a paused campaign\n\
    kill <id>            permanently remove a campaign from scheduling\n\
    extend <id> <ticks>  raise a campaign's budget (extensions only)\n\
    result <id>          deterministic digest of the campaign's result\n\
    metrics              metrics registry snapshot (bus + fan-out counters)\n\
    tail                 stream telemetry JSONL (schema header first)\n\
    shutdown             stop the server\n\
    \n\
    --connect    server address (default: 127.0.0.1:7070)\n\
    --max-lines  stop tailing after this many lines\n\
    \n\
    Exit codes: 0 ok; on failure, the server's exit_code (2 operational,\n\
    3 preflight rejection); 2 for local/usage errors.";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}
