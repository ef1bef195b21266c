//! Line-delimited TCP front end over the control plane.
//!
//! An accept loop plus one scoped thread per connection, over blocking
//! `std::net` sockets (the offline-shims build policy rules out
//! tokio/mio, and the protocol does not need them). A connection thread
//! reads a request line as soon as it arrives and writes the answer
//! straight to its socket; a `tail` turns the thread into a pump from its
//! telemetry subscriber to the socket. The accept loop ticks only to take
//! new connections, watch the kill switch and notice a shutdown. Slow
//! consumers are handled at two layers — the
//! [`FanoutHub`](cmfuzz_telemetry::FanoutHub) drops and eventually evicts
//! subscribers that stop polling, and a write blocked for longer than a
//! fixed timeout drops its connection — so one wedged client can never
//! stall the fleet or the other clients.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmfuzz_coverage::Ticks;
use cmfuzz_telemetry::json::ObjectWriter;
use cmfuzz_telemetry::{schema_header_line, FanoutSubscriber};

use crate::plane::ControlPlane;
use crate::proto::{error_response, ok_response, Request};
use crate::rate::{kill_switch_engaged, RateLimits};

/// Longest request line, newline excluded; a connection that sends more
/// without a newline is dropped.
const MAX_LINE: usize = 1024 * 1024;

/// How long a write may stay blocked before the connection is dropped as
/// a slow consumer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The accept loop's tick, and a tail's poll interval when idle.
const TICK: Duration = Duration::from_millis(1);

/// How long a stopping server waits for connection threads to finish
/// their last replies before it shuts their sockets down entirely.
const STOP_GRACE: Duration = Duration::from_millis(200);

/// Knobs for one serving loop.
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Per-connection request rate limits.
    pub limits: RateLimits,
    /// Extra kill-switch input OR-ed with the `CMFUZZ_KILL` environment
    /// check — lets embedding code (and tests) engage the switch without
    /// touching process-global state.
    pub kill_override: Option<Arc<AtomicBool>>,
}

/// Why [`serve`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A client sent `{"cmd":"shutdown"}`.
    Requested,
    /// The global kill switch was engaged; every campaign was killed.
    KillSwitch,
}

/// What one serving loop did, for operator logs and exit codes.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// Requests answered (tail streaming excluded).
    pub requests: u64,
    /// Connections accepted over the loop's lifetime.
    pub connections: u64,
    /// Requests refused by the per-connection rate limiter.
    pub rate_limited: u64,
    /// Connections dropped because a write stayed blocked past the
    /// write timeout.
    pub slow_dropped: u64,
}

/// State the accept loop shares with its connection threads.
struct Shared<'a> {
    plane: &'a ControlPlane,
    limits: &'a RateLimits,
    started: Instant,
    stopping: AtomicBool,
    /// Set before `stopping` when the kill switch stopped the server.
    killed: AtomicBool,
    requests: AtomicU64,
    rate_limited: AtomicU64,
    slow_dropped: AtomicU64,
}

/// Serves the control plane on `listener` until a shutdown request or the
/// kill switch. The accept loop runs on the calling thread; every
/// connection runs on a scoped thread of its own, and all of them are
/// joined before this returns.
///
/// # Errors
///
/// Only setup-level I/O failures (the listener refusing non-blocking
/// mode); per-connection errors close that connection and keep serving.
pub fn serve(
    listener: &TcpListener,
    plane: &ControlPlane,
    options: &ServerOptions,
) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let shared = Shared {
        plane,
        limits: &options.limits,
        started: Instant::now(),
        stopping: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        rate_limited: AtomicU64::new(0),
        slow_dropped: AtomicU64::new(0),
    };
    let mut connections = 0;
    let reason = std::thread::scope(|scope| {
        let mut conns = Vec::new();
        let reason = loop {
            if kill_switch_engaged()
                || options
                    .kill_override
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::Acquire))
            {
                plane.kill_all();
                shared.killed.store(true, Ordering::Release);
                shared.stopping.store(true, Ordering::Release);
                break StopReason::KillSwitch;
            }
            if shared.stopping.load(Ordering::Acquire) {
                break StopReason::Requested;
            }
            let mut accepted = false;
            while let Ok((stream, _addr)) = listener.accept() {
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                connections += 1;
                accepted = true;
                let shared = &shared;
                conns.push((scope.spawn(move || connection(stream, shared)), handle));
            }
            conns.retain(|(thread, _)| !thread.is_finished());
            if !accepted {
                std::thread::sleep(TICK);
            }
        };
        // Wake every reader; each thread finishes the request in hand
        // (and writes the kill notice) before it exits. Whoever is still
        // running after the grace period is blocked on a write and loses
        // its socket.
        for (_, stream) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + STOP_GRACE;
        while conns.iter().any(|(thread, _)| !thread.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for (_, stream) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        reason
    });
    Ok(ServeSummary {
        reason,
        requests: shared.requests.into_inner(),
        connections,
        rate_limited: shared.rate_limited.into_inner(),
        slow_dropped: shared.slow_dropped.into_inner(),
    })
}

/// One connection, from accept to close.
fn connection(stream: TcpStream, shared: &Shared<'_>) {
    if stream.set_nonblocking(false).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let conn = Conn { stream, shared };
    let mut reader = BufReader::new(&conn.stream);
    let mut bucket = shared.limits.bucket();
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(_) if line.last() == Some(&b'\n') => {}
            // End of stream (an unterminated last line is dropped with
            // it), a read error, or a line past the cap.
            _ => break,
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let (reply, action) = if bucket
            .as_mut()
            .is_some_and(|bucket| !bucket.try_acquire_at(shared.started.elapsed()))
        {
            shared.rate_limited.fetch_add(1, Ordering::Relaxed);
            (error_response(2, "rate limited"), Action::Continue)
        } else {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            answer(text, shared.plane, &conn.stream)
        };
        if conn.line(&reply).is_err() {
            return;
        }
        match action {
            Action::Continue => {}
            Action::Tail(subscriber) => return conn.tail(&subscriber),
            Action::Shutdown => {
                shared.stopping.store(true, Ordering::Release);
                return;
            }
        }
    }
    conn.kill_notice();
}

/// A connection's socket, written with blocking writes.
struct Conn<'a> {
    stream: TcpStream,
    shared: &'a Shared<'a>,
}

impl Conn<'_> {
    /// Writes `text` and a newline; a write still blocked after the
    /// write timeout counts the connection as a dropped slow consumer.
    fn line(&self, text: &str) -> io::Result<()> {
        let line = format!("{text}\n");
        (&self.stream).write_all(line.as_bytes()).inspect_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                self.shared.slow_dropped.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Pumps telemetry to a tailing connection until the server stops,
    /// the subscriber is evicted, or a write fails. Tailing connections
    /// are send-only: nothing more is read from them.
    fn tail(&self, subscriber: &FanoutSubscriber) {
        while !self.shared.stopping.load(Ordering::Acquire) {
            let records = subscriber.poll();
            let batch: Vec<String> = records.iter().map(|r| r.to_json_line()).collect();
            if !batch.is_empty() && self.line(&batch.join("\n")).is_err() {
                return;
            }
            if subscriber.is_evicted() {
                let _ = self.line(&error_response(
                    2,
                    "tail evicted: subscriber lagged too far",
                ));
                return;
            }
            if records.is_empty() {
                std::thread::sleep(TICK);
            }
        }
        self.kill_notice();
    }

    /// Tells the client why the server is going away, if the kill switch
    /// stopped it.
    fn kill_notice(&self) {
        if self.shared.killed.load(Ordering::Acquire) {
            let _ = self.line(&error_response(
                2,
                "kill switch engaged; all campaigns killed",
            ));
        }
    }
}

/// A simple blocking client for the wire protocol — the other half of
/// [`serve`], shared by `cmfuzz-client` and the soak harness.
#[derive(Debug)]
pub struct BlockingClient {
    stream: TcpStream,
    reader: io::BufReader<TcpStream>,
}

impl BlockingClient {
    /// Connects to a serving address with a read timeout.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = io::BufReader::new(stream.try_clone()?);
        Ok(BlockingClient { stream, reader })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Reads one response line (without the newline).
    ///
    /// # Errors
    ///
    /// Socket read failures, timeouts, and a closed peer.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a request and returns the single response line.
    ///
    /// # Errors
    ///
    /// As [`BlockingClient::send`] and [`BlockingClient::read_line`].
    pub fn request(&mut self, request: &Request) -> io::Result<String> {
        self.send(&request.to_line())?;
        self.read_line()
    }
}

enum Action {
    Continue,
    Tail(FanoutSubscriber),
    Shutdown,
}

/// Answers one request line from `stream`: the reply (one line, or for
/// `tail` the acknowledgement and the schema header) and what the
/// connection does next. A tail subscribes here, before its
/// acknowledgement goes out, so it sees every event published after the
/// client reads it.
fn answer(line: &str, plane: &ControlPlane, stream: &TcpStream) -> (String, Action) {
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(message) => return (error_response(2, &message), Action::Continue),
    };
    let reply = match request {
        Request::Submit(submission) => match plane.submit(&submission) {
            Ok(ids) => {
                let ids = ids
                    .iter()
                    .map(|id| {
                        let mut s = String::new();
                        cmfuzz_telemetry::json::push_escaped(&mut s, id);
                        s
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                ok_response(&[("admitted", format!("[{ids}]"))])
            }
            Err((code, message)) => error_response(code, &message),
        },
        Request::Status => {
            let rows = plane
                .status()
                .iter()
                .map(|row| {
                    let mut obj = ObjectWriter::new();
                    obj.str_field("id", &row.id);
                    obj.str_field("state", row.state.label());
                    obj.u64_field("leases", row.leases);
                    obj.u64_field("consumed", row.consumed.get());
                    obj.u64_field("rounds", row.rounds_done);
                    obj.u64_field("branches", row.branches as u64);
                    if let Some(reachable) = row.reachable_branches {
                        obj.u64_field("reachable_branches", reachable as u64);
                    }
                    obj.finish()
                })
                .collect::<Vec<_>>()
                .join(",");
            ok_response(&[("campaigns", format!("[{rows}]"))])
        }
        Request::Pause { id } => applied(plane.pause(&id), &id),
        Request::Resume { id } => applied(plane.resume(&id), &id),
        Request::Kill { id } => applied(plane.kill(&id), &id),
        Request::Extend { id, budget } => {
            applied(plane.extend_budget(&id, Ticks::new(budget)), &id)
        }
        Request::Result { id } => match plane.result_digest(&id) {
            Some(digest) => {
                let mut rendered = String::new();
                cmfuzz_telemetry::json::push_escaped(&mut rendered, &digest);
                ok_response(&[("digest", rendered)])
            }
            None => error_response(2, "campaign has no result yet"),
        },
        Request::Metrics => ok_response(&[("metrics", plane.metrics_json())]),
        Request::Tail => {
            let name = stream
                .peer_addr()
                .map_or_else(|_| "tail".to_owned(), |addr| format!("tail:{addr}"));
            let reply = format!(
                "{}\n{}",
                ok_response(&[("streaming", "true".into())]),
                schema_header_line()
            );
            return (reply, Action::Tail(plane.subscribe(&name)));
        }
        Request::Shutdown => return (ok_response(&[]), Action::Shutdown),
    };
    (reply, Action::Continue)
}

fn applied(applied: bool, id: &str) -> String {
    if applied {
        ok_response(&[])
    } else {
        error_response(2, &format!("no controllable campaign {id:?}"))
    }
}
