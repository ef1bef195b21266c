//! Simulated AMQP broker modeled after Apache Qpid.
//!
//! Configured through a YAML deployment file plus CLI options; speaks a
//! simplified AMQP 0-9-1 framing (protocol header, method/header/body/
//! heartbeat frames with a 0xCE end octet). Carries Table II bug #9: a
//! stack-buffer-overflow in `pthread_create` when the worker-thread pool is
//! configured beyond its stack-array capacity.

use std::sync::LazyLock;

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigFile, ConfigSpace, ConstraintSet, GuardKind,
    GuardTable, ResolvedConfig,
};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{Fault, FaultKind, StartError, Target, TargetResponse};

use crate::common::{be16, be32, Cov, Declarations};

/// Branch inventory.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Br {
    // --- startup ---
    StartEntry,
    StartDefaultPort,
    StartCustomPort,
    StartThreadsDefault,
    StartThreadsMany,
    StartChannelMaxTuned,
    StartFrameMaxTuned,
    StartFrameMaxSmall,
    StartHeartbeatOff,
    StartHeartbeatFast,
    StartDurable,
    StartDurableFlow,
    StartFlowControl,
    StartSaslPlain,
    StartSaslAnonymous,
    StartSaslExternal,
    StartEncryptionRequired,
    StartEncryptionSasl,
    StartLogDebug,
    // --- protocol header ---
    ProtoHeaderSeen,
    ProtoHeaderBadMagic,
    ProtoHeaderBadVersion,
    // --- frames ---
    FrameTooShort,
    FrameBadEnd,
    FrameOverMax,
    FrameChannelOverMax,
    FrameMethod,
    FrameHeader,
    FrameBody,
    FrameHeartbeat,
    FrameHeartbeatDisabled,
    FrameUnknownType,
    // --- methods ---
    MethodTruncated,
    ConnStartOk,
    ConnStartOkPlain,
    ConnStartOkAnon,
    ConnStartOkRejected,
    ConnTuneOk,
    ConnOpen,
    ConnClose,
    ChannelOpen,
    ChannelOpenBeforeConn,
    ChannelClose,
    ChannelFlow,
    ChannelFlowIgnored,
    QueueDeclare,
    QueueDeclareDurable,
    QueueDeclareDurableRejected,
    QueueNameA,
    QueueNameAm,
    QueueNameAmq,
    QueueNameReserved,
    BasicPublish,
    BasicPublishNoChannel,
    BasicPublishOversized,
    BasicConsume,
    MethodUnknown,
    Count,
}

#[derive(Debug, Clone)]
struct Config {
    threads: i64,
    channel_max: i64,
    frame_max: i64,
    heartbeat: i64,
    durable_queues: bool,
    flow_control: bool,
    sasl_plain: bool,
    sasl_anonymous: bool,
    sasl_external: bool,
    require_encryption: bool,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        // The YAML lists SASL mechanisms as a sequence; extraction flattens
        // them to indexed entries. An unconfigured list keeps the default
        // PLAIN+ANONYMOUS pair.
        let has = |name: &str| resolved.list_members("auth.mechanisms").any(|m| m == name);
        let defaulted = resolved.list_members("auth.mechanisms").next().is_none();
        Config {
            threads: resolved.int_or("threads", 4),
            channel_max: resolved.int_or("broker.channel_max", 256),
            frame_max: resolved.int_or("broker.frame_max", 65535),
            heartbeat: resolved.int_or("broker.heartbeat", 60),
            durable_queues: resolved.bool_or("broker.durable_queues", false),
            flow_control: resolved.bool_or("broker.flow_control", true),
            sasl_plain: defaulted || has("PLAIN"),
            sasl_anonymous: defaulted || has("ANONYMOUS"),
            sasl_external: has("EXTERNAL"),
            require_encryption: resolved.bool_or("auth.require_encryption", false),
        }
    }
}

/// The simulated Qpid broker.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Amqp;
///
/// let broker = Amqp::new();
/// assert_eq!(broker.name(), "qpid");
/// ```
#[derive(Debug, Default)]
pub struct Amqp {
    cov: Cov,
    config: Option<Config>,
    negotiated: bool,
    authenticated: bool,
    open_channels: Vec<u16>,
}

impl Amqp {
    /// Creates a stopped broker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn cfg(&self) -> &Config {
        self.config.as_ref().expect("started")
    }

    fn hit(&self, branch: Br) {
        self.cov.hit(branch as u32);
    }

    fn handle_method(&mut self, channel: u16, payload: &[u8]) -> TargetResponse {
        let (Some(class), Some(method)) = (be16(payload, 0), be16(payload, 2)) else {
            self.hit(Br::MethodTruncated);
            return TargetResponse::empty();
        };
        let args = &payload[4..];
        match (class, method) {
            // connection.start-ok — carries the chosen SASL mechanism as a
            // short string (len + bytes).
            (10, 11) => {
                self.hit(Br::ConnStartOk);
                let mechanism = args
                    .split_first()
                    .and_then(|(&len, rest)| rest.get(..usize::from(len)))
                    .unwrap_or(b"");
                let accepted = match mechanism {
                    b"PLAIN" if self.cfg().sasl_plain && !self.cfg().require_encryption => {
                        self.hit(Br::ConnStartOkPlain);
                        true
                    }
                    b"ANONYMOUS" if self.cfg().sasl_anonymous => {
                        self.hit(Br::ConnStartOkAnon);
                        true
                    }
                    b"EXTERNAL" => self.cfg().sasl_external,
                    _ => false,
                };
                if accepted {
                    self.authenticated = true;
                    method_frame(channel, 10, 30) // connection.tune
                } else {
                    self.hit(Br::ConnStartOkRejected);
                    method_frame(channel, 10, 50) // connection.close
                }
            }
            (10, 31) => {
                self.hit(Br::ConnTuneOk);
                TargetResponse::empty()
            }
            (10, 40) => {
                self.hit(Br::ConnOpen);
                // Bug #9 (Table II): stack-buffer-overflow in
                // pthread_create — opening a connection spawns the worker
                // pool; its thread-id array lives in a 64-slot stack buffer
                // indexed by the configured thread count.
                if self.cfg().threads > 64 {
                    return TargetResponse::crash(
                        Fault::new(FaultKind::StackBufferOverflow, "pthread_create")
                            .with_detail("worker pool exceeds 64-slot stack array"),
                    );
                }
                self.negotiated = true;
                method_frame(channel, 10, 41) // connection.open-ok
            }
            (10, 50) => {
                self.hit(Br::ConnClose);
                self.negotiated = false;
                self.authenticated = false;
                self.open_channels.clear();
                method_frame(channel, 10, 51) // connection.close-ok
            }
            (20, 10) => {
                if !self.negotiated {
                    self.hit(Br::ChannelOpenBeforeConn);
                    return method_frame(0, 10, 50);
                }
                self.hit(Br::ChannelOpen);
                if !self.open_channels.contains(&channel) {
                    self.open_channels.push(channel);
                }
                method_frame(channel, 20, 11) // channel.open-ok
            }
            (20, 20) => {
                if self.cfg().flow_control {
                    self.hit(Br::ChannelFlow);
                    method_frame(channel, 20, 21) // channel.flow-ok
                } else {
                    self.hit(Br::ChannelFlowIgnored);
                    TargetResponse::empty()
                }
            }
            (20, 40) => {
                self.hit(Br::ChannelClose);
                self.open_channels.retain(|&c| c != channel);
                method_frame(channel, 20, 41)
            }
            (50, 10) => {
                self.hit(Br::QueueDeclare);
                // Reserved `amq.` queue names: the prefix compare advances
                // one branch per stage, as compiled code does.
                let queue_name = args
                    .split_first()
                    .and_then(|(&len, rest)| rest.get(..usize::from(len)))
                    .unwrap_or(b"");
                if queue_name.starts_with(b"a") {
                    self.hit(Br::QueueNameA);
                    if queue_name.starts_with(b"am") {
                        self.hit(Br::QueueNameAm);
                        if queue_name.starts_with(b"amq") {
                            self.hit(Br::QueueNameAmq);
                            if queue_name.starts_with(b"amq.") {
                                self.hit(Br::QueueNameReserved);
                                return method_frame(channel, 50, 40); // access-refused
                            }
                        }
                    }
                }
                // Durable bit is the low bit of the flags octet after the
                // (empty) reserved short + queue name shortstr.
                let durable = args
                    .split_first()
                    .and_then(|(&name_len, rest)| rest.get(usize::from(name_len)))
                    .is_some_and(|&flags| flags & 0x02 != 0);
                if durable {
                    if self.cfg().durable_queues {
                        self.hit(Br::QueueDeclareDurable);
                    } else {
                        self.hit(Br::QueueDeclareDurableRejected);
                        return method_frame(channel, 50, 40); // precondition-failed close
                    }
                }
                method_frame(channel, 50, 11) // queue.declare-ok
            }
            (60, 40) => {
                if !self.open_channels.contains(&channel) {
                    self.hit(Br::BasicPublishNoChannel);
                    return TargetResponse::empty();
                }
                self.hit(Br::BasicPublish);
                TargetResponse::empty()
            }
            (60, 20) => {
                self.hit(Br::BasicConsume);
                method_frame(channel, 60, 21)
            }
            _ => {
                self.hit(Br::MethodUnknown);
                TargetResponse::empty()
            }
        }
    }
}

/// Builds a minimal method frame for `class.method` on `channel`.
fn method_frame(channel: u16, class: u16, method: u16) -> TargetResponse {
    let mut payload = Vec::with_capacity(4);
    payload.extend_from_slice(&class.to_be_bytes());
    payload.extend_from_slice(&method.to_be_bytes());
    let mut frame = vec![1u8];
    frame.extend_from_slice(&channel.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame.push(0xCE);
    TargetResponse::reply(frame)
}

/// The declarations the server boots from; see [`Declarations`].
static DECLARED: LazyLock<Declarations> =
    LazyLock::new(|| Declarations::new(constraints(), guards()));

// The startup conflicts. `start` refuses a configuration with the reason
// of the first one it violates, in this order.
fn constraints() -> ConstraintSet {
    ConstraintSet::new()
        .with(ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 5672)],
        ))
        .with(ConfigConstraint::new(
            "worker pool needs at least one thread",
            vec![Condition::int_below("threads", 1, 4)],
        ))
        .with(ConfigConstraint::new(
            "frame_max below protocol minimum",
            vec![Condition::int_below("broker.frame_max", 256, 65535)],
        ))
        // PLAIN over cleartext conflicts with required encryption when
        // no EXTERNAL (TLS) mechanism is offered.
        .with(ConfigConstraint::new(
            "require_encryption conflicts with cleartext PLAIN",
            vec![
                Condition::bool_is("auth.require_encryption", true, false),
                Condition::list_has_or_empty("auth.mechanisms", "PLAIN"),
                Condition::list_lacks("auth.mechanisms", "EXTERNAL"),
            ],
        ))
}

// The config gates of the branches. `start` hits each startup branch
// whose guard holds; handler guards are necessary-only.
fn guards() -> GuardTable {
    let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
    };
    let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
    };
    let durable = || Condition::bool_is("broker.durable_queues", true, false);
    let flow = || Condition::bool_is("broker.flow_control", true, true);
    // `sasl_external` depends on "list non-empty and has EXTERNAL",
    // which no single predicate expresses exactly; its branches stay
    // unguarded, as do the `!= default` tuned branches.
    GuardTable::new()
        .with(startup(Br::StartEntry, "start::entry", vec![]))
        .with(startup(
            Br::StartDefaultPort,
            "start::default-port",
            vec![Condition::int_equals("port", 5672, 5672)],
        ))
        .with(startup(
            Br::StartThreadsDefault,
            "start::threads-default",
            vec![Condition::int_below("threads", 17, 4)],
        ))
        .with(startup(
            Br::StartThreadsMany,
            "start::threads-many",
            vec![Condition::int_within("threads", 17, i64::MAX, 4)],
        ))
        .with(startup(
            Br::StartFrameMaxSmall,
            "start::frame-max-small",
            vec![Condition::int_below("broker.frame_max", 4096, 65535)],
        ))
        .with(startup(
            Br::StartHeartbeatOff,
            "start::heartbeat-off",
            vec![Condition::int_equals("broker.heartbeat", 0, 60)],
        ))
        .with(startup(
            Br::StartHeartbeatFast,
            "start::heartbeat-fast",
            vec![
                Condition::int_below("broker.heartbeat", 10, 60),
                Condition::int_outside("broker.heartbeat", 0, 0, 60),
            ],
        ))
        .with(startup(Br::StartDurable, "start::durable", vec![durable()]))
        .with(startup(
            Br::StartDurableFlow,
            "start::durable-flow",
            vec![durable(), flow()],
        ))
        .with(startup(
            Br::StartFlowControl,
            "start::flow-control",
            vec![flow()],
        ))
        .with(startup(
            Br::StartSaslPlain,
            "start::sasl-plain",
            vec![Condition::list_has_or_empty("auth.mechanisms", "PLAIN")],
        ))
        .with(startup(
            Br::StartSaslAnonymous,
            "start::sasl-anonymous",
            vec![Condition::list_has_or_empty("auth.mechanisms", "ANONYMOUS")],
        ))
        .with(startup(
            Br::StartEncryptionRequired,
            "start::encryption-required",
            vec![Condition::bool_is("auth.require_encryption", true, false)],
        ))
        .with(startup(
            Br::StartLogDebug,
            "start::log-debug",
            vec![Condition::str_is("log.level", "debug", "notice")],
        ))
        .with(handler(
            Br::ConnStartOkPlain,
            "method::start-ok-plain",
            vec![
                Condition::list_has_or_empty("auth.mechanisms", "PLAIN"),
                Condition::bool_is("auth.require_encryption", false, false),
            ],
        ))
        .with(handler(
            Br::ConnStartOkAnon,
            "method::start-ok-anon",
            vec![Condition::list_has_or_empty("auth.mechanisms", "ANONYMOUS")],
        ))
        .with(handler(
            Br::ChannelFlow,
            "method::channel-flow",
            vec![flow()],
        ))
        .with(handler(
            Br::ChannelFlowIgnored,
            "method::channel-flow-ignored",
            vec![Condition::bool_is("broker.flow_control", false, true)],
        ))
        .with(handler(
            Br::QueueDeclareDurable,
            "method::queue-durable",
            vec![durable()],
        ))
        .with(handler(
            Br::QueueDeclareDurableRejected,
            "method::queue-durable-rejected",
            vec![Condition::bool_is("broker.durable_queues", false, false)],
        ))
        .with(handler(
            Br::FrameHeartbeat,
            "frame::heartbeat",
            vec![Condition::int_within("broker.heartbeat", 1, i64::MAX, 60)],
        ))
        .with(handler(
            Br::FrameHeartbeatDisabled,
            "frame::heartbeat-disabled",
            vec![Condition::int_below("broker.heartbeat", 1, 60)],
        ))
        .with(handler(
            Br::BasicPublishOversized,
            "frame::publish-oversized",
            vec![Condition::int_below("broker.frame_max", 4096, 65535)],
        ))
}

impl Target for Amqp {
    fn name(&self) -> &str {
        "qpid"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --port <num>            Listen port (default: 5672)".to_owned(),
                "  --threads <1-128>       Worker thread pool size (default: 4)".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "qpid.yaml",
                "broker:\n\
                 \x20 channel_max: 256\n\
                 \x20 frame_max: 65535\n\
                 \x20 heartbeat: 60\n\
                 \x20 durable_queues: false\n\
                 \x20 flow_control: true\n\
                 auth:\n\
                 \x20 mechanisms:\n\
                 \x20   - PLAIN\n\
                 \x20   - ANONYMOUS\n\
                 \x20 require_encryption: false\n\
                 log:\n\
                 \x20 level: notice\n\
                 \x20 file: /var/log/qpid.log\n",
            )],
        }
    }

    fn config_constraints(&self) -> ConstraintSet {
        DECLARED.constraints.clone()
    }

    fn branch_guards(&self) -> GuardTable {
        DECLARED.guards.clone()
    }

    fn start(&mut self, resolved: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        DECLARED.boot(resolved, &mut self.cov, probe)?;
        let config = Config::parse(resolved);
        // Startup branches the table leaves unguarded: the `!= default`
        // tunings, which no predicate states, and the EXTERNAL ones, which
        // need the list to contain a member rather than lack it or
        // default.
        if resolved.int_or("port", 5672) != 5672 {
            self.hit(Br::StartCustomPort);
        }
        if config.channel_max != 256 {
            self.hit(Br::StartChannelMaxTuned);
        }
        if config.frame_max != 65535 {
            self.hit(Br::StartFrameMaxTuned);
        }
        if config.sasl_external {
            self.hit(Br::StartSaslExternal);
            if config.require_encryption {
                self.hit(Br::StartEncryptionSasl);
            }
        }

        self.config = Some(config);
        self.negotiated = false;
        self.authenticated = false;
        self.open_channels.clear();
        Ok(())
    }

    fn begin_session(&mut self) {
        self.negotiated = false;
        self.authenticated = false;
        self.open_channels.clear();
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        // Protocol initiation: "AMQP" 0 major minor revision.
        if input.starts_with(b"AMQP") {
            self.hit(Br::ProtoHeaderSeen);
            if input.get(4..8) == Some(&[0, 0, 9, 1]) {
                return method_frame(0, 10, 10); // connection.start
            }
            self.hit(Br::ProtoHeaderBadVersion);
            return TargetResponse::reply(b"AMQP\x00\x00\x09\x01".to_vec());
        }
        if input.len() < 8 {
            if input.len() >= 4 {
                self.hit(Br::ProtoHeaderBadMagic);
            }
            self.hit(Br::FrameTooShort);
            return TargetResponse::empty();
        }
        let frame_type = input[0];
        let channel = be16(input, 1).expect("length checked");
        let size = be32(input, 3).expect("length checked") as usize;
        if size as i64 > self.cfg().frame_max {
            self.hit(Br::FrameOverMax);
            return method_frame(0, 10, 50); // connection.close: frame-error
        }
        if i64::from(channel) > self.cfg().channel_max {
            self.hit(Br::FrameChannelOverMax);
            return method_frame(0, 10, 50);
        }
        let Some(payload) = input.get(7..7 + size) else {
            self.hit(Br::FrameTooShort);
            return TargetResponse::empty();
        };
        if input.get(7 + size) != Some(&0xCE) {
            self.hit(Br::FrameBadEnd);
            return method_frame(0, 10, 50);
        }
        let payload = payload.to_vec();

        match frame_type {
            1 => {
                self.hit(Br::FrameMethod);
                self.handle_method(channel, &payload)
            }
            2 => {
                self.hit(Br::FrameHeader);
                if self.cfg().frame_max < 4096 && payload.len() > 64 {
                    self.hit(Br::BasicPublishOversized);
                }
                TargetResponse::empty()
            }
            3 => {
                self.hit(Br::FrameBody);
                TargetResponse::empty()
            }
            8 => {
                if self.cfg().heartbeat > 0 {
                    self.hit(Br::FrameHeartbeat);
                    let mut hb = vec![8u8, 0, 0, 0, 0, 0, 0];
                    hb.push(0xCE);
                    TargetResponse::reply(hb)
                } else {
                    self.hit(Br::FrameHeartbeatDisabled);
                    TargetResponse::empty()
                }
            }
            _ => {
                self.hit(Br::FrameUnknownType);
                TargetResponse::empty()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::ConfigValue;
    use cmfuzz_coverage::{BranchId, CoverageMap};

    fn started(config: &ResolvedConfig) -> (Amqp, CoverageMap) {
        let mut broker = Amqp::new();
        let map = CoverageMap::new(broker.branch_count());
        broker.start(config, map.probe()).expect("starts");
        (broker, map)
    }

    fn frame(frame_type: u8, channel: u16, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![frame_type];
        f.extend_from_slice(&channel.to_be_bytes());
        f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        f.extend_from_slice(payload);
        f.push(0xCE);
        f
    }

    fn method(channel: u16, class: u16, method_id: u16, args: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&class.to_be_bytes());
        payload.extend_from_slice(&method_id.to_be_bytes());
        payload.extend_from_slice(args);
        frame(1, channel, &payload)
    }

    fn start_ok(mechanism: &[u8]) -> Vec<u8> {
        let mut args = vec![mechanism.len() as u8];
        args.extend_from_slice(mechanism);
        method(0, 10, 11, &args)
    }

    #[test]
    fn protocol_header_starts_negotiation() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        let response = broker.handle(b"AMQP\x00\x00\x09\x01");
        assert_eq!(&response.bytes[7..11], &[0, 10, 0, 10], "connection.start");
    }

    #[test]
    fn wrong_version_echoes_supported() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        let response = broker.handle(b"AMQP\x01\x01\x00\x0A");
        assert_eq!(&response.bytes, b"AMQP\x00\x00\x09\x01");
    }

    #[test]
    fn plain_auth_accepted_by_default() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        let response = broker.handle(&start_ok(b"PLAIN"));
        assert_eq!(&response.bytes[7..11], &[0, 10, 0, 30], "connection.tune");
    }

    #[test]
    fn bug9_needs_big_thread_pool() {
        let open = method(0, 10, 40, &[]);
        let (mut broker, _map) = started(&ResolvedConfig::new());
        assert!(!broker.handle(&open).is_crash(), "default 4 threads safe");
        let mut config = ResolvedConfig::new();
        config.set("threads", ConfigValue::Int(128));
        let (mut broker, _map) = started(&config);
        let fault = broker.handle(&open).fault.expect("bug #9 fires");
        assert_eq!(fault.kind, FaultKind::StackBufferOverflow);
        assert_eq!(fault.function, "pthread_create");
    }

    #[test]
    fn channel_lifecycle() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&method(0, 10, 40, &[])); // connection.open
        let opened = broker.handle(&method(1, 20, 10, &[]));
        assert_eq!(&opened.bytes[7..11], &[0, 20, 0, 11], "channel.open-ok");
        let closed = broker.handle(&method(1, 20, 40, &[]));
        assert_eq!(&closed.bytes[7..11], &[0, 20, 0, 41]);
    }

    #[test]
    fn channel_before_connection_rejected() {
        let (mut broker, map) = started(&ResolvedConfig::new());
        broker.handle(&method(1, 20, 10, &[]));
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::ChannelOpenBeforeConn as u32)),
            1
        );
    }

    #[test]
    fn durable_queue_gated_on_config() {
        // queue.declare args: shortstr name "q" + flags octet with durable
        // bit.
        let declare_durable = method(1, 50, 10, &[1, b'q', 0x02]);
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&method(0, 10, 40, &[]));
        let rejected = broker.handle(&declare_durable);
        assert_eq!(&rejected.bytes[7..11], &[0, 50, 0, 40], "rejected");
        let mut config = ResolvedConfig::new();
        config.set("broker.durable_queues", ConfigValue::Bool(true));
        let (mut broker, _map) = started(&config);
        broker.handle(&method(0, 10, 40, &[]));
        let ok = broker.handle(&declare_durable);
        assert_eq!(&ok.bytes[7..11], &[0, 50, 0, 11], "declare-ok");
    }

    #[test]
    fn oversized_frame_closed() {
        let mut config = ResolvedConfig::new();
        config.set("broker.frame_max", ConfigValue::Int(512));
        let (mut broker, map) = started(&config);
        let mut big = vec![1u8, 0, 0];
        big.extend_from_slice(&1000u32.to_be_bytes());
        big.extend_from_slice(&vec![0u8; 1000]);
        big.push(0xCE);
        broker.handle(&big);
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::FrameOverMax as u32)),
            1
        );
    }

    #[test]
    fn channel_over_max_closed() {
        let mut config = ResolvedConfig::new();
        config.set("broker.channel_max", ConfigValue::Int(1));
        let (mut broker, map) = started(&config);
        broker.handle(&method(9, 20, 10, &[]));
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::FrameChannelOverMax as u32)),
            1
        );
    }

    #[test]
    fn bad_frame_end_detected() {
        let (mut broker, map) = started(&ResolvedConfig::new());
        let mut f = frame(1, 0, &[0, 10, 0, 31]);
        *f.last_mut().unwrap() = 0x00;
        broker.handle(&f);
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::FrameBadEnd as u32)),
            1
        );
    }

    #[test]
    fn heartbeat_gated_on_config() {
        let hb = frame(8, 0, &[]);
        let (mut broker, _map) = started(&ResolvedConfig::new());
        assert!(!broker.handle(&hb).bytes.is_empty(), "heartbeat echoed");
        let mut config = ResolvedConfig::new();
        config.set("broker.heartbeat", ConfigValue::Int(0));
        let (mut broker, _map) = started(&config);
        assert!(broker.handle(&hb).bytes.is_empty(), "heartbeats disabled");
    }

    #[test]
    fn encryption_conflict_fails_startup() {
        let mut config = ResolvedConfig::new();
        config.set("auth.require_encryption", ConfigValue::Bool(true));
        let mut broker = Amqp::new();
        let map = CoverageMap::new(broker.branch_count());
        assert!(broker.start(&config, map.probe()).is_err());
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn garbage_never_crashes_under_defaults() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 41 + 13) as u8).collect();
            assert!(!broker.handle(&junk).is_crash());
        }
    }

    #[test]
    fn config_space_extracts_yaml_hierarchy() {
        let broker = Amqp::new();
        let model = cmfuzz_config_model::extract_model(&broker.config_space());
        assert!(model.len() >= 11, "got {}", model.len());
        assert!(model.entity("broker.frame_max").is_some());
        assert!(model.entity("threads").is_some());
        assert!(model.entity("auth.mechanisms[0]").is_some());
        assert!(!model.entity("log.file").unwrap().is_mutable());
    }
}
