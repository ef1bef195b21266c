//! Simulated MQTT broker modeled after Mosquitto.
//!
//! Carries Table II bugs #1–#5. The configuration surface mixes CLI options
//! (enumerated modes) with a `mosquitto.conf` key-value file, mirroring the
//! real broker's split. QoS handling, bridge mode, persistence, retained
//! messages and authentication all gate distinct execution paths, which is
//! why the paper sees its largest coverage gains on Mosquitto ("varied QoS
//! levels, authentication methods, and unique features like bridge
//! connections").

use std::sync::LazyLock;

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigFile, ConfigSpace, ConstraintSet, GuardKind,
    GuardTable, ResolvedConfig,
};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{Fault, FaultKind, StartError, Target, TargetResponse};

use crate::common::{be16, Cov, Declarations};

/// Branch inventory. One discriminant per instrumented branch edge; `Count`
/// sizes the coverage map.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
#[allow(clippy::upper_case_acronyms)]
enum Br {
    // --- startup ---
    StartEntry,
    StartDefaultPort,
    StartCustomPort,
    StartVerbose,
    StartQos0,
    StartQos1,
    StartQos2,
    StartAuthNone,
    StartAuthPassword,
    StartAuthPasswordAnon,
    StartTls,
    StartTlsAuth,
    StartBridgeIn,
    StartBridgeOut,
    StartBridgeBoth,
    StartBridgePersist,
    StartBridgeQos2,
    StartPersist,
    StartPersistBigQueue,
    StartRetain,
    StartNoRetain,
    StartRetainPersist,
    StartQueueQos0,
    StartQueueQos0Only,
    StartInflightUnlimited,
    StartInflightBig,
    StartInflightDefault,
    StartKeepaliveLong,
    StartMsgLimit,
    StartMsgLimitTls,
    StartNoConnections,
    StartManyConnections,
    StartAnonDenied,
    // --- fixed header ---
    HdrTooShort,
    HdrBadRemLen,
    HdrLenMismatch,
    // --- connect ---
    ConnectSeen,
    ConnectBadProto,
    ConnectBadLevel,
    ConnectCleanSession,
    ConnectWill,
    ConnectWillQos1,
    ConnectWillQos2,
    ConnectUsername,
    ConnectPasswordOk,
    ConnectPasswordBad,
    ConnectAnonRejected,
    ConnectAccepted,
    ConnectDuplicate,
    ConnectKeepaliveZero,
    ConnectEmptyClientId,
    ConnectReservedFlag,
    ConnectV5Probe,
    ConnectV5WithAuth,
    // --- publish ---
    PublishSeen,
    PublishNotConnected,
    PublishQueuedQos0,
    PublishQos0,
    PublishQos1,
    PublishQos2,
    PublishQosDowngrade,
    PublishDup,
    PublishRetainStored,
    PublishRetainRejected,
    PublishEmptyTopic,
    PublishWildcardTopic,
    PublishTooLarge,
    PublishNoTopic,
    PublishInflightFull,
    PublishIdZero,
    PublishDeepTopic,
    // --- pubrel / qos2 flow ---
    PubrelSeen,
    PubrelUnknownId,
    PubrelComplete,
    PubrelPersisted,
    // --- subscribe ---
    SubscribeSeen,
    SubscribeNotConnected,
    SubscribeNoFilters,
    SubscribeFilterPlain,
    SubscribeFilterWildcard,
    SubscribeFilterBadWildcard,
    SubscribeBridgeTopic,
    SubscribeQosCapped,
    // --- unsubscribe / ping / disconnect ---
    UnsubscribeSeen,
    PingSeen,
    PingKeepaliveLong,
    DisconnectSeen,
    DisconnectDirty,
    // --- periodic maintenance ---
    SysUpdateEarly,
    SysUpdateLate,
    PersistAutosave,
    // --- misc ---
    UnknownType,
    Count,
}

/// The `$SYS` introspection topic whose byte-by-byte comparison ladder
/// occupies the branch indices after [`Br::Count`].
const SYS_UPTIME_TOPIC: &[u8] = b"$SYS/broker/uptime";

/// Parsed broker configuration.
#[derive(Debug, Clone)]
struct Config {
    qos_max: u8,
    password_auth: bool,
    bridged: bool,
    persistence: bool,
    max_inflight: i64,
    retain_available: bool,
    allow_anonymous: bool,
    max_keepalive: i64,
    message_size_limit: i64,
    max_connections: i64,
    queue_qos0: bool,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        Config {
            qos_max: resolved.int_or("qos-max", 1).clamp(0, 2) as u8,
            password_auth: resolved.str_or("auth-method", "none") == "password",
            bridged: resolved.str_or("bridge-mode", "off") != "off",
            persistence: resolved.bool_or("persistence", false),
            max_inflight: resolved.int_or("max_inflight_messages", 20),
            retain_available: resolved.bool_or("retain_available", true),
            allow_anonymous: resolved.bool_or("allow_anonymous", true),
            max_keepalive: resolved.int_or("max_keepalive", 65),
            message_size_limit: resolved.int_or("message_size_limit", 0),
            max_connections: resolved.int_or("max_connections", 100),
            queue_qos0: resolved.bool_or("queue_qos0_messages", false),
        }
    }
}

/// The simulated Mosquitto broker.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Mqtt;
///
/// let broker = Mqtt::new();
/// assert_eq!(broker.name(), "mosquitto");
/// assert!(!broker.config_space().cli.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Mqtt {
    cov: Cov,
    config: Option<Config>,
    connected: bool,
    inflight: Vec<u16>,
    retained: usize,
    /// Lifetime packet counter driving the periodic `$SYS` update and
    /// persistence autosave paths (survives restarts, like daemon uptime).
    total_packets: u64,
}

impl Mqtt {
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

    fn handle_connect(&mut self, body: &[u8]) -> TargetResponse {
        self.hit(Br::ConnectSeen);
        // Bug #4 (Table II): SEGV in loop_accepted when the listener was
        // configured with zero connection slots — the accept loop
        // dereferences a null connection list. Requires the mutated
        // max_connections=0, unreachable under the default of 100.
        if self.cfg().max_connections == 0 {
            return TargetResponse::crash(
                Fault::new(FaultKind::Segv, "loop_accepted")
                    .with_detail("max_connections=0 null listener slot"),
            );
        }
        let connack = |code: u8| TargetResponse::reply(vec![0x20, 0x02, 0x00, code]);

        let Some(name_len) = be16(body, 0) else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        let name_end = 2 + name_len as usize;
        if body.get(2..name_end) != Some(b"MQTT".as_slice()) {
            self.hit(Br::ConnectBadProto);
            return connack(0x01);
        }
        let Some(&level) = body.get(name_end) else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        if level != 4 {
            self.hit(Br::ConnectBadLevel);
            // MQTT v5 probes get dedicated downgrade handling before the
            // generic unacceptable-protocol reply.
            if level == 5 {
                self.hit(Br::ConnectV5Probe);
                if body.get(name_end + 1).is_some_and(|&f| f & 0xC0 == 0xC0) {
                    self.hit(Br::ConnectV5WithAuth);
                }
            }
            return connack(0x01);
        }
        let Some(&flags) = body.get(name_end + 1) else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        if flags & 0x02 != 0 {
            self.hit(Br::ConnectCleanSession);
        }
        if flags & 0x04 != 0 {
            self.hit(Br::ConnectWill);
            match (flags >> 3) & 0x03 {
                1 => self.hit(Br::ConnectWillQos1),
                2 => self.hit(Br::ConnectWillQos2),
                _ => {}
            }
        }
        let has_username = flags & 0x80 != 0;
        if has_username {
            self.hit(Br::ConnectUsername);
            if self.cfg().password_auth {
                // Password check: any non-empty password passes the
                // simulated file lookup, empty fails.
                if flags & 0x40 != 0 {
                    self.hit(Br::ConnectPasswordOk);
                } else {
                    self.hit(Br::ConnectPasswordBad);
                    return connack(0x04);
                }
            }
        } else if !self.cfg().allow_anonymous {
            self.hit(Br::ConnectAnonRejected);
            return connack(0x05);
        }
        if flags & 0x01 != 0 {
            self.hit(Br::ConnectReservedFlag);
        }
        if body.get(name_end + 2..name_end + 4) == Some(&[0, 0]) {
            self.hit(Br::ConnectKeepaliveZero);
        }
        if body.get(name_end + 4..name_end + 6) == Some(&[0, 0]) {
            self.hit(Br::ConnectEmptyClientId);
        }
        if self.connected {
            self.hit(Br::ConnectDuplicate);
        }
        self.hit(Br::ConnectAccepted);
        self.connected = true;
        connack(0x00)
    }

    fn handle_publish(&mut self, flags: u8, body: &[u8]) -> TargetResponse {
        self.hit(Br::PublishSeen);
        if !self.connected {
            if self.cfg().queue_qos0 && flags & 0x06 == 0 {
                // Config-gated: queueing QoS0 messages for disconnected
                // clients is off by default.
                self.hit(Br::PublishQueuedQos0);
                return TargetResponse::empty();
            }
            self.hit(Br::PublishNotConnected);
            return TargetResponse::empty();
        }
        let Some(topic_len) = be16(body, 0) else {
            self.hit(Br::PublishNoTopic);
            return TargetResponse::empty();
        };
        let topic_end = 2 + topic_len as usize;
        let Some(topic) = body.get(2..topic_end) else {
            self.hit(Br::PublishNoTopic);
            return TargetResponse::empty();
        };
        let retain = flags & 0x01 != 0;
        let dup = flags & 0x08 != 0;
        let mut qos = (flags >> 1) & 0x03;
        if qos > self.cfg().qos_max {
            self.hit(Br::PublishQosDowngrade);
            qos = self.cfg().qos_max;
        }
        if dup {
            self.hit(Br::PublishDup);
        }
        if topic.iter().any(|&b| b == b'#' || b == b'+') {
            self.hit(Br::PublishWildcardTopic);
            return TargetResponse::empty();
        }
        // The $SYS tree: the broker's introspection topics. The topic
        // compare exposes one branch edge per matched byte, as the
        // compiled comparison does.
        crate::common::prefix_ladder(&self.cov, Br::Count as u32, SYS_UPTIME_TOPIC, topic);
        if topic.is_empty() {
            self.hit(Br::PublishEmptyTopic);
            if retain && self.cfg().retain_available {
                // Bug #5 (Table II): retained-message bookkeeping leaks on
                // empty topics across several functions. Requires
                // retain_available (default true here, but the leak also
                // needs persistence on to manifest as unreclaimed memory).
                if self.cfg().persistence {
                    return TargetResponse::crash(
                        Fault::new(FaultKind::MemoryLeak, "multiple functions")
                            .with_detail("retained empty-topic message never freed"),
                    );
                }
            }
            return TargetResponse::empty();
        }
        if retain {
            if self.cfg().retain_available {
                self.hit(Br::PublishRetainStored);
                self.retained += 1;
            } else {
                self.hit(Br::PublishRetainRejected);
            }
        }
        if topic.iter().filter(|&&b| b == b'/').count() > 5 {
            self.hit(Br::PublishDeepTopic);
        }
        let mut payload_offset = topic_end;
        let mut packet_id = 0u16;
        if qos > 0 {
            let Some(id) = be16(body, topic_end) else {
                self.hit(Br::PublishNoTopic);
                return TargetResponse::empty();
            };
            packet_id = id;
            if id == 0 {
                // Protocol violation: packet id 0 on a QoS>0 publish.
                self.hit(Br::PublishIdZero);
            }
            payload_offset += 2;
        }
        let payload_len = body.len().saturating_sub(payload_offset);
        if self.cfg().message_size_limit > 0 && payload_len as i64 > self.cfg().message_size_limit {
            self.hit(Br::PublishTooLarge);
            return TargetResponse::empty();
        }
        match qos {
            0 => {
                self.hit(Br::PublishQos0);
                TargetResponse::empty()
            }
            1 => {
                self.hit(Br::PublishQos1);
                TargetResponse::reply(vec![0x40, 0x02, (packet_id >> 8) as u8, packet_id as u8])
            }
            _ => {
                self.hit(Br::PublishQos2);
                // Bug #1 (Table II): heap-use-after-free in
                // Connection::newMessage. A duplicate QoS2 publish whose
                // packet ID is already inflight frees the stored message and
                // then reuses it while rebuilding the duplicate. Reaching
                // real QoS2 handling at all requires the non-default
                // qos-max=2.
                if dup && self.inflight.contains(&packet_id) {
                    return TargetResponse::crash(
                        Fault::new(FaultKind::HeapUseAfterFree, "Connection::newMessage")
                            .with_detail("dup QoS2 publish of an inflight packet id"),
                    );
                }
                if self.inflight.len() as i64 >= self.cfg().max_inflight
                    && self.cfg().max_inflight > 0
                {
                    self.hit(Br::PublishInflightFull);
                    return TargetResponse::empty();
                }
                if !self.inflight.contains(&packet_id) {
                    self.inflight.push(packet_id);
                }
                TargetResponse::reply(vec![0x50, 0x02, (packet_id >> 8) as u8, packet_id as u8])
            }
        }
    }

    fn handle_pubrel(&mut self, body: &[u8]) -> TargetResponse {
        self.hit(Br::PubrelSeen);
        let Some(packet_id) = be16(body, 0) else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        if let Some(pos) = self.inflight.iter().position(|&id| id == packet_id) {
            self.inflight.remove(pos);
            self.hit(Br::PubrelComplete);
            if self.cfg().persistence {
                self.hit(Br::PubrelPersisted);
            }
        } else {
            self.hit(Br::PubrelUnknownId);
        }
        TargetResponse::reply(vec![0x70, 0x02, (packet_id >> 8) as u8, packet_id as u8])
    }

    fn handle_subscribe(&mut self, body: &[u8]) -> TargetResponse {
        self.hit(Br::SubscribeSeen);
        if !self.connected {
            self.hit(Br::SubscribeNotConnected);
            return TargetResponse::empty();
        }
        let Some(packet_id) = be16(body, 0) else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        let mut offset = 2;
        let mut granted = Vec::new();
        if offset >= body.len() {
            self.hit(Br::SubscribeNoFilters);
        }
        while offset + 2 <= body.len() {
            let Some(len) = be16(body, offset) else {
                break;
            };
            let topic_end = offset + 2 + len as usize;
            let Some(topic) = body.get(offset + 2..topic_end) else {
                break;
            };
            let Some(&qos) = body.get(topic_end) else {
                break;
            };
            offset = topic_end + 1;

            // Bug #2 (Table II): heap-use-after-free in
            // neu_node_manager_get_addrs_all — bridge address resolution
            // walks a node list freed by a concurrent wildcard expansion.
            // Requires a non-default bridge mode plus a long wildcard
            // filter.
            if self.cfg().bridged && topic.contains(&b'#') && topic.len() > 16 {
                return TargetResponse::crash(
                    Fault::new(
                        FaultKind::HeapUseAfterFree,
                        "neu_node_manager_get_addrs_all",
                    )
                    .with_detail("bridge wildcard expansion on freed node list"),
                );
            }
            if self.cfg().bridged && topic.starts_with(b"$bridge/") {
                self.hit(Br::SubscribeBridgeTopic);
            }
            if let Some(pos) = topic.iter().position(|&b| b == b'#') {
                if pos + 1 != topic.len() {
                    self.hit(Br::SubscribeFilterBadWildcard);
                    granted.push(0x80);
                    continue;
                }
                self.hit(Br::SubscribeFilterWildcard);
            } else {
                self.hit(Br::SubscribeFilterPlain);
            }
            let capped = qos.min(self.cfg().qos_max);
            if capped != qos {
                self.hit(Br::SubscribeQosCapped);
            }
            granted.push(capped);
        }
        let mut reply = vec![
            0x90,
            (2 + granted.len()) as u8,
            (packet_id >> 8) as u8,
            packet_id as u8,
        ];
        reply.extend_from_slice(&granted);
        TargetResponse::reply(reply)
    }
}

/// The declarations the server boots from; see [`Declarations`].
static DECLARED: LazyLock<Declarations> =
    LazyLock::new(|| Declarations::new(constraints(), guards()));

// The startup conflicts. `start` refuses a configuration with the reason
// of the first one it violates, in this order.
fn constraints() -> ConstraintSet {
    ConstraintSet::new()
        .with(ConfigConstraint::new(
            "auth-method tls requires tls_enabled",
            vec![
                Condition::str_is("auth-method", "tls", "none"),
                Condition::bool_is("tls_enabled", false, false),
            ],
        ))
        .with(ConfigConstraint::new(
            "message_size_limit too small for TLS records",
            vec![
                Condition::bool_is("tls_enabled", true, false),
                Condition::int_within("message_size_limit", 1, 63, 0),
            ],
        ))
        .with(ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 1883)],
        ))
}

// The config gates of the branches. `start` hits each startup branch
// whose guard holds (the branch fires iff the conditions hold on a
// booting config); handler guards are necessary-only. Startup branches
// whose gate is inexpressible in the predicate vocabulary (e.g.
// `port != 1883`) are left unguarded rather than approximated, and
// `start` hits them by hand.
fn guards() -> GuardTable {
    let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
    };
    let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
    };
    // `qos-max` is clamped to [0, 2] after coercion, so the clamped
    // tiers map to raw ranges: <=0, ==1, >=2.
    let qos0 = || Condition::int_below("qos-max", 1, 1);
    let qos2 = || Condition::int_within("qos-max", 2, i64::MAX, 1);
    let bridged = || Condition::str_not_in("bridge-mode", &["off"], "off");
    let persist = || Condition::bool_is("persistence", true, false);
    GuardTable::new()
        .with(startup(
            Br::StartDefaultPort,
            "start::default-port",
            vec![Condition::int_equals("port", 1883, 1883)],
        ))
        .with(startup(
            Br::StartVerbose,
            "start::verbose",
            vec![Condition::bool_is("v", true, false)],
        ))
        .with(startup(Br::StartQos0, "start::qos0", vec![qos0()]))
        .with(startup(
            Br::StartQos1,
            "start::qos1",
            vec![Condition::int_equals("qos-max", 1, 1)],
        ))
        .with(startup(Br::StartQos2, "start::qos2", vec![qos2()]))
        .with(startup(
            Br::StartAuthNone,
            "start::auth-none",
            vec![Condition::str_not_in(
                "auth-method",
                &["password", "tls"],
                "none",
            )],
        ))
        .with(startup(
            Br::StartAuthPassword,
            "start::auth-password",
            vec![Condition::str_is("auth-method", "password", "none")],
        ))
        .with(startup(
            Br::StartAuthPasswordAnon,
            "start::auth-password-anon",
            vec![
                Condition::str_is("auth-method", "password", "none"),
                Condition::bool_is("allow_anonymous", true, true),
            ],
        ))
        .with(startup(
            Br::StartTls,
            "start::tls",
            vec![Condition::bool_is("tls_enabled", true, false)],
        ))
        .with(startup(
            Br::StartTlsAuth,
            "start::tls-auth",
            vec![Condition::str_is("auth-method", "tls", "none")],
        ))
        .with(startup(
            Br::StartBridgeIn,
            "start::bridge-in",
            vec![Condition::str_is("bridge-mode", "in", "off")],
        ))
        .with(startup(
            Br::StartBridgeOut,
            "start::bridge-out",
            vec![Condition::str_is("bridge-mode", "out", "off")],
        ))
        .with(startup(
            Br::StartBridgeBoth,
            "start::bridge-both",
            vec![Condition::str_is("bridge-mode", "both", "off")],
        ))
        .with(startup(
            Br::StartBridgePersist,
            "start::bridge-persist",
            vec![bridged(), persist()],
        ))
        .with(startup(
            Br::StartBridgeQos2,
            "start::bridge-qos2",
            vec![bridged(), qos2()],
        ))
        .with(startup(Br::StartPersist, "start::persist", vec![persist()]))
        .with(startup(
            Br::StartPersistBigQueue,
            "start::persist-big-queue",
            vec![
                persist(),
                Condition::int_within("max_queued_messages", 101, i64::MAX, 100),
            ],
        ))
        .with(startup(
            Br::StartRetain,
            "start::retain",
            vec![Condition::bool_is("retain_available", true, true)],
        ))
        .with(startup(
            Br::StartNoRetain,
            "start::no-retain",
            vec![Condition::bool_is("retain_available", false, true)],
        ))
        .with(startup(
            Br::StartRetainPersist,
            "start::retain-persist",
            vec![
                Condition::bool_is("retain_available", true, true),
                persist(),
            ],
        ))
        .with(startup(
            Br::StartQueueQos0,
            "start::queue-qos0",
            vec![Condition::bool_is("queue_qos0_messages", true, false)],
        ))
        .with(startup(
            Br::StartQueueQos0Only,
            "start::queue-qos0-only",
            vec![
                Condition::bool_is("queue_qos0_messages", true, false),
                qos0(),
            ],
        ))
        .with(startup(
            Br::StartInflightUnlimited,
            "start::inflight-unlimited",
            vec![Condition::int_equals("max_inflight_messages", 0, 20)],
        ))
        .with(startup(
            Br::StartInflightBig,
            "start::inflight-big",
            vec![Condition::int_within(
                "max_inflight_messages",
                21,
                i64::MAX,
                20,
            )],
        ))
        .with(startup(
            Br::StartInflightDefault,
            "start::inflight-default",
            vec![Condition::int_within("max_inflight_messages", 1, 20, 20)],
        ))
        .with(startup(
            Br::StartKeepaliveLong,
            "start::keepalive-long",
            vec![Condition::int_within("max_keepalive", 101, i64::MAX, 65)],
        ))
        .with(startup(
            Br::StartMsgLimit,
            "start::msg-limit",
            vec![Condition::int_within("message_size_limit", 1, i64::MAX, 0)],
        ))
        .with(startup(
            Br::StartMsgLimitTls,
            "start::msg-limit-tls",
            vec![
                Condition::int_within("message_size_limit", 1, i64::MAX, 0),
                Condition::bool_is("tls_enabled", true, false),
            ],
        ))
        .with(startup(
            Br::StartNoConnections,
            "start::no-connections",
            vec![Condition::int_equals("max_connections", 0, 100)],
        ))
        .with(startup(
            Br::StartManyConnections,
            "start::many-connections",
            vec![Condition::int_within(
                "max_connections",
                1001,
                i64::MAX,
                100,
            )],
        ))
        .with(startup(
            Br::StartAnonDenied,
            "start::anon-denied",
            vec![Condition::bool_is("allow_anonymous", false, true)],
        ))
        .with(handler(
            Br::ConnectAnonRejected,
            "connect::anon-rejected",
            vec![Condition::bool_is("allow_anonymous", false, true)],
        ))
        .with(handler(
            Br::PublishQueuedQos0,
            "publish::queued-qos0",
            vec![Condition::bool_is("queue_qos0_messages", true, false)],
        ))
        .with(handler(
            Br::PublishRetainRejected,
            "publish::retain-rejected",
            vec![Condition::bool_is("retain_available", false, true)],
        ))
        .with(handler(
            Br::PublishTooLarge,
            "publish::too-large",
            vec![Condition::int_within("message_size_limit", 1, i64::MAX, 0)],
        ))
        .with(handler(
            Br::PubrelPersisted,
            "pubrel::persisted",
            vec![persist()],
        ))
        .with(handler(
            Br::SubscribeBridgeTopic,
            "subscribe::bridge-topic",
            vec![bridged()],
        ))
        .with(handler(
            Br::PingKeepaliveLong,
            "ping::keepalive-long",
            vec![Condition::int_within("max_keepalive", 101, i64::MAX, 65)],
        ))
        .with(handler(
            Br::PersistAutosave,
            "maintenance::persist-autosave",
            vec![persist()],
        ))
}

impl Target for Mqtt {
    fn name(&self) -> &str {
        "mosquitto"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize + SYS_UPTIME_TOPIC.len()
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --port <num>            Listen port (default: 1883)".to_owned(),
                "  --qos-max {0,1,2}       Maximum QoS level granted (default: 1)".to_owned(),
                "  --auth-method {none,password,tls}  Client authentication (default: none)"
                    .to_owned(),
                "  --bridge-mode {off,in,out,both}    Bridge connection mode (default: off)"
                    .to_owned(),
                "  -v                      Verbose logging".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "mosquitto.conf",
                "# Simulated mosquitto broker configuration\n\
                 persistence false\n\
                 persistence_location /var/lib/mosquitto\n\
                 max_inflight_messages 20\n\
                 max_queued_messages 100\n\
                 retain_available true\n\
                 allow_anonymous true\n\
                 max_keepalive 65\n\
                 message_size_limit 0\n\
                 max_connections 100\n\
                 queue_qos0_messages false\n\
                 tls_enabled false\n\
                 password_file /etc/mosquitto/passwd\n",
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
        // Conflicting combinations fail before any instrumentation, giving
        // the zero startup coverage the relation model keys on.
        DECLARED.boot(resolved, &mut self.cov, probe)?;
        // Startup branches the table leaves unguarded: the entry branch,
        // which it does not list, and `port != 1883`, which no predicate states.
        self.hit(Br::StartEntry);
        if resolved.int_or("port", 1883) != 1883 {
            self.hit(Br::StartCustomPort);
        }

        self.config = Some(Config::parse(resolved));
        self.connected = false;
        self.inflight.clear();
        self.retained = 0;
        Ok(())
    }

    fn begin_session(&mut self) {
        self.connected = false;
        self.inflight.clear();
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        let Some(&first) = input.first() else {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        };
        let packet_type = first >> 4;
        let flags = first & 0x0F;

        // Remaining-length varint (up to 4 bytes).
        let mut rem_len = 0usize;
        let mut shift = 0u32;
        let mut header_len = 1usize;
        loop {
            let Some(&byte) = input.get(header_len) else {
                self.hit(Br::HdrTooShort);
                return TargetResponse::empty();
            };
            header_len += 1;
            rem_len |= ((byte & 0x7F) as usize) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 21 {
                self.hit(Br::HdrBadRemLen);
                return TargetResponse::empty();
            }
        }
        let body = &input[header_len.min(input.len())..];
        if body.len() != rem_len {
            self.hit(Br::HdrLenMismatch);
            // Tolerate, as the real broker does for short reads: parse what
            // arrived.
        }
        let body = body.to_vec();

        // Periodic maintenance, as the real broker's $SYS updates and
        // persistence autosaves: reached only deep into a long run.
        self.total_packets += 1;
        if self.total_packets == 5_000 {
            self.hit(Br::SysUpdateEarly);
        }
        if self.total_packets == 50_000 {
            self.hit(Br::SysUpdateLate);
        }
        if self.total_packets == 20_000 && self.cfg().persistence {
            self.hit(Br::PersistAutosave);
        }

        match packet_type {
            1 => self.handle_connect(&body),
            3 => self.handle_publish(flags, &body),
            6 => self.handle_pubrel(&body),
            8 => self.handle_subscribe(&body),
            10 => {
                self.hit(Br::UnsubscribeSeen);
                let id = be16(&body, 0).unwrap_or(0);
                TargetResponse::reply(vec![0xB0, 0x02, (id >> 8) as u8, id as u8])
            }
            12 => {
                self.hit(Br::PingSeen);
                if self.cfg().max_keepalive > 100 {
                    self.hit(Br::PingKeepaliveLong);
                }
                TargetResponse::reply(vec![0xD0, 0x00])
            }
            14 => {
                self.hit(Br::DisconnectSeen);
                // Bug #3 (Table II): heap-use-after-free in
                // mqtt_packet_destroy — a DISCONNECT carrying unexpected
                // payload makes the persistence writer destroy the packet
                // twice. Requires persistence on (default off).
                if !body.is_empty() {
                    self.hit(Br::DisconnectDirty);
                    if self.cfg().persistence {
                        return TargetResponse::crash(
                            Fault::new(FaultKind::HeapUseAfterFree, "mqtt_packet_destroy")
                                .with_detail("DISCONNECT with payload double-destroys packet"),
                        );
                    }
                }
                self.connected = false;
                TargetResponse::empty()
            }
            _ => {
                self.hit(Br::UnknownType);
                TargetResponse::empty()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::ConfigValue;
    use cmfuzz_coverage::CoverageMap;

    fn started(config: &ResolvedConfig) -> (Mqtt, CoverageMap) {
        let mut broker = Mqtt::new();
        let map = CoverageMap::new(broker.branch_count());
        broker.start(config, map.probe()).expect("starts");
        (broker, map)
    }

    fn connect_packet() -> Vec<u8> {
        let mut p = vec![0x10, 0x00]; // type, remaining length patched below
        let body = [
            0x00, 0x04, b'M', b'Q', b'T', b'T', // protocol name
            0x04, // level
            0x02, // clean session
            0x00, 0x3C, // keepalive
            0x00, 0x02, b'c', b'm', // client id
        ];
        p[1] = body.len() as u8;
        p.extend_from_slice(&body);
        p
    }

    fn publish_packet(flags: u8, topic: &[u8], qos: u8, packet_id: u16, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&(topic.len() as u16).to_be_bytes());
        body.extend_from_slice(topic);
        if qos > 0 {
            body.extend_from_slice(&packet_id.to_be_bytes());
        }
        body.extend_from_slice(payload);
        let mut p = vec![0x30 | flags, body.len() as u8];
        p.extend_from_slice(&body);
        p
    }

    fn subscribe_packet(packet_id: u16, topic: &[u8], qos: u8) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&packet_id.to_be_bytes());
        body.extend_from_slice(&(topic.len() as u16).to_be_bytes());
        body.extend_from_slice(topic);
        body.push(qos);
        let mut p = vec![0x82, body.len() as u8];
        p.extend_from_slice(&body);
        p
    }

    #[test]
    fn connect_then_connack() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        let response = broker.handle(&connect_packet());
        assert_eq!(response.bytes, vec![0x20, 0x02, 0x00, 0x00]);
    }

    #[test]
    fn bad_protocol_name_rejected() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        let mut packet = connect_packet();
        packet[4] = b'X';
        let response = broker.handle(&packet);
        assert_eq!(response.bytes[3], 0x01);
    }

    #[test]
    fn qos1_publish_gets_puback() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        let response = broker.handle(&publish_packet(0x02, b"a/b", 1, 7, b"hi"));
        assert_eq!(response.bytes, vec![0x40, 0x02, 0x00, 0x07]);
    }

    #[test]
    fn qos2_downgraded_under_default_config() {
        // Default qos-max=1: a QoS2 publish is downgraded and answered with
        // PUBACK, never PUBREC — the vulnerable QoS2 path is unreachable.
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        let response = broker.handle(&publish_packet(0x04, b"a", 2, 9, b"x"));
        assert_eq!(response.bytes[0], 0x40, "PUBACK, not PUBREC");
    }

    #[test]
    fn bug1_heap_uaf_requires_qos2_config() {
        let mut config = ResolvedConfig::new();
        config.set("qos-max", ConfigValue::Int(2));
        let (mut broker, _map) = started(&config);
        broker.handle(&connect_packet());
        let r1 = broker.handle(&publish_packet(0x04, b"t", 2, 42, b"x"));
        assert_eq!(r1.bytes[0], 0x50, "PUBREC under qos-max=2");
        // Duplicate of the same inflight packet id.
        let r2 = broker.handle(&publish_packet(0x0C, b"t", 2, 42, b"x"));
        let fault = r2.fault.expect("bug #1 fires");
        assert_eq!(fault.kind, FaultKind::HeapUseAfterFree);
        assert_eq!(fault.function, "Connection::newMessage");
        // A dup of a *different* id is handled normally.
        let r3 = broker.handle(&publish_packet(0x0C, b"t", 2, 43, b"x"));
        assert!(!r3.is_crash());
    }

    #[test]
    fn bug2_requires_bridge_mode() {
        let long_wildcard = b"$bridge/devices/floor1/#";
        // Default (bridge off): no crash.
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        assert!(!broker
            .handle(&subscribe_packet(1, long_wildcard, 0))
            .is_crash());
        // Bridge enabled: crash.
        let mut config = ResolvedConfig::new();
        config.set("bridge-mode", ConfigValue::Str("both".into()));
        let (mut broker, _map) = started(&config);
        broker.handle(&connect_packet());
        let response = broker.handle(&subscribe_packet(1, long_wildcard, 0));
        let fault = response.fault.expect("bug #2 fires");
        assert_eq!(fault.function, "neu_node_manager_get_addrs_all");
    }

    #[test]
    fn bug3_requires_persistence() {
        let dirty_disconnect = [0xE0, 0x02, 0xAA, 0xBB];
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        assert!(!broker.handle(&dirty_disconnect).is_crash());
        let mut config = ResolvedConfig::new();
        config.set("persistence", ConfigValue::Bool(true));
        let (mut broker, _map) = started(&config);
        broker.handle(&connect_packet());
        let fault = broker
            .handle(&dirty_disconnect)
            .fault
            .expect("bug #3 fires");
        assert_eq!(fault.kind, FaultKind::HeapUseAfterFree);
        assert_eq!(fault.function, "mqtt_packet_destroy");
    }

    #[test]
    fn bug4_requires_zero_max_connections() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        assert!(!broker.handle(&connect_packet()).is_crash());
        let mut config = ResolvedConfig::new();
        config.set("max_connections", ConfigValue::Int(0));
        let (mut broker, _map) = started(&config);
        let fault = broker
            .handle(&connect_packet())
            .fault
            .expect("bug #4 fires");
        assert_eq!(fault.kind, FaultKind::Segv);
        assert_eq!(fault.function, "loop_accepted");
    }

    #[test]
    fn bug5_requires_persistence_and_retain() {
        let retained_empty_topic = publish_packet(0x01, b"", 0, 0, b"x");
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        assert!(!broker.handle(&retained_empty_topic).is_crash());
        let mut config = ResolvedConfig::new();
        config.set("persistence", ConfigValue::Bool(true));
        let (mut broker, _map) = started(&config);
        broker.handle(&connect_packet());
        let fault = broker
            .handle(&retained_empty_topic)
            .fault
            .expect("bug #5 fires");
        assert_eq!(fault.kind, FaultKind::MemoryLeak);
    }

    #[test]
    fn tls_auth_without_tls_fails_startup() {
        let mut config = ResolvedConfig::new();
        config.set("auth-method", ConfigValue::Str("tls".into()));
        let mut broker = Mqtt::new();
        let map = CoverageMap::new(broker.branch_count());
        let err = broker.start(&config, map.probe()).unwrap_err();
        assert!(err.reason().contains("tls"));
        assert_eq!(map.covered_count(), 0, "failed start covers nothing");
    }

    #[test]
    fn tls_with_tiny_message_limit_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("tls_enabled", ConfigValue::Bool(true));
        config.set("message_size_limit", ConfigValue::Int(32));
        let mut broker = Mqtt::new();
        let map = CoverageMap::new(broker.branch_count());
        assert!(broker.start(&config, map.probe()).is_err());
    }

    #[test]
    fn startup_coverage_varies_with_config() {
        let (_, default_map) = started(&ResolvedConfig::new());
        let mut config = ResolvedConfig::new();
        config.set("persistence", ConfigValue::Bool(true));
        config.set("bridge-mode", ConfigValue::Str("in".into()));
        let (_, bridge_map) = started(&config);
        assert!(
            bridge_map.covered_count() > default_map.covered_count(),
            "non-default config unlocks startup branches"
        );
    }

    #[test]
    fn synergy_branch_needs_both_configs() {
        let check = |persistence: bool, bridge: &str| {
            let mut config = ResolvedConfig::new();
            config.set("persistence", ConfigValue::Bool(persistence));
            config.set("bridge-mode", ConfigValue::Str(bridge.into()));
            let (_, map) = started(&config);
            map.hit_count(cmfuzz_coverage::BranchId::from_index(
                Br::StartBridgePersist as u32,
            )) > 0
        };
        assert!(!check(true, "off"));
        assert!(!check(false, "in"));
        assert!(check(true, "in"));
    }

    #[test]
    fn anonymous_rejected_when_configured() {
        let mut config = ResolvedConfig::new();
        config.set("allow_anonymous", ConfigValue::Bool(false));
        let (mut broker, _map) = started(&config);
        let response = broker.handle(&connect_packet());
        assert_eq!(response.bytes[3], 0x05);
    }

    #[test]
    fn subscribe_grants_capped_qos() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        let response = broker.handle(&subscribe_packet(3, b"a/b", 2));
        assert_eq!(response.bytes[0], 0x90);
        assert_eq!(
            *response.bytes.last().unwrap(),
            1,
            "granted capped at qos-max"
        );
    }

    #[test]
    fn bad_wildcard_rejected() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        let response = broker.handle(&subscribe_packet(3, b"a/#/b", 0));
        assert_eq!(*response.bytes.last().unwrap(), 0x80);
    }

    #[test]
    fn ping_and_unsubscribe() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        assert_eq!(broker.handle(&[0xC0, 0x00]).bytes, vec![0xD0, 0x00]);
        let unsub = [0xA2, 0x02, 0x00, 0x09];
        assert_eq!(broker.handle(&unsub).bytes, vec![0xB0, 0x02, 0x00, 0x09]);
    }

    #[test]
    fn garbage_inputs_never_crash_under_defaults() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        for len in 0..32usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let response = broker.handle(&junk);
            assert!(!response.is_crash(), "junk {junk:?} crashed");
        }
    }

    #[test]
    fn begin_session_resets_connection() {
        let (mut broker, _map) = started(&ResolvedConfig::new());
        broker.handle(&connect_packet());
        assert!(broker.connected);
        broker.begin_session();
        assert!(!broker.connected);
    }

    #[test]
    fn config_space_extracts_expected_entities() {
        let broker = Mqtt::new();
        let model = cmfuzz_config_model::extract_model(&broker.config_space());
        assert!(model.len() >= 15, "rich surface, got {}", model.len());
        assert!(model.entity("qos-max").is_some());
        assert!(model.entity("persistence").is_some());
        assert!(model.entity("max_connections").is_some());
        // Paths are immutable.
        assert!(!model.entity("persistence_location").unwrap().is_mutable());
    }
}
