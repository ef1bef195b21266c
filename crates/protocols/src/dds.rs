//! Simulated DDS participant modeled after CycloneDDS.
//!
//! Configured through a `cyclonedds.xml` deployment file plus QoS CLI
//! options; speaks a simplified RTPS wire format (header + submessage
//! list). No Table II bug lives here — the paper notes DDS's "structured
//! management restricts configuration diversity", so the target contributes
//! coverage with modest configuration-driven gains.

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigFile, ConfigSpace, ConstraintSet, GuardKind,
    GuardTable, ResolvedConfig,
};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{StartError, Target, TargetResponse};

use crate::common::{be16, Cov};

/// Branch inventory.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Br {
    // --- startup ---
    StartEntry,
    StartDomainNonZero,
    StartReliable,
    StartBestEffort,
    StartDurVolatile,
    StartDurTransientLocal,
    StartDurTransient,
    StartDurReliableCombo,
    StartHistoryDeep,
    StartHistoryKeepAll,
    StartDiscovery,
    StartDiscoveryMany,
    StartFragPath,
    StartFragSmall,
    StartHeartbeatFast,
    StartTraceVerbose,
    StartTraceFinest,
    StartRetransmitMerge,
    // --- header ---
    HdrTooShort,
    HdrBadMagic,
    HdrBadVersion,
    HdrVendorKnown,
    HdrVendorUnknown,
    // --- submessages ---
    SubTruncated,
    SubLittleEndian,
    SubBigEndian,
    SubData,
    SubDataInline,
    SubDataKeyed,
    SubDataFrag,
    SubDataFragRejected,
    SubHeartbeat,
    SubHeartbeatFinal,
    SubHeartbeatIgnored,
    SubAcknack,
    SubAcknackIgnored,
    SubGap,
    SubInfoTs,
    SubInfoDst,
    SubPad,
    SubUnknown,
    SubLenOverrun,
    // --- behaviours ---
    HistoryStored,
    HistoryEvicted,
    SampleRejectedTooBig,
    DiscoveryAnnounce,
    DiscoveryTableFull,
    ReaderMatched,
    AckSent,
    Count,
}

#[derive(Debug, Clone)]
struct Config {
    domain_id: i64,
    reliability: String,
    durability: String,
    history_depth: i64,
    max_message_size: i64,
    fragment_size: i64,
    max_participants: i64,
    spdp_interval: i64,
    heartbeat_interval: i64,
    discovery: bool,
    verbosity: String,
    retransmit_merging: String,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        Config {
            domain_id: resolved.int_or("CycloneDDS.Domain@id", 0),
            reliability: resolved.str_or("reliability", "besteffort").to_owned(),
            durability: resolved.str_or("durability", "volatile").to_owned(),
            history_depth: resolved.int_or("history-depth", 1),
            max_message_size: resolved.int_or("CycloneDDS.Domain.General.MaxMessageSize", 1400),
            fragment_size: resolved.int_or("CycloneDDS.Domain.General.FragmentSize", 1300),
            max_participants: resolved.int_or("CycloneDDS.Domain.Discovery.MaxParticipants", 100),
            spdp_interval: resolved.int_or("CycloneDDS.Domain.Discovery.SPDPInterval", 30),
            heartbeat_interval: resolved.int_or("CycloneDDS.Domain.Internal.HeartbeatInterval", 1),
            discovery: resolved.bool_or("CycloneDDS.Domain.Discovery.Enabled", true),
            verbosity: resolved
                .str_or("CycloneDDS.Domain.Tracing.Verbosity", "warning")
                .to_owned(),
            retransmit_merging: resolved
                .str_or("CycloneDDS.Domain.Internal.RetransmitMerging", "never")
                .to_owned(),
        }
    }

    fn reliable(&self) -> bool {
        self.reliability == "reliable"
    }
}

/// The simulated CycloneDDS participant.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Dds;
///
/// let participant = Dds::new();
/// assert_eq!(participant.name(), "cyclonedds");
/// ```
#[derive(Debug, Default)]
pub struct Dds {
    cov: Cov,
    config: Option<Config>,
    history: Vec<u32>,
    participants: usize,
}

impl Dds {
    /// Creates a stopped participant.
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
}

impl Target for Dds {
    fn name(&self) -> &str {
        "cyclonedds"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --reliability {besteffort,reliable}  Reader/writer reliability (default: besteffort)"
                    .to_owned(),
                "  --durability {volatile,transientlocal,transient}  Sample durability (default: volatile)"
                    .to_owned(),
                "  --history-depth <num>    KEEP_LAST depth, 0 = KEEP_ALL (default: 1)".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "cyclonedds.xml",
                "<CycloneDDS>\n\
                   <Domain id=\"0\">\n\
                     <General>\n\
                       <MaxMessageSize>1400</MaxMessageSize>\n\
                       <FragmentSize>1300</FragmentSize>\n\
                     </General>\n\
                     <Discovery>\n\
                       <Enabled>true</Enabled>\n\
                       <MaxParticipants>100</MaxParticipants>\n\
                       <SPDPInterval>30</SPDPInterval>\n\
                     </Discovery>\n\
                     <Internal>\n\
                       <HeartbeatInterval>1</HeartbeatInterval>\n\
                       <RetransmitMerging>never</RetransmitMerging>\n\
                     </Internal>\n\
                     <Tracing>\n\
                       <Verbosity>warning</Verbosity>\n\
                       <OutputFile>/var/log/cyclonedds.log</OutputFile>\n\
                     </Tracing>\n\
                   </Domain>\n\
                 </CycloneDDS>\n",
            )],
        }
    }

    // Declarative mirror of the conflict checks in `start` below; the
    // per-server consistency test holds the two in lockstep.
    fn config_constraints(&self) -> ConstraintSet {
        ConstraintSet::new()
            .with(ConfigConstraint::new(
                "FragmentSize exceeds MaxMessageSize",
                vec![Condition::int_above_item(
                    "CycloneDDS.Domain.General.FragmentSize",
                    "CycloneDDS.Domain.General.MaxMessageSize",
                    1300,
                    1400,
                )],
            ))
            .with(ConfigConstraint::new(
                "transient durability requires reliable transport",
                vec![
                    Condition::str_is("durability", "transient", "volatile"),
                    Condition::str_not_in("reliability", &["reliable"], "besteffort"),
                ],
            ))
            .with(ConfigConstraint::new(
                "unknown reliability kind",
                vec![Condition::str_not_in(
                    "reliability",
                    &["besteffort", "reliable"],
                    "besteffort",
                )],
            ))
            .with(ConfigConstraint::new(
                "domain id out of range",
                vec![Condition::int_outside("CycloneDDS.Domain@id", 0, 232, 0)],
            ))
    }

    fn branch_guards(&self) -> GuardTable {
        let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
        };
        let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
        };
        let reliable = || Condition::str_is("reliability", "reliable", "besteffort");
        let unreliable = || Condition::str_not_in("reliability", &["reliable"], "besteffort");
        let discovery = || Condition::bool_is("CycloneDDS.Domain.Discovery.Enabled", true, true);
        // `fragment_size < max_message_size` reads as "max is above frag".
        let frag_path = || {
            Condition::int_above_item(
                "CycloneDDS.Domain.General.MaxMessageSize",
                "CycloneDDS.Domain.General.FragmentSize",
                1400,
                1300,
            )
        };
        // StartHeartbeatFast is a disjunction (`heartbeat == 0 || spdp < 5`)
        // and the guard vocabulary is conjunctive-only; it stays unguarded.
        GuardTable::new()
            .with(startup(Br::StartEntry, "start::entry", vec![]))
            .with(startup(
                Br::StartDomainNonZero,
                "start::domain-nonzero",
                vec![Condition::int_within("CycloneDDS.Domain@id", 1, 232, 0)],
            ))
            .with(startup(
                Br::StartReliable,
                "start::reliable",
                vec![reliable()],
            ))
            .with(startup(
                Br::StartBestEffort,
                "start::besteffort",
                vec![unreliable()],
            ))
            .with(startup(
                Br::StartDurVolatile,
                "start::dur-volatile",
                vec![Condition::str_not_in(
                    "durability",
                    &["transientlocal", "transient"],
                    "volatile",
                )],
            ))
            .with(startup(
                Br::StartDurTransientLocal,
                "start::dur-transientlocal",
                vec![Condition::str_is(
                    "durability",
                    "transientlocal",
                    "volatile",
                )],
            ))
            .with(startup(
                Br::StartDurTransient,
                "start::dur-transient",
                vec![Condition::str_is("durability", "transient", "volatile")],
            ))
            .with(startup(
                Br::StartDurReliableCombo,
                "start::dur-reliable-combo",
                vec![Condition::str_is("durability", "transient", "volatile")],
            ))
            .with(startup(
                Br::StartHistoryKeepAll,
                "start::history-keep-all",
                vec![Condition::int_equals("history-depth", 0, 1)],
            ))
            .with(startup(
                Br::StartHistoryDeep,
                "start::history-deep",
                vec![Condition::int_within("history-depth", 9, i64::MAX, 1)],
            ))
            .with(startup(
                Br::StartDiscovery,
                "start::discovery",
                vec![discovery()],
            ))
            .with(startup(
                Br::StartDiscoveryMany,
                "start::discovery-many",
                vec![
                    discovery(),
                    Condition::int_within(
                        "CycloneDDS.Domain.Discovery.MaxParticipants",
                        101,
                        i64::MAX,
                        100,
                    ),
                ],
            ))
            .with(startup(
                Br::StartFragPath,
                "start::frag-path",
                vec![frag_path()],
            ))
            .with(startup(
                Br::StartFragSmall,
                "start::frag-small",
                vec![
                    frag_path(),
                    Condition::int_below("CycloneDDS.Domain.General.FragmentSize", 513, 1300),
                ],
            ))
            .with(startup(
                Br::StartTraceVerbose,
                "start::trace-verbose",
                vec![Condition::str_in(
                    "CycloneDDS.Domain.Tracing.Verbosity",
                    &["fine", "finer"],
                    "warning",
                )],
            ))
            .with(startup(
                Br::StartTraceFinest,
                "start::trace-finest",
                vec![Condition::str_is(
                    "CycloneDDS.Domain.Tracing.Verbosity",
                    "finest",
                    "warning",
                )],
            ))
            .with(startup(
                Br::StartRetransmitMerge,
                "start::retransmit-merge",
                vec![Condition::str_not_in(
                    "CycloneDDS.Domain.Internal.RetransmitMerging",
                    &["never"],
                    "never",
                )],
            ))
            .with(handler(
                Br::SubDataFrag,
                "sub::data-frag",
                vec![frag_path()],
            ))
            .with(handler(
                Br::SubHeartbeat,
                "sub::heartbeat",
                vec![reliable()],
            ))
            .with(handler(
                Br::SubHeartbeatFinal,
                "sub::heartbeat-final",
                vec![reliable()],
            ))
            .with(handler(
                Br::SubHeartbeatIgnored,
                "sub::heartbeat-ignored",
                vec![unreliable()],
            ))
            .with(handler(Br::SubAcknack, "sub::acknack", vec![reliable()]))
            .with(handler(
                Br::SubAcknackIgnored,
                "sub::acknack-ignored",
                vec![unreliable()],
            ))
            .with(handler(
                Br::HistoryEvicted,
                "data::history-evicted",
                vec![Condition::int_outside("history-depth", 0, 0, 1)],
            ))
            .with(handler(
                Br::DiscoveryAnnounce,
                "data::discovery-announce",
                vec![discovery()],
            ))
            .with(handler(
                Br::DiscoveryTableFull,
                "data::discovery-table-full",
                vec![discovery()],
            ))
            .with(handler(
                Br::ReaderMatched,
                "data::reader-matched",
                vec![Condition::str_not_in(
                    "durability",
                    &["volatile"],
                    "volatile",
                )],
            ))
            .with(handler(Br::AckSent, "flow::ack-sent", vec![reliable()]))
    }

    fn start(&mut self, resolved: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        let config = Config::parse(resolved);
        if config.fragment_size > config.max_message_size {
            return Err(StartError::new("FragmentSize exceeds MaxMessageSize"));
        }
        if config.durability == "transient" && !config.reliable() {
            return Err(StartError::new(
                "transient durability requires reliable transport",
            ));
        }
        if !matches!(config.reliability.as_str(), "besteffort" | "reliable") {
            return Err(StartError::new("unknown reliability kind"));
        }
        if config.domain_id < 0 || config.domain_id > 232 {
            return Err(StartError::new("domain id out of range"));
        }

        self.cov.attach(probe);
        self.hit(Br::StartEntry);
        if config.domain_id != 0 {
            self.hit(Br::StartDomainNonZero);
        }
        if config.reliable() {
            self.hit(Br::StartReliable);
        } else {
            self.hit(Br::StartBestEffort);
        }
        match config.durability.as_str() {
            "transientlocal" => self.hit(Br::StartDurTransientLocal),
            "transient" => {
                self.hit(Br::StartDurTransient);
                self.hit(Br::StartDurReliableCombo);
            }
            _ => self.hit(Br::StartDurVolatile),
        }
        if config.history_depth == 0 {
            self.hit(Br::StartHistoryKeepAll);
        } else if config.history_depth > 8 {
            self.hit(Br::StartHistoryDeep);
        }
        if config.discovery {
            self.hit(Br::StartDiscovery);
            if config.max_participants > 100 {
                self.hit(Br::StartDiscoveryMany);
            }
        }
        if config.fragment_size < config.max_message_size {
            self.hit(Br::StartFragPath);
            if config.fragment_size <= 512 {
                self.hit(Br::StartFragSmall);
            }
        }
        if config.heartbeat_interval == 0 || config.spdp_interval < 5 {
            self.hit(Br::StartHeartbeatFast);
        }
        match config.verbosity.as_str() {
            "fine" | "finer" => self.hit(Br::StartTraceVerbose),
            "finest" => self.hit(Br::StartTraceFinest),
            _ => {}
        }
        if config.retransmit_merging != "never" {
            self.hit(Br::StartRetransmitMerge);
        }

        self.config = Some(config);
        self.history.clear();
        self.participants = 0;
        Ok(())
    }

    fn begin_session(&mut self) {
        // DDS sessions are participant-scoped; keep discovery state.
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        if input.len() < 20 {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        }
        if &input[0..4] != b"RTPS" {
            self.hit(Br::HdrBadMagic);
            return TargetResponse::empty();
        }
        if input[4] != 2 {
            self.hit(Br::HdrBadVersion);
            return TargetResponse::empty();
        }
        if input[6] == 0x01 {
            self.hit(Br::HdrVendorKnown);
        } else {
            self.hit(Br::HdrVendorUnknown);
        }
        if input.len() as i64 > self.cfg().max_message_size {
            self.hit(Br::SampleRejectedTooBig);
            return TargetResponse::empty();
        }

        let mut pos = 20usize;
        let mut acked = false;
        while pos + 4 <= input.len() {
            let sub_id = input[pos];
            let flags = input[pos + 1];
            let little_endian = flags & 0x01 != 0;
            if little_endian {
                self.hit(Br::SubLittleEndian);
            } else {
                self.hit(Br::SubBigEndian);
            }
            let raw_len = if little_endian {
                u16::from_le_bytes([input[pos + 2], input[pos + 3]])
            } else {
                be16(input, pos + 2).expect("bounds checked")
            };
            let body_start = pos + 4;
            let body_end = body_start + usize::from(raw_len);
            if body_end > input.len() {
                self.hit(Br::SubLenOverrun);
                break;
            }
            let body = &input[body_start..body_end];

            match sub_id {
                0x15 => {
                    self.hit(Br::SubData);
                    if flags & 0x02 != 0 {
                        self.hit(Br::SubDataInline);
                    }
                    if flags & 0x08 != 0 {
                        self.hit(Br::SubDataKeyed);
                    }
                    let seq = body.get(4).copied().unwrap_or(0) as u32;
                    let depth = self.cfg().history_depth;
                    if depth == 0 || (self.history.len() as i64) < depth {
                        self.hit(Br::HistoryStored);
                        self.history.push(seq);
                    } else {
                        self.hit(Br::HistoryEvicted);
                        self.history.remove(0);
                        self.history.push(seq);
                    }
                    if self.cfg().durability != "volatile" {
                        self.hit(Br::ReaderMatched);
                    }
                }
                0x16 => {
                    if self.cfg().fragment_size < self.cfg().max_message_size {
                        self.hit(Br::SubDataFrag);
                    } else {
                        self.hit(Br::SubDataFragRejected);
                    }
                }
                0x07 => {
                    if self.cfg().reliable() {
                        self.hit(Br::SubHeartbeat);
                        if flags & 0x02 != 0 {
                            self.hit(Br::SubHeartbeatFinal);
                        } else {
                            acked = true;
                        }
                    } else {
                        self.hit(Br::SubHeartbeatIgnored);
                    }
                }
                0x06 => {
                    if self.cfg().reliable() {
                        self.hit(Br::SubAcknack);
                    } else {
                        self.hit(Br::SubAcknackIgnored);
                    }
                }
                0x08 => self.hit(Br::SubGap),
                0x09 => self.hit(Br::SubInfoTs),
                0x0E => self.hit(Br::SubInfoDst),
                0x01 => self.hit(Br::SubPad),
                _ => self.hit(Br::SubUnknown),
            }
            // SPDP discovery announcement piggybacked on DATA to the
            // builtin writer (simulated by an empty DATA).
            if sub_id == 0x15 && body.is_empty() && self.cfg().discovery {
                if (self.participants as i64) < self.cfg().max_participants {
                    self.hit(Br::DiscoveryAnnounce);
                    self.participants += 1;
                } else {
                    self.hit(Br::DiscoveryTableFull);
                }
            }
            pos = body_end;
        }
        if pos < input.len() {
            self.hit(Br::SubTruncated);
        }

        if acked {
            self.hit(Br::AckSent);
            // Minimal ACKNACK response.
            let mut reply = b"RTPS".to_vec();
            reply.extend_from_slice(&[2, 1, 1, 1]);
            reply.extend_from_slice(&[0u8; 12]);
            reply.extend_from_slice(&[0x06, 0x00, 0x00, 0x04, 0, 0, 0, 1]);
            return TargetResponse::reply(reply);
        }
        TargetResponse::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::ConfigValue;
    use cmfuzz_coverage::{BranchId, CoverageMap};

    fn started(config: &ResolvedConfig) -> (Dds, CoverageMap) {
        let mut participant = Dds::new();
        let map = CoverageMap::new(participant.branch_count());
        participant.start(config, map.probe()).expect("starts");
        (participant, map)
    }

    fn rtps(submessages: &[u8]) -> Vec<u8> {
        let mut m = b"RTPS".to_vec();
        m.extend_from_slice(&[2, 1, 1, 1]); // version 2.1, vendor 0x0101
        m.extend_from_slice(&[7u8; 12]); // guid prefix
        m.extend_from_slice(submessages);
        m
    }

    fn submessage(id: u8, flags: u8, body: &[u8]) -> Vec<u8> {
        let mut s = vec![id, flags];
        s.extend_from_slice(&(body.len() as u16).to_be_bytes());
        s.extend_from_slice(body);
        s
    }

    #[test]
    fn bad_magic_dropped() {
        let (mut participant, map) = started(&ResolvedConfig::new());
        participant.handle(b"XXXX0000000000000000");
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::HdrBadMagic as u32)),
            1
        );
    }

    #[test]
    fn data_stored_in_history() {
        let (mut participant, map) = started(&ResolvedConfig::new());
        participant.handle(&rtps(&submessage(0x15, 0, &[0, 0, 0, 0, 42])));
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::HistoryStored as u32)),
            1
        );
    }

    #[test]
    fn history_depth_evicts() {
        let mut config = ResolvedConfig::new();
        config.set("history-depth", ConfigValue::Int(1));
        let (mut participant, map) = started(&config);
        participant.handle(&rtps(&submessage(0x15, 0, &[0, 0, 0, 0, 1])));
        participant.handle(&rtps(&submessage(0x15, 0, &[0, 0, 0, 0, 2])));
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::HistoryEvicted as u32)),
            1
        );
    }

    #[test]
    fn heartbeat_requires_reliable() {
        let heartbeat = rtps(&submessage(0x07, 0, &[0; 8]));
        let (mut participant, _map) = started(&ResolvedConfig::new());
        assert!(participant.handle(&heartbeat).bytes.is_empty(), "ignored");
        let mut config = ResolvedConfig::new();
        config.set("reliability", ConfigValue::Str("reliable".into()));
        let (mut participant, _map) = started(&config);
        let response = participant.handle(&heartbeat);
        assert!(!response.bytes.is_empty(), "ACKNACK sent");
        assert_eq!(&response.bytes[0..4], b"RTPS");
    }

    #[test]
    fn transient_without_reliable_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("durability", ConfigValue::Str("transient".into()));
        let mut participant = Dds::new();
        let map = CoverageMap::new(participant.branch_count());
        assert!(participant.start(&config, map.probe()).is_err());
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn fragment_size_conflict() {
        let mut config = ResolvedConfig::new();
        config.set(
            "CycloneDDS.Domain.General.FragmentSize",
            ConfigValue::Int(2000),
        );
        let mut participant = Dds::new();
        let map = CoverageMap::new(participant.branch_count());
        assert!(participant.start(&config, map.probe()).is_err());
    }

    #[test]
    fn oversized_message_rejected() {
        let mut config = ResolvedConfig::new();
        config.set(
            "CycloneDDS.Domain.General.MaxMessageSize",
            ConfigValue::Int(1400),
        );
        config.set(
            "CycloneDDS.Domain.General.FragmentSize",
            ConfigValue::Int(650),
        );
        let (mut participant, map) = started(&config);
        let big = rtps(&vec![0u8; 2000]);
        participant.handle(&big);
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::SampleRejectedTooBig as u32)),
            1
        );
    }

    #[test]
    fn little_endian_submessage_length() {
        let (mut participant, map) = started(&ResolvedConfig::new());
        // GAP with LE length 4.
        let mut sub = vec![0x08, 0x01];
        sub.extend_from_slice(&4u16.to_le_bytes());
        sub.extend_from_slice(&[0; 4]);
        participant.handle(&rtps(&sub));
        assert_eq!(map.hit_count(BranchId::from_index(Br::SubGap as u32)), 1);
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::SubLittleEndian as u32)),
            1
        );
    }

    #[test]
    fn overrun_submessage_detected() {
        let (mut participant, map) = started(&ResolvedConfig::new());
        let mut sub = vec![0x15, 0x00];
        sub.extend_from_slice(&200u16.to_be_bytes()); // claims 200 bytes
        sub.extend_from_slice(&[0; 4]);
        participant.handle(&rtps(&sub));
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::SubLenOverrun as u32)),
            1
        );
    }

    #[test]
    fn discovery_counts_participants() {
        let mut config = ResolvedConfig::new();
        config.set(
            "CycloneDDS.Domain.Discovery.MaxParticipants",
            ConfigValue::Int(1),
        );
        let (mut participant, map) = started(&config);
        let announce = rtps(&submessage(0x15, 0, &[]));
        participant.handle(&announce);
        participant.handle(&announce);
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::DiscoveryAnnounce as u32)),
            1
        );
        assert_eq!(
            map.hit_count(BranchId::from_index(Br::DiscoveryTableFull as u32)),
            1
        );
    }

    #[test]
    fn garbage_never_crashes() {
        let (mut participant, _map) = started(&ResolvedConfig::new());
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 17 + 5) as u8).collect();
            assert!(!participant.handle(&junk).is_crash());
        }
    }

    #[test]
    fn config_space_extracts_xml_hierarchy() {
        let participant = Dds::new();
        let model = cmfuzz_config_model::extract_model(&participant.config_space());
        assert!(model.len() >= 12, "got {}", model.len());
        assert!(model
            .entity("CycloneDDS.Domain.General.MaxMessageSize")
            .is_some());
        assert!(model.entity("CycloneDDS.Domain@id").is_some());
        assert!(!model
            .entity("CycloneDDS.Domain.Tracing.OutputFile")
            .unwrap()
            .is_mutable());
    }
}
