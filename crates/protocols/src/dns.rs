//! Simulated DNS forwarder modeled after Dnsmasq.
//!
//! Carries Table II bugs #10–#14. The configuration file uses Dnsmasq's
//! mixed dialect (bare flags plus `key=value` lines). Bug #10 is reachable
//! under the default configuration — baseline fuzzers can find it — while
//! #11–#14 each require mutated configuration values, including #14 which
//! fires in the configuration parser itself shortly after startup.

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigFile, ConfigSpace, ConstraintSet, GuardKind,
    GuardTable, ResolvedConfig,
};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{Fault, FaultKind, StartError, Target, TargetResponse};

use crate::common::{be16, Cov};

/// Branch inventory.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Br {
    // --- startup ---
    StartEntry,
    StartDefaultPort,
    StartCustomPort,
    StartCacheDefault,
    StartCacheBig,
    StartCacheOff,
    StartEdnsDefault,
    StartEdnsBig,
    StartLogQueries,
    StartNoResolv,
    StartDomainNeeded,
    StartBogusPriv,
    StartBogusDomain,
    StartStrictOrder,
    StartFilter,
    StartFilterLog,
    StartDnssec,
    StartDnssecCache,
    StartDnssecCacheIndex,
    StartMaxQueriesTuned,
    StartLocalTtl,
    StartModeTcp,
    StartModeBoth,
    // --- header ---
    HdrTooShort,
    OpQuery,
    OpIQuery,
    OpStatus,
    OpUnknown,
    OpNotify,
    OpUpdate,
    FlagRd,
    FlagTc,
    FlagRdAndTc,
    ResponseBitSet,
    NoQuestions,
    ManyQuestions,
    TrailingJunk,
    // --- question parsing ---
    LabelPlain,
    LabelMax,
    ManyLabels,
    LabelRoot,
    LabelPointer,
    LabelPointerDeep,
    LabelTooLong,
    NameTooLong,
    QTruncated,
    QTypeAxfr,
    QTypeAxfrTruncated,
    QTypeOpt,
    TsigAnyQuery,
    QTypeA,
    QTypeAaaa,
    QTypeMx,
    QTypeTxt,
    QTypePtr,
    QTypeAny,
    QTypeOther,
    ClassIn,
    ClassChaos,
    ClassOther,
    // --- behaviours ---
    DomainNeededDrop,
    FilteredType,
    BogusPrivReply,
    CacheHit,
    CacheMiss,
    CacheStore,
    EdnsPresent,
    EdnsOversized,
    LoggedQuery,
    DnssecValidated,
    DnssecFailed,
    MaxQueriesExceeded,
    StatsDumpEarly,
    StatsDumpLate,
    CacheFullSweep,
    RespNxdomain,
    RespServfail,
    RespRefused,
    RespAnswer,
    Count,
}

/// The `version.bind` probe name whose byte-by-byte comparison ladder
/// occupies the branch indices after [`Br::Count`].
const VERSION_BIND_NAME: &[u8] = b"version.bind";

#[derive(Debug, Clone)]
struct Config {
    port: i64,
    query_mode: String,
    cache_size: i64,
    edns_max: i64,
    max_queries: i64,
    local_ttl: i64,
    log_queries: bool,
    no_resolv: bool,
    domain_needed: bool,
    bogus_priv: bool,
    strict_order: bool,
    filterwin2k: bool,
    dnssec: bool,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        Config {
            port: resolved.int_or("port", 53),
            query_mode: resolved.str_or("query-mode", "udp").to_owned(),
            cache_size: resolved.int_or("cache-size", 150),
            edns_max: resolved.int_or("edns-packet-max", 1232),
            max_queries: resolved.int_or("max-queries", 150),
            local_ttl: resolved.int_or("local-ttl", 0),
            log_queries: resolved.bool_or("log-queries", false),
            no_resolv: resolved.bool_or("no-resolv", false),
            domain_needed: resolved.bool_or("domain-needed", false),
            bogus_priv: resolved.bool_or("bogus-priv", false),
            strict_order: resolved.bool_or("strict-order", false),
            filterwin2k: resolved.bool_or("filterwin2k", false),
            dnssec: resolved.bool_or("dnssec", false),
        }
    }
}

/// The simulated Dnsmasq forwarder.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Dns;
///
/// let server = Dns::new();
/// assert_eq!(server.name(), "dnsmasq");
/// ```
#[derive(Debug, Default)]
pub struct Dns {
    cov: Cov,
    config: Option<Config>,
    cache: Vec<Vec<u8>>,
    /// Queries within the current session (the concurrency window
    /// `max-queries` bounds).
    queries_handled: i64,
    /// Lifetime query counter driving periodic maintenance paths.
    total_queries: u64,
    /// Bug #14 arms here: the daemon "crashes shortly after boot" on the
    /// first request it serves.
    pending_fault: Option<Fault>,
}

struct ParsedName {
    name: Vec<u8>,
    end: usize,
    fault: Option<Fault>,
    malformed: bool,
}

impl Dns {
    /// Creates a stopped server.
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

    /// Parses a (possibly compressed) domain name starting at `offset`;
    /// mirrors dnsmasq's `extract_name` built on `get16bits`.
    fn parse_name(&self, packet: &[u8], offset: usize) -> ParsedName {
        let mut out = ParsedName {
            name: Vec::new(),
            end: offset,
            fault: None,
            malformed: false,
        };
        let mut pos = offset;
        let mut jumps = 0u32;
        let mut jumped = false;
        loop {
            let Some(&len) = packet.get(pos) else {
                out.malformed = true;
                self.hit(Br::QTruncated);
                return out;
            };
            if len == 0 {
                self.hit(Br::LabelRoot);
                if !jumped {
                    out.end = pos + 1;
                }
                return out;
            }
            if len & 0xC0 == 0xC0 {
                self.hit(Br::LabelPointer);
                // Bug #10 (Table II): stack-buffer-overflow in get16bits —
                // the pointer's second byte is read without a bounds check,
                // and a target beyond the packet walks the stack. Reachable
                // under the default configuration.
                let Some(&second) = packet.get(pos + 1) else {
                    out.fault = Some(
                        Fault::new(FaultKind::StackBufferOverflow, "get16bits")
                            .with_detail("compression pointer high byte at packet end"),
                    );
                    return out;
                };
                let target = ((usize::from(len & 0x3F)) << 8) | usize::from(second);
                if target >= packet.len() {
                    out.fault = Some(
                        Fault::new(FaultKind::StackBufferOverflow, "get16bits")
                            .with_detail("compression pointer beyond packet"),
                    );
                    return out;
                }
                if !jumped {
                    out.end = pos + 2;
                }
                jumped = true;
                jumps += 1;
                if jumps > 8 {
                    self.hit(Br::LabelPointerDeep);
                    out.malformed = true;
                    return out;
                }
                pos = target;
                continue;
            }
            if len > 63 {
                self.hit(Br::LabelTooLong);
                out.malformed = true;
                return out;
            }
            let label_end = pos + 1 + usize::from(len);
            let Some(label) = packet.get(pos + 1..label_end) else {
                self.hit(Br::QTruncated);
                // Bug #11 (Table II): heap-buffer-overflow in
                // dns_question_parse / dns_request_parse — the label copy
                // trusts the length byte; oversized EDNS buffers make the
                // over-read land in adjacent heap data.
                if self.cfg().edns_max > 4096 {
                    out.fault = Some(
                        Fault::new(
                            FaultKind::HeapBufferOverflow,
                            "dns_question_parse, dns_request_parse",
                        )
                        .with_detail("label length past packet with oversized EDNS buffer"),
                    );
                } else {
                    out.malformed = true;
                }
                return out;
            };
            self.hit(Br::LabelPlain);
            if len == 63 {
                self.hit(Br::LabelMax);
            }
            if !out.name.is_empty() {
                out.name.push(b'.');
            }
            if out.name.iter().filter(|&&b| b == b'.').count() >= 8 {
                self.hit(Br::ManyLabels);
            }
            out.name.extend_from_slice(label);
            if out.name.len() > 255 {
                self.hit(Br::NameTooLong);
                out.malformed = true;
                return out;
            }
            if !jumped {
                out.end = label_end;
            }
            pos = label_end;
        }
    }
}

impl Target for Dns {
    fn name(&self) -> &str {
        "dnsmasq"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize + VERSION_BIND_NAME.len()
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --port <num>            Listen port (default: 53)".to_owned(),
                "  --query-mode {udp,tcp,both}   Transport accepted (default: udp)".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "dnsmasq.conf",
                "# Simulated dnsmasq configuration\n\
                 cache-size=150\n\
                 edns-packet-max=1232\n\
                 max-queries=150\n\
                 local-ttl=0\n\
                 log-queries=false\n\
                 no-resolv=false\n\
                 domain-needed=false\n\
                 bogus-priv=false\n\
                 strict-order=false\n\
                 filterwin2k=false\n\
                 dnssec=false\n\
                 resolv-file=/etc/resolv.conf\n\
                 conf-dir=/etc/dnsmasq.d\n",
            )],
        }
    }

    // Declarative mirror of the conflict checks in `start` below; the
    // per-server consistency test holds the two in lockstep.
    fn config_constraints(&self) -> ConstraintSet {
        ConstraintSet::new()
            .with(ConfigConstraint::new(
                "invalid listen port",
                vec![Condition::int_outside("port", 1, 65535, 53)],
            ))
            .with(ConfigConstraint::new(
                "unknown query mode",
                vec![Condition::str_not_in(
                    "query-mode",
                    &["udp", "tcp", "both"],
                    "udp",
                )],
            ))
            .with(ConfigConstraint::new(
                "strict-order requires resolv.conf servers",
                vec![
                    Condition::bool_is("strict-order", true, false),
                    Condition::bool_is("no-resolv", true, false),
                ],
            ))
    }

    // Declarative mirror of the config gates in `start`/`handle` below;
    // startup guards are exact, handler guards necessary-only. The
    // `max-queries != 150` tuning branch is inexpressible and stays
    // unguarded.
    fn branch_guards(&self) -> GuardTable {
        let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
        };
        let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
        };
        let dnssec = || Condition::bool_is("dnssec", true, false);
        let big_cache = || Condition::int_within("cache-size", 1001, i64::MAX, 150);
        GuardTable::new()
            .with(startup(
                Br::StartDefaultPort,
                "start::default-port",
                vec![Condition::int_equals("port", 53, 53)],
            ))
            .with(startup(
                Br::StartCacheDefault,
                "start::cache-default",
                vec![Condition::int_within("cache-size", 1, 1000, 150)],
            ))
            .with(startup(
                Br::StartCacheBig,
                "start::cache-big",
                vec![big_cache()],
            ))
            .with(startup(
                Br::StartCacheOff,
                "start::cache-off",
                vec![Condition::int_equals("cache-size", 0, 150)],
            ))
            .with(startup(
                Br::StartEdnsDefault,
                "start::edns-default",
                vec![Condition::int_below("edns-packet-max", 4097, 1232)],
            ))
            .with(startup(
                Br::StartEdnsBig,
                "start::edns-big",
                vec![Condition::int_within(
                    "edns-packet-max",
                    4097,
                    i64::MAX,
                    1232,
                )],
            ))
            .with(startup(
                Br::StartLogQueries,
                "start::log-queries",
                vec![Condition::bool_is("log-queries", true, false)],
            ))
            .with(startup(
                Br::StartNoResolv,
                "start::no-resolv",
                vec![Condition::bool_is("no-resolv", true, false)],
            ))
            .with(startup(
                Br::StartDomainNeeded,
                "start::domain-needed",
                vec![Condition::bool_is("domain-needed", true, false)],
            ))
            .with(startup(
                Br::StartBogusPriv,
                "start::bogus-priv",
                vec![Condition::bool_is("bogus-priv", true, false)],
            ))
            .with(startup(
                Br::StartBogusDomain,
                "start::bogus-domain",
                vec![
                    Condition::bool_is("bogus-priv", true, false),
                    Condition::bool_is("domain-needed", true, false),
                ],
            ))
            .with(startup(
                Br::StartStrictOrder,
                "start::strict-order",
                vec![Condition::bool_is("strict-order", true, false)],
            ))
            .with(startup(
                Br::StartFilter,
                "start::filter",
                vec![Condition::bool_is("filterwin2k", true, false)],
            ))
            .with(startup(
                Br::StartFilterLog,
                "start::filter-log",
                vec![
                    Condition::bool_is("filterwin2k", true, false),
                    Condition::bool_is("log-queries", true, false),
                ],
            ))
            .with(startup(Br::StartDnssec, "start::dnssec", vec![dnssec()]))
            .with(startup(
                Br::StartDnssecCache,
                "start::dnssec-cache",
                vec![dnssec(), big_cache()],
            ))
            .with(startup(
                Br::StartDnssecCacheIndex,
                "start::dnssec-cache-index",
                vec![dnssec(), big_cache()],
            ))
            .with(startup(
                Br::StartLocalTtl,
                "start::local-ttl",
                vec![Condition::int_within("local-ttl", 1, i64::MAX, 0)],
            ))
            .with(startup(
                Br::StartModeTcp,
                "start::mode-tcp",
                vec![Condition::str_is("query-mode", "tcp", "udp")],
            ))
            .with(startup(
                Br::StartModeBoth,
                "start::mode-both",
                vec![Condition::str_is("query-mode", "both", "udp")],
            ))
            .with(handler(
                Br::LoggedQuery,
                "query::logged",
                vec![Condition::bool_is("log-queries", true, false)],
            ))
            .with(handler(
                Br::DomainNeededDrop,
                "query::domain-needed-drop",
                vec![Condition::bool_is("domain-needed", true, false)],
            ))
            .with(handler(
                Br::FilteredType,
                "query::filtered-type",
                vec![Condition::bool_is("filterwin2k", true, false)],
            ))
            .with(handler(
                Br::BogusPrivReply,
                "query::bogus-priv-reply",
                vec![Condition::bool_is("bogus-priv", true, false)],
            ))
            .with(handler(
                Br::DnssecValidated,
                "query::dnssec-validated",
                vec![dnssec()],
            ))
            .with(handler(
                Br::DnssecFailed,
                "query::dnssec-failed",
                vec![dnssec()],
            ))
            .with(handler(
                Br::CacheHit,
                "cache::hit",
                vec![Condition::int_within("cache-size", 1, i64::MAX, 150)],
            ))
            .with(handler(
                Br::CacheMiss,
                "cache::miss",
                vec![Condition::int_within("cache-size", 1, i64::MAX, 150)],
            ))
            .with(handler(
                Br::CacheStore,
                "cache::store",
                vec![Condition::int_within("cache-size", 1, i64::MAX, 150)],
            ))
    }

    fn start(&mut self, resolved: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        let config = Config::parse(resolved);
        if config.port <= 0 || config.port > 65535 {
            return Err(StartError::new("invalid listen port"));
        }
        if !matches!(config.query_mode.as_str(), "udp" | "tcp" | "both") {
            return Err(StartError::new("unknown query mode"));
        }
        // Conflicting pair: strict-order asks to walk resolv.conf servers
        // in order, no-resolv removes resolv.conf entirely.
        if config.strict_order && config.no_resolv {
            return Err(StartError::new("strict-order requires resolv.conf servers"));
        }

        self.cov.attach(probe);
        self.hit(Br::StartEntry);
        if config.port == 53 {
            self.hit(Br::StartDefaultPort);
        } else {
            self.hit(Br::StartCustomPort);
        }
        match config.cache_size {
            0 => self.hit(Br::StartCacheOff),
            n if n > 1000 => self.hit(Br::StartCacheBig),
            _ => self.hit(Br::StartCacheDefault),
        }
        if config.edns_max > 4096 {
            self.hit(Br::StartEdnsBig);
        } else {
            self.hit(Br::StartEdnsDefault);
        }
        if config.log_queries {
            self.hit(Br::StartLogQueries);
        }
        if config.no_resolv {
            self.hit(Br::StartNoResolv);
        }
        if config.domain_needed {
            self.hit(Br::StartDomainNeeded);
        }
        if config.bogus_priv {
            self.hit(Br::StartBogusPriv);
            if config.domain_needed {
                self.hit(Br::StartBogusDomain);
            }
        }
        if config.strict_order {
            self.hit(Br::StartStrictOrder);
        }
        if config.filterwin2k {
            self.hit(Br::StartFilter);
            if config.log_queries {
                self.hit(Br::StartFilterLog);
            }
        }
        if config.dnssec {
            self.hit(Br::StartDnssec);
            // DNSSEC validation results are cached: sizing the cache up
            // initializes both the RRSIG store and its index, so the
            // dnssec × cache-size pair is strongly synergistic.
            if config.cache_size > 1000 {
                self.hit(Br::StartDnssecCache);
                self.hit(Br::StartDnssecCacheIndex);
            }
        }
        if config.max_queries != 150 {
            self.hit(Br::StartMaxQueriesTuned);
        }
        if config.local_ttl > 0 {
            self.hit(Br::StartLocalTtl);
        }
        match config.query_mode.as_str() {
            "tcp" => self.hit(Br::StartModeTcp),
            "both" => self.hit(Br::StartModeBoth),
            _ => {}
        }

        // Bug #14 (Table II): heap-buffer-overflow in config_parse — the
        // DNSSEC trust-anchor loader writes into a cache-index sized by
        // cache-size; with the cache disabled the buffer is empty and the
        // first write lands out of bounds. The daemon boots, then dies on
        // the first request it serves.
        self.pending_fault = (config.dnssec && config.cache_size == 0).then(|| {
            Fault::new(FaultKind::HeapBufferOverflow, "config_parse")
                .with_detail("dnssec trust anchor with cache-size=0")
        });

        self.config = Some(config);
        self.cache.clear();
        self.queries_handled = 0;
        // total_queries deliberately survives restarts: maintenance timers
        // track daemon lifetime, and CMFuzz's adaptive restarts should not
        // reset the clock.
        Ok(())
    }

    fn begin_session(&mut self) {
        // The concurrency window closes with the client.
        self.queries_handled = 0;
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        if let Some(fault) = self.pending_fault.take() {
            return TargetResponse::crash(fault);
        }
        if input.len() < 12 {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        }
        let id = [input[0], input[1]];
        let flags = be16(input, 2).expect("length checked");
        let qdcount = be16(input, 4).expect("length checked");
        let arcount = be16(input, 10).expect("length checked");

        if flags & 0x8000 != 0 {
            self.hit(Br::ResponseBitSet);
            return TargetResponse::empty(); // responses are not queries
        }
        match (flags >> 11) & 0x0F {
            0 => self.hit(Br::OpQuery),
            1 => self.hit(Br::OpIQuery),
            2 => self.hit(Br::OpStatus),
            4 => {
                self.hit(Br::OpNotify);
                return reply(id, flags, 5); // REFUSED, not authoritative
            }
            5 => {
                self.hit(Br::OpUpdate);
                return reply(id, flags, 5);
            }
            _ => {
                self.hit(Br::OpUnknown);
                return reply(id, flags, 4); // NOTIMP
            }
        }
        if flags & 0x0100 != 0 {
            self.hit(Br::FlagRd);
        }
        if flags & 0x0200 != 0 {
            self.hit(Br::FlagTc);
            if flags & 0x0100 != 0 {
                self.hit(Br::FlagRdAndTc);
            }
        }

        self.queries_handled += 1;
        if self.queries_handled > self.cfg().max_queries {
            self.hit(Br::MaxQueriesExceeded);
            self.hit(Br::RespRefused);
            return reply(id, flags, 5); // REFUSED
        }
        // Periodic maintenance, as the real daemon's stats logging and
        // cache sweeps: these paths only execute deep into a long fuzzing
        // run.
        self.total_queries += 1;
        if self.total_queries == 10_000 {
            self.hit(Br::StatsDumpEarly);
        }
        if self.total_queries == 40_000 {
            self.hit(Br::StatsDumpLate);
        }
        if self.total_queries == 100_000 {
            self.hit(Br::CacheFullSweep);
        }

        if qdcount == 0 {
            self.hit(Br::NoQuestions);
            return reply(id, flags, 1); // FORMERR
        }
        if qdcount > 16 {
            self.hit(Br::ManyQuestions);
            // Bug #12 (Table II): allocation-size-too-big in
            // dns_request_parse — the per-question scratch allocation is
            // qdcount * cache-slot size; an oversized cache multiplies a
            // hostile qdcount into a gigantic request.
            if qdcount >= 0x4000 && self.cfg().cache_size >= 10_000 {
                return TargetResponse::crash(
                    Fault::new(FaultKind::AllocationSizeTooBig, "dns_request_parse")
                        .with_detail("qdcount * cache slots overflows allocator limit"),
                );
            }
            return reply(id, flags, 1);
        }

        let mut offset = 12usize;
        let mut last_qtype = 0u16;
        let mut first_name: Vec<u8> = Vec::new();
        for qi in 0..qdcount {
            let parsed = self.parse_name(input, offset);
            if let Some(fault) = parsed.fault {
                return TargetResponse::crash(fault);
            }
            if parsed.malformed {
                return reply(id, flags, 1);
            }
            let Some(qtype) = be16(input, parsed.end) else {
                self.hit(Br::QTruncated);
                return reply(id, flags, 1);
            };
            let Some(qclass) = be16(input, parsed.end + 2) else {
                self.hit(Br::QTruncated);
                return reply(id, flags, 1);
            };
            offset = parsed.end + 4;
            last_qtype = qtype;
            if qi == 0 {
                first_name = parsed.name.clone();
            }

            match qtype {
                1 => self.hit(Br::QTypeA),
                28 => self.hit(Br::QTypeAaaa),
                15 => self.hit(Br::QTypeMx),
                16 => self.hit(Br::QTypeTxt),
                12 => self.hit(Br::QTypePtr),
                41 => self.hit(Br::QTypeOpt),
                252 => {
                    self.hit(Br::QTypeAxfr);
                    // Zone transfers are TCP-only; an AXFR arriving with
                    // the truncation bit set takes the retry-over-TCP path.
                    if flags & 0x0200 != 0 {
                        self.hit(Br::QTypeAxfrTruncated);
                    }
                }
                255 => self.hit(Br::QTypeAny),
                _ => self.hit(Br::QTypeOther),
            }
            // TSIG (type 250) is only meaningful with class ANY (255).
            if qtype == 250 && qclass == 255 {
                self.hit(Br::TsigAnyQuery);
            }
            match qclass {
                1 => self.hit(Br::ClassIn),
                3 => self.hit(Br::ClassChaos),
                _ => self.hit(Br::ClassOther),
            }
            // The classic `version.bind` query: the name comparison
            // exposes one branch edge per matched byte, as the compiled
            // string compare does.
            crate::common::prefix_ladder(
                &self.cov,
                Br::Count as u32,
                VERSION_BIND_NAME,
                &parsed.name,
            );

            // Bug #13 (Table II): heap-buffer-overflow in printf_common —
            // the query logger formats the name with a printf-style call, a
            // '%' in the name walks the argument area. Requires the
            // non-default log-queries.
            if self.cfg().log_queries {
                self.hit(Br::LoggedQuery);
                if parsed.name.contains(&b'%') {
                    return TargetResponse::crash(
                        Fault::new(FaultKind::HeapBufferOverflow, "printf_common")
                            .with_detail("query name with % under log-queries"),
                    );
                }
            }
        }

        if offset < input.len() && arcount == 0 {
            self.hit(Br::TrailingJunk);
        }

        // Behavioural branches driven by configuration.
        if self.cfg().domain_needed && !first_name.contains(&b'.') {
            self.hit(Br::DomainNeededDrop);
            return reply(id, flags, 3); // NXDOMAIN for plain names
        }
        if self.cfg().filterwin2k && matches!(last_qtype, 6 | 33) {
            self.hit(Br::FilteredType);
            return reply(id, flags, 3);
        }
        if self.cfg().bogus_priv && first_name.ends_with(b"in-addr.arpa") {
            self.hit(Br::BogusPrivReply);
            return reply(id, flags, 3);
        }
        if arcount > 0 {
            self.hit(Br::EdnsPresent);
            if input.len() as i64 > self.cfg().edns_max {
                self.hit(Br::EdnsOversized);
                return reply(id, flags, 1);
            }
        }
        if self.cfg().dnssec {
            if first_name.starts_with(b"signed.") {
                self.hit(Br::DnssecValidated);
            } else {
                self.hit(Br::DnssecFailed);
                self.hit(Br::RespServfail);
                return reply(id, flags, 2); // SERVFAIL on bogus data
            }
        }

        if self.cfg().cache_size > 0 {
            if self.cache.iter().any(|n| n == &first_name) {
                self.hit(Br::CacheHit);
            } else {
                self.hit(Br::CacheMiss);
                if (self.cache.len() as i64) < self.cfg().cache_size {
                    self.hit(Br::CacheStore);
                    self.cache.push(first_name.clone());
                }
            }
        }

        if first_name.ends_with(b"invalid") {
            self.hit(Br::RespNxdomain);
            return reply(id, flags, 3);
        }
        self.hit(Br::RespAnswer);
        reply_answer(id, flags)
    }
}

fn reply(id: [u8; 2], flags: u16, rcode: u8) -> TargetResponse {
    let response_flags = (flags | 0x8000) & !0x000F | u16::from(rcode);
    let mut bytes = vec![id[0], id[1]];
    bytes.extend_from_slice(&response_flags.to_be_bytes());
    bytes.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]);
    TargetResponse::reply(bytes)
}

fn reply_answer(id: [u8; 2], flags: u16) -> TargetResponse {
    let response_flags = (flags | 0x8000) & !0x000F;
    let mut bytes = vec![id[0], id[1]];
    bytes.extend_from_slice(&response_flags.to_be_bytes());
    bytes.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0]); // 1 question, 1 answer
    TargetResponse::reply(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::ConfigValue;
    use cmfuzz_coverage::CoverageMap;

    fn started(config: &ResolvedConfig) -> (Dns, CoverageMap) {
        let mut server = Dns::new();
        let map = CoverageMap::new(server.branch_count());
        server.start(config, map.probe()).expect("starts");
        (server, map)
    }

    /// A simple query for `name` with the given qtype.
    fn query(name: &[&[u8]], qtype: u16) -> Vec<u8> {
        let mut q = vec![0xBE, 0xEF, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        for label in name {
            q.push(label.len() as u8);
            q.extend_from_slice(label);
        }
        q.push(0);
        q.extend_from_slice(&qtype.to_be_bytes());
        q.extend_from_slice(&1u16.to_be_bytes());
        q
    }

    #[test]
    fn simple_query_answered() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&query(&[b"example", b"com"], 1));
        assert_eq!(response.bytes[0], 0xBE);
        assert_eq!(response.bytes[2] & 0x80, 0x80, "QR bit set");
    }

    #[test]
    fn bug10_pointer_past_end_default_reachable() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        // Pointer 0xC0FF targets offset 255, beyond this short packet.
        let mut q = vec![0, 1, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[0xC0, 0xFF, 0, 1, 0, 1]);
        let fault = server.handle(&q).fault.expect("bug #10 fires by default");
        assert_eq!(fault.kind, FaultKind::StackBufferOverflow);
        assert_eq!(fault.function, "get16bits");
    }

    #[test]
    fn bug11_needs_oversized_edns() {
        // Label claims 40 bytes, only a few present.
        let mut truncated = vec![0, 2, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        truncated.extend_from_slice(&[40, b'a', b'b']);
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(!server.handle(&truncated).is_crash(), "default EDNS safe");
        let mut config = ResolvedConfig::new();
        config.set("edns-packet-max", ConfigValue::Int(65535));
        let (mut server, _map) = started(&config);
        let fault = server.handle(&truncated).fault.expect("bug #11 fires");
        assert_eq!(fault.kind, FaultKind::HeapBufferOverflow);
        assert!(fault.function.contains("dns_question_parse"));
    }

    #[test]
    fn bug12_needs_huge_cache() {
        let mut bomb = vec![0, 3, 0x01, 0x00];
        bomb.extend_from_slice(&0x7FFFu16.to_be_bytes()); // qdcount
        bomb.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(!server.handle(&bomb).is_crash(), "default cache safe");
        let mut config = ResolvedConfig::new();
        config.set("cache-size", ConfigValue::Int(65535));
        let (mut server, _map) = started(&config);
        let fault = server.handle(&bomb).fault.expect("bug #12 fires");
        assert_eq!(fault.kind, FaultKind::AllocationSizeTooBig);
        assert_eq!(fault.function, "dns_request_parse");
    }

    #[test]
    fn bug13_needs_log_queries() {
        let evil = query(&[b"a%n", b"com"], 1);
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(!server.handle(&evil).is_crash(), "no logging, no crash");
        let mut config = ResolvedConfig::new();
        config.set("log-queries", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let fault = server.handle(&evil).fault.expect("bug #13 fires");
        assert_eq!(fault.kind, FaultKind::HeapBufferOverflow);
        assert_eq!(fault.function, "printf_common");
    }

    #[test]
    fn bug14_fires_on_first_request_after_bad_boot() {
        let mut config = ResolvedConfig::new();
        config.set("dnssec", ConfigValue::Bool(true));
        config.set("cache-size", ConfigValue::Int(0));
        let (mut server, _map) = started(&config);
        let fault = server
            .handle(&query(&[b"x"], 1))
            .fault
            .expect("bug #14 fires");
        assert_eq!(fault.kind, FaultKind::HeapBufferOverflow);
        assert_eq!(fault.function, "config_parse");
        // Subsequent requests behave (the daemon would have been restarted).
        assert!(!server.handle(&query(&[b"x"], 1)).is_crash());
    }

    #[test]
    fn dnssec_without_zero_cache_is_fine() {
        let mut config = ResolvedConfig::new();
        config.set("dnssec", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let response = server.handle(&query(&[b"signed", b"example"], 1));
        assert!(!response.is_crash());
    }

    #[test]
    fn strict_order_with_no_resolv_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("strict-order", ConfigValue::Bool(true));
        config.set("no-resolv", ConfigValue::Bool(true));
        let mut server = Dns::new();
        let map = CoverageMap::new(server.branch_count());
        assert!(server.start(&config, map.probe()).is_err());
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn domain_needed_drops_plain_names() {
        let mut config = ResolvedConfig::new();
        config.set("domain-needed", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let response = server.handle(&query(&[b"plainname"], 1));
        assert_eq!(response.bytes[3] & 0x0F, 3, "NXDOMAIN");
    }

    #[test]
    fn filterwin2k_blocks_soa() {
        let mut config = ResolvedConfig::new();
        config.set("filterwin2k", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let response = server.handle(&query(&[b"x", b"y"], 6));
        assert_eq!(response.bytes[3] & 0x0F, 3);
    }

    #[test]
    fn cache_hits_after_store() {
        let (mut server, map) = started(&ResolvedConfig::new());
        server.handle(&query(&[b"a", b"b"], 1));
        server.handle(&query(&[b"a", b"b"], 1));
        let hit_id = cmfuzz_coverage::BranchId::from_index(Br::CacheHit as u32);
        assert_eq!(map.hit_count(hit_id), 1);
    }

    #[test]
    fn max_queries_refuses_excess() {
        let mut config = ResolvedConfig::new();
        config.set("max-queries", ConfigValue::Int(2));
        let (mut server, _map) = started(&config);
        server.handle(&query(&[b"a"], 1));
        server.handle(&query(&[b"b"], 1));
        let response = server.handle(&query(&[b"c"], 1));
        assert_eq!(response.bytes[3] & 0x0F, 5, "REFUSED");
    }

    #[test]
    fn garbage_inputs_never_crash_under_defaults_except_bug10() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 53 + 11) as u8).collect();
            let response = server.handle(&junk);
            if let Some(fault) = &response.fault {
                assert_eq!(
                    fault.function, "get16bits",
                    "only bug #10 is default-reachable"
                );
            }
        }
    }

    #[test]
    fn compression_pointer_loop_detected() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        // Pointer at offset 12 pointing to itself.
        let mut q = vec![0, 4, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[0xC0, 0x0C, 0, 1, 0, 1]);
        let response = server.handle(&q);
        assert!(!response.is_crash(), "loop is bounded, FORMERR not crash");
        assert_eq!(response.bytes[3] & 0x0F, 1);
    }

    #[test]
    fn config_space_extracts_expected_entities() {
        let server = Dns::new();
        let model = cmfuzz_config_model::extract_model(&server.config_space());
        assert!(model.len() >= 13, "got {}", model.len());
        assert!(model.entity("cache-size").is_some());
        assert!(model.entity("dnssec").is_some());
        assert!(!model.entity("resolv-file").unwrap().is_mutable());
    }
}
