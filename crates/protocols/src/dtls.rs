//! Simulated DTLS server modeled after OpenSSL's DTLS endpoint.
//!
//! No Table II bug lives here — as in the paper, DTLS "relies on fixed
//! cryptographic settings" and contributes coverage results with modest
//! configuration-driven gains. The configuration surface still gates real
//! paths: cookie exchange, fragmentation, renegotiation, session tickets
//! and cipher negotiation.

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
    StartV10,
    StartV12,
    StartCipherAes128,
    StartCipherAes256,
    StartCipherChacha,
    StartCookie,
    StartCookieMtuSmall,
    StartRenegotiation,
    StartRenegotiationTickets,
    StartTickets,
    StartFragment,
    StartFragmentMtu,
    StartPsk,
    StartPskCipher,
    StartMtuTuned,
    StartVerifyDeep,
    StartTimeoutTuned,
    StartHandshakeLimitTuned,
    // --- record layer ---
    RecTooShort,
    RecBadVersion,
    RecLenMismatch,
    RecChangeCipherSpec,
    RecAlert,
    RecAlertFatal,
    RecHandshake,
    RecAppData,
    RecAppDataBeforeHandshake,
    RecUnknownType,
    RecEpochNonzero,
    RecEpochHigh,
    RecSeqNonzero,
    RecOverMtu,
    RecEmptyBody,
    AlertCloseNotify,
    AlertUnexpected,
    AlertBadRecordMac,
    AlertHandshakeFailure,
    AlertUnknownDesc,
    // --- handshake ---
    HsTooShort,
    HsClientHello,
    HsClientKeyExchange,
    HsCertificate,
    HsFinished,
    HsUnknown,
    HsHelloRequest,
    HsSeqReordered,
    HsFragmented,
    HsFragmentRejected,
    HsOverLimit,
    HsEmptyBody,
    // --- client hello details ---
    ChBadVersion,
    ChNoCookie,
    ChCookiePresent,
    ChCookieBad,
    ChCipherMatch,
    ChCipherNoOverlap,
    ChCompressionNonNull,
    ChWithSessionId,
    ChSessionIdLong,
    ChManySuites,
    ChSingleSuite,
    ChWithExtensions,
    ChExtServerName,
    ChExtSupportedGroups,
    ChExtSigAlgs,
    ChExtHeartbeat,
    ChExtUnknown,
    ChRenegotiated,
    ChRenegotiationDenied,
    // --- flows ---
    HelloVerifySent,
    ServerHelloSent,
    TicketIssued,
    PskShortcut,
    AppDataEchoed,
    Count,
}

#[derive(Debug, Clone)]
struct Config {
    version: String,
    cipher: String,
    mtu: i64,
    cookie_exchange: bool,
    renegotiation: bool,
    session_tickets: bool,
    fragment: bool,
    psk: bool,
    verify_depth: i64,
    timeout: i64,
    max_handshake: i64,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        Config {
            version: resolved.str_or("version", "1.2").to_owned(),
            cipher: resolved.str_or("cipher", "aes128-gcm").to_owned(),
            mtu: resolved.int_or("mtu", 1400),
            cookie_exchange: resolved.bool_or("cookie-exchange", false),
            renegotiation: resolved.bool_or("renegotiation", false),
            session_tickets: resolved.bool_or("session-tickets", false),
            fragment: resolved.bool_or("fragment", false),
            psk: resolved.bool_or("dtls.psk", false),
            verify_depth: resolved.int_or("dtls.verify_depth", 4),
            timeout: resolved.int_or("dtls.timeout", 30),
            max_handshake: resolved.int_or("limits.max_handshake", 16384),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    #[default]
    AwaitHello,
    AwaitKeyExchange,
    AwaitFinished,
    Established,
}

/// The simulated OpenSSL DTLS server.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Dtls;
///
/// let server = Dtls::new();
/// assert_eq!(server.name(), "openssl");
/// ```
#[derive(Debug, Default)]
pub struct Dtls {
    cov: Cov,
    config: Option<Config>,
    phase: Phase,
    cookie_verified: bool,
    handshake_bytes: i64,
}

impl Dtls {
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

    fn wire_version(&self) -> [u8; 2] {
        if self.cfg().version == "1" || self.cfg().version == "1.0" {
            [0xFE, 0xFF]
        } else {
            [0xFE, 0xFD]
        }
    }

    fn handle_client_hello(&mut self, body: &[u8]) -> TargetResponse {
        self.hit(Br::HsClientHello);
        if self.phase == Phase::Established {
            if self.cfg().renegotiation {
                self.hit(Br::ChRenegotiated);
                self.phase = Phase::AwaitHello;
                self.cookie_verified = false;
            } else {
                self.hit(Br::ChRenegotiationDenied);
                return self.alert(40); // handshake_failure
            }
        }
        if body.len() < 2 + 32 + 1 {
            self.hit(Br::HsTooShort);
            return TargetResponse::empty();
        }
        let client_version = [body[0], body[1]];
        if client_version[0] != 0xFE {
            self.hit(Br::ChBadVersion);
            return self.alert(70); // protocol_version
        }
        let mut pos = 2 + 32;
        let session_len = usize::from(body[pos]);
        if session_len > 0 {
            self.hit(Br::ChWithSessionId);
            if session_len > 16 {
                self.hit(Br::ChSessionIdLong);
            }
        }
        pos += 1 + session_len;
        let Some(&cookie_len) = body.get(pos) else {
            self.hit(Br::HsTooShort);
            return TargetResponse::empty();
        };
        pos += 1;
        let cookie = body.get(pos..pos + usize::from(cookie_len));
        pos += usize::from(cookie_len);

        if self.cfg().cookie_exchange && !self.cookie_verified {
            match cookie {
                Some(c) if !c.is_empty() => {
                    if c == b"CMFZ" {
                        self.hit(Br::ChCookiePresent);
                        self.cookie_verified = true;
                    } else {
                        self.hit(Br::ChCookieBad);
                        return self.alert(47); // illegal_parameter
                    }
                }
                _ => {
                    self.hit(Br::ChNoCookie);
                    self.hit(Br::HelloVerifySent);
                    // HelloVerifyRequest carrying the expected cookie.
                    let v = self.wire_version();
                    return TargetResponse::reply(vec![
                        22, v[0], v[1], 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, // record hdr
                        3, 0, 0, 6, 0, 0, // HVR, len, seq
                        v[0], v[1], 4, b'C', b'M', b'F', b'Z',
                    ]);
                }
            }
        }

        // Cipher negotiation: the client lists suites as 2-byte ids; our
        // simulated ids are 0x1301=aes128-gcm, 0x1302=aes256-gcm,
        // 0x1303=chacha20.
        let wanted: u16 = match self.cfg().cipher.as_str() {
            "aes256-gcm" => 0x1302,
            "chacha20" => 0x1303,
            _ => 0x1301,
        };
        let Some(suites_len) = be16(body, pos) else {
            self.hit(Br::HsTooShort);
            return TargetResponse::empty();
        };
        pos += 2;
        let mut matched = false;
        let mut offset = pos;
        while offset + 1 < pos + usize::from(suites_len) && offset + 1 < body.len() {
            if be16(body, offset) == Some(wanted) {
                matched = true;
                break;
            }
            offset += 2;
        }
        if !matched {
            self.hit(Br::ChCipherNoOverlap);
            return self.alert(71); // insufficient_security
        }
        self.hit(Br::ChCipherMatch);
        match suites_len / 2 {
            0 | 1 => self.hit(Br::ChSingleSuite),
            n if n > 8 => self.hit(Br::ChManySuites),
            _ => {}
        }
        pos += usize::from(suites_len);
        if let Some(&comp_len) = body.get(pos) {
            if comp_len > 1 {
                self.hit(Br::ChCompressionNonNull);
            }
            pos += 1 + usize::from(comp_len);
        }
        // Extension block: length-prefixed list of (type, len, value).
        if let Some(ext_total) = be16(body, pos) {
            self.hit(Br::ChWithExtensions);
            pos += 2;
            let end = (pos + usize::from(ext_total)).min(body.len());
            while pos + 4 <= end {
                let ext_type = be16(body, pos).expect("bounds checked");
                let ext_len = usize::from(be16(body, pos + 2).expect("bounds checked"));
                pos += 4;
                match ext_type {
                    0 => self.hit(Br::ChExtServerName),
                    10 => self.hit(Br::ChExtSupportedGroups),
                    13 => self.hit(Br::ChExtSigAlgs),
                    15 => self.hit(Br::ChExtHeartbeat),
                    _ => self.hit(Br::ChExtUnknown),
                }
                pos += ext_len;
            }
        }

        if self.cfg().psk {
            // PSK skips certificate exchange entirely.
            self.hit(Br::PskShortcut);
            self.phase = Phase::AwaitFinished;
        } else {
            self.phase = Phase::AwaitKeyExchange;
        }
        self.hit(Br::ServerHelloSent);
        let v = self.wire_version();
        TargetResponse::reply(vec![
            22, v[0], v[1], 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, // record hdr
            2, 0, 0, 0, // ServerHello (truncated simulation)
        ])
    }

    fn alert(&self, code: u8) -> TargetResponse {
        let v = self.wire_version();
        TargetResponse::reply(vec![21, v[0], v[1], 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, code])
    }
}

impl Target for Dtls {
    fn name(&self) -> &str {
        "openssl"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --version {1.2,1.0}      DTLS protocol version (default: 1.2)".to_owned(),
                "  --cipher {aes128-gcm,aes256-gcm,chacha20}  Cipher suite (default: aes128-gcm)"
                    .to_owned(),
                "  --mtu <num>              Path MTU (default: 1400)".to_owned(),
                "  --cookie-exchange        HelloVerifyRequest cookies".to_owned(),
                "  --renegotiation          Allow renegotiation".to_owned(),
                "  --session-tickets        RFC 5077 session tickets".to_owned(),
                "  --fragment               Accept fragmented handshakes".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "openssl.cnf",
                "[dtls]\n\
                 psk = false\n\
                 cert_file = /etc/ssl/server.pem\n\
                 verify_depth = 4\n\
                 timeout = 30\n\
                 [limits]\n\
                 max_handshake = 16384\n",
            )],
        }
    }

    // Declarative mirror of the conflict checks in `start` below; the
    // per-server consistency test holds the two in lockstep.
    fn config_constraints(&self) -> ConstraintSet {
        ConstraintSet::new()
            .with(ConfigConstraint::new(
                "chacha20 requires DTLS 1.2",
                vec![
                    Condition::str_in("version", &["1", "1.0"], "1.2"),
                    Condition::str_is("cipher", "chacha20", "aes128-gcm"),
                ],
            ))
            .with(ConfigConstraint::new(
                "mtu below minimum datagram size",
                vec![Condition::int_below("mtu", 256, 1400)],
            ))
            .with(ConfigConstraint::new(
                "psk with aes256 unsupported on 1.0",
                vec![
                    Condition::bool_is("dtls.psk", true, false),
                    Condition::str_is("cipher", "aes256-gcm", "aes128-gcm"),
                    Condition::str_in("version", &["1", "1.0"], "1.2"),
                ],
            ))
            .with(ConfigConstraint::new(
                "unknown cipher",
                vec![Condition::str_not_in(
                    "cipher",
                    &["aes128-gcm", "aes256-gcm", "chacha20"],
                    "aes128-gcm",
                )],
            ))
    }

    fn branch_guards(&self) -> GuardTable {
        let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
        };
        let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
            BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
        };
        let v10 = || Condition::str_in("version", &["1", "1.0"], "1.2");
        let cookie = || Condition::bool_is("cookie-exchange", true, false);
        let fragment = || Condition::bool_is("fragment", true, false);
        let psk = || Condition::bool_is("dtls.psk", true, false);
        // Tuned-away-from-default branches (`mtu != 1400` and friends)
        // stay unguarded: the table need not be exhaustive, and the
        // analyzer only reasons about guarded branches.
        GuardTable::new()
            .with(startup(Br::StartEntry, "start::entry", vec![]))
            .with(startup(Br::StartV10, "start::v1.0", vec![v10()]))
            .with(startup(
                Br::StartV12,
                "start::v1.2",
                vec![Condition::str_not_in("version", &["1", "1.0"], "1.2")],
            ))
            .with(startup(
                Br::StartCipherAes128,
                "start::cipher-aes128",
                vec![Condition::str_not_in(
                    "cipher",
                    &["aes256-gcm", "chacha20"],
                    "aes128-gcm",
                )],
            ))
            .with(startup(
                Br::StartCipherAes256,
                "start::cipher-aes256",
                vec![Condition::str_is("cipher", "aes256-gcm", "aes128-gcm")],
            ))
            .with(startup(
                Br::StartCipherChacha,
                "start::cipher-chacha",
                vec![Condition::str_is("cipher", "chacha20", "aes128-gcm")],
            ))
            .with(startup(Br::StartCookie, "start::cookie", vec![cookie()]))
            .with(startup(
                Br::StartCookieMtuSmall,
                "start::cookie-mtu-small",
                vec![cookie(), Condition::int_below("mtu", 512, 1400)],
            ))
            .with(startup(
                Br::StartRenegotiation,
                "start::renegotiation",
                vec![Condition::bool_is("renegotiation", true, false)],
            ))
            .with(startup(
                Br::StartRenegotiationTickets,
                "start::renegotiation-tickets",
                vec![
                    Condition::bool_is("renegotiation", true, false),
                    Condition::bool_is("session-tickets", true, false),
                ],
            ))
            .with(startup(
                Br::StartTickets,
                "start::tickets",
                vec![Condition::bool_is("session-tickets", true, false)],
            ))
            .with(startup(
                Br::StartFragment,
                "start::fragment",
                vec![fragment()],
            ))
            .with(startup(Br::StartPsk, "start::psk", vec![psk()]))
            .with(startup(
                Br::StartPskCipher,
                "start::psk-chacha",
                vec![psk(), Condition::str_is("cipher", "chacha20", "aes128-gcm")],
            ))
            .with(startup(
                Br::StartVerifyDeep,
                "start::verify-deep",
                vec![Condition::int_within("dtls.verify_depth", 5, i64::MAX, 4)],
            ))
            .with(handler(
                Br::ChRenegotiated,
                "hello::renegotiated",
                vec![Condition::bool_is("renegotiation", true, false)],
            ))
            .with(handler(
                Br::ChRenegotiationDenied,
                "hello::renegotiation-denied",
                vec![Condition::bool_is("renegotiation", false, false)],
            ))
            .with(handler(Br::ChNoCookie, "hello::no-cookie", vec![cookie()]))
            .with(handler(
                Br::ChCookiePresent,
                "hello::cookie-present",
                vec![cookie()],
            ))
            .with(handler(
                Br::ChCookieBad,
                "hello::cookie-bad",
                vec![cookie()],
            ))
            .with(handler(
                Br::HelloVerifySent,
                "flow::hello-verify-sent",
                vec![cookie()],
            ))
            .with(handler(
                Br::HsFragmented,
                "handshake::fragmented",
                vec![fragment()],
            ))
            .with(handler(
                Br::HsFragmentRejected,
                "handshake::fragment-rejected",
                vec![Condition::bool_is("fragment", false, false)],
            ))
            .with(handler(
                Br::TicketIssued,
                "flow::ticket-issued",
                vec![Condition::bool_is("session-tickets", true, false)],
            ))
            .with(handler(Br::PskShortcut, "flow::psk-shortcut", vec![psk()]))
    }

    fn start(&mut self, resolved: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        let config = Config::parse(resolved);
        let is_v10 = config.version == "1" || config.version == "1.0";
        if is_v10 && config.cipher == "chacha20" {
            return Err(StartError::new("chacha20 requires DTLS 1.2"));
        }
        if config.mtu < 256 {
            return Err(StartError::new("mtu below minimum datagram size"));
        }
        if config.psk && config.cipher == "aes256-gcm" && is_v10 {
            return Err(StartError::new("psk with aes256 unsupported on 1.0"));
        }
        if !matches!(
            config.cipher.as_str(),
            "aes128-gcm" | "aes256-gcm" | "chacha20"
        ) {
            return Err(StartError::new("unknown cipher"));
        }

        self.cov.attach(probe);
        self.hit(Br::StartEntry);
        if is_v10 {
            self.hit(Br::StartV10);
        } else {
            self.hit(Br::StartV12);
        }
        match config.cipher.as_str() {
            "aes256-gcm" => self.hit(Br::StartCipherAes256),
            "chacha20" => self.hit(Br::StartCipherChacha),
            _ => self.hit(Br::StartCipherAes128),
        }
        if config.cookie_exchange {
            self.hit(Br::StartCookie);
            if config.mtu < 512 {
                self.hit(Br::StartCookieMtuSmall);
            }
        }
        if config.renegotiation {
            self.hit(Br::StartRenegotiation);
            if config.session_tickets {
                self.hit(Br::StartRenegotiationTickets);
            }
        }
        if config.session_tickets {
            self.hit(Br::StartTickets);
        }
        if config.fragment {
            self.hit(Br::StartFragment);
            if config.mtu != 1400 {
                self.hit(Br::StartFragmentMtu);
            }
        }
        if config.psk {
            self.hit(Br::StartPsk);
            if config.cipher == "chacha20" {
                self.hit(Br::StartPskCipher);
            }
        }
        if config.mtu != 1400 {
            self.hit(Br::StartMtuTuned);
        }
        if config.verify_depth > 4 {
            self.hit(Br::StartVerifyDeep);
        }
        if config.timeout != 30 {
            self.hit(Br::StartTimeoutTuned);
        }
        if config.max_handshake != 16384 {
            self.hit(Br::StartHandshakeLimitTuned);
        }

        self.config = Some(config);
        self.phase = Phase::AwaitHello;
        self.cookie_verified = false;
        self.handshake_bytes = 0;
        Ok(())
    }

    fn begin_session(&mut self) {
        self.phase = Phase::AwaitHello;
        self.cookie_verified = false;
        self.handshake_bytes = 0;
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        if input.len() < 13 {
            self.hit(Br::RecTooShort);
            return TargetResponse::empty();
        }
        if input.len() as i64 > self.cfg().mtu {
            self.hit(Br::RecOverMtu);
            return TargetResponse::empty();
        }
        let content_type = input[0];
        if input[1] != 0xFE {
            self.hit(Br::RecBadVersion);
            return TargetResponse::empty();
        }
        let epoch = be16(input, 3).expect("length checked");
        if epoch != 0 {
            self.hit(Br::RecEpochNonzero);
            if epoch > 1 {
                self.hit(Br::RecEpochHigh);
            }
        }
        if input[5..11].iter().any(|&b| b != 0) {
            self.hit(Br::RecSeqNonzero);
        }
        let length = usize::from(be16(input, 11).expect("length checked"));
        let body = &input[13..];
        if body.is_empty() {
            self.hit(Br::RecEmptyBody);
        }
        if body.len() != length {
            self.hit(Br::RecLenMismatch);
            // Parse what arrived, as the datagram layer would.
        }

        match content_type {
            20 => {
                self.hit(Br::RecChangeCipherSpec);
                TargetResponse::empty()
            }
            21 => {
                self.hit(Br::RecAlert);
                if body.first() == Some(&2) {
                    self.hit(Br::RecAlertFatal);
                    self.phase = Phase::AwaitHello;
                }
                match body.get(1) {
                    Some(0) => self.hit(Br::AlertCloseNotify),
                    Some(10) => self.hit(Br::AlertUnexpected),
                    Some(20) => self.hit(Br::AlertBadRecordMac),
                    Some(40) => self.hit(Br::AlertHandshakeFailure),
                    Some(_) => self.hit(Br::AlertUnknownDesc),
                    None => {}
                }
                TargetResponse::empty()
            }
            22 => {
                if body.len() < 12 {
                    self.hit(Br::HsTooShort);
                    return TargetResponse::empty();
                }
                self.hit(Br::RecHandshake);
                self.handshake_bytes += body.len() as i64;
                if self.handshake_bytes > self.cfg().max_handshake {
                    self.hit(Br::HsOverLimit);
                    return self.alert(80); // internal_error
                }
                let msg_type = body[0];
                let msg_seq = be16(body, 4).unwrap_or(0);
                if msg_seq > 2 {
                    self.hit(Br::HsSeqReordered);
                }
                if body.len() == 12 {
                    self.hit(Br::HsEmptyBody);
                }
                let frag_off =
                    u32::from(body[6]) << 16 | u32::from(body[7]) << 8 | u32::from(body[8]);
                if frag_off > 0 {
                    if self.cfg().fragment {
                        self.hit(Br::HsFragmented);
                        // Simulated reassembly accepts the fragment and
                        // waits for more.
                        return TargetResponse::empty();
                    }
                    self.hit(Br::HsFragmentRejected);
                    return self.alert(50); // decode_error
                }
                let hs_body = &body[12..];
                match msg_type {
                    1 => self.handle_client_hello(hs_body),
                    16 => {
                        self.hit(Br::HsClientKeyExchange);
                        if self.phase == Phase::AwaitKeyExchange {
                            self.phase = Phase::AwaitFinished;
                        }
                        TargetResponse::empty()
                    }
                    11 => {
                        self.hit(Br::HsCertificate);
                        TargetResponse::empty()
                    }
                    0 => {
                        self.hit(Br::HsHelloRequest);
                        TargetResponse::empty()
                    }
                    20 => {
                        self.hit(Br::HsFinished);
                        if self.phase == Phase::AwaitFinished {
                            self.phase = Phase::Established;
                            if self.cfg().session_tickets {
                                self.hit(Br::TicketIssued);
                                let v = self.wire_version();
                                return TargetResponse::reply(vec![
                                    22, v[0], v[1], 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 4, 0, 0, 0,
                                ]);
                            }
                        }
                        TargetResponse::empty()
                    }
                    _ => {
                        self.hit(Br::HsUnknown);
                        TargetResponse::empty()
                    }
                }
            }
            23 => {
                if self.phase == Phase::Established {
                    self.hit(Br::RecAppData);
                    self.hit(Br::AppDataEchoed);
                    TargetResponse::reply(input.to_vec())
                } else {
                    self.hit(Br::RecAppDataBeforeHandshake);
                    self.alert(10) // unexpected_message
                }
            }
            _ => {
                self.hit(Br::RecUnknownType);
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

    fn started(config: &ResolvedConfig) -> (Dtls, CoverageMap) {
        let mut server = Dtls::new();
        let map = CoverageMap::new(server.branch_count());
        server.start(config, map.probe()).expect("starts");
        (server, map)
    }

    fn record(content_type: u8, body: &[u8]) -> Vec<u8> {
        let mut r = vec![content_type, 0xFE, 0xFD, 0, 0, 0, 0, 0, 0, 0, 0];
        r.extend_from_slice(&(body.len() as u16).to_be_bytes());
        r.extend_from_slice(body);
        r
    }

    fn handshake(msg_type: u8, hs_body: &[u8]) -> Vec<u8> {
        let mut h = vec![msg_type];
        h.extend_from_slice(&[0, 0, hs_body.len() as u8]); // length
        h.extend_from_slice(&[0, 0]); // msg seq
        h.extend_from_slice(&[0, 0, 0]); // frag offset
        h.extend_from_slice(&[0, 0, hs_body.len() as u8]); // frag length
        h.extend_from_slice(hs_body);
        record(22, &h)
    }

    fn client_hello(cookie: &[u8], suites: &[u16]) -> Vec<u8> {
        let mut body = vec![0xFE, 0xFD];
        body.extend_from_slice(&[0u8; 32]); // random
        body.push(0); // session id len
        body.push(cookie.len() as u8);
        body.extend_from_slice(cookie);
        body.extend_from_slice(&((suites.len() * 2) as u16).to_be_bytes());
        for s in suites {
            body.extend_from_slice(&s.to_be_bytes());
        }
        body.push(1); // compression methods len
        body.push(0); // null compression
        handshake(1, &body)
    }

    #[test]
    fn default_handshake_reaches_server_hello() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&client_hello(&[], &[0x1301]));
        assert_eq!(response.bytes[0], 22);
        assert_eq!(response.bytes[13], 2, "ServerHello");
    }

    #[test]
    fn cipher_mismatch_alerts() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&client_hello(&[], &[0x1302]));
        assert_eq!(response.bytes[0], 21, "alert record");
        assert_eq!(*response.bytes.last().unwrap(), 71);
    }

    #[test]
    fn cookie_exchange_round_trip() {
        let mut config = ResolvedConfig::new();
        config.set("cookie-exchange", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        // First hello without cookie → HelloVerifyRequest.
        let hvr = server.handle(&client_hello(&[], &[0x1301]));
        assert_eq!(hvr.bytes[13], 3, "HelloVerifyRequest");
        // Retry with the cookie → ServerHello.
        let sh = server.handle(&client_hello(b"CMFZ", &[0x1301]));
        assert_eq!(sh.bytes[13], 2);
        // Bad cookie alerts.
        server.begin_session();
        let bad = server.handle(&client_hello(b"XXXX", &[0x1301]));
        assert_eq!(bad.bytes[0], 21);
    }

    #[test]
    fn chacha_on_dtls10_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("version", ConfigValue::Str("1.0".into()));
        config.set("cipher", ConfigValue::Str("chacha20".into()));
        let mut server = Dtls::new();
        let map = CoverageMap::new(server.branch_count());
        assert!(server.start(&config, map.probe()).is_err());
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn tiny_mtu_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("mtu", ConfigValue::Int(100));
        let mut server = Dtls::new();
        let map = CoverageMap::new(server.branch_count());
        assert!(server.start(&config, map.probe()).is_err());
    }

    #[test]
    fn fragments_gated_on_config() {
        let mut frag = handshake(1, &[0xFE, 0xFD]);
        // Rewrite frag offset to 5 (bytes 13+6..13+9 of the record).
        frag[19] = 0;
        frag[20] = 0;
        frag[21] = 5;
        let (mut server, _map) = started(&ResolvedConfig::new());
        let rejected = server.handle(&frag);
        assert_eq!(rejected.bytes[0], 21, "decode_error without --fragment");
        let mut config = ResolvedConfig::new();
        config.set("fragment", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let accepted = server.handle(&frag);
        assert!(accepted.bytes.is_empty(), "fragment buffered");
    }

    #[test]
    fn full_handshake_and_app_data() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        server.handle(&client_hello(&[], &[0x1301]));
        server.handle(&handshake(16, &[0; 4])); // ClientKeyExchange
        server.handle(&handshake(20, &[0; 4])); // Finished
        let echoed = server.handle(&record(23, b"secret"));
        assert_eq!(echoed.bytes[0], 23, "application data echoed");
    }

    #[test]
    fn app_data_before_handshake_alerts() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&record(23, b"early"));
        assert_eq!(response.bytes[0], 21);
        assert_eq!(*response.bytes.last().unwrap(), 10);
    }

    #[test]
    fn renegotiation_gated_on_config() {
        let run = |renegotiate: bool| {
            let mut config = ResolvedConfig::new();
            config.set("renegotiation", ConfigValue::Bool(renegotiate));
            let (mut server, _map) = started(&config);
            server.handle(&client_hello(&[], &[0x1301]));
            server.handle(&handshake(16, &[0; 4]));
            server.handle(&handshake(20, &[0; 4]));
            // Second hello on the established connection.
            server.handle(&client_hello(&[], &[0x1301]))
        };
        assert_eq!(run(false).bytes[0], 21, "denied → alert");
        assert_eq!(run(true).bytes[13], 2, "allowed → ServerHello");
    }

    #[test]
    fn session_tickets_issued_when_enabled() {
        let mut config = ResolvedConfig::new();
        config.set("session-tickets", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        server.handle(&client_hello(&[], &[0x1301]));
        server.handle(&handshake(16, &[0; 4]));
        let ticket = server.handle(&handshake(20, &[0; 4]));
        assert_eq!(ticket.bytes[13], 4, "NewSessionTicket");
    }

    #[test]
    fn psk_skips_key_exchange() {
        let mut config = ResolvedConfig::new();
        config.set("dtls.psk", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        server.handle(&client_hello(&[], &[0x1301]));
        server.handle(&handshake(20, &[0; 4])); // straight to Finished
        let echoed = server.handle(&record(23, b"x"));
        assert_eq!(echoed.bytes[0], 23);
    }

    #[test]
    fn garbage_never_crashes() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            assert!(!server.handle(&junk).is_crash());
        }
    }

    #[test]
    fn config_space_extracts_expected_entities() {
        let server = Dtls::new();
        let model = cmfuzz_config_model::extract_model(&server.config_space());
        assert!(model.len() >= 11, "got {}", model.len());
        assert!(model.entity("cipher").is_some());
        assert!(model.entity("dtls.psk").is_some());
        assert!(!model.entity("dtls.cert_file").unwrap().is_mutable());
    }
}
