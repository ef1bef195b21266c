//! Simulated CoAP server modeled after libcoap.
//!
//! Carries Table II bugs #6–#8. Bug #8 is the paper's case study (Figure
//! 5): a SEGV in `coap_handle_request_put_block` where `lg_srcv->body_data`
//! stays NULL when expected blocks never arrived, dereferenced when the
//! final block of a Q-Block1 transfer claims completion. The whole
//! block-wise path is gated on the non-default `--block-mode` option, so
//! default-configuration fuzzers cannot reach it.

use std::sync::LazyLock;

use cmfuzz_config_model::{
    BranchGuard, Condition, ConfigConstraint, ConfigFile, ConfigSpace, ConstraintSet, GuardKind,
    GuardTable, ResolvedConfig,
};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{Fault, FaultKind, StartError, Target, TargetResponse};

use crate::common::{Cov, Declarations};

/// Branch inventory.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Br {
    // --- startup ---
    StartEntry,
    StartDefaultPort,
    StartCustomPort,
    StartBlockNone,
    StartBlock1,
    StartQBlock1,
    StartBlockSmall,
    StartBlockLarge,
    StartBlockQuickLarge,
    StartObserve,
    StartObserveBlock,
    StartMulticast,
    StartMulticastObserve,
    StartDtls,
    StartDtlsBlock,
    StartNstartTuned,
    StartAckTimeoutTuned,
    StartSessionsTuned,
    StartCacheTuned,
    StartCacheOff,
    StartRd,
    StartRdCache,
    StartRetransmitOff,
    StartCongestion,
    StartCongestionNstart,
    // --- header ---
    HdrTooShort,
    HdrBadVersion,
    TypeCon,
    TypeNon,
    TypeAck,
    TypeRst,
    TokenOk,
    TokenEmpty,
    TokenLong,
    TokenTooLong,
    TokenTruncated,
    MidZero,
    PiggybackAck,
    ResetSeen,
    // --- methods ---
    MethodEmpty,
    MethodGet,
    MethodPost,
    MethodPut,
    MethodDelete,
    MethodUnknown,
    // --- options ---
    OptDeltaSmall,
    OptDeltaExt13,
    OptDeltaExt14,
    OptLenExt13,
    OptLenExt14,
    OptReserved15,
    OptUriPath,
    OptUriPathDeep,
    OptContentFormat,
    OptIfMatch,
    OptEtag,
    OptUriHost,
    OptUriPort,
    OptMaxAge,
    OptUriQuery,
    OptAccept,
    OptLocationPath,
    OptProxyUri,
    OptSize1,
    OptEmptyValue,
    OptLongValue,
    OptObserveRegister,
    OptObserveDeregister,
    OptObserveIgnored,
    OptBlock1,
    OptBlock2,
    OptQBlock1,
    OptBlockIgnored,
    OptUnknownCritical,
    OptUnknownElective,
    OptValueHuge,
    PayloadMarker,
    PayloadEmptyAfterMarker,
    // --- block-wise transfer ---
    BlockFirst,
    BlockContinue,
    BlockFinal,
    BlockOutOfOrder,
    BlockSzxTooBig,
    BlockReassembled,
    QBlockFast,
    // --- responses ---
    RespGetHit,
    RespGetMiss,
    RespPostCreated,
    RespPutChanged,
    RespDeleteOk,
    RespCachedServed,
    RstSent,
    Count,
}

/// Resource-discovery path segments whose byte-by-byte comparison ladders
/// occupy the branch indices after [`Br::Count`].
const WELL_KNOWN_SEGMENT: &[u8] = b".well-known";
const CORE_SEGMENT: &[u8] = b"core";

#[derive(Debug, Clone)]
struct Config {
    /// `block-mode` is `block1` or `qblock1`.
    blockwise: bool,
    /// `block-mode` is `qblock1`.
    qblock: bool,
    max_block_size: i64,
    observe: bool,
    cache_size: i64,
}

impl Config {
    fn parse(resolved: &ResolvedConfig) -> Self {
        let block_mode = resolved.str_or("block-mode", "none");
        Config {
            blockwise: block_mode != "none",
            qblock: block_mode == "qblock1",
            max_block_size: resolved.int_or("max-block-size", 64),
            observe: resolved.bool_or("observe", false),
            cache_size: resolved.int_or("cache-size", 100),
        }
    }
}

/// Per-session block-wise reassembly state (the simulated `lg_srcv`).
#[derive(Debug, Default)]
struct BlockState {
    /// `Some(bytes)` once block 0 arrived — the simulated `body_data`.
    body_data: Option<Vec<u8>>,
    next_num: u32,
}

/// The simulated libcoap server.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::Coap;
///
/// let server = Coap::new();
/// assert_eq!(server.name(), "libcoap");
/// ```
#[derive(Debug, Default)]
pub struct Coap {
    cov: Cov,
    config: Option<Config>,
    block: BlockState,
    resources: usize,
}

struct ParsedOptions {
    uri_path_segments: usize,
    observe: Option<u32>,
    block1: Option<u32>,
    qblock1: Option<u32>,
    payload: Vec<u8>,
    /// Set when option parsing aborted with a fault.
    fault: Option<Fault>,
    malformed: bool,
}

impl Coap {
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

    /// Parses the option list; mirrors `coap_pdu_parse_opt` +
    /// `CoapPDU::getOptionDelta`.
    fn parse_options(&self, data: &[u8]) -> ParsedOptions {
        let mut out = ParsedOptions {
            uri_path_segments: 0,
            observe: None,
            block1: None,
            qblock1: None,
            payload: Vec::new(),
            fault: None,
            malformed: false,
        };
        let mut pos = 0usize;
        let mut option_number = 0u32;
        while pos < data.len() {
            let byte = data[pos];
            pos += 1;
            if byte == 0xFF {
                self.hit(Br::PayloadMarker);
                if pos >= data.len() {
                    self.hit(Br::PayloadEmptyAfterMarker);
                    out.malformed = true;
                } else {
                    out.payload = data[pos..].to_vec();
                }
                return out;
            }
            let mut delta = u32::from(byte >> 4);
            let mut length = usize::from(byte & 0x0F);
            match delta {
                13 => {
                    self.hit(Br::OptDeltaExt13);
                    let Some(&ext) = data.get(pos) else {
                        out.malformed = true;
                        return out;
                    };
                    pos += 1;
                    delta = u32::from(ext) + 13;
                }
                14 => {
                    self.hit(Br::OptDeltaExt14);
                    // Bug #7 (Table II): stack-buffer-overflow in
                    // CoapPDU::getOptionDelta — the two extended delta bytes
                    // are read unconditionally into a stack buffer sized by
                    // max-block-size bookkeeping; with large blocks enabled
                    // a truncated extension reads past the packet.
                    if pos + 1 >= data.len() {
                        if self.cfg().max_block_size >= 512 {
                            out.fault = Some(
                                Fault::new(
                                    FaultKind::StackBufferOverflow,
                                    "CoapPDU::getOptionDelta",
                                )
                                .with_detail("truncated 14-extension with large block size"),
                            );
                        } else {
                            out.malformed = true;
                        }
                        return out;
                    }
                    delta = u32::from(u16::from_be_bytes([data[pos], data[pos + 1]])) + 269;
                    pos += 2;
                }
                15 => {
                    self.hit(Br::OptReserved15);
                    out.malformed = true;
                    return out;
                }
                _ => self.hit(Br::OptDeltaSmall),
            }
            match length {
                13 => {
                    self.hit(Br::OptLenExt13);
                    let Some(&ext) = data.get(pos) else {
                        out.malformed = true;
                        return out;
                    };
                    pos += 1;
                    length = usize::from(ext) + 13;
                }
                14 => {
                    self.hit(Br::OptLenExt14);
                    if pos + 1 >= data.len() {
                        out.malformed = true;
                        return out;
                    }
                    length = usize::from(u16::from_be_bytes([data[pos], data[pos + 1]])) + 269;
                    pos += 2;
                }
                15 => {
                    self.hit(Br::OptReserved15);
                    out.malformed = true;
                    return out;
                }
                _ => {}
            }
            option_number += delta;
            let Some(value) = data.get(pos..pos + length) else {
                out.malformed = true;
                return out;
            };
            pos += length;

            // Bug #6 (Table II): SEGV in coap_clean_options — observe
            // bookkeeping keeps a raw pointer into the option array; an
            // absurd option number makes cleanup walk past the array end.
            // Requires the non-default --observe.
            if option_number > 2000 {
                self.hit(Br::OptValueHuge);
                if self.cfg().observe {
                    out.fault = Some(
                        Fault::new(FaultKind::Segv, "coap_clean_options")
                            .with_detail("observe cleanup past option array end"),
                    );
                    return out;
                }
            }

            if length == 0 {
                self.hit(Br::OptEmptyValue);
            } else if length > 16 {
                self.hit(Br::OptLongValue);
            }
            match option_number {
                1 => self.hit(Br::OptIfMatch),
                3 => self.hit(Br::OptUriHost),
                4 => self.hit(Br::OptEtag),
                7 => self.hit(Br::OptUriPort),
                8 => self.hit(Br::OptLocationPath),
                14 => self.hit(Br::OptMaxAge),
                15 => self.hit(Br::OptUriQuery),
                17 => self.hit(Br::OptAccept),
                35 => self.hit(Br::OptProxyUri),
                60 => self.hit(Br::OptSize1),
                6 => {
                    if self.cfg().observe {
                        let register = value.first().copied().unwrap_or(0) == 0;
                        if register {
                            self.hit(Br::OptObserveRegister);
                        } else {
                            self.hit(Br::OptObserveDeregister);
                        }
                        out.observe = Some(u32::from(value.first().copied().unwrap_or(0)));
                    } else {
                        self.hit(Br::OptObserveIgnored);
                    }
                }
                11 => {
                    self.hit(Br::OptUriPath);
                    out.uri_path_segments += 1;
                    if out.uri_path_segments > 3 {
                        self.hit(Br::OptUriPathDeep);
                    }
                    // `/.well-known/core` discovery: the segment compare
                    // exposes one branch edge per matched byte.
                    if out.uri_path_segments == 1 {
                        crate::common::prefix_ladder(
                            &self.cov,
                            Br::Count as u32,
                            WELL_KNOWN_SEGMENT,
                            value,
                        );
                    }
                    if out.uri_path_segments == 2 {
                        crate::common::prefix_ladder(
                            &self.cov,
                            Br::Count as u32 + WELL_KNOWN_SEGMENT.len() as u32,
                            CORE_SEGMENT,
                            value,
                        );
                    }
                }
                12 => self.hit(Br::OptContentFormat),
                19 => {
                    if self.cfg().qblock {
                        self.hit(Br::OptQBlock1);
                        out.qblock1 = Some(decode_block(value));
                    } else {
                        self.hit(Br::OptBlockIgnored);
                    }
                }
                23 => {
                    if self.cfg().blockwise {
                        self.hit(Br::OptBlock2);
                    } else {
                        self.hit(Br::OptBlockIgnored);
                    }
                }
                27 => {
                    if self.cfg().blockwise {
                        self.hit(Br::OptBlock1);
                        out.block1 = Some(decode_block(value));
                    } else {
                        self.hit(Br::OptBlockIgnored);
                    }
                }
                n if n % 2 == 1 => self.hit(Br::OptUnknownCritical),
                _ => self.hit(Br::OptUnknownElective),
            }
        }
        out
    }

    /// The simulated `coap_handle_request_put_block` (paper Figure 5).
    fn handle_put_block(&mut self, block: u32, payload: &[u8]) -> Result<Br, Fault> {
        let num = block >> 4;
        let more = block & 0x08 != 0;
        let szx = block & 0x07;
        let block_bytes = 16usize << szx;
        if block_bytes as i64 > self.cfg().max_block_size {
            self.hit(Br::BlockSzxTooBig);
            return Ok(Br::BlockSzxTooBig);
        }
        if num == 0 {
            self.hit(Br::BlockFirst);
            // Figure 5 line 6: body_data initialized from the first block.
            self.block.body_data = Some(payload.to_vec());
            self.block.next_num = 1;
            if more {
                return Ok(Br::BlockContinue);
            }
            // Single-block transfer: complete immediately.
            self.hit(Br::BlockFinal);
            self.hit(Br::BlockReassembled);
            self.block.body_data = None;
            self.block.next_num = 0;
            return Ok(Br::BlockReassembled);
        }
        if num != self.block.next_num {
            self.hit(Br::BlockOutOfOrder);
            // Out-of-order blocks are dropped; body_data keeps whatever
            // state it had (possibly still NULL — the bug's precondition).
        } else if self.block.body_data.is_some() {
            self.hit(Br::BlockContinue);
            if let Some(body) = &mut self.block.body_data {
                body.extend_from_slice(payload);
            }
            self.block.next_num += 1;
        }
        if !more {
            // Figure 5 lines 12-20: all blocks received → give_app_data
            // dereferences body_data.
            self.hit(Br::BlockFinal);
            match self.block.body_data.take() {
                Some(_body) => {
                    self.hit(Br::BlockReassembled);
                    self.block.next_num = 0;
                    Ok(Br::BlockReassembled)
                }
                None => {
                    // Bug #8 (Table II, the paper's case study): body_data
                    // is NULL because expected blocks never arrived, yet the
                    // final Q-Block1 claims completion — NULL dereference.
                    Err(Fault::new(FaultKind::Segv, "coap_handle_request_put_block")
                        .with_detail("body_data NULL at give_app_data under Q-Block1"))
                }
            }
        } else {
            Ok(Br::BlockContinue)
        }
    }
}

/// Decodes a CoAP block option value (0–3 bytes, big-endian).
fn decode_block(value: &[u8]) -> u32 {
    value.iter().fold(0u32, |acc, &b| (acc << 8) | u32::from(b))
}

/// The declarations the server boots from; see [`Declarations`].
static DECLARED: LazyLock<Declarations> =
    LazyLock::new(|| Declarations::new(constraints(), guards()));

// The startup conflicts. `start` refuses a configuration with the reason
// of the first one it violates, in this order.
fn constraints() -> ConstraintSet {
    ConstraintSet::new()
        .with(ConfigConstraint::new(
            "dtls cannot serve multicast groups",
            vec![
                Condition::bool_is("dtls", true, false),
                Condition::bool_is("multicast", true, false),
            ],
        ))
        .with(ConfigConstraint::new(
            "resource directory requires a cache",
            vec![
                Condition::bool_is("rd-enable", true, false),
                Condition::int_equals("cache-size", 0, 100),
            ],
        ))
        .with(ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 5683)],
        ))
        .with(ConfigConstraint::new(
            "unknown block mode",
            vec![Condition::str_not_in(
                "block-mode",
                &["none", "block1", "qblock1"],
                "none",
            )],
        ))
}

// The config gates of the branches. `start` hits each startup branch
// whose guard holds; handler guards are necessary-only. `!=`-gated
// tuning branches (ack-timeout, max-sessions) are inexpressible, stay
// unguarded, and `start` hits them by hand.
fn guards() -> GuardTable {
    let startup = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Startup, conditions)
    };
    let handler = |branch: Br, region: &str, conditions: Vec<Condition>| {
        BranchGuard::new(branch as u32, region, GuardKind::Handler, conditions)
    };
    let blockwise = || Condition::str_in("block-mode", &["block1", "qblock1"], "none");
    let qblock = || Condition::str_is("block-mode", "qblock1", "none");
    let observe = || Condition::bool_is("observe", true, false);
    GuardTable::new()
        .with(startup(
            Br::StartDefaultPort,
            "start::default-port",
            vec![Condition::int_equals("port", 5683, 5683)],
        ))
        .with(startup(
            Br::StartBlockNone,
            "start::block-none",
            vec![Condition::str_is("block-mode", "none", "none")],
        ))
        .with(startup(
            Br::StartBlock1,
            "start::block1",
            vec![Condition::str_is("block-mode", "block1", "none")],
        ))
        .with(startup(Br::StartQBlock1, "start::qblock1", vec![qblock()]))
        .with(startup(
            Br::StartBlockSmall,
            "start::block-small",
            vec![blockwise(), Condition::int_below("max-block-size", 33, 64)],
        ))
        .with(startup(
            Br::StartBlockLarge,
            "start::block-large",
            vec![
                blockwise(),
                Condition::int_within("max-block-size", 512, i64::MAX, 64),
            ],
        ))
        .with(startup(
            Br::StartBlockQuickLarge,
            "start::block-quick-large",
            vec![
                qblock(),
                Condition::int_within("max-block-size", 512, i64::MAX, 64),
            ],
        ))
        .with(startup(Br::StartObserve, "start::observe", vec![observe()]))
        .with(startup(
            Br::StartObserveBlock,
            "start::observe-block",
            vec![observe(), blockwise()],
        ))
        .with(startup(
            Br::StartMulticast,
            "start::multicast",
            vec![Condition::bool_is("multicast", true, false)],
        ))
        .with(startup(
            Br::StartMulticastObserve,
            "start::multicast-observe",
            vec![Condition::bool_is("multicast", true, false), observe()],
        ))
        .with(startup(
            Br::StartDtls,
            "start::dtls",
            vec![Condition::bool_is("dtls", true, false)],
        ))
        .with(startup(
            Br::StartDtlsBlock,
            "start::dtls-block",
            vec![Condition::bool_is("dtls", true, false), blockwise()],
        ))
        .with(startup(
            Br::StartNstartTuned,
            "start::nstart-tuned",
            vec![Condition::int_within("nstart", 2, i64::MAX, 1)],
        ))
        .with(startup(
            Br::StartCacheOff,
            "start::cache-off",
            vec![Condition::int_equals("cache-size", 0, 100)],
        ))
        .with(startup(
            Br::StartRd,
            "start::rd",
            vec![Condition::bool_is("rd-enable", true, false)],
        ))
        .with(startup(
            Br::StartRdCache,
            "start::rd-cache",
            vec![
                Condition::bool_is("rd-enable", true, false),
                Condition::int_within("cache-size", 101, i64::MAX, 100),
            ],
        ))
        .with(startup(
            Br::StartRetransmitOff,
            "start::retransmit-off",
            vec![Condition::bool_is("retransmit", false, true)],
        ))
        .with(startup(
            Br::StartCongestion,
            "start::congestion",
            vec![Condition::bool_is("congestion-control", true, false)],
        ))
        .with(startup(
            Br::StartCongestionNstart,
            "start::congestion-nstart",
            vec![
                Condition::bool_is("congestion-control", true, false),
                Condition::int_within("nstart", 2, i64::MAX, 1),
            ],
        ))
        .with(handler(
            Br::OptObserveRegister,
            "option::observe-register",
            vec![observe()],
        ))
        .with(handler(
            Br::OptObserveDeregister,
            "option::observe-deregister",
            vec![observe()],
        ))
        .with(handler(
            Br::OptObserveIgnored,
            "option::observe-ignored",
            vec![Condition::bool_is("observe", false, false)],
        ))
        .with(handler(Br::OptQBlock1, "option::qblock1", vec![qblock()]))
        .with(handler(Br::OptBlock1, "option::block1", vec![blockwise()]))
        .with(handler(Br::OptBlock2, "option::block2", vec![blockwise()]))
        .with(handler(
            Br::OptBlockIgnored,
            "option::block-ignored",
            vec![Condition::str_not_in("block-mode", &["qblock1"], "none")],
        ))
        .with(handler(
            Br::QBlockFast,
            "block::qblock-fast",
            vec![qblock()],
        ))
        .with(handler(Br::BlockFirst, "block::first", vec![blockwise()]))
        .with(handler(
            Br::BlockContinue,
            "block::continue",
            vec![blockwise()],
        ))
        .with(handler(Br::BlockFinal, "block::final", vec![blockwise()]))
        .with(handler(
            Br::BlockOutOfOrder,
            "block::out-of-order",
            vec![blockwise()],
        ))
        .with(handler(
            Br::BlockSzxTooBig,
            "block::szx-too-big",
            vec![blockwise()],
        ))
        .with(handler(
            Br::BlockReassembled,
            "block::reassembled",
            vec![blockwise()],
        ))
        .with(handler(
            Br::RespCachedServed,
            "response::cached-served",
            vec![Condition::int_within("cache-size", 1, i64::MAX, 100)],
        ))
}

impl Target for Coap {
    fn name(&self) -> &str {
        "libcoap"
    }

    fn branch_count(&self) -> usize {
        Br::Count as usize + WELL_KNOWN_SEGMENT.len() + CORE_SEGMENT.len()
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![
                "  --port <num>             Listen port (default: 5683)".to_owned(),
                "  --block-mode {none,block1,qblock1}  Block-wise transfer mode (default: none)"
                    .to_owned(),
                "  --max-block-size {16,64,512,1024}   Largest block accepted (default: 64)"
                    .to_owned(),
                "  --observe                Enable resource observation".to_owned(),
                "  --multicast              Join the all-CoAP-nodes group".to_owned(),
                "  --dtls                   Serve coaps:// over DTLS".to_owned(),
                "  --nstart <1-10>          Outstanding interactions (default: 1)".to_owned(),
                "  --ack-timeout <num>      ACK timeout seconds (default: 2)".to_owned(),
                "  --max-sessions <num>     Session table size (default: 100)".to_owned(),
                "  --cache-size <num>       Response cache entries (default: 100)".to_owned(),
            ],
            files: vec![ConfigFile::named(
                "coap.conf",
                "# Simulated libcoap server configuration\n\
                 rd-enable false\n\
                 retransmit true\n\
                 congestion-control false\n\
                 psk-key /etc/coap/psk.key\n",
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
        // Startup branches the table leaves unguarded: the entry branch,
        // which it does not list, and the `!= default` tunings, which no
        // predicate states.
        self.hit(Br::StartEntry);
        if resolved.int_or("port", 5683) != 5683 {
            self.hit(Br::StartCustomPort);
        }
        if resolved.int_or("ack-timeout", 2) != 2 {
            self.hit(Br::StartAckTimeoutTuned);
        }
        if resolved.int_or("max-sessions", 100) != 100 {
            self.hit(Br::StartSessionsTuned);
        }
        if config.cache_size != 0 && config.cache_size != 100 {
            self.hit(Br::StartCacheTuned);
        }

        self.config = Some(config);
        self.block = BlockState::default();
        self.resources = 0;
        Ok(())
    }

    fn begin_session(&mut self) {
        self.block = BlockState::default();
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        if self.config.is_none() {
            return TargetResponse::empty();
        }
        if input.len() < 4 {
            self.hit(Br::HdrTooShort);
            return TargetResponse::empty();
        }
        let version = input[0] >> 6;
        if version != 1 {
            self.hit(Br::HdrBadVersion);
            return TargetResponse::empty();
        }
        let msg_type = (input[0] >> 4) & 0x03;
        match msg_type {
            0 => self.hit(Br::TypeCon),
            1 => self.hit(Br::TypeNon),
            2 => {
                self.hit(Br::TypeAck);
                self.hit(Br::PiggybackAck);
            }
            _ => {
                self.hit(Br::TypeRst);
                self.hit(Br::ResetSeen);
            }
        }
        let tkl = usize::from(input[0] & 0x0F);
        if tkl > 8 {
            self.hit(Br::TokenTooLong);
            self.hit(Br::RstSent);
            return TargetResponse::reply(vec![0x70, 0x00, input[2], input[3]]);
        }
        match tkl {
            0 => self.hit(Br::TokenEmpty),
            5..=8 => self.hit(Br::TokenLong),
            _ => {}
        }
        let code = input[1];
        let mid = [input[2], input[3]];
        if mid == [0, 0] {
            self.hit(Br::MidZero);
        }
        if input.len() < 4 + tkl {
            self.hit(Br::TokenTruncated);
            return TargetResponse::empty();
        }
        self.hit(Br::TokenOk);
        let token = input[4..4 + tkl].to_vec();
        let rest = &input[4 + tkl..];

        let method_branch = match code {
            0 => Br::MethodEmpty,
            1 => Br::MethodGet,
            2 => Br::MethodPost,
            3 => Br::MethodPut,
            4 => Br::MethodDelete,
            _ => Br::MethodUnknown,
        };
        self.hit(method_branch);

        let options = self.parse_options(rest);
        if let Some(fault) = options.fault {
            return TargetResponse::crash(fault);
        }
        if options.malformed {
            self.hit(Br::RstSent);
            return TargetResponse::reply(vec![0x70, 0x00, mid[0], mid[1]]);
        }

        let ack = |code: u8, token: &[u8]| {
            let mut reply = vec![0x60 | (token.len() as u8), code, mid[0], mid[1]];
            reply.extend_from_slice(token);
            TargetResponse::reply(reply)
        };

        match code {
            1 => {
                if options.uri_path_segments > 0 && self.resources > 0 {
                    self.hit(Br::RespGetHit);
                    if self.cfg().cache_size > 0 {
                        self.hit(Br::RespCachedServed);
                    }
                    ack(0x45, &token) // 2.05 Content
                } else {
                    self.hit(Br::RespGetMiss);
                    ack(0x84, &token) // 4.04 Not Found
                }
            }
            2 => {
                self.hit(Br::RespPostCreated);
                self.resources += 1;
                ack(0x41, &token) // 2.01 Created
            }
            3 => {
                // PUT: route through block-wise handling when enabled and a
                // block option is present.
                let block = if self.cfg().qblock {
                    options.qblock1.or(options.block1)
                } else if self.cfg().blockwise {
                    options.block1
                } else {
                    None
                };
                if let Some(block_value) = block {
                    if self.cfg().qblock && options.qblock1.is_some() {
                        self.hit(Br::QBlockFast);
                    }
                    match self.handle_put_block(block_value, &options.payload) {
                        Ok(Br::BlockReassembled) => {
                            self.hit(Br::RespPutChanged);
                            ack(0x44, &token) // 2.04 Changed
                        }
                        Ok(_) => ack(0x5F, &token), // 2.31 Continue
                        Err(fault) => TargetResponse::crash(fault),
                    }
                } else {
                    self.hit(Br::RespPutChanged);
                    self.resources += 1;
                    ack(0x44, &token)
                }
            }
            4 => {
                self.hit(Br::RespDeleteOk);
                self.resources = self.resources.saturating_sub(1);
                ack(0x42, &token) // 2.02 Deleted
            }
            _ => TargetResponse::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::ConfigValue;
    use cmfuzz_coverage::CoverageMap;

    fn started(config: &ResolvedConfig) -> (Coap, CoverageMap) {
        let mut server = Coap::new();
        let map = CoverageMap::new(server.branch_count());
        server.start(config, map.probe()).expect("starts");
        (server, map)
    }

    fn qblock_config() -> ResolvedConfig {
        let mut config = ResolvedConfig::new();
        config.set("block-mode", ConfigValue::Str("qblock1".into()));
        config
    }

    /// Builds a CoAP message: CON, given code, mid=0x1234, no token.
    fn message(code: u8, options_and_payload: &[u8]) -> Vec<u8> {
        let mut m = vec![0x40, code, 0x12, 0x34];
        m.extend_from_slice(options_and_payload);
        m
    }

    /// Encodes one option (delta from previous number, value), using the
    /// 13-extension when the delta needs it.
    fn option(prev: u32, number: u32, value: &[u8]) -> Vec<u8> {
        let delta = number - prev;
        let len = value.len();
        assert!(delta < 269 && len < 13, "test helper handles small options");
        let mut out = Vec::new();
        if delta < 13 {
            out.push(((delta as u8) << 4) | len as u8);
        } else {
            out.push(0xD0 | len as u8);
            out.push((delta - 13) as u8);
        }
        out.extend_from_slice(value);
        out
    }

    /// Q-Block1 (option 19) PUT carrying `num`, `more`, szx=0 (16-byte).
    fn qblock_put(num: u32, more: bool, payload: &[u8]) -> Vec<u8> {
        let block = (num << 4) | if more { 0x08 } else { 0x00 };
        let mut body = option(0, 19, &[block as u8]);
        body.push(0xFF);
        body.extend_from_slice(payload);
        message(3, &body)
    }

    #[test]
    fn get_miss_returns_404() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&message(1, &[]));
        assert_eq!(response.bytes[1], 0x84);
    }

    #[test]
    fn post_then_get_hits() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        server.handle(&message(2, &[]));
        let get = message(1, &option(0, 11, b"res"));
        let response = server.handle(&get);
        assert_eq!(response.bytes[1], 0x45);
    }

    #[test]
    fn bad_version_dropped() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&[0x80, 1, 0, 0]);
        assert!(response.bytes.is_empty());
    }

    #[test]
    fn long_token_gets_reset() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        let response = server.handle(&[0x4F, 1, 0, 0, 1, 2, 3]);
        assert_eq!(response.bytes[0], 0x70, "RST");
    }

    #[test]
    fn bug8_case_study_needs_qblock1() {
        // The final block claims completion but block 0 never arrived:
        // body_data is NULL at give_app_data.
        let lonely_final_block = qblock_put(3, false, b"tail");

        // Default configuration: block options are ignored, no crash —
        // "it cannot be triggered under the default configuration".
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(!server.handle(&lonely_final_block).is_crash());

        // Q-Block1 enabled: SEGV in coap_handle_request_put_block.
        let (mut server, _map) = started(&qblock_config());
        let fault = server
            .handle(&lonely_final_block)
            .fault
            .expect("bug #8 fires");
        assert_eq!(fault.kind, FaultKind::Segv);
        assert_eq!(fault.function, "coap_handle_request_put_block");
    }

    #[test]
    fn complete_blockwise_transfer_reassembles() {
        let (mut server, _map) = started(&qblock_config());
        assert_eq!(server.handle(&qblock_put(0, true, b"aaaa")).bytes[1], 0x5F);
        assert_eq!(server.handle(&qblock_put(1, true, b"bbbb")).bytes[1], 0x5F);
        let done = server.handle(&qblock_put(2, false, b"cc"));
        assert_eq!(done.bytes[1], 0x44, "2.04 Changed after reassembly");
    }

    #[test]
    fn out_of_order_block_after_first_does_not_crash() {
        let (mut server, _map) = started(&qblock_config());
        server.handle(&qblock_put(0, true, b"aaaa"));
        // Skip ahead: dropped, but body_data exists so the final is fine.
        let response = server.handle(&qblock_put(5, false, b"zz"));
        assert!(!response.is_crash());
    }

    #[test]
    fn bug7_truncated_ext_delta_needs_large_blocks() {
        // Option byte 0xE0: delta=14 (two extension bytes) but only one
        // follows.
        let truncated = message(1, &[0xE0, 0x01]);
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(
            !server.handle(&truncated).is_crash(),
            "default 64-byte blocks safe"
        );

        let mut config = ResolvedConfig::new();
        config.set("block-mode", ConfigValue::Str("block1".into()));
        config.set("max-block-size", ConfigValue::Int(1024));
        let (mut server, _map) = started(&config);
        let fault = server.handle(&truncated).fault.expect("bug #7 fires");
        assert_eq!(fault.kind, FaultKind::StackBufferOverflow);
        assert_eq!(fault.function, "CoapPDU::getOptionDelta");
    }

    #[test]
    fn bug6_huge_option_number_needs_observe() {
        // Two max-small-delta options pushing the number over 2000:
        // delta 12 repeatedly... use ext14 encoding: 0xE0, then two bytes
        // 0x07 0x00 → delta 1792+269=2061.
        let huge = message(1, &[0xE0, 0x07, 0x00]);
        let (mut server, _map) = started(&ResolvedConfig::new());
        assert!(!server.handle(&huge).is_crash(), "no observe, no crash");

        let mut config = ResolvedConfig::new();
        config.set("observe", ConfigValue::Bool(true));
        let (mut server, _map) = started(&config);
        let fault = server.handle(&huge).fault.expect("bug #6 fires");
        assert_eq!(fault.kind, FaultKind::Segv);
        assert_eq!(fault.function, "coap_clean_options");
    }

    #[test]
    fn dtls_multicast_conflict_fails_startup() {
        let mut config = ResolvedConfig::new();
        config.set("dtls", ConfigValue::Bool(true));
        config.set("multicast", ConfigValue::Bool(true));
        let mut server = Coap::new();
        let map = CoverageMap::new(server.branch_count());
        assert!(server.start(&config, map.probe()).is_err());
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn rd_without_cache_conflicts() {
        let mut config = ResolvedConfig::new();
        config.set("rd-enable", ConfigValue::Bool(true));
        config.set("cache-size", ConfigValue::Int(0));
        let mut server = Coap::new();
        let map = CoverageMap::new(server.branch_count());
        assert!(server.start(&config, map.probe()).is_err());
    }

    #[test]
    fn blockwise_config_expands_startup_coverage() {
        let (_, default_map) = started(&ResolvedConfig::new());
        let mut config = qblock_config();
        config.set("max-block-size", ConfigValue::Int(1024));
        let (_, block_map) = started(&config);
        assert!(block_map.covered_count() > default_map.covered_count());
    }

    #[test]
    fn observe_option_gated_on_config() {
        let observe_get = message(1, &option(0, 6, &[0]));
        let (mut server, map) = started(&ResolvedConfig::new());
        server.handle(&observe_get);
        assert_eq!(
            map.hit_count(cmfuzz_coverage::BranchId::from_index(
                Br::OptObserveRegister as u32
            )),
            0
        );
        let mut config = ResolvedConfig::new();
        config.set("observe", ConfigValue::Bool(true));
        let (mut server, map) = started(&config);
        server.handle(&observe_get);
        assert_eq!(
            map.hit_count(cmfuzz_coverage::BranchId::from_index(
                Br::OptObserveRegister as u32
            )),
            1
        );
    }

    #[test]
    fn garbage_inputs_never_crash_under_defaults() {
        let (mut server, _map) = started(&ResolvedConfig::new());
        for len in 0..48usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 91 + 7) as u8).collect();
            assert!(!server.handle(&junk).is_crash(), "junk {junk:?} crashed");
        }
    }

    #[test]
    fn begin_session_clears_block_state() {
        let (mut server, _map) = started(&qblock_config());
        server.handle(&qblock_put(0, true, b"aaaa"));
        server.begin_session();
        // After reset, a lonely final block finds NULL body_data → bug #8.
        assert!(server.handle(&qblock_put(1, false, b"x")).is_crash());
    }

    #[test]
    fn config_space_extracts_expected_entities() {
        let server = Coap::new();
        let model = cmfuzz_config_model::extract_model(&server.config_space());
        assert!(model.len() >= 13, "got {}", model.len());
        let block_mode = model.entity("block-mode").expect("present");
        assert!(block_mode.values().len() >= 3, "candidates extracted");
        assert!(!model.entity("psk-key").unwrap().is_mutable());
    }
}
