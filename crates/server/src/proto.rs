//! The control-plane wire protocol: requests, responses, and campaign
//! submissions.
//!
//! Everything on the wire is line-delimited JSON, one value per line, in
//! both directions. Requests are flat objects with a `cmd` discriminator;
//! responses always carry an `ok` boolean, and failures add `error` plus
//! an `exit_code` following the repo-wide convention (see the "Exit
//! codes" table in README.md) so clients can propagate it as a process
//! status. A [`Submission`] is pure data — materializing it into
//! [`FleetCampaign`]s is a deterministic function, which is what lets the
//! soak gate replay the same submission through an offline
//! [`cmfuzz_fleet::run_fleet`] and demand bit-identical campaign results.

use std::fmt;

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::metrics::CampaignResult;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::FleetCampaign;
use cmfuzz_protocols::spec_by_name;
use cmfuzz_telemetry::json::{parse, JsonValue, ObjectWriter};

/// A submitted `instances` count above
/// [`CampaignSubmission::MAX_INSTANCES`].
///
/// Admission checks the bound before anything is sized from the
/// submission; a violation is a preflight rejection (exit code 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundError {
    /// Campaign id the count belongs to.
    pub id: String,
    /// The submitted `instances`.
    pub instances: u64,
}

impl BoundError {
    /// The exit code a bound violation carries (preflight rejection).
    pub const EXIT_CODE: i32 = 3;
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign {:?}: \"instances\" is {}, above the admission bound {}",
            self.id,
            self.instances,
            CampaignSubmission::MAX_INSTANCES
        )
    }
}

impl std::error::Error for BoundError {}

/// One campaign requested by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSubmission {
    /// Fleet-unique campaign id.
    pub id: String,
    /// Subject name, resolved through [`spec_by_name`].
    pub subject: String,
    /// Parallel instances (also the relation-aware partition count).
    pub instances: usize,
    /// Per-campaign budget in virtual ticks.
    pub budget: u64,
    /// Coverage sampling interval (round length) in virtual ticks.
    pub sample_interval: u64,
    /// Stagnation window before adaptive configuration mutation.
    pub saturation_window: u64,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Rare-seed sharing group, if any.
    pub share_group: Option<String>,
    /// Admit in the paused state: the campaign is staged but never
    /// scheduled until an explicit `resume`. Applied atomically with
    /// admission, so a pre-paused campaign runs zero waves beforehand.
    pub paused: bool,
}

/// A batch of campaigns submitted together (admitted all-or-nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The campaigns, in client order.
    pub campaigns: Vec<CampaignSubmission>,
}

impl Submission {
    /// Parses a submission from its JSON value
    /// (`{"campaigns": [{...}, ...]}`).
    ///
    /// # Errors
    ///
    /// A human-oriented message naming the first malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let campaigns = value
            .get("campaigns")
            .and_then(JsonValue::as_array)
            .ok_or("submission needs a \"campaigns\" array")?;
        if campaigns.is_empty() {
            return Err("submission needs at least one campaign".into());
        }
        let campaigns = campaigns
            .iter()
            .map(CampaignSubmission::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Submission { campaigns })
    }

    /// Checks every campaign's `instances` against
    /// [`CampaignSubmission::MAX_INSTANCES`], the one count admission
    /// bounds.
    ///
    /// # Errors
    ///
    /// The first [`BoundError`], in campaign order.
    pub fn check_bounds(&self) -> Result<(), BoundError> {
        let oversized = self
            .campaigns
            .iter()
            .find(|c| c.instances > CampaignSubmission::MAX_INSTANCES);
        match oversized {
            Some(campaign) => Err(BoundError {
                id: campaign.id.clone(),
                instances: campaign.instances as u64,
            }),
            None => Ok(()),
        }
    }

    /// Parses a submission from JSON text.
    ///
    /// # Errors
    ///
    /// As [`Submission::from_json`], plus JSON syntax errors.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let value = parse(text).map_err(|e| format!("submission is not JSON: {e}"))?;
        Submission::from_json(&value)
    }

    /// Renders the submission back to JSON (the client side of the wire).
    #[must_use]
    pub fn to_json(&self) -> String {
        let campaigns = self
            .campaigns
            .iter()
            .map(CampaignSubmission::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let mut obj = ObjectWriter::new();
        obj.raw_field("campaigns", &format!("[{campaigns}]"));
        obj.finish()
    }

    /// Materializes the submission into fleet campaigns: each subject's
    /// relation-aware schedule is built for `instances` partitions and
    /// converted into CMFuzz instance setups, as the partition fleet of
    /// `cmfuzz-bench` is built. Pure and deterministic — the same submission
    /// always yields the same campaigns, on the server or offline.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown subject.
    pub fn materialize(&self) -> Result<Vec<FleetCampaign>, String> {
        self.campaigns
            .iter()
            .map(|campaign| {
                let spec = spec_by_name(&campaign.subject)
                    .ok_or_else(|| format!("unknown subject {:?}", campaign.subject))?;
                let mut scratch = (spec.build)();
                let schedule = build_schedule(
                    &mut scratch,
                    campaign.instances,
                    &ScheduleOptions::default(),
                );
                let setups = cmfuzz_setups(&schedule, campaign.instances);
                let options = CampaignOptions {
                    instances: campaign.instances,
                    budget: Ticks::new(campaign.budget),
                    sample_interval: Ticks::new(campaign.sample_interval),
                    saturation_window: Ticks::new(campaign.saturation_window),
                    seed: campaign.seed,
                    worker_pool: false,
                    ..CampaignOptions::default()
                };
                Ok(FleetCampaign {
                    id: campaign.id.clone(),
                    spec,
                    fuzzer: "cmfuzz".into(),
                    setups,
                    options,
                    share_group: campaign.share_group.clone(),
                })
            })
            .collect()
    }
}

impl CampaignSubmission {
    /// Field defaults: 100-tick rounds, 200-tick saturation window.
    pub const DEFAULT_SAMPLE_INTERVAL: u64 = 100;
    /// See [`CampaignSubmission::DEFAULT_SAMPLE_INTERVAL`].
    pub const DEFAULT_SATURATION_WINDOW: u64 = 200;

    /// The most parallel instances one campaign may ask for. The paper and
    /// every in-tree caller use at most 4. `instances` is the only count
    /// that sizes an allocation at admission: the schedule's partitions,
    /// the instance setups, and one booted engine and target per instance.
    /// The other counts size nothing. `budget` (and `extend`'s `budget`)
    /// over `sample_interval` is a round count, and a run grows by one
    /// curve point per round it actually executes; `saturation_window` is
    /// only compared against elapsed ticks. They keep their lower bound of
    /// 1 and no upper one.
    pub const MAX_INSTANCES: usize = 64;

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or("campaign needs a string \"id\"")?;
        let subject = value
            .get("subject")
            .and_then(JsonValue::as_str)
            .ok_or("campaign needs a string \"subject\"")?;
        let budget = value
            .get("budget")
            .and_then(JsonValue::as_u64)
            .filter(|&n| n > 0)
            .ok_or("campaign needs a positive \"budget\"")?;
        let instances = value
            .get("instances")
            .map(|v| {
                v.as_u64()
                    .filter(|&n| n > 0)
                    .ok_or("\"instances\" must be a positive integer")
            })
            .transpose()?
            .unwrap_or(1);
        let sample_interval = value
            .get("sample_interval")
            .map(|v| {
                v.as_u64()
                    .filter(|&n| n > 0)
                    .ok_or("\"sample_interval\" must be a positive integer")
            })
            .transpose()?
            .unwrap_or(CampaignSubmission::DEFAULT_SAMPLE_INTERVAL);
        let saturation_window = value
            .get("saturation_window")
            .map(|v| {
                v.as_u64()
                    .filter(|&n| n > 0)
                    .ok_or("\"saturation_window\" must be a positive integer")
            })
            .transpose()?
            .unwrap_or(CampaignSubmission::DEFAULT_SATURATION_WINDOW);
        let seed = value
            .get("seed")
            .map(|v| v.as_u64().ok_or("\"seed\" must be an unsigned integer"))
            .transpose()?
            .unwrap_or(0);
        let share_group = match value.get("share_group") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("\"share_group\" must be a string or null")?
                    .to_owned(),
            ),
        };
        let paused = value
            .get("paused")
            .map(|v| v.as_bool().ok_or("\"paused\" must be a boolean"))
            .transpose()?
            .unwrap_or(false);
        #[allow(clippy::cast_possible_truncation)]
        Ok(CampaignSubmission {
            id: id.to_owned(),
            subject: subject.to_owned(),
            instances: instances as usize,
            budget,
            sample_interval,
            saturation_window,
            seed,
            share_group,
            paused,
        })
    }

    fn to_json(&self) -> String {
        let mut obj = ObjectWriter::new();
        obj.str_field("id", &self.id);
        obj.str_field("subject", &self.subject);
        obj.u64_field("instances", self.instances as u64);
        obj.u64_field("budget", self.budget);
        obj.u64_field("sample_interval", self.sample_interval);
        obj.u64_field("saturation_window", self.saturation_window);
        obj.u64_field("seed", self.seed);
        match &self.share_group {
            Some(group) => obj.str_field("share_group", group),
            None => obj.raw_field("share_group", "null"),
        }
        obj.raw_field("paused", if self.paused { "true" } else { "false" });
        obj.finish()
    }
}

/// One parsed control-plane request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a batch of campaigns.
    Submit(Submission),
    /// Status rows for every campaign.
    Status,
    /// Pause a campaign (takes effect at its next round boundary).
    Pause {
        /// Campaign id.
        id: String,
    },
    /// Resume a paused campaign.
    Resume {
        /// Campaign id.
        id: String,
    },
    /// Permanently remove a campaign from scheduling.
    Kill {
        /// Campaign id.
        id: String,
    },
    /// Extend a campaign's budget (the only live reconfiguration).
    Extend {
        /// Campaign id.
        id: String,
        /// New, strictly larger budget in virtual ticks.
        budget: u64,
    },
    /// Deterministic digest of a campaign's current result.
    Result {
        /// Campaign id.
        id: String,
    },
    /// Metrics registry snapshot (bus and fan-out counters included).
    Metrics,
    /// Switch this connection to a streaming telemetry tail.
    Tail,
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-oriented message; the server returns it with exit code 2
    /// (operational/usage) semantics.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let value = parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
        let cmd = value
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string \"cmd\"")?;
        let id_field = || {
            value
                .get("id")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{cmd:?} needs a string \"id\""))
        };
        match cmd {
            "submit" => Ok(Request::Submit(Submission::from_json(
                value.get("fleet").unwrap_or(&value),
            )?)),
            "status" => Ok(Request::Status),
            "pause" => Ok(Request::Pause { id: id_field()? }),
            "resume" => Ok(Request::Resume { id: id_field()? }),
            "kill" => Ok(Request::Kill { id: id_field()? }),
            "extend" => Ok(Request::Extend {
                id: id_field()?,
                budget: value
                    .get("budget")
                    .and_then(JsonValue::as_u64)
                    .filter(|&n| n > 0)
                    .ok_or("\"extend\" needs a positive \"budget\"")?,
            }),
            "result" => Ok(Request::Result { id: id_field()? }),
            "metrics" => Ok(Request::Metrics),
            "tail" => Ok(Request::Tail),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    /// Renders the request as one wire line (no trailing newline) — the
    /// client side of [`Request::parse_line`].
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut obj = ObjectWriter::new();
        match self {
            Request::Submit(submission) => {
                obj.str_field("cmd", "submit");
                obj.raw_field("fleet", &submission.to_json());
            }
            Request::Status => obj.str_field("cmd", "status"),
            Request::Pause { id } => {
                obj.str_field("cmd", "pause");
                obj.str_field("id", id);
            }
            Request::Resume { id } => {
                obj.str_field("cmd", "resume");
                obj.str_field("id", id);
            }
            Request::Kill { id } => {
                obj.str_field("cmd", "kill");
                obj.str_field("id", id);
            }
            Request::Extend { id, budget } => {
                obj.str_field("cmd", "extend");
                obj.str_field("id", id);
                obj.u64_field("budget", *budget);
            }
            Request::Result { id } => {
                obj.str_field("cmd", "result");
                obj.str_field("id", id);
            }
            Request::Metrics => obj.str_field("cmd", "metrics"),
            Request::Tail => obj.str_field("cmd", "tail"),
            Request::Shutdown => obj.str_field("cmd", "shutdown"),
        }
        obj.finish()
    }
}

/// Renders a success response with extra already-rendered JSON fields.
#[must_use]
pub fn ok_response(fields: &[(&str, String)]) -> String {
    let mut obj = ObjectWriter::new();
    obj.raw_field("ok", "true");
    for (name, json) in fields {
        obj.raw_field(name, json);
    }
    obj.finish()
}

/// Renders a failure response carrying the repo-convention exit code the
/// client should propagate (2 operational, 3 preflight/model).
#[must_use]
pub fn error_response(exit_code: i32, message: &str) -> String {
    let mut obj = ObjectWriter::new();
    obj.raw_field("ok", "false");
    obj.raw_field("exit_code", &exit_code.to_string());
    obj.str_field("error", message);
    obj.finish()
}

/// FNV-1a over `text`, rendered as 16 hex digits — the digest the control
/// plane exposes for campaign results. Stable, dependency-free, and
/// matched by the offline gate.
#[must_use]
pub fn fnv1a_hex(text: &str) -> String {
    let mut hasher = Fnv1a::default();
    hasher.push(text);
    hasher.hex()
}

/// The deterministic digest of one campaign result: FNV-1a over the full
/// `Debug` render, the same fingerprint the determinism tests pin. The
/// render is streamed through the hash, so the digest needs no buffer
/// the size of the result (a served campaign's result grows with every
/// round it runs).
#[must_use]
pub fn result_digest(result: &CampaignResult) -> String {
    let mut hasher = Fnv1a::default();
    fmt::write(&mut hasher, format_args!("{result:?}")).expect("hashing cannot fail");
    hasher.hex()
}

/// An FNV-1a hash fed by `fmt::Write`.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn push(&mut self, text: &str) {
        for byte in text.as_bytes() {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.push(text);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission() -> Submission {
        Submission {
            campaigns: vec![CampaignSubmission {
                id: "m/0".into(),
                subject: "mosquitto".into(),
                instances: 2,
                budget: 400,
                sample_interval: 100,
                saturation_window: 200,
                seed: 3,
                share_group: Some("mqtt".into()),
                paused: false,
            }],
        }
    }

    #[test]
    fn submission_round_trips_through_json() {
        let original = submission();
        let parsed = Submission::from_json_text(&original.to_json()).expect("round trip");
        assert_eq!(parsed, original);
    }

    #[test]
    fn submission_defaults_and_rejections() {
        let minimal = Submission::from_json_text(
            r#"{"campaigns":[{"id":"x","subject":"dnsmasq","budget":200}]}"#,
        )
        .expect("minimal submission");
        let campaign = &minimal.campaigns[0];
        assert_eq!(campaign.instances, 1);
        assert_eq!(campaign.sample_interval, 100);
        assert_eq!(campaign.saturation_window, 200);
        assert_eq!(campaign.seed, 0);
        assert_eq!(campaign.share_group, None);
        assert!(!campaign.paused);

        for bad in [
            r#"{}"#,
            r#"{"campaigns":[]}"#,
            r#"{"campaigns":[{"subject":"dnsmasq","budget":200}]}"#,
            r#"{"campaigns":[{"id":"x","subject":"dnsmasq"}]}"#,
            r#"{"campaigns":[{"id":"x","subject":"dnsmasq","budget":0}]}"#,
            r#"{"campaigns":[{"id":"x","subject":"dnsmasq","budget":200,"instances":0}]}"#,
        ] {
            assert!(Submission::from_json_text(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let campaigns_a = submission().materialize().expect("known subject");
        let campaigns_b = submission().materialize().expect("known subject");
        assert_eq!(campaigns_a.len(), 1);
        assert_eq!(campaigns_a[0].setups.len(), 2);
        assert_eq!(
            format!("{:?}", campaigns_a[0].setups),
            format!("{:?}", campaigns_b[0].setups),
        );
        let mut unknown = submission();
        unknown.campaigns[0].subject = "no-such-subject".into();
        assert!(unknown.materialize().is_err());
    }

    #[test]
    fn instances_are_bounded_at_admission() {
        let mut at_bound = submission();
        at_bound.campaigns[0].instances = CampaignSubmission::MAX_INSTANCES;
        assert_eq!(at_bound.check_bounds(), Ok(()));
        let parsed = Submission::from_json_text(
            r#"{"campaigns":[{"id":"x","subject":"dnsmasq","budget":200,"instances":4000000000}]}"#,
        )
        .expect("the count parses; admission bounds it");
        let error = parsed.check_bounds().expect_err("above the bound");
        assert_eq!(
            error,
            BoundError {
                id: "x".into(),
                instances: 4_000_000_000,
            }
        );
        assert!(error.to_string().contains("\"instances\" is 4000000000"));
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let requests = [
            Request::Submit(submission()),
            Request::Status,
            Request::Pause { id: "m/0".into() },
            Request::Resume { id: "m/0".into() },
            Request::Kill { id: "m/0".into() },
            Request::Extend {
                id: "m/0".into(),
                budget: 800,
            },
            Request::Result { id: "m/0".into() },
            Request::Metrics,
            Request::Tail,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert_eq!(
                Request::parse_line(&line).expect("round trip"),
                request,
                "{line}"
            );
        }
        assert!(Request::parse_line("{\"cmd\":\"warp\"}").is_err());
        assert!(Request::parse_line("not json").is_err());
    }

    #[test]
    fn responses_are_valid_json() {
        use cmfuzz_telemetry::json::is_valid;
        assert!(is_valid(&ok_response(&[("admitted", "[\"a\"]".into())])));
        let err = error_response(3, "preflight \"rejected\"");
        assert!(is_valid(&err));
        assert!(err.contains("\"exit_code\":3"));
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
        assert_ne!(fnv1a_hex("fleet"), fnv1a_hex("fleer"));
    }
}
