//! Set-up pin: everything a campaign's set-up phase derives before the
//! first session runs.
//!
//! For each of the six subjects at 1, 2 and 4 partitions, one FNV-1a
//! digest folds in the extracted model's entity names, the relation
//! graph (`RelationGraph::to_dot`), every plan's entities and startup
//! configuration, the number of startup probes value selection spent,
//! each instance's partition reachability (`render_text` and report) and
//! the campaign preflight's report. A second digest covers the fleet
//! preflight over the benchmark-shaped fleet of 18 single-partition
//! campaigns, alone and with a broken-pit entry and a bad session plan
//! appended. Any change to what set-up decides, or to how it reports it,
//! moves a digest.

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::InstanceSetup;
use cmfuzz::preflight::{
    analyze_fleet_schedule, analyze_reachability_for, preflight_campaign, FleetEntryView,
};
use cmfuzz::schedule::{build_schedule_with_telemetry, ScheduleOptions};
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fuzzer::pit;
use cmfuzz_protocols::{all_specs, ProtocolSpec};
use cmfuzz_telemetry::Telemetry;

/// FNV-1a 64-bit, so the digest does not depend on `std`'s hasher keys.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes `text` followed by a separator, so adjacent fields cannot
    /// run into each other.
    fn field(&mut self, text: &str) {
        self.write(text.as_bytes());
        self.write(b"\x1f");
    }
}

/// Digest of one subject's set-up at `partitions` instances, and the
/// startup probes its value selection spent.
fn setup_digest(spec: &ProtocolSpec, partitions: usize) -> (u64, u64) {
    let mut target = (spec.build)();
    let telemetry = Telemetry::builder(VirtualClock::new()).build();
    let schedule = build_schedule_with_telemetry(
        &mut target,
        partitions,
        &ScheduleOptions::default(),
        &telemetry,
    );
    let probes = telemetry
        .metrics_snapshot()
        .counter("schedule.startup_probes")
        .unwrap_or(0);

    let mut fnv = Fnv::new();
    for entity in schedule.model.entities() {
        fnv.field(entity.name());
    }
    fnv.field(&schedule.graph.to_dot(spec.name));
    for plan in &schedule.plans {
        fnv.field(&plan.index.to_string());
        for entity in &plan.entities {
            fnv.field(entity);
        }
        fnv.field(&plan.initial_config.to_string());
    }
    fnv.field(&probes.to_string());

    let setups = cmfuzz_setups(&schedule, partitions);
    let reach = analyze_reachability_for(spec, &setups);
    for analysis in reach.instances() {
        fnv.field(&analysis.render_text());
        fnv.field(&analysis.report().render_text());
    }
    let parsed = pit::parse(spec.pit_document).expect("registry pit parses");
    let preflight = preflight_campaign(spec, &parsed, &setups, &Telemetry::disabled());
    fnv.field(&preflight.render_text());
    (fnv.0, probes)
}

/// (subject, partitions, startup probes, FNV-1a of the set-up).
const EXPECTED: [(&str, usize, u64, u64); 18] = [
    ("mosquitto", 1, 51, 0x91dc_0fbc_4fb0_0b17),
    ("mosquitto", 2, 54, 0x5868_f23c_6495_c8e0),
    ("mosquitto", 4, 60, 0xb014_46fb_41f4_daa1),
    ("libcoap", 1, 49, 0x6531_b63f_303b_bc9d),
    ("libcoap", 2, 52, 0x2baf_af5c_66fd_e30b),
    ("libcoap", 4, 58, 0x5327_65eb_8f71_d335),
    ("cyclonedds", 1, 43, 0xe64e_720d_dfb2_29b0),
    ("cyclonedds", 2, 46, 0x0838_bdd7_394f_5ca4),
    ("cyclonedds", 4, 52, 0x9bf5_2055_0b02_4beb),
    ("openssl", 1, 38, 0xb8e2_cc1b_75d9_69fd),
    ("openssl", 2, 41, 0x0409_2230_3962_2990),
    ("openssl", 4, 47, 0x3b5f_72e6_56d7_fff1),
    ("qpid", 1, 40, 0xd78f_9eeb_6d9f_7104),
    ("qpid", 2, 43, 0xa897_c5fe_c3a2_dc71),
    ("qpid", 4, 49, 0xf74f_e900_5737_0430),
    ("dnsmasq", 1, 39, 0xe075_cc8a_9f09_0513),
    ("dnsmasq", 2, 42, 0x3ca1_4ff3_d123_1261),
    ("dnsmasq", 4, 48, 0x54da_3798_099d_2b16),
];

#[test]
fn setup_outputs_match_pinned_digests() {
    let mut actual = Vec::new();
    for spec in all_specs() {
        for partitions in [1, 2, 4] {
            let (digest, probes) = setup_digest(&spec, partitions);
            actual.push((spec.name, partitions, probes, digest));
        }
    }
    assert_eq!(actual, EXPECTED, "set-up outputs drifted");
}

type Campaign = (String, ProtocolSpec, Vec<InstanceSetup>);

fn view(campaigns: &[Campaign]) -> Vec<FleetEntryView<'_>> {
    campaigns
        .iter()
        .map(|(id, spec, setups)| FleetEntryView {
            id,
            spec,
            budget: Ticks::new(20_000),
            setups,
        })
        .collect()
}

/// FNV-1a of the fleet preflight's text over the benchmark's fleet shape:
/// every subject split into 3 single-partition campaigns.
const EXPECTED_FLEET: u64 = 0xba3d_ecd9_842c_4033;

#[test]
fn fleet_preflight_matches_its_pinned_digest() {
    let specs = all_specs();
    let mut campaigns: Vec<Campaign> = Vec::new();
    for spec in &specs {
        let mut target = (spec.build)();
        let schedule = build_schedule_with_telemetry(
            &mut target,
            3,
            &ScheduleOptions::default(),
            &Telemetry::disabled(),
        );
        for (part, setup) in cmfuzz_setups(&schedule, 3).into_iter().enumerate() {
            campaigns.push((format!("{}/part-{part}", spec.name), *spec, vec![setup]));
        }
    }
    assert_eq!(campaigns.len(), 18, "benchmark-shaped fleet");
    let mut fnv = Fnv::new();
    fnv.field(&analyze_fleet_schedule(&view(&campaigns)).render_text());

    // The same fleet with two entries reusing mosquitto's name over a
    // document that does not parse, and one plan naming an absent model.
    let broken = ProtocolSpec {
        pit_document: "<Peach><DataModel></Peach>",
        ..specs[0]
    };
    let bad_plan = InstanceSetup {
        session_plans: vec![vec!["NoSuchModel".to_owned()]],
        ..InstanceSetup::default()
    };
    for id in ["broken/a", "broken/b"] {
        campaigns.push((id.to_owned(), broken, vec![InstanceSetup::default()]));
    }
    campaigns.push(("plan/bad".to_owned(), specs[5], vec![bad_plan]));
    let report = analyze_fleet_schedule(&view(&campaigns));
    assert_eq!(
        report
            .diagnostics()
            .iter()
            .filter(|d| d.code() == "CM052")
            .count(),
        2,
        "every entry over a broken document is reported"
    );
    fnv.field(&report.render_text());
    assert_eq!(fnv.0, EXPECTED_FLEET, "fleet preflight drifted");
}
