//! Bringing your own protocol: implement [`Target`] for a toy
//! length-prefixed echo protocol and let CMFuzz schedule its configuration
//! space — the adoption path for a downstream user with a new IoT stack.
//!
//! ```sh
//! cargo run --release --example custom_protocol
//! ```

use cmfuzz::campaign::{run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_config_model::{ConfigFile, ConfigSpace, ConfigValue, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageProbe, Ticks};
use cmfuzz_fuzzer::{Fault, FaultKind, StartError, Target, TargetResponse};
use cmfuzz_protocols::ProtocolSpec;

/// A toy "ECHO" protocol: `len(u8) | flags(u8) | payload`. Two
/// configuration items gate behaviour: `compression` enables a second
/// parsing path, and `strict` rejects oversized frames. The seeded bug
/// needs compression on *and* a lying length byte.
#[derive(Default)]
struct EchoTarget {
    probe: Option<CoverageProbe>,
    compression: bool,
    strict: bool,
    max_frame: i64,
}

const BR_START: u32 = 0;
const BR_START_COMPRESSION: u32 = 1;
const BR_START_STRICT: u32 = 2;
const BR_START_BOTH: u32 = 3;
const BR_FRAME_OK: u32 = 4;
const BR_FRAME_SHORT: u32 = 5;
const BR_FRAME_OVERSIZE: u32 = 6;
const BR_COMPRESSED: u32 = 7;
const BR_FLAG_UNKNOWN: u32 = 8;
const BR_COUNT: usize = 9;

impl EchoTarget {
    fn hit(&self, index: u32) {
        if let Some(probe) = &self.probe {
            probe.hit(BranchId::from_index(index));
        }
    }
}

impl Target for EchoTarget {
    fn name(&self) -> &str {
        "echo"
    }

    fn branch_count(&self) -> usize {
        BR_COUNT
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec!["--max-frame <num>   Largest frame (default: 64)".to_owned()],
            files: vec![ConfigFile::named(
                "echo.conf",
                "compression false\nstrict true\n",
            )],
        }
    }

    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        let compression = config.bool_or("compression", false);
        let strict = config.bool_or("strict", true);
        let max_frame = config.int_or("max-frame", 64);
        if max_frame < 2 {
            return Err(StartError::new("max-frame below header size"));
        }
        self.probe = Some(probe);
        self.compression = compression;
        self.strict = strict;
        self.max_frame = max_frame;
        self.hit(BR_START);
        if compression {
            self.hit(BR_START_COMPRESSION);
        }
        if strict {
            self.hit(BR_START_STRICT);
        }
        if compression && !strict {
            self.hit(BR_START_BOTH);
        }
        Ok(())
    }

    fn begin_session(&mut self) {}

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        let (Some(&len), Some(&flags)) = (input.first(), input.get(1)) else {
            self.hit(BR_FRAME_SHORT);
            return TargetResponse::empty();
        };
        let payload = &input[2..];
        if self.strict && payload.len() as i64 > self.max_frame {
            self.hit(BR_FRAME_OVERSIZE);
            return TargetResponse::empty();
        }
        if flags & 0x01 != 0 {
            if self.compression {
                self.hit(BR_COMPRESSED);
                // The bug: decompression trusts the length byte.
                if usize::from(len) > payload.len() + 8 {
                    return TargetResponse::crash(
                        Fault::new(FaultKind::HeapBufferOverflow, "echo_decompress")
                            .with_detail("length byte exceeds payload"),
                    );
                }
            } else {
                self.hit(BR_FLAG_UNKNOWN);
            }
        }
        self.hit(BR_FRAME_OK);
        TargetResponse::reply(payload.to_vec())
    }
}

const ECHO_PIT: &str = r#"<Peach>
  <DataModel name="Frame">
    <LengthOf name="len" of="payload" size="8"/>
    <Number name="flags" size="8" value="0"/>
    <Blob name="payload" value="hello-echo"/>
  </DataModel>
  <StateModel name="EchoSession" initialState="Init">
    <State name="Init">
      <Action dataModel="Frame" next="Init" expect="nonempty"/>
    </State>
  </StateModel>
</Peach>"#;

fn main() {
    let spec = ProtocolSpec {
        name: "echo",
        protocol: "ECHO",
        build: || Box::new(EchoTarget::default()),
        pit_document: ECHO_PIT,
    };

    // Schedule the custom target's configuration space.
    let mut scratch = (spec.build)();
    let schedule = build_schedule(&mut scratch, 2, &ScheduleOptions::default());
    println!("echo protocol: {} entities extracted", schedule.model.len());
    for plan in &schedule.plans {
        println!("  instance {} owns {:?}", plan.index, plan.entities);
    }

    // And fuzz it.
    let setups: Vec<InstanceSetup> = schedule
        .plans
        .iter()
        .map(|plan| InstanceSetup {
            initial_config: plan.initial_config.clone(),
            adaptive_entities: plan
                .entities
                .iter()
                .filter_map(|name| schedule.model.entity(name))
                .map(|e| (e.name().to_owned(), e.values().to_vec()))
                .collect(),
            session_plans: Vec::new(),
        })
        .collect();
    let options = CampaignOptions {
        instances: setups.len(),
        budget: Ticks::new(3_000),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(300),
        seed: 3,
        ..CampaignOptions::default()
    };
    let result = run_campaign(&spec, "cmfuzz", &setups, &options);
    println!(
        "\nfuzzed {} ticks x {} instances: {} branches, {} faults",
        options.budget,
        result.instances,
        result.final_branches(),
        result.faults.unique_count()
    );
    for fault in result.faults.faults() {
        println!("  - {fault}");
    }

    // Show that the default configuration cannot reach the bug.
    let mut victim = EchoTarget::default();
    let map = cmfuzz_coverage::CoverageMap::new(victim.branch_count());
    victim.start(&ResolvedConfig::new(), map.probe()).unwrap();
    let exploit = [200u8, 0x01, b'x'];
    println!(
        "\nexploit under defaults crashes: {}",
        victim.handle(&exploit).is_crash()
    );
    let mut config = ResolvedConfig::new();
    config.set("compression", ConfigValue::Bool(true));
    let map = cmfuzz_coverage::CoverageMap::new(victim.branch_count());
    victim.start(&config, map.probe()).unwrap();
    println!(
        "exploit with compression crashes: {}",
        victim.handle(&exploit).is_crash()
    );
}
