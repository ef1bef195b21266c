//! Mutation plans must be byte-for-byte equivalent to the interpreted
//! renderer on every subject's Pit — pristine and under field-level
//! mutation.
//!
//! `Generator::render` of a model that `Mutator::mutate_model` perturbed
//! is the reference semantics; `MutationPlan` is the hot-loop
//! replacement, which patches the pristine bytes instead. Any divergence
//! would silently change what every fuzzer sends on the wire, so this
//! suite sweeps all six protocol Pits and checks both the bytes and the
//! mutator's RNG position after every mutation.

use cmfuzz_fuzzer::{pit, Generator, MutationPlan, Mutator};
use cmfuzz_protocols::all_specs;

#[test]
fn compiled_render_matches_interpreter_on_all_pristine_models() {
    for spec in all_specs() {
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        for model in parsed.data_models() {
            assert_eq!(
                MutationPlan::new(model).pristine(),
                Generator::render(model),
                "{}/{}: plan diverged on the pristine model",
                spec.name,
                model.name()
            );
        }
    }
}

#[test]
fn compiled_render_matches_interpreter_under_mutation() {
    for spec in all_specs() {
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        for model in parsed.data_models() {
            // One plan and one output buffer reused across every round,
            // as in the engine's arena; each round mutates a fresh clone.
            let plan = MutationPlan::new(model);
            let mut planned = Mutator::new(0x5e55_1015);
            let mut reference = Mutator::new(0x5e55_1015);
            let mut patched = Vec::new();
            for round in 0..50 {
                patched.clear();
                plan.mutate_into(&mut planned, &mut patched);
                let mut clone = model.clone();
                reference.mutate_model(&mut clone);
                assert_eq!(
                    patched,
                    Generator::render(&clone),
                    "{}/{} round {round}: plan diverged after mutation",
                    spec.name,
                    model.name()
                );
                assert_eq!(
                    planned.rng_state(),
                    reference.rng_state(),
                    "{}/{} round {round}: plan drew differently from mutate_model",
                    spec.name,
                    model.name()
                );
            }
        }
    }
}
