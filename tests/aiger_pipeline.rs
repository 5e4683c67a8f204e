//! End-to-end AIGER pipeline: export every suitable benchmark model,
//! re-import it (through both formats), and verify the engines reach
//! the same verdicts on the round-tripped model.

use sebmc_repro::aiger;
use sebmc_repro::bmc::{Budget, Engine, JSat, Semantics, UnrollSat};
use sebmc_repro::model::{explicit, suite13_small};

#[test]
fn suite_models_survive_ascii_round_trip() {
    for model in suite13_small() {
        let file = match aiger::model_to_aiger(&model) {
            Ok(f) => f,
            Err(e) => panic!("export of {} failed: {e}", model.name()),
        };
        assert_eq!(file.validate(), Ok(()), "{}", model.name());
        let text = aiger::to_ascii_string(&file);
        let parsed = aiger::parse_ascii(&text).expect("parse back");
        assert_eq!(parsed, file, "{} ascii round trip", model.name());
    }
}

#[test]
fn suite_models_survive_binary_round_trip() {
    for model in suite13_small() {
        let file = aiger::model_to_aiger(&model).expect("export");
        let bytes = aiger::to_binary_vec(&file).expect("canonical order");
        let parsed = aiger::parse_binary(&bytes).expect("parse back");
        assert_eq!(parsed, file, "{} binary round trip", model.name());
    }
}

#[test]
fn verdicts_preserved_through_aiger() {
    for model in suite13_small() {
        let file = aiger::model_to_aiger(&model).expect("export");
        let back = aiger::aiger_to_model(&file, model.name()).expect("import");
        let engines: [&dyn Engine; 2] = [&UnrollSat, &JSat::default()];
        for k in 0..5 {
            let expect = explicit::reachable_in_exactly(&model, k);
            for engine in engines {
                let out = engine
                    .start(&back, Semantics::Exactly, Budget::none())
                    .check_bound(k);
                assert_eq!(
                    out.result.is_reachable(),
                    expect,
                    "{} on round-tripped {} at bound {k}",
                    engine.name(),
                    model.name()
                );
            }
        }
    }
}

#[test]
fn symbols_preserved() {
    let model = sebmc_repro::model::builders::peterson();
    let file = aiger::model_to_aiger(&model).expect("export");
    let names: Vec<&str> = file
        .symbols
        .iter()
        .map(|(_, _, name)| name.as_str())
        .collect();
    assert!(names.contains(&"turn"));
    assert!(names.contains(&"flag0"));
    assert!(names.contains(&"sched"));
}
