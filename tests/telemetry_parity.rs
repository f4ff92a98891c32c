//! Telemetry must be observation-only: running the chase with a live
//! [`Telemetry`] recorder installed has to produce **byte-identical**
//! outcomes (same atom ids, same ⊤-classification, same stats) to the
//! default no-op recorder — on random Datalog∃,¬s,⊥ programs.

mod common;

use common::{assert_outcomes_identical, random_db, random_program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use triq::datalog::{ChaseConfig, ChaseRunner};
use triq::obs::{Phase, Telemetry};

#[test]
fn chase_outcomes_are_identical_with_telemetry_on_and_off() {
    let mut instrumented_strata = 0u64;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x7e1e_0000 ^ seed);
        let program = random_program(&mut rng, true, true);
        if program.validate().is_err() || triq::datalog::stratify(&program).is_err() {
            continue;
        }
        let db = random_db(&mut rng, &program);
        let config = ChaseConfig {
            max_atoms: 100_000,
            ..ChaseConfig::default()
        };

        // Baseline: the default runner, whose recorder is the no-op.
        let silent = ChaseRunner::new(program.clone(), config).unwrap();
        let Ok(base) = silent.run(&db) else {
            continue; // atom budget blown — both sides would blow
        };

        // Same program, live telemetry installed.
        let tel = Telemetry::new();
        let mut loud = ChaseRunner::new(program.clone(), config).unwrap();
        loud.set_recorder(tel.clone());
        let with_tel = loud
            .run(&db)
            .expect("telemetry must not change control flow");
        assert_outcomes_identical(&base, &with_tel, &format!("seed {seed}"));
        instrumented_strata += tel.phase_snapshot(Phase::ChaseStratum).count;
    }
    // The recorder was really live: stratum timings accumulated.
    assert!(
        instrumented_strata > 0,
        "telemetry recorded no strata — the hooks are dead"
    );
}
