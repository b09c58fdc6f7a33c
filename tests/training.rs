//! One-pass training against the two-pass reference on every catalog
//! dataset.
//!
//! `ParallelTrainer` reads each training event once and resolves the
//! Eq. 3.4 level bits after the threshold merge; `ContextExtractor` is the
//! literal two-pass precomputation. Their `write_model` bytes must match.
//! The tier-1 test trains each dataset on 12 h; the ignored test repeats
//! the check at the evaluation runner's full 300 h and also checks the
//! runner's own chunked training (run it in release with `--ignored`).

use dice_core::{
    write_model, ContextExtractor, DiceModel, ModelBuilder, ParallelTrainer, ThresholdTrainer,
};
use dice_datasets::DatasetId;
use dice_eval::runner::{train_dataset, RunnerConfig};
use dice_sim::Simulator;
use dice_types::Timestamp;

fn model_bytes(model: &DiceModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_model(model, &mut bytes).expect("writing to memory");
    bytes
}

/// Trains `id` on its first `hours` with the two-pass extractor and with
/// the one-pass trainer at 1 and 3 chunks, and byte-compares the models.
fn assert_one_pass_matches_two_pass(id: DatasetId, cfg: &RunnerConfig, hours: i64) {
    let sim = Simulator::new(id.scenario(cfg.seed)).expect("catalog scenario is valid");
    let mut log = sim.log_between(Timestamp::ZERO, Timestamp::from_hours(hours));
    let reference = ContextExtractor::new(cfg.dice.clone())
        .extract(sim.registry(), &mut log.clone())
        .expect("training log is non-empty");
    let reference = model_bytes(&reference);
    for chunks in [1, 3] {
        let one_pass = ParallelTrainer::new(cfg.dice.clone())
            .with_chunks(chunks)
            .extract(sim.registry(), &mut log)
            .expect("training log is non-empty");
        assert!(
            model_bytes(&one_pass) == reference,
            "{}: one-pass model bytes differ from the two-pass reference at {chunks} chunks",
            id.name()
        );
    }
}

#[test]
fn one_pass_training_matches_two_pass_on_every_catalog_dataset() {
    let cfg = RunnerConfig::default();
    for id in DatasetId::all() {
        assert_one_pass_matches_two_pass(id, &cfg, 12);
    }
}

#[test]
#[ignore = "trains all ten datasets on 300 h; run in release with --ignored"]
fn one_pass_training_matches_two_pass_at_the_full_precomputation_period() {
    let cfg = RunnerConfig::default();
    let hours = cfg.precompute.as_secs() / 3600;
    for id in DatasetId::all() {
        assert_one_pass_matches_two_pass(id, &cfg, hours);

        // The runner simulates and reads each six-hour chunk once; its model
        // must equal a serial two-pass build over the same window tiling.
        let sim = Simulator::new(id.scenario(cfg.seed)).expect("catalog scenario is valid");
        let to = Timestamp::from_hours(hours);
        let mut log = sim.log_between(Timestamp::ZERO, to);
        let mut trainer = ThresholdTrainer::new(sim.registry());
        for event in log.events() {
            trainer.observe(event);
        }
        let mut builder = ModelBuilder::new(cfg.dice.clone(), sim.registry(), trainer.finish())
            .expect("catalog registry has sensors");
        for w in log.windows_between(Timestamp::ZERO, to, cfg.dice.window()) {
            builder.observe_window(w.start, w.end, w.events);
        }
        let reference = model_bytes(&builder.finish().expect("training range is non-empty"));
        let runner = model_bytes(&train_dataset(id, &cfg).model);
        assert!(
            runner == reference,
            "{}: the runner's one-pass model bytes differ from the two-pass reference",
            id.name()
        );
    }
}
