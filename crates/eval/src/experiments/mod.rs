//! Per-table/figure experiment regenerators.
//!
//! Each submodule reproduces one table or figure of the paper; the
//! [`run_command`] dispatcher backs the `dice-repro` binary. The DESIGN.md
//! per-experiment index maps every paper artifact to its regenerator here.

mod accuracy;
mod attest_exp;
mod bench_json;
mod calibrate;
mod dashboard;
mod diagnose;
mod export;
mod extended;
mod fault_ratio;
mod fleet_plans;
mod full;
mod misses;
mod multi_user;
mod security;
mod tables;
mod telemetry_exp;
mod timing;
mod trace_exp;
mod weights;

use dice_datasets::DatasetId;

pub use accuracy::fig_5_1;
pub use attest_exp::attest;
pub use bench_json::bench_json;
pub use calibrate::calibrate;
pub use dashboard::{fleet_monitor, monitor};
pub use diagnose::diagnose;
pub use export::{artifact_set, export_csv, inspect_model, save_model};
pub use extended::{actuator_faults, multi_fault, param_sensitivity};
pub use fault_ratio::{aggregate_attribution, fig_5_4};
pub use full::{run_all_datasets, run_full, FullEvaluation};
pub use misses::misses;
pub use multi_user::multi_user;
pub use security::{run_attacks, security, spoof_sensor, AttackOutcome};
pub use tables::{table_2_1, table_4_1};
pub use telemetry_exp::telemetry_check;
pub use timing::{fig_5_2, fig_5_3, table_5_1, table_5_2};
pub use trace_exp::{explain, trace_check};
pub use weights::weights;

/// The CLI usage text.
pub fn usage() -> String {
    "usage: dice-repro <command> [args]\n\
     paper artifacts (default 100 trials per dataset, seed 42):\n\
       table-2-1                      requirements analysis of prior art\n\
       table-4-1                      dataset inventory\n\
       floor-plan                     figure 4.1, the testbed deployment\n\
       fig-5-1   [trials] [seed]      detection & identification accuracy\n\
       fig-5-2   [trials] [seed]      detection & identification time\n\
       table-5-1 [trials] [seed]      per-check detection time (houseA/B/C)\n\
       fig-5-3   [trials] [seed]      computation time per window\n\
       table-5-2 [trials] [seed]      correlation degree per dataset\n\
       fig-5-4   [trials] [seed]      detection ratio per fault type\n\
       actuator-faults [trials]       actuator-fault accuracy (Section 5.1.3)\n\
       multi-fault [trials]           1-3 simultaneous faults (Section VI)\n\
       params [trials]                parameter sensitivity (Section VI)\n\
       security [seed]                sensor-spoofing attacks (Section VI)\n\
       multi-user [trials]            whole-home vs per-room DICE, 1-3 residents\n\
       weights [trials]               criticality-weighted early alarms\n\
       attest [trials]                masked-replay attestation of suspects\n\
       all [trials] [seed]            every table and figure in order\n\
     data & models:\n\
       export <dataset> <hours> <path>  synthesize a dataset slice to CSV\n\
       save-model <dataset> <path>      train on 300 h and persist the model\n\
       artifacts <dataset> <dir>        train on 48 h and write the coherent\n\
                                        model/config/trace/telemetry artifact\n\
                                        set (checkable with dice-lint)\n\
       inspect-model <path>             summarize a persisted model\n\
       monitor [flags] <model> <csv>    stream a CSV through the gateway with\n\
                                        a sparkline dashboard; --health adds\n\
                                        the health-rule table, --once renders\n\
                                        one deterministic frame, --interval N\n\
                                        re-renders to stderr every N windows\n\
     diagnostics:\n\
       calibrate <dataset> [trials]   train + evaluate one dataset\n\
       diagnose <dataset> [segments]  explain violations on faultless segments\n\
       misses <dataset> [trials]      list undetected injected faults\n\
       bench-json [path]              micro-benchmark + overhead baseline (BENCH_core.json)\n\
       fleet-monitor [flags] [homes] [shards] [minutes]\n\
                                      fleet causal-tracing frame: per-shard\n\
                                      latency columns and lineage-stamped\n\
                                      alarms (defaults 96/4/30); --health adds\n\
                                      the rule table, --once renders one\n\
                                      byte-stable deterministic frame\n\
       telemetry-check <path>         validate an exported telemetry snapshot\n\
       trace-check <path>             validate a decision-trace JSONL export\n\
       explain <trace.jsonl> [window] render why a window was flagged\n\
     global flags:\n\
       --telemetry <path>             record runtime metrics and dump a JSON\n\
                                      snapshot of engine/gateway/eval telemetry\n\
       --trace <path>                 record per-window decision traces from\n\
                                      every engine to a JSONL file\n\
       --train-jobs <N>               worker threads for parallel training and\n\
                                      trial evaluation (sets RAYON_NUM_THREADS)"
        .to_string()
}

fn parse_trials(args: &[&str], default: u64) -> Result<u64, String> {
    args.first().map_or(Ok(default), |t| {
        t.parse().map_err(|_| format!("bad trial count {t:?}"))
    })
}

fn parse_seed(args: &[&str], default: u64) -> Result<u64, String> {
    args.get(1).map_or(Ok(default), |t| {
        t.parse().map_err(|_| format!("bad seed {t:?}"))
    })
}

/// Dispatches a CLI command.
///
/// # Errors
///
/// Returns a usage message for unknown commands or bad arguments.
pub fn run_command(command: &str, args: &[&str]) -> Result<String, String> {
    const TRIALS: u64 = 100;
    const SEED: u64 = 42;
    match command {
        "table-2-1" => Ok(table_2_1()),
        "floor-plan" => {
            let (registry, _) = dice_sim::testbed::build_registry();
            Ok(format!(
                "Figure 4.1: Floor Plan of the Smart Home Deployment\n{}",
                dice_sim::floorplan::render(&registry)
            ))
        }
        "table-4-1" => Ok(table_4_1(SEED)),
        "fig-5-1" | "fig-5-2" | "table-5-1" | "fig-5-3" | "table-5-2" | "fig-5-4" => {
            let trials = parse_trials(args, TRIALS)?;
            let seed = parse_seed(args, SEED)?;
            // Table 5.1 renders only houseA/B/C. Each dataset's randomness
            // depends only on the master seed, so evaluating just those
            // three renders the same table.
            let full = if command == "table-5-1" {
                run_full(
                    &[DatasetId::HouseA, DatasetId::HouseB, DatasetId::HouseC],
                    trials,
                    seed,
                )
            } else {
                run_all_datasets(trials, seed)
            };
            Ok(match command {
                "fig-5-1" => fig_5_1(&full),
                "fig-5-2" => fig_5_2(&full),
                "table-5-1" => table_5_1(&full),
                "fig-5-3" => fig_5_3(&full),
                "table-5-2" => table_5_2(&full),
                _ => fig_5_4(&full),
            })
        }
        "actuator-faults" => Ok(actuator_faults(
            parse_trials(args, TRIALS)?,
            parse_seed(args, SEED)?,
        )),
        "multi-fault" => Ok(multi_fault(
            parse_trials(args, TRIALS)?,
            parse_seed(args, SEED)?,
        )),
        "params" => Ok(param_sensitivity(
            parse_trials(args, 40)?,
            parse_seed(args, SEED)?,
        )),
        "multi-user" => Ok(multi_user(parse_trials(args, 30)?, parse_seed(args, SEED)?)),
        "weights" => Ok(weights(parse_trials(args, 40)?, parse_seed(args, SEED)?)),
        "attest" => Ok(attest(parse_trials(args, 40)?, parse_seed(args, SEED)?)),
        "security" => {
            let seed = args
                .first()
                .map_or(Ok(SEED), |t| t.parse().map_err(|_| "bad seed".to_string()))?;
            Ok(security(seed))
        }
        "all" => {
            let trials = parse_trials(args, TRIALS)?;
            let seed = parse_seed(args, SEED)?;
            let full = run_all_datasets(trials, seed);
            let mut out = String::new();
            out.push_str(&table_2_1());
            out.push('\n');
            out.push_str(&table_4_1(seed));
            out.push('\n');
            out.push_str("Figure 4.1: Floor Plan of the Smart Home Deployment\n");
            let (registry, _) = dice_sim::testbed::build_registry();
            out.push_str(&dice_sim::floorplan::render(&registry));
            out.push('\n');
            out.push_str(&fig_5_1(&full));
            out.push('\n');
            out.push_str(&fig_5_2(&full));
            out.push('\n');
            out.push_str(&table_5_1(&full));
            out.push('\n');
            out.push_str(&fig_5_3(&full));
            out.push('\n');
            out.push_str(&table_5_2(&full));
            out.push('\n');
            out.push_str(&fig_5_4(&full));
            out.push('\n');
            out.push_str(&actuator_faults(trials, seed));
            out.push('\n');
            out.push_str(&multi_fault(trials, seed));
            out.push('\n');
            out.push_str(&param_sensitivity(trials.min(40), seed));
            out.push('\n');
            out.push_str(&multi_user(trials.min(30), seed));
            out.push('\n');
            out.push_str(&weights(trials.min(40), seed));
            out.push('\n');
            out.push_str(&attest(trials.min(40), seed));
            out.push('\n');
            out.push_str(&security(seed));
            Ok(out)
        }
        "calibrate" => {
            let dataset = args.first().ok_or("calibrate needs a dataset name")?;
            let trials = args
                .get(1)
                .map_or(Ok(20), |t| t.parse().map_err(|_| "bad trial count"))?;
            Ok(calibrate(dataset, trials)?)
        }
        "diagnose" => {
            let dataset = args.first().ok_or("diagnose needs a dataset name")?;
            let segments = args
                .get(1)
                .map_or(Ok(10), |t| t.parse().map_err(|_| "bad segment count"))?;
            Ok(diagnose(dataset, segments)?)
        }
        "export" => {
            let dataset = args.first().ok_or("export needs a dataset name")?;
            let hours: i64 = args
                .get(1)
                .ok_or("export needs an hour count")?
                .parse()
                .map_err(|_| "bad hour count")?;
            let path = args.get(2).ok_or("export needs an output path")?;
            Ok(export_csv(dataset, hours, path, SEED)?)
        }
        "save-model" => {
            let dataset = args.first().ok_or("save-model needs a dataset name")?;
            let path = args.get(1).ok_or("save-model needs an output path")?;
            Ok(save_model(dataset, path, SEED)?)
        }
        "artifacts" => {
            let dataset = args.first().ok_or("artifacts needs a dataset name")?;
            let dir = args.get(1).ok_or("artifacts needs an output directory")?;
            Ok(artifact_set(dataset, dir, SEED)?)
        }
        "inspect-model" => {
            let path = args.first().ok_or("inspect-model needs a path")?;
            Ok(inspect_model(path)?)
        }
        "monitor" => Ok(monitor(args)?),
        "bench-json" => Ok(bench_json(args.first().copied())?),
        "fleet-monitor" => Ok(fleet_monitor(args)?),
        "telemetry-check" => {
            let path = args
                .first()
                .ok_or("telemetry-check needs a snapshot path")?;
            Ok(telemetry_check(path)?)
        }
        "trace-check" => {
            let path = args.first().ok_or("trace-check needs a trace path")?;
            Ok(trace_check(path)?)
        }
        "explain" => {
            let path = args.first().ok_or("explain needs a trace path")?;
            let window = args
                .get(1)
                .map(|w| w.parse::<u64>().map_err(|_| format!("bad window {w:?}")))
                .transpose()?;
            Ok(explain(path, window)?)
        }
        "misses" => {
            let dataset = args.first().ok_or("misses needs a dataset name")?;
            let trials = args
                .get(1)
                .map_or(Ok(30), |t| t.parse().map_err(|_| "bad trial count"))?;
            Ok(misses(dataset, trials)?)
        }
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_commands_run() {
        assert!(run_command("table-2-1", &[]).unwrap().contains("DICE"));
        assert!(run_command("table-4-1", &[]).unwrap().contains("houseA"));
        assert!(run_command("help", &[]).unwrap().contains("usage"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_command("nope", &[]).is_err());
        assert!(run_command("calibrate", &["not-a-dataset"]).is_err());
    }

    #[test]
    fn trial_parsing_validates() {
        assert!(run_command("fig-5-1", &["abc"]).is_err());
    }
}
