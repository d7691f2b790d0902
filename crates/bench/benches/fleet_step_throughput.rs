//! Throughput of the fleet layer's campaign pricing, merged into
//! `BENCH_perf.json` next to the `perf_components` rows (schema in
//! EXPERIMENTS.md): a 512-container fleet-year through `run_fleet_with`
//! versus one container simulated for one day. Lane batching prices every
//! container in a (site, load) class with a single evaluation, so the
//! fleet-year's per-simulated-day cost must land far under 512 independent
//! day sims; the acceptance bar is < 20× a single-container day per
//! simulated day (a ≥ 25× win over naive N independent runs), asserted
//! here and tracked by the perf gate via the `day_cost_vs_single_x` row.

use std::hint::black_box;
use std::time::Instant;

use coolair_bench::perf::{merge_into_report, report_path, PerfEntry};
use coolair_fleet::{run_fleet_with, FleetSpec};
use coolair_runner::Executor;
use coolair_sim::{run_days_loaded, train_for_location};
use coolair_telemetry::Telemetry;

/// Times the 512-container fleet-year and the single-container day it is
/// measured against, returning the report rows plus the headline ratios.
fn campaign_rows() -> (Vec<PerfEntry>, f64, f64) {
    let mut spec = FleetSpec::shipped(7);
    spec.containers = 512;
    let sampled_days = spec.annual.sampled_days();

    // Single-container cost of one fully loaded simulated day, averaged
    // over the campaign's sites so no one climate's compressor duty skews
    // the baseline. Models are trained outside the clock — the campaign
    // run amortizes training the same way through its executor batch.
    let models: Vec<_> =
        spec.sites.iter().map(|site| train_for_location(site, &spec.annual)).collect();
    let t0 = Instant::now();
    for (site, model) in spec.sites.iter().zip(&models) {
        black_box(run_days_loaded(
            &spec.system,
            site,
            spec.trace,
            &spec.annual,
            Some(model.clone()),
            &sampled_days[..1],
            true,
            Telemetry::disabled(),
        ));
    }
    let single_day_ns = t0.elapsed().as_nanos() as f64 / spec.sites.len() as f64;

    let telemetry = Telemetry::discard();
    let exec = Executor::in_memory(0, telemetry.clone());
    let t0 = Instant::now();
    let outcome = black_box(run_fleet_with(&spec, &exec, &telemetry));
    let fleet_year_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(outcome.containers, 512);

    // Cost of one simulated fleet day, in single-container-day units.
    let per_day_x = fleet_year_ns / sampled_days.len() as f64 / single_day_ns;
    // Naive N independent containers price every container every day.
    let naive_speedup = spec.containers as f64 / per_day_x;
    let rows = vec![
        PerfEntry {
            name: "fleet_campaign/single_container_day".to_string(),
            median_ns: single_day_ns.round() as u64,
            samples: spec.sites.len() as u64,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "fleet_campaign/fleet_year_512_containers".to_string(),
            median_ns: fleet_year_ns.round() as u64,
            samples: 1,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "fleet_campaign/day_cost_vs_single_x".to_string(),
            median_ns: per_day_x.ceil() as u64,
            samples: 1,
            unit: Some("x".to_string()),
        },
        PerfEntry {
            name: "fleet_campaign/naive_speedup".to_string(),
            median_ns: naive_speedup.floor() as u64,
            samples: 1,
            unit: Some("speedup".to_string()),
        },
    ];
    (rows, per_day_x, naive_speedup)
}

fn main() {
    let (entries, per_day_x, naive_speedup) = campaign_rows();
    println!(
        "fleet_campaign: one simulated fleet day (512 containers) costs {per_day_x:.1}x a \
         single-container day ({naive_speedup:.0}x over naive independent runs)"
    );
    assert!(
        per_day_x < 20.0,
        "acceptance: a 512-container fleet day must cost < 20x a single-container day, got \
         {per_day_x:.1}x"
    );
    assert!(
        naive_speedup >= 25.0,
        "acceptance: lane batching must beat naive independent runs by >= 25x, got \
         {naive_speedup:.0}x"
    );
    let path = report_path();
    match merge_into_report(&path, "fleet_step_throughput", entries) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
