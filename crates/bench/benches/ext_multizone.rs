//! Extension experiment: multiple independent cooling zones (§6: "each of
//! them would have its own CoolAir-like manager").
//!
//! Runs a four-container fleet in Newark for a month of sampled days —
//! two baseline zones and two All-ND zones sharing one workload stream —
//! and confirms the single-zone conclusions survive scale-out: the CoolAir
//! zones hold tighter ranges at comparable (or better) energy. Each zone is
//! an ordinary `Simulation`; a round-robin dispatcher splits the offered
//! jobs across them.

use coolair::{CoolAir, CoolAirConfig, Version};
use coolair_bench::check;
use coolair_sim::{
    train_for_location, AnnualConfig, AnnualSummary, DayRecord, SimConfig, SimController,
    Simulation, POWER_DELIVERY_PUE,
};
use coolair_thermal::{Infrastructure, PlantConfig, TksConfig, TksController};
use coolair_weather::{Forecaster, Location, TmySeries};
use coolair_workload::{facebook_trace, Cluster, ClusterConfig, Job, JobId};

fn main() {
    let location = Location::newark();
    let cfg = AnnualConfig::default();
    let tmy = TmySeries::generate(&location, cfg.weather_seed);
    eprintln!("training the shared Cooling Model…");
    let model = train_for_location(&location, &cfg);

    // Baseline zones run Parasol's units; CoolAir zones share the one
    // trained model on the smooth units (one container design, one model).
    let baseline = || {
        (
            SimController::Baseline(TksController::new(TksConfig::baseline())),
            PlantConfig::parasol(),
        )
    };
    let coolair = || {
        (
            SimController::CoolAir(Box::new(CoolAir::new(
                Version::AllNd,
                CoolAirConfig::default(),
                model.clone(),
                Forecaster::perfect(tmy.clone()),
                Infrastructure::Smooth,
            ))),
            PlantConfig::smooth(),
        )
    };
    let mut zones: Vec<Simulation> = [baseline(), baseline(), coolair(), coolair()]
        .into_iter()
        .map(|(controller, plant)| {
            Simulation::new(
                controller,
                plant,
                Cluster::new(ClusterConfig::parasol()),
                tmy.clone(),
                SimConfig::default(),
            )
        })
        .collect();
    let n = zones.len();
    let mut records: Vec<Vec<DayRecord>> = vec![Vec::new(); n];

    // The fleet serves 4× the single-container offered load.
    let trace = facebook_trace(cfg.trace_seed);
    let days: Vec<u64> = (0..365).step_by(30).collect();
    for &day in &days {
        eprintln!("fleet day {day}…");
        let mut jobs = Vec::new();
        for copy in 0..4u64 {
            for mut j in trace.jobs_for_day(day) {
                j.id = JobId(j.id.0 * 4 + copy);
                jobs.push(j);
            }
        }
        // Round-robin: each zone gets an equal share, with fresh ids.
        for (z, zone) in zones.iter_mut().enumerate() {
            let share: Vec<Job> = jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % n == z)
                .map(|(i, j)| Job { id: JobId(j.id.0 * n as u64 + i as u64), ..j.clone() })
                .collect();
            records[z].push(zone.run_day(day, share).record);
        }
    }

    let names: Vec<String> = zones.iter().map(|z| z.controller().name()).collect();
    let summaries: Vec<AnnualSummary> = records.into_iter().map(AnnualSummary::new).collect();
    println!("=== Extension: four-zone fleet in Newark ({} sampled days) ===", days.len());
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12}",
        "zone", "avg range", "max range", "PUE", "jobs done"
    );
    for (name, summary) in names.iter().zip(&summaries) {
        println!(
            "{:<10} {:>11.1}° {:>11.1}° {:>10.3} {:>12}",
            name,
            summary.avg_worst_range(),
            summary.max_worst_range(),
            summary.pue(),
            summary.jobs_completed()
        );
    }
    // Fleet-wide PUE, energy-weighted across zones.
    let it: f64 = summaries.iter().map(AnnualSummary::it_kwh).sum();
    let cooling: f64 = summaries.iter().map(AnnualSummary::cooling_kwh).sum();
    println!("fleet-wide PUE: {:.3}", (it + cooling) / it + POWER_DELIVERY_PUE);

    println!("\nChecks:");
    let base_max = summaries[0].max_worst_range().max(summaries[1].max_worst_range());
    let cool_max = summaries[2].max_worst_range().max(summaries[3].max_worst_range());
    check(
        "CoolAir zones hold tighter max ranges than baseline zones",
        cool_max < base_max,
        &format!("{cool_max:.1}° vs {base_max:.1}°"),
    );
    let twin_gap = (summaries[2].max_worst_range() - summaries[3].max_worst_range()).abs();
    check(
        "identical CoolAir zones behave consistently",
        twin_gap < 2.0,
        &format!("twin max-range gap {twin_gap:.2}°"),
    );
    let done: u64 = summaries.iter().map(AnnualSummary::jobs_completed).sum();
    check(
        "the fleet completes the offered workload",
        done > (4 * trace.len() * days.len()) as u64 * 9 / 10,
        &format!("{done} jobs"),
    );
}
