//! Steady-state serving sweep: open-arrival diurnal load at several rate
//! multipliers × {FIFO, PCAPS} × admission {none, bounded-queue}, reported
//! as windowed queueing-delay percentiles, throughput, and carbon per
//! executor-hour; writes `results/steady_state.csv` (one row per window).
use pcaps_experiments::steady_state::{render, SteadyStateSweep};
use pcaps_experiments::write_results_file;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep = SteadyStateSweep::run(quick);
    let config = &sweep.config;
    println!(
        "Steady-state serving sweep — {} rate multipliers × {} schedulers × {} admission arms\n\
         ({} schedule-second horizon, {}-second windows, diurnal amplitude {})\n",
        sweep.rates.len(),
        sweep.specs.len(),
        sweep.admissions.len(),
        config.horizon,
        config.window,
        config.amplitude
    );
    println!("{}", render(&sweep.outputs).render());
    println!(
        "Past saturation the finite-trial story inverts: PCAPS's deferral into green\n\
         windows shows up as standing queueing delay (and without admission control,\n\
         as an ever-growing backlog), while the bounded-queue arms trade rejections\n\
         for finite delay percentiles.  See results/steady_state.csv for the full\n\
         per-window percentile series."
    );
    let _ = write_results_file("steady_state.csv", &sweep.to_csv());
}
