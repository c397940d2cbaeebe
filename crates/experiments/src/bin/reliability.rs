//! Reliability sweep: Poisson executor crashes at several MTBFs × the
//! carbon-awareness strategy ladder.  Reports wasted executor-seconds,
//! wasted carbon (emissions of thrown-away attempts), and goodput next to
//! the usual carbon/makespan/JCT numbers; writes `results/reliability.csv`.
//!
//! A second, outage arm takes one whole member down just after a burst of
//! arrivals and replays the evacuation twice — on the uniform transfer
//! matrix and through a link-level network whose outaged-member uplink is
//! choked — showing the simultaneous evacuations contending for the same
//! link under max-min fair sharing.
use pcaps_experiments::reliability::{render, ReliabilitySweep};
use pcaps_experiments::write_results_file;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep = ReliabilitySweep::run(quick);
    println!(
        "Reliability sweep — {} members × {} crash rates × {} strategies\n",
        sweep.config.regions.len(),
        sweep.mtbfs.len(),
        sweep.strategies.len()
    );
    println!("{}", render(&sweep.outputs).render());
    println!(
        "Crashes waste both time and carbon: every thrown-away attempt drew power at\n\
         the grid's intensity when it ran.  Goodput tracks the retained fraction of\n\
         executor-seconds; the carbon-aware strategies keep their footprint advantage\n\
         under churn because routing and migration steer retries toward green grids.\n\
         See results/reliability.csv for every trial."
    );
    println!("\nOutage-evacuation arm — CAISO down from t=60 s, uplink 0.001 GB/s when congested:\n");
    println!("{}", render(&sweep.outage).render());
    println!(
        "Both runs evacuate the same jobs; only the transfer model differs.  Through the\n\
         choked uplink the simultaneous evacuation flows max-min share 0.001 GB/s, so\n\
         the moves that cost seconds on the uniform matrix now serialise into hours —\n\
         the degradation an outage really causes when every refugee crosses one link."
    );
    let _ = write_results_file("reliability.csv", &sweep.to_csv());
}
