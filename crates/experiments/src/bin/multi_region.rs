//! Multi-region federation sweep: one arrival stream routed across several
//! grids, comparing every routing policy × live-migration policy against
//! carbon-agnostic and carbon-aware schedulers.  Writes
//! `results/multi_region.csv` with per-region breakdowns (region-qualified
//! labels, migration counts, transfer seconds) and TOTAL rows.
//!
//! A second, congested arm reruns a two-region carbon cliff with the dirty
//! grid's uplink choked to 0.01 GB/s through the link-level network model,
//! demonstrating the green-behind-congested-link inversion: blind
//! carbon-delta migration loses on JCT against never-migrate, while the
//! transfer-delay-aware variant declines the contended moves.
use pcaps_experiments::multi_region::{render, MigrationSpec, MultiRegionSweep, RouterSpec};
use pcaps_experiments::write_results_file;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep = MultiRegionSweep::run(quick);
    println!(
        "Multi-region federation sweep — {} members × {} routers × {} migration policies × {} schedulers\n",
        sweep.config.regions.len(),
        RouterSpec::ALL.len(),
        MigrationSpec::ALL.len(),
        sweep.specs.len()
    );
    println!("{}", render(&sweep.outputs).render());
    println!(
        "Carbon-aware routing composes with carbon-aware scheduling — and live migration\n\
         gives the placement a second chance: jobs stranded on a grid that turned dirty\n\
         after arrival move to a greener one when the carbon saved outweighs the priced\n\
         per-GB transfer (delay + network energy).  See results/multi_region.csv for the\n\
         per-region breakdown including migration counts and transfer seconds."
    );
    println!("\nCongested-uplink arm — ZA's uplink capped at 0.01 GB/s (link-level network model):\n");
    println!("{}", render(&sweep.congested).render());
    println!(
        "Behind a congested link the payoff inverts: blind carbon-delta migration still\n\
         chases the green grid, but its transfers crawl through the shared 0.01 GB/s\n\
         uplink and JCT ends up worse than never migrating.  The delay-aware variant\n\
         sees the contention-aware transfer estimate blow past its cap and declines\n\
         the moves, recovering the JCT loss."
    );
    let _ = write_results_file("multi_region.csv", &sweep.to_csv());
}
