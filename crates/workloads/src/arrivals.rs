//! Job arrival processes.
//!
//! The paper submits jobs continuously with Poisson arrivals; the average
//! inter-arrival time is 30 minutes of experiment time (= 30 seconds of
//! schedule time after the 1 min ↔ 1 h scaling), with sweeps over other
//! values in Appendix A.2.2.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A stream of monotonically non-decreasing arrival times.
///
/// Streaming job sources ([`crate::WorkloadStream`]) are generic over the
/// process that spaces their arrivals; [`PoissonArrivals`] is the paper's
/// homogeneous process and [`DiurnalArrivals`] adds the day/night submission
/// rhythm of production traces.  Implementations must be deterministic given
/// their seed.
pub trait ArrivalProcess {
    /// Samples the next arrival time (non-decreasing across calls).
    fn next_arrival(&mut self) -> f64;
}

/// A Poisson arrival process (exponential inter-arrival times).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: ChaCha8Rng,
    mean_interarrival: f64,
    current_time: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given mean inter-arrival time (seconds).
    pub fn new(mean_interarrival: f64, seed: u64) -> Self {
        assert!(
            mean_interarrival > 0.0 && mean_interarrival.is_finite(),
            "mean inter-arrival time must be positive"
        );
        PoissonArrivals {
            rng: ChaCha8Rng::seed_from_u64(seed),
            mean_interarrival,
            current_time: 0.0,
        }
    }

    /// The paper's default: 30 schedule-seconds between arrivals (30 minutes
    /// of experiment time under the 1 min ↔ 1 h scaling).
    pub fn paper_default(seed: u64) -> Self {
        PoissonArrivals::new(30.0, seed)
    }

    /// The configured mean inter-arrival time.
    pub fn mean_interarrival(&self) -> f64 {
        self.mean_interarrival
    }

    /// Samples the next arrival time (monotonically increasing).
    pub fn next_arrival(&mut self) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -self.mean_interarrival * u.ln();
        self.current_time += gap;
        self.current_time
    }

    /// Generates `n` arrival times starting from 0 (the first job arrives at
    /// time 0, matching the paper's experiments where the batch starts
    /// immediately).
    pub fn arrivals(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i == 0 { 0.0 } else { self.next_arrival() })
            .collect()
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self) -> f64 {
        PoissonArrivals::next_arrival(self)
    }
}

/// A non-homogeneous Poisson process with a sinusoidal diurnal rate —
/// production clusters (the Alibaba trace included) see far more
/// submissions during the working day than at night.
///
/// The instantaneous rate is
/// `λ(t) = λ̄ · (1 + amplitude · cos(2π·(t − peak_offset)/period))`,
/// where `λ̄ = 1 / mean_interarrival` and `amplitude ∈ [0, 1)`; arrivals are
/// sampled by thinning against the peak rate `λ̄·(1 + amplitude)`, which is
/// exact for a sinusoidal profile and deterministic given the seed.
#[derive(Debug, Clone)]
pub struct DiurnalArrivals {
    rng: ChaCha8Rng,
    mean_interarrival: f64,
    amplitude: f64,
    period: f64,
    peak_offset: f64,
    current_time: f64,
}

impl DiurnalArrivals {
    /// Creates a diurnal process averaging one arrival per
    /// `mean_interarrival` seconds over a full period, with the given
    /// day/night swing (`amplitude` in `[0, 1)`; 0 degenerates to a plain
    /// Poisson process) and period in schedule seconds.  Under the paper's
    /// 1 min ↔ 1 h scaling a 24-hour day is `period = 1440.0` schedule
    /// seconds.
    pub fn new(mean_interarrival: f64, amplitude: f64, period: f64, seed: u64) -> Self {
        assert!(
            mean_interarrival > 0.0 && mean_interarrival.is_finite(),
            "mean inter-arrival time must be positive"
        );
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1), got {amplitude}"
        );
        assert!(period > 0.0 && period.is_finite(), "period must be positive");
        DiurnalArrivals {
            rng: ChaCha8Rng::seed_from_u64(seed),
            mean_interarrival,
            amplitude,
            period,
            // Peak the rate a quarter-period into the day, mimicking a
            // mid-working-day submission maximum.
            peak_offset: period / 4.0,
            current_time: 0.0,
        }
    }

    /// The configured mean inter-arrival time (period average).
    pub fn mean_interarrival(&self) -> f64 {
        self.mean_interarrival
    }

    /// The instantaneous arrival rate at time `t` (arrivals per second).
    pub fn rate_at(&self, t: f64) -> f64 {
        let base = 1.0 / self.mean_interarrival;
        let phase = 2.0 * std::f64::consts::PI * (t - self.peak_offset) / self.period;
        base * (1.0 + self.amplitude * phase.cos())
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn next_arrival(&mut self) -> f64 {
        // Ogata thinning: propose from the homogeneous process at the peak
        // rate, accept with probability λ(t)/λ_max.
        let peak_rate = (1.0 + self.amplitude) / self.mean_interarrival;
        loop {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.current_time += -u.ln() / peak_rate;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * peak_rate <= self.rate_at(self.current_time) {
                return self.current_time;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_monotone_and_start_at_zero() {
        let mut p = PoissonArrivals::new(10.0, 1);
        let a = p.arrivals(50);
        assert_eq!(a[0], 0.0);
        for w in a.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn mean_interarrival_is_respected() {
        let mut p = PoissonArrivals::new(30.0, 2);
        let a = p.arrivals(2000);
        let mean_gap = a.last().unwrap() / (a.len() - 1) as f64;
        assert!(
            (mean_gap - 30.0).abs() < 3.0,
            "empirical mean gap {mean_gap:.1} should be near 30"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = PoissonArrivals::new(5.0, 9).arrivals(10);
        let b = PoissonArrivals::new(5.0, 9).arrivals(10);
        assert_eq!(a, b);
        let c = PoissonArrivals::new(5.0, 10).arrivals(10);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_default_is_30s() {
        assert_eq!(PoissonArrivals::paper_default(0).mean_interarrival(), 30.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_mean() {
        let _ = PoissonArrivals::new(0.0, 0);
    }

    #[test]
    fn diurnal_arrivals_are_monotone_and_deterministic() {
        let gen = |seed| {
            let mut p = DiurnalArrivals::new(10.0, 0.8, 1440.0, seed);
            (0..200).map(|_| p.next_arrival()).collect::<Vec<f64>>()
        };
        let a = gen(7);
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "arrivals must be non-decreasing");
        }
        assert_eq!(a, gen(7));
        assert_ne!(a, gen(8));
    }

    #[test]
    fn diurnal_mean_rate_matches_configuration() {
        let mut p = DiurnalArrivals::new(10.0, 0.9, 1440.0, 3);
        let n = 5000;
        let last = (0..n).map(|_| p.next_arrival()).last().unwrap();
        let mean_gap = last / n as f64;
        assert!(
            (mean_gap - 10.0).abs() < 1.0,
            "empirical mean gap {mean_gap:.2} should be near 10"
        );
    }

    #[test]
    fn diurnal_rate_peaks_during_the_day() {
        let p = DiurnalArrivals::new(10.0, 0.5, 1440.0, 0);
        let day = p.rate_at(1440.0 / 4.0); // the configured peak
        let night = p.rate_at(1440.0 * 3.0 / 4.0); // half a period later
        assert!(day > night, "daytime rate {day} must exceed nighttime {night}");
        assert!((day - 1.5 / 10.0).abs() < 1e-12);
        assert!((night - 0.5 / 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_full_amplitude() {
        let _ = DiurnalArrivals::new(10.0, 1.0, 1440.0, 0);
    }
}
