//! Windowed steady-state observability.
//!
//! Finite trials summarise at end of run; an open-arrival serving run never
//! ends, so its figures of merit are *windowed*: queueing-delay percentiles,
//! carbon per job-hour of service, and sustained throughput over the last
//! window of completions, plus a jobs-in-system gauge.  [`WindowedMetrics`]
//! collects completion events into a ring buffer bounded by the window
//! length — memory grows with the completion rate × window, never with the
//! total number of jobs the run has seen — and emits one
//! [`SteadyStateSample`] per call to [`WindowedMetrics::sample`].

use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One completed job, as observed by the windowed collector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionEvent {
    /// Completion time (schedule seconds).  Events must be recorded in
    /// non-decreasing completion order — the simulation engine emits them
    /// that way for free.
    pub completion: f64,
    /// Queueing delay: the job's first task dispatch minus its arrival
    /// (schedule seconds).
    pub queue_delay: f64,
    /// Executor-hours of service the job consumed (schedule hours).
    pub service_hours: f64,
    /// Carbon attributed to the job (grams of CO₂eq).
    pub carbon_grams: f64,
}

/// One periodic observation of a steady-state serving run: everything the
/// last window of completions supports, plus instantaneous gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadyStateSample {
    /// Window start (schedule seconds) — `window_end` minus the configured
    /// window length.
    pub window_start: f64,
    /// Window end: the instant the sample was taken (schedule seconds).
    pub window_end: f64,
    /// Jobs that arrived since the previous sample (accepted or not).
    pub arrivals: usize,
    /// Jobs whose completion falls inside the window.
    pub completions: usize,
    /// Jobs rejected by admission control since the previous sample.
    pub rejections: usize,
    /// Sustained throughput: in-window completions per schedule hour.
    pub throughput_per_hour: f64,
    /// Median queueing delay over in-window completions (0 when none).
    pub p50_queue_delay: f64,
    /// 95th-percentile queueing delay over in-window completions.
    pub p95_queue_delay: f64,
    /// 99th-percentile queueing delay over in-window completions.
    pub p99_queue_delay: f64,
    /// Grams of CO₂eq per executor-hour of service delivered in the window
    /// (0 when the window delivered no service).
    pub carbon_per_job_hour: f64,
    /// Jobs in the system (arrived, admitted, not yet complete) at window
    /// end — supplied by the caller, who owns that gauge.
    pub jobs_in_system: usize,
}

/// Ring-buffer collector over completion events (see the module docs).
///
/// The intended cadence is one [`WindowedMetrics::sample`] call every
/// `window` seconds, so consecutive windows tile the timeline; sampling
/// faster produces overlapping (sliding) windows, which is also fine.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    window: f64,
    events: VecDeque<CompletionEvent>,
    arrivals: usize,
    rejections: usize,
}

impl WindowedMetrics {
    /// Creates a collector whose samples cover the trailing `window`
    /// schedule seconds.
    ///
    /// # Panics
    /// Panics unless `window` is positive and finite.
    pub fn new(window: f64) -> Self {
        assert!(
            window > 0.0 && window.is_finite(),
            "window length must be positive and finite, got {window}"
        );
        WindowedMetrics {
            window,
            events: VecDeque::new(),
            arrivals: 0,
            rejections: 0,
        }
    }

    /// The configured window length (schedule seconds).
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Records one job arrival (admitted or not).
    pub fn record_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records one admission-control rejection.
    pub fn record_rejection(&mut self) {
        self.rejections += 1;
    }

    /// Records one completion.  Completions must arrive in non-decreasing
    /// `completion` order.
    pub fn record_completion(&mut self, event: CompletionEvent) {
        debug_assert!(
            self.events.back().is_none_or(|last| event.completion >= last.completion),
            "completions must be recorded in non-decreasing time order"
        );
        self.events.push_back(event);
    }

    /// Completion events currently resident in the ring buffer (bounded by
    /// the completion rate × window once eviction has run).
    pub fn resident_events(&self) -> usize {
        self.events.len()
    }

    /// Closes the window ending at `now`: evicts completions older than the
    /// window, computes the percentile/throughput/carbon figures over what
    /// remains, resets the per-interval arrival/rejection counters, and
    /// returns the sample.  `jobs_in_system` is the caller's gauge of
    /// admitted-but-incomplete jobs at `now`.
    pub fn sample(&mut self, now: f64, jobs_in_system: usize) -> SteadyStateSample {
        let window_start = now - self.window;
        while self.events.front().is_some_and(|e| e.completion < window_start) {
            self.events.pop_front();
        }
        let delays: Vec<f64> = self.events.iter().map(|e| e.queue_delay).collect();
        let (p50, p95, p99) = if delays.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                stats::percentile(&delays, 50.0),
                stats::percentile(&delays, 95.0),
                stats::percentile(&delays, 99.0),
            )
        };
        let service_hours: f64 = self.events.iter().map(|e| e.service_hours).sum();
        let carbon_grams: f64 = self.events.iter().map(|e| e.carbon_grams).sum();
        let carbon_per_job_hour = if service_hours > 0.0 { carbon_grams / service_hours } else { 0.0 };
        let sample = SteadyStateSample {
            window_start,
            window_end: now,
            arrivals: self.arrivals,
            completions: self.events.len(),
            rejections: self.rejections,
            throughput_per_hour: self.events.len() as f64 * 3600.0 / self.window,
            p50_queue_delay: p50,
            p95_queue_delay: p95,
            p99_queue_delay: p99,
            carbon_per_job_hour,
            jobs_in_system,
        };
        self.arrivals = 0;
        self.rejections = 0;
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(completion: f64, delay: f64) -> CompletionEvent {
        CompletionEvent {
            completion,
            queue_delay: delay,
            service_hours: 1.0,
            carbon_grams: 100.0,
        }
    }

    #[test]
    fn percentiles_match_a_from_scratch_sort() {
        let mut w = WindowedMetrics::new(100.0);
        let delays = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        for (i, d) in delays.iter().enumerate() {
            w.record_completion(ev(10.0 * i as f64, *d));
        }
        let s = w.sample(100.0, 0);
        let mut sorted = delays.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let oracle = |pct: f64| {
            let rank = pct / 100.0 * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        assert!((s.p50_queue_delay - oracle(50.0)).abs() < 1e-12);
        assert!((s.p95_queue_delay - oracle(95.0)).abs() < 1e-12);
        assert!((s.p99_queue_delay - oracle(99.0)).abs() < 1e-12);
    }

    #[test]
    fn old_completions_are_evicted() {
        let mut w = WindowedMetrics::new(50.0);
        w.record_completion(ev(10.0, 1.0));
        w.record_completion(ev(60.0, 2.0));
        w.record_completion(ev(90.0, 3.0));
        // Window [50, 100]: the completion at t=10 is out.
        let s = w.sample(100.0, 4);
        assert_eq!(s.completions, 2);
        assert_eq!(w.resident_events(), 2);
        assert_eq!(s.jobs_in_system, 4);
        assert_eq!(s.window_start, 50.0);
        // Window [100, 150]: everything is out.
        let s = w.sample(150.0, 0);
        assert_eq!(s.completions, 0);
        assert_eq!(s.p99_queue_delay, 0.0);
        assert_eq!(w.resident_events(), 0);
    }

    #[test]
    fn counters_reset_per_sample() {
        let mut w = WindowedMetrics::new(10.0);
        w.record_arrival();
        w.record_arrival();
        w.record_rejection();
        let s = w.sample(10.0, 1);
        assert_eq!((s.arrivals, s.rejections), (2, 1));
        let s = w.sample(20.0, 1);
        assert_eq!((s.arrivals, s.rejections), (0, 0));
    }

    #[test]
    fn throughput_and_carbon_rates() {
        let mut w = WindowedMetrics::new(3600.0);
        for i in 0..6 {
            w.record_completion(ev(600.0 * i as f64, 0.0));
        }
        let s = w.sample(3600.0, 0);
        // 6 completions in one schedule hour.
        assert!((s.throughput_per_hour - 6.0).abs() < 1e-12);
        // 100 g per 1 service-hour each.
        assert!((s.carbon_per_job_hour - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = WindowedMetrics::new(0.0);
    }
}
