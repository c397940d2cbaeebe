//! Self-tests of the benchmark harness, on reduced workload sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pcaps_cluster::{ArrivalSource, MigrationPolicy, NeverMigrate, SubmittedJob};
use pcaps_perfbench::calib;
use pcaps_perfbench::layers::{TimedMigration, TimedSource};
use pcaps_perfbench::report::{layer_metrics, Tally};
use pcaps_perfbench::trial;
use pcaps_perfbench::{Shape, Spec, Workload};
use pcaps_workloads::{WorkloadBuilder, WorkloadKind};

/// A small instance of every workload.
fn reduced(workload: Workload) -> Spec {
    let size = match workload {
        Workload::AlibabaFifo => 300,
        Workload::AlibabaPcaps => 150,
        Workload::Fed3ChurnCap => 300,
        Workload::ServePcaps => 1_440,
    };
    Spec {
        workload,
        seed: 7,
        size,
    }
}

#[test]
fn traced_and_untraced_trials_agree_bit_for_bit() {
    for workload in Workload::ALL {
        let spec = reduced(workload);
        let bare = trial::run(spec.build(), false);
        let wrapped = trial::run(spec.build(), true);
        assert!(bare.ok(), "{}: {:?}", workload.name(), bare.errors);
        assert!(wrapped.ok(), "{}: {:?}", workload.name(), wrapped.errors);
        assert!(
            bare.tasks > 0 && bare.jobs > 0,
            "{}: the trial did no work",
            workload.name()
        );
        assert!(
            bare.carbon_g > 0.0 && bare.avg_jct_s > 0.0,
            "{}",
            workload.name()
        );
        assert_eq!(
            bare.fingerprint(),
            wrapped.fingerprint(),
            "{}",
            workload.name()
        );
        assert!(bare.layers.is_none() && wrapped.layers.is_some());
    }
}

#[test]
fn layer_busy_times_fit_inside_the_trial_wall() {
    for workload in Workload::ALL {
        let t = trial::run(reduced(workload).build(), true);
        let layers = t.layers.as_ref().expect("traced");
        let serve = t.serve.clone().unwrap_or_default();
        let measured = layers.busy_s()
            + t.account_s
            + serve.window_s
            + serve.snapshot_us.iter().sum::<f64>() / 1e6;
        assert!(
            measured <= t.wall_s,
            "{}: {measured} s of layers in {} s",
            workload.name(),
            t.wall_s
        );
        let metrics = layer_metrics(&t);
        let engine_self = metrics
            .iter()
            .find(|m| m.name == "engine.self_s")
            .expect("reported");
        assert!(engine_self.value >= 0.0);
        assert!(
            layers.schedulers.calls > 0 && layers.source.calls > 0,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn a_planted_out_of_order_source_fails_every_job() {
    let jobs: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::Alibaba, 3)
        .jobs(20)
        .build()
        .into_iter()
        .rev()
        .map(|j| SubmittedJob::at(j.arrival, j.dag))
        .collect();
    let mut parts = reduced(Workload::AlibabaFifo).build();
    parts.source = Box::new(jobs.into_iter());
    parts.shape = Shape::Finite { jobs: 20 };
    let mut t = trial::run(parts, false);
    assert!(!t.ok(), "descending arrivals must abort the run");
    let mut tally = Tally::default();
    tally.add(&mut t, None);
    assert_eq!(tally.failed_frac(), 1.0);
}

#[test]
fn a_result_that_differs_from_the_reference_fails() {
    let spec = reduced(Workload::AlibabaFifo);
    let mut a = trial::run(spec.build(), false);
    let mut b = trial::run(Spec { seed: 8, ..spec }.build(), false);
    let mut tally = Tally::default();
    tally.add(&mut a, None);
    tally.add(&mut b, Some(a.fingerprint()));
    assert_eq!(tally.failed, b.jobs);
    assert!(!b.ok());
}

#[test]
fn wrappers_forward_the_optional_trait_methods() {
    assert!(TimedMigration::new(Box::new(NeverMigrate::new())).never_migrates());
    let mut parts = reduced(Workload::AlibabaFifo).build();
    assert!(parts.source.prevalidated());
    let hint = parts.source.size_hint();
    let wrapped = TimedSource::new(parts.source.as_mut());
    assert!(wrapped.prevalidated());
    assert_eq!(wrapped.size_hint(), hint);
}

#[test]
fn the_reference_kernel_does_fixed_work() {
    assert_eq!(calib::kernel(), calib::kernel());
    let s = calib::reference_s();
    assert!(s > 0.0 && s < 1.0, "{s} s");
}
