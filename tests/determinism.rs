//! The whole pipeline — generators, index, simulator, join — is
//! deterministic given its seeds.

use simjoin::{Balancing, BatchingConfig, SelfJoinConfig};
use sj_integration_support::{assert_canonical_reports_identical, brute_force_dyn, join_dyn};
use sjdata::DatasetSpec;
use warpsim::{IssueOrder, StepMode};

#[test]
fn generators_are_reproducible() {
    for spec in DatasetSpec::table1() {
        let a = spec.generate(300);
        let b = spec.generate(300);
        assert_eq!(a.raw(), b.raw(), "{}", spec.name);
    }
}

#[test]
fn join_results_and_timings_are_reproducible() {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(2_000);
    for balancing in [
        Balancing::None,
        Balancing::SortByWorkload,
        Balancing::WorkQueue,
    ] {
        let config = SelfJoinConfig::new(0.3).with_balancing(balancing);
        let (pairs_a, report_a) = join_dyn(&pts, config.clone());
        let (pairs_b, report_b) = join_dyn(&pts, config);
        assert_eq!(pairs_a, pairs_b, "{balancing:?}");
        assert_eq!(
            report_a.response_time_s(),
            report_b.response_time_s(),
            "{balancing:?}"
        );
        assert_eq!(report_a.wee(), report_b.wee(), "{balancing:?}");
        assert_eq!(report_a.num_batches, report_b.num_batches, "{balancing:?}");
    }
}

/// The host-parallel invariant: `host_jobs` threads the inside of one join
/// (independent batches on the pool, warp stepping inside each launch) but
/// is allowed to change wall-clock only — the pair set and the canonical
/// report are bit-identical for any thread count, in both step modes.
#[test]
fn host_jobs_never_changes_results() {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(1_200);
    let eps = spec.epsilons[2] * 1.5;
    let truth = brute_force_dyn(&pts, eps);
    // Tighten the batch capacity so the plan holds several independent
    // units — otherwise the batch-level layer has nothing to parallelize
    // and the matrix would only exercise warp stepping.
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 10 + 8,
        ..BatchingConfig::default()
    };
    for step_mode in [StepMode::Stepped, StepMode::RunLength] {
        let config = |jobs: usize| {
            SelfJoinConfig::new(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(batching)
                .with_step_mode(step_mode)
                .with_host_jobs(jobs)
        };
        let (pairs_1, report_1) = join_dyn(&pts, config(1));
        assert_eq!(pairs_1, truth, "{step_mode:?}: serial run must be exact");
        assert!(
            report_1.num_batches >= 4,
            "{step_mode:?}: need several batches to exercise the pool, got {}",
            report_1.num_batches
        );
        for jobs in [2usize, 4, 8] {
            let ctx = format!("host_jobs={jobs}, {step_mode:?}");
            let (pairs_n, report_n) = join_dyn(&pts, config(jobs));
            assert_eq!(pairs_1, pairs_n, "pair set drifted [{ctx}]");
            assert_canonical_reports_identical(&report_1, &report_n, &ctx);
        }
    }
}

#[test]
fn scheduler_seed_changes_timing_not_results() {
    let spec = DatasetSpec::by_name("SW2DA").unwrap();
    let pts = spec.generate(2_000);
    let seeded =
        |seed| SelfJoinConfig::new(1.0).with_issue_override(IssueOrder::Arbitrary { seed });
    let (pairs_a, report_a) = join_dyn(&pts, seeded(1));
    let (pairs_b, report_b) = join_dyn(&pts, seeded(999));
    assert_eq!(pairs_a, pairs_b, "seed must not affect the result set");
    // WEE is intra-warp and independent of issue order.
    assert_eq!(report_a.wee(), report_b.wee());
}
