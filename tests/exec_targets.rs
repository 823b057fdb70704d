//! The dimension-erased entry point: every execution target returns the
//! exact pair set and the same canonical report at every supported
//! dimensionality, and unsupported dimensionalities are typed errors.

use epsgrid::DynPoints;
use simjoin::{DynSelfJoin, ExecTarget, HybridPolicy, JoinError, SelfJoinConfig, ShardStrategy};
use sj_integration_support::{assert_canonical_reports_identical, brute_force_dyn};
use sjdata::DatasetSpec;
use warpsim::DeviceFleet;

#[test]
fn every_target_is_exact_and_canonical_at_every_supported_dimensionality() {
    for dims in simjoin::DIMS {
        let spec = DatasetSpec::by_name(&format!("Unif{dims}D2M")).unwrap();
        let points = spec.generate(300);
        let eps = spec.epsilons[2] * 1.5;
        let expected = brute_force_dyn(&points, eps);
        let probe = DynSelfJoin::new(&points, SelfJoinConfig::new(eps))
            .run(&ExecTarget::Gpu)
            .unwrap();
        // A few batches, so the fleet and the hybrid cut have units to
        // share out.
        let config = SelfJoinConfig::optimized(eps).with_batching(simjoin::BatchingConfig {
            batch_result_capacity: probe.result.len() / 4 + 8,
            ..simjoin::BatchingConfig::default()
        });
        let join = DynSelfJoin::new(&points, config.clone());
        let gpu = join.run(&ExecTarget::Gpu).unwrap();
        assert_eq!(gpu.result.sorted_pairs(), expected, "{dims}-D gpu");
        assert!(gpu.fleet.is_none() && gpu.hybrid.is_none());

        let fleet = DeviceFleet::homogeneous(2, config.gpu);
        let targets = [
            (
                "fleet",
                ExecTarget::Fleet(&fleet, ShardStrategy::WorkloadAware),
            ),
            ("hybrid", ExecTarget::Hybrid(HybridPolicy::default())),
        ];
        for (name, target) in targets {
            let ctx = format!("{dims}-D {name}");
            let outcome = join.run(&target).unwrap();
            assert_eq!(outcome.result.sorted_pairs(), expected, "{ctx}");
            assert_canonical_reports_identical(&gpu.report, &outcome.report, &ctx);
            match name {
                "fleet" => assert_eq!(outcome.fleet.unwrap().shards.len(), 2, "{ctx}"),
                _ => assert!(outcome.hybrid.is_some(), "{ctx}"),
            }
        }
    }
}

#[test]
fn unsupported_dimensionalities_are_typed_errors() {
    for dims in [1usize, 7] {
        let points = DynPoints::from_interleaved(dims, vec![0.5; dims * 4]);
        let join = DynSelfJoin::new(&points, SelfJoinConfig::new(0.1));
        for result in [
            join.run(&ExecTarget::Gpu).map(|_| ()),
            join.recommended_k().map(|_| ()),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, JoinError::Dimensionality(d) if d == dims),
                "{err}"
            );
            assert!(err.to_string().contains("unsupported dimensionality"));
        }
    }
}
