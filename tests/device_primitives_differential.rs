//! Differential suite for the on-device primitives: the warp-kernel radix
//! sort must produce the **bit-identical permutation** to the host SORTBYWL
//! path (`WorkloadProfile::sort_by_workload`, stable tie-break included),
//! and the device exclusive scan must match a host fold — for arbitrary key
//! distributions (uniform, heavy-tail, all-equal, already-sorted, reversed,
//! 0/1-element), across `StepMode::{Stepped, RunLength}` and device shapes
//! from 1 to 4 SMs. Any deviation means the `SortBackend::Device` planner
//! would plan differently from the host oracle, which the end-to-end
//! invariance suite (`step_mode_equivalence.rs`) assumes never happens.

use proptest::prelude::*;
use simjoin::{
    device_cell_order, device_inclusive_prefix, device_sort_by_workload, WorkloadProfile,
};
use warpsim::{
    device_exclusive_scan, device_radix_argsort, GpuConfig, LaunchOptions, StepMode,
    DEFAULT_DIGIT_BITS,
};

const MODES: [StepMode; 2] = [StepMode::Stepped, StepMode::RunLength];

/// A small device with the given SM count ("1–4 devices" axis): warp size 4
/// so multi-warp tiling kicks in from tiny inputs.
fn gpu(num_sms: u32) -> GpuConfig {
    GpuConfig {
        num_sms,
        ..GpuConfig::small_test()
    }
}

/// Deterministic workload generator covering the named distributions.
/// `dist`: 0 = uniform, 1 = heavy-tail, 2 = all-equal, 3 = already-sorted
/// (non-increasing, the fixed point of SORTBYWL), 4 = reversed
/// (non-decreasing, the adversarial input), 5 = tiny (0 or 1 element).
fn workloads(dist: usize, n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    match dist {
        0 => (0..n).map(|_| next() % 1000).collect(),
        1 => (0..n)
            .map(|_| {
                if next() % 13 == 0 {
                    1_000_000 + next() % 1000
                } else {
                    next() % 20
                }
            })
            .collect(),
        2 => vec![next() % 100; n],
        3 => {
            let mut v: Vec<u64> = (0..n).map(|_| next() % 500).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        4 => {
            let mut v: Vec<u64> = (0..n).map(|_| next() % 500).collect();
            v.sort_unstable();
            v
        }
        _ => (0..n.min(1)).map(|_| next() % 100).collect(),
    }
}

fn host_sorted(per_point: &[u64]) -> Vec<u32> {
    let profile = WorkloadProfile::from_per_point(per_point.to_vec());
    let mut ids: Vec<u32> = (0..per_point.len() as u32).collect();
    profile.sort_by_workload(&mut ids);
    ids
}

fn host_exclusive(values: &[u64]) -> Vec<u64> {
    let mut acc = 0u64;
    values
        .iter()
        .map(|&v| {
            let out = acc;
            acc = acc.wrapping_add(v);
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Device radix sort == host SORTBYWL permutation, bit for bit, on every
    /// distribution × step mode × device shape.
    #[test]
    fn radix_sort_matches_host_permutation(
        dist in 0usize..6,
        n in 0usize..220,
        seed in 1u64..1_000_000,
        num_sms in 1u32..5,
    ) {
        let per_point = workloads(dist, n, seed);
        let expected = host_sorted(&per_point);
        let gpu = gpu(num_sms);
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);
            let mut ids: Vec<u32> = (0..per_point.len() as u32).collect();
            device_sort_by_workload(&gpu, &per_point, &mut ids, &opts).unwrap();
            prop_assert_eq!(
                &ids, &expected,
                "dist={} n={} sms={} mode={:?}", dist, n, num_sms, mode
            );
        }
    }

    /// Device exclusive scan == host wrapping fold on the same matrix, and
    /// the derived inclusive prefix matches the u128 host fold the batch
    /// planner cuts on.
    #[test]
    fn exclusive_scan_matches_host_fold(
        dist in 0usize..6,
        n in 0usize..220,
        seed in 1u64..1_000_000,
        num_sms in 1u32..5,
    ) {
        let values = workloads(dist, n, seed);
        let expected = host_exclusive(&values);
        let mut acc = 0u128;
        let expected_inclusive: Vec<u128> = values
            .iter()
            .map(|&v| {
                acc += v as u128;
                acc
            })
            .collect();
        let gpu = gpu(num_sms);
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);
            let (scan, _) = device_exclusive_scan(&gpu, &values, &opts).unwrap();
            prop_assert_eq!(
                &scan, &expected,
                "dist={} n={} sms={} mode={:?}", dist, n, num_sms, mode
            );
            let (inclusive, _) = device_inclusive_prefix(&gpu, &values, &opts).unwrap();
            prop_assert_eq!(&inclusive, &expected_inclusive);
        }
    }

    /// The raw argsort is *stable*: on arbitrary keys with heavy duplication
    /// it reproduces the stable host argsort exactly (the property that
    /// makes the composite SORTBYWL key reproduce the id tie-break).
    #[test]
    fn raw_argsort_is_stable(
        n in 0usize..160,
        seed in 1u64..1_000_000,
        modulus in 1u64..8,
        num_sms in 1u32..5,
    ) {
        let keys: Vec<u128> = workloads(0, n, seed)
            .into_iter()
            .map(|w| (w % modulus) as u128)
            .collect();
        let mut expected: Vec<u32> = (0..n as u32).collect();
        expected.sort_by_key(|&i| keys[i as usize]); // stable host sort
        let gpu = gpu(num_sms);
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);
            let (order, _) =
                device_radix_argsort(&gpu, &keys, DEFAULT_DIGIT_BITS, &opts).unwrap();
            prop_assert_eq!(&order, &expected, "n={} modulus={}", n, modulus);
        }
    }
}

/// The explicit degenerate inputs, spelled out (the proptests reach them by
/// sampling; these pin them unconditionally).
#[test]
fn degenerate_inputs_are_identities() {
    for num_sms in 1..=4 {
        let gpu = gpu(num_sms);
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);

            let mut empty: Vec<u32> = vec![];
            let report = device_sort_by_workload(&gpu, &[], &mut empty, &opts).unwrap();
            assert_eq!(report.launches, 0, "empty sort launches nothing");
            let (scan, report) = device_exclusive_scan(&gpu, &[], &opts).unwrap();
            assert!(scan.is_empty());
            assert_eq!(report.launches, 0, "empty scan launches nothing");

            let mut one = vec![0u32];
            device_sort_by_workload(&gpu, &[42], &mut one, &opts).unwrap();
            assert_eq!(one, vec![0]);
            let (scan, _) = device_exclusive_scan(&gpu, &[42], &opts).unwrap();
            assert_eq!(scan, vec![0]);

            // All-equal workloads: the composite key degenerates to the id,
            // so the sort must return ascending ids.
            let per_point = vec![7u64; 33];
            let mut ids: Vec<u32> = (0..33u32).rev().collect();
            // The host path sorts the *given* slice; feed the same reversed
            // slice to both.
            let profile = WorkloadProfile::from_per_point(per_point.clone());
            let mut host: Vec<u32> = ids.clone();
            profile.sort_by_workload(&mut host);
            device_sort_by_workload(&gpu, &per_point, &mut ids, &opts).unwrap();
            assert_eq!(ids, host);
        }
    }
}

/// The device cell ordering matches the host `cell_order` oracle (the
/// WORKQUEUE `D'` construction) on duplicated-workload cell profiles.
#[test]
fn cell_order_matches_host_oracle_across_shapes() {
    let per_cell: Vec<u64> = (0..77u64).map(|i| (i * 31) % 6).collect();
    let profile_order = {
        let mut cells: Vec<u32> = (0..77u32).collect();
        cells.sort_unstable_by_key(|&c| (std::cmp::Reverse(per_cell[c as usize]), c));
        cells
    };
    for num_sms in 1..=4 {
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);
            let (order, report) = device_cell_order(&gpu(num_sms), &per_cell, &opts).unwrap();
            assert_eq!(order, profile_order, "sms={num_sms} mode={mode:?}");
            assert!(report.model_s > 0.0);
        }
    }
}

/// Cost accounting is step-mode invariant (the run-length mode may not change
/// model cycles) but *device-shape dependent* — the property that makes the
/// pre-pass a meaningful costed phase rather than bookkeeping. The direction
/// is checked on the scan: a narrower device folds bigger per-lane tiles, so
/// 1 SM must cost more cycles than 4. (The sort has no fixed direction: its
/// per-warp histogram grows with warp count, so a wider device scans a
/// larger histogram.)
#[test]
fn primitive_costs_are_mode_invariant_and_shape_sensitive() {
    let per_point = workloads(1, 200, 99);
    let mut scan_reports = vec![];
    for num_sms in [1u32, 4] {
        let gpu = gpu(num_sms);
        let mut sort_per_mode = vec![];
        let mut scan_per_mode = vec![];
        for mode in MODES {
            let opts = LaunchOptions::default().with_step_mode(mode);
            let mut ids: Vec<u32> = (0..200u32).collect();
            sort_per_mode.push(device_sort_by_workload(&gpu, &per_point, &mut ids, &opts).unwrap());
            scan_per_mode.push(device_exclusive_scan(&gpu, &per_point, &opts).unwrap().1);
        }
        assert_eq!(
            sort_per_mode[0], sort_per_mode[1],
            "step mode changed the sort cost"
        );
        assert_eq!(
            scan_per_mode[0], scan_per_mode[1],
            "step mode changed the scan cost"
        );
        scan_reports.push(scan_per_mode[0]);
    }
    assert!(
        scan_reports[0].elapsed_cycles > scan_reports[1].elapsed_cycles,
        "1 SM ({}) should cost more scan cycles than 4 SMs ({})",
        scan_reports[0].elapsed_cycles,
        scan_reports[1].elapsed_cycles
    );
}
