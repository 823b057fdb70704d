//! The device sort/scan pre-pass behind [`SortBackend::Device`].
//!
//! When the sort backend is `Device`, the planner's sorts (SORTBYWL batch
//! sorts, the WORKQUEUE cell ordering) and prefix sums (balanced queue cuts,
//! workload-aware fleet cuts) run as warp-kernel primitive chains from
//! [`warpsim::primitives`] instead of host `sort_unstable_by`/folds. The
//! primitives are bit-identical to the host oracles (differentially tested
//! in `tests/device_primitives_differential.rs`), so **planning results
//! never depend on the backend** — only the cost accounting in the
//! [`PrePassReport`] and the `sort`/`scan` phase telemetry do.
//!
//! Pre-pass launches are admitted through the same fault plane as the join's
//! batch kernels. A transient launch failure is retried up to
//! [`RetryPolicy::MAX_TRANSIENT_RETRIES`] times (geometric backoff,
//! accounted in model seconds); any other failure — or retry exhaustion —
//! **degrades the pre-pass to the host path** rather than failing the join:
//! planning is a pure function the host can always compute, so losing the
//! device during planning costs only the device-resident speedup, never
//! correctness. The degradation is recorded on the report and as an
//! `executor`/`prepass_degraded` telemetry event. Each launch steps its
//! warps on the join's resolved `host_jobs` workers.
//!
//! [`SortBackend::Device`]: crate::config::SortBackend::Device

use sj_telemetry::{Event, Telemetry};
use warpsim::{
    device_exclusive_scan, device_radix_argsort, FaultPlane, GpuConfig, LaunchError, LaunchOptions,
    PrimitiveReport, StepMode, DEFAULT_DIGIT_BITS,
};

use crate::config::RetryPolicy;

/// Cost and recovery accounting of the device sort/scan pre-pass of one
/// join. Present on [`JoinReport::prepass`](crate::JoinReport::prepass) only
/// for [`SortBackend::Device`](crate::SortBackend::Device) runs.
///
/// Pre-pass model seconds are reported here and in telemetry but are **not**
/// folded into [`JoinReport::response_time_s`](crate::JoinReport::response_time_s):
/// keeping the recorded tables backend-invariant is what lets CI diff the
/// experiment output between backends (and what keeps the Host default's
/// numbers untouched).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrePassReport {
    /// Model seconds spent in radix-sort kernel chains.
    pub sort_model_s: f64,
    /// Model cycles of the sort chains.
    pub sort_cycles: u64,
    /// Kernel launches issued by the sort chains.
    pub sort_launches: u64,
    /// Radix digit passes executed across all sort invocations.
    pub sort_passes: u32,
    /// Sort-primitive invocations (one per batch under SORTBYWL, one cell
    /// ordering under WORKQUEUE).
    pub sort_invocations: u32,
    /// Model seconds spent in standalone exclusive-scan chains (the scans
    /// embedded in sort passes are accounted under `sort_*`).
    pub scan_model_s: f64,
    /// Model cycles of the standalone scan chains.
    pub scan_cycles: u64,
    /// Kernel launches issued by the standalone scan chains.
    pub scan_launches: u64,
    /// Standalone scan invocations (balanced queue cut, fleet cut).
    pub scan_invocations: u32,
    /// Transient pre-pass launch failures that were retried.
    pub transient_retries: u32,
    /// Host backoff spent on those retries, model seconds.
    pub backoff_s: f64,
    /// Whether the pre-pass fell back to the host path after a
    /// non-transient fault or retry exhaustion.
    pub degraded_to_host: bool,
}

impl PrePassReport {
    /// Total pre-pass model seconds (sort + scan chains).
    pub fn model_s(&self) -> f64 {
        self.sort_model_s + self.scan_model_s
    }

    fn absorb_sort(&mut self, r: &PrimitiveReport) {
        self.sort_invocations += 1;
        self.sort_model_s += r.model_s;
        self.sort_cycles += r.elapsed_cycles;
        self.sort_launches += r.launches;
        self.sort_passes += r.passes;
    }

    fn absorb_scan(&mut self, r: &PrimitiveReport) {
        self.scan_invocations += 1;
        self.scan_model_s += r.model_s;
        self.scan_cycles += r.elapsed_cycles;
        self.scan_launches += r.launches;
    }
}

/// The SORTBYWL composite key of one point: ascending radix order on
/// `((max_w − w) << 32) | id` reproduces "non-increasing workload, ties by
/// ascending id" exactly (ids are unique, so stability is not even needed).
fn sortbywl_key(max_w: u64, w: u64, id: u32) -> u128 {
    (((max_w - w) as u128) << 32) | id as u128
}

/// Sorts `pids` by non-increasing workload (ties ascending id) through the
/// device radix-argsort chain — the device twin of
/// [`WorkloadProfile::sort_by_workload`](crate::WorkloadProfile::sort_by_workload).
pub fn device_sort_by_workload(
    gpu: &GpuConfig,
    per_point: &[u64],
    pids: &mut [u32],
    opts: &LaunchOptions<'_>,
) -> Result<PrimitiveReport, LaunchError> {
    let max_w = pids
        .iter()
        .map(|&p| per_point[p as usize])
        .max()
        .unwrap_or(0);
    let keys: Vec<u128> = pids
        .iter()
        .map(|&p| sortbywl_key(max_w, per_point[p as usize], p))
        .collect();
    let (perm, report) = device_radix_argsort(gpu, &keys, DEFAULT_DIGIT_BITS, opts)?;
    let sorted: Vec<u32> = perm.iter().map(|&i| pids[i as usize]).collect();
    pids.copy_from_slice(&sorted);
    Ok(report)
}

/// Computes the WORKQUEUE cell ordering (cells by non-increasing workload,
/// ties ascending cell index) on the device — the device twin of
/// [`WorkloadProfile::cell_order`](crate::WorkloadProfile::cell_order).
pub fn device_cell_order(
    gpu: &GpuConfig,
    per_cell: &[u64],
    opts: &LaunchOptions<'_>,
) -> Result<(Vec<u32>, PrimitiveReport), LaunchError> {
    let max_w = per_cell.iter().copied().max().unwrap_or(0);
    let keys: Vec<u128> = per_cell
        .iter()
        .enumerate()
        .map(|(c, &w)| sortbywl_key(max_w, w, c as u32))
        .collect();
    // Keys are laid out in cell-index order, so the argsort permutation *is*
    // the cell order.
    device_radix_argsort(gpu, &keys, DEFAULT_DIGIT_BITS, opts)
}

/// Computes the inclusive prefix (`out[i] = values[0] + … + values[i]`) from
/// the device exclusive-scan chain. Identical to the host `u128` fold as
/// long as the running total fits `u64` — which the workload totals the
/// planner scans always do ([`WorkloadProfile::total`] is itself a `u64`
/// sum).
///
/// [`WorkloadProfile::total`]: crate::WorkloadProfile::total
pub fn device_inclusive_prefix(
    gpu: &GpuConfig,
    values: &[u64],
    opts: &LaunchOptions<'_>,
) -> Result<(Vec<u128>, PrimitiveReport), LaunchError> {
    let (exclusive, report) = device_exclusive_scan(gpu, values, opts)?;
    let inclusive = exclusive
        .iter()
        .zip(values)
        .map(|(&e, &v)| e as u128 + v as u128)
        .collect();
    Ok((inclusive, report))
}

/// The executor's pre-pass driver: runs primitives with retry/degrade
/// semantics and accumulates the [`PrePassReport`].
pub(crate) struct DevicePrepass<'a> {
    gpu: &'a GpuConfig,
    step_mode: StepMode,
    /// Host worker threads stepping each launch's warps.
    workers: usize,
    fault: Option<&'a FaultPlane>,
    telemetry: &'a dyn Telemetry,
    /// Accounting so far; taken by the executor when planning finishes.
    pub stats: PrePassReport,
}

impl<'a> DevicePrepass<'a> {
    pub fn new(
        gpu: &'a GpuConfig,
        step_mode: StepMode,
        workers: usize,
        fault: Option<&'a FaultPlane>,
        telemetry: &'a dyn Telemetry,
    ) -> Self {
        Self {
            gpu,
            step_mode,
            workers,
            fault,
            telemetry,
            stats: PrePassReport::default(),
        }
    }

    /// The options every pre-pass launch runs with.
    fn launch_options(&self) -> LaunchOptions<'a> {
        let opts = LaunchOptions::default()
            .with_step_mode(self.step_mode)
            .with_workers(self.workers);
        match self.fault {
            Some(plane) => opts.with_fault_plane(plane),
            None => opts,
        }
    }

    /// Runs one primitive invocation with bounded transient retry. Returns
    /// `None` — after marking the pre-pass degraded and emitting the
    /// `prepass_degraded` event — when the device path is unavailable; the
    /// caller then computes the same result on the host.
    fn attempt<T>(
        &mut self,
        primitive: &'static str,
        site: &'static str,
        run: impl Fn(&LaunchOptions<'_>) -> Result<T, LaunchError>,
    ) -> Option<T> {
        if self.stats.degraded_to_host {
            // A lost device stays lost: don't hammer the plane once the
            // pre-pass has fallen back to the host.
            return None;
        }
        let opts = self.launch_options();
        let mut attempt = 0u32;
        loop {
            match run(&opts) {
                Ok(v) => return Some(v),
                Err(LaunchError::Transient(_)) if attempt < RetryPolicy::MAX_TRANSIENT_RETRIES => {
                    attempt += 1;
                    self.stats.transient_retries += 1;
                    self.stats.backoff_s +=
                        RetryPolicy::backoff_for(RetryPolicy::TRANSIENT_BACKOFF_S, attempt);
                }
                Err(err) => {
                    self.stats.degraded_to_host = true;
                    if self.telemetry.is_enabled() {
                        self.telemetry.record(
                            Event::new("executor", "prepass_degraded")
                                .str("primitive", primitive)
                                .str("site", site)
                                .str("class", err.class()),
                        );
                    }
                    return None;
                }
            }
        }
    }

    /// Device SORTBYWL sort of `pids`; `false` means the caller must run the
    /// host sort instead.
    pub fn sort_by_workload(
        &mut self,
        per_point: &[u64],
        pids: &mut [u32],
        site: &'static str,
    ) -> bool {
        let outcome = self.attempt("radix_sort", site, |opts| {
            let mut scratch = pids.to_vec();
            device_sort_by_workload(self.gpu, per_point, &mut scratch, opts)
                .map(|report| (scratch, report))
        });
        match outcome {
            Some((sorted, report)) => {
                pids.copy_from_slice(&sorted);
                self.stats.absorb_sort(&report);
                true
            }
            None => false,
        }
    }

    /// Device WORKQUEUE cell ordering; `None` means host fallback.
    pub fn cell_order(&mut self, per_cell: &[u64], site: &'static str) -> Option<Vec<u32>> {
        let (order, report) = self.attempt("radix_sort", site, |opts| {
            device_cell_order(self.gpu, per_cell, opts)
        })?;
        self.stats.absorb_sort(&report);
        Some(order)
    }

    /// Device inclusive workload prefix; `None` means host fallback.
    pub fn inclusive_prefix(&mut self, values: &[u64], site: &'static str) -> Option<Vec<u128>> {
        let (prefix, report) = self.attempt("exclusive_scan", site, |opts| {
            device_inclusive_prefix(self.gpu, values, opts)
        })?;
        self.stats.absorb_scan(&report);
        Some(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadProfile;
    use sj_telemetry::NULL;
    use warpsim::{FaultSchedule, GpuConfig};

    fn heavy_tail_workloads(n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    5000
                } else {
                    (i as u64 * 13) % 40
                }
            })
            .collect()
    }

    #[test]
    fn device_sort_matches_host_oracle() {
        let gpu = GpuConfig::small_test();
        let per_point = heavy_tail_workloads(300);
        let profile = WorkloadProfile::from_per_point(per_point.clone());
        let mut host: Vec<u32> = (0..300u32).collect();
        profile.sort_by_workload(&mut host);
        let mut device: Vec<u32> = (0..300u32).collect();
        device_sort_by_workload(&gpu, &per_point, &mut device, &LaunchOptions::default()).unwrap();
        assert_eq!(device, host);
    }

    #[test]
    fn device_cell_order_matches_host_oracle() {
        let gpu = GpuConfig::small_test();
        let per_cell = heavy_tail_workloads(97);
        let mut host: Vec<u32> = (0..97u32).collect();
        host.sort_unstable_by_key(|&c| (std::cmp::Reverse(per_cell[c as usize]), c));
        let (device, report) =
            device_cell_order(&gpu, &per_cell, &LaunchOptions::default()).unwrap();
        assert_eq!(device, host);
        assert!(report.model_s > 0.0);
    }

    #[test]
    fn device_prefix_matches_host_fold() {
        let gpu = GpuConfig::small_test();
        let values = heavy_tail_workloads(211);
        let (device, _) =
            device_inclusive_prefix(&gpu, &values, &LaunchOptions::default()).unwrap();
        let mut acc = 0u128;
        let host: Vec<u128> = values
            .iter()
            .map(|&v| {
                acc += v as u128;
                acc
            })
            .collect();
        assert_eq!(device, host);
    }

    #[test]
    fn transient_prepass_fault_is_retried_with_backoff() {
        let gpu = GpuConfig::small_test();
        let plane = warpsim::FaultPlane::new(FaultSchedule::new().transient_at(0));
        let mut prepass = DevicePrepass::new(&gpu, StepMode::default(), 1, Some(&plane), &NULL);
        let per_point = heavy_tail_workloads(64);
        let mut pids: Vec<u32> = (0..64u32).collect();
        assert!(prepass.sort_by_workload(&per_point, &mut pids, "test"));
        assert!(!prepass.stats.degraded_to_host);
        assert_eq!(prepass.stats.transient_retries, 1);
        assert!(prepass.stats.backoff_s > 0.0);
        assert_eq!(prepass.stats.sort_invocations, 1);
        let profile = WorkloadProfile::from_per_point(per_point);
        let mut host: Vec<u32> = (0..64u32).collect();
        profile.sort_by_workload(&mut host);
        assert_eq!(pids, host, "retried sort must still match the oracle");
    }

    #[test]
    fn device_loss_degrades_to_host_and_stays_degraded() {
        let gpu = GpuConfig::small_test();
        let plane = warpsim::FaultPlane::new(FaultSchedule::new().device_lost_at(0));
        let sink = sj_telemetry::JsonTelemetry::new("prepass");
        let mut prepass = DevicePrepass::new(&gpu, StepMode::default(), 1, Some(&plane), &sink);
        let values = heavy_tail_workloads(32);
        assert!(prepass.inclusive_prefix(&values, "queue_cut").is_none());
        assert!(prepass.stats.degraded_to_host);
        // Follow-up invocations short-circuit to the host without touching
        // the (lost) device.
        let mut pids: Vec<u32> = (0..32u32).collect();
        assert!(!prepass.sort_by_workload(&values, &mut pids, "batch"));
        let events = sink.events_named("executor", "prepass_degraded");
        assert_eq!(events.len(), 1, "degradation is recorded exactly once");
    }

    #[test]
    fn launches_step_on_the_joins_host_workers() {
        let gpu = GpuConfig::small_test();
        let plane = warpsim::FaultPlane::new(FaultSchedule::new());
        for (workers, fault) in [(1, None), (3, Some(&plane))] {
            let prepass = DevicePrepass::new(&gpu, StepMode::Stepped, workers, fault, &NULL);
            let opts = prepass.launch_options();
            assert_eq!(opts.workers, Some(workers));
            assert_eq!(opts.step_mode, StepMode::Stepped);
            assert_eq!(opts.fault_plane.is_some(), fault.is_some());
        }
    }
}
