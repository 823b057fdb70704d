//! Deterministic fault injection for the simulated device.
//!
//! Real GPUs fail in ways the batching scheme's host-side recovery must
//! survive: kernel launches error out transiently, devices drop off the bus
//! mid-join, the work-queue head gets corrupted, transfers stall behind
//! other PCIe traffic, and result buffers overflow when the 1 % sample
//! under-estimates. The [`FaultPlane`] injects exactly those failures into
//! simulated launches on a **reproducible schedule**: a [`FaultSchedule`]
//! maps launch indices (0-based, in the order launches are issued against
//! the plane) to faults, either spelled out explicitly or rolled from a
//! seeded [`FaultProfile`].
//!
//! Injection is split between the two sides that would observe it on real
//! hardware:
//!
//! - **Launch-level faults** (transient failure, device lost, forced result
//!   overflow) are applied inside [`crate::kernel::launch_with`] when a
//!   plane is attached via [`crate::kernel::LaunchOptions::fault_plane`].
//!   Transient and device-lost faults abort *before* warp construction, so
//!   a work-queue source's counter is untouched — exactly like a launch
//!   that never reached the device. A forced overflow surfaces *after* the
//!   warps ran, like a real capacity overflow.
//! - **Host-visible faults** (queue-counter corruption, transfer stalls)
//!   are consumed by the executor around each launch via
//!   [`FaultPlane::take_counter_bump`] / [`FaultPlane::take_transfer_stall`],
//!   because only the host owns the counter and the transfer schedule.
//!
//! A plane with an empty schedule is behaviourally inert: attaching it
//! changes no pair set, cycle count, or model second.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A transient (retryable) launch failure, e.g. a spurious
/// `cudaErrorLaunchFailure` that succeeds on re-submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFault {
    /// Index of the failed launch in the plane's launch order.
    pub launch_index: u64,
}

impl std::fmt::Display for TransientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transient launch failure at launch {}",
            self.launch_index
        )
    }
}

impl std::error::Error for TransientFault {}

/// The device dropped and every subsequent launch fails (sticky).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLostFault {
    /// Index of the launch at which the device was first lost.
    pub launch_index: u64,
}

impl std::fmt::Display for DeviceLostFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device lost at launch {}", self.launch_index)
    }
}

impl std::error::Error for DeviceLostFault {}

/// The work-queue head does not hold the value the batch plan requires
/// (a stuck or corrupted [`crate::atomics::DeviceCounter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterFault {
    /// The head position the plan requires.
    pub expected: u64,
    /// The head position actually observed.
    pub observed: u64,
}

impl std::fmt::Display for CounterFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device counter fault: queue head at {} but plan requires {}",
            self.observed, self.expected
        )
    }
}

impl std::error::Error for CounterFault {}

/// Launch-level fault kinds the plane can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaunchFault {
    Transient,
    DeviceLost,
    ForcedOverflow,
}

/// Everything scheduled against one launch index.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct LaunchFaults {
    launch: Option<LaunchFault>,
    counter_bump: Option<u64>,
    transfer_stall_s: Option<f64>,
}

/// Per-launch fault rates used by [`FaultSchedule::seeded`].
///
/// Rates are independent per launch index; the launch-level kinds are
/// mutually exclusive per index (rolled in the order transient →
/// device-lost → overflow, first hit wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Launch indices to pre-roll faults for.
    pub horizon: u64,
    /// Probability of a transient launch failure per launch.
    pub transient_rate: f64,
    /// Probability the device is lost at a given launch (sticky).
    pub device_lost_rate: f64,
    /// Probability a launch's result buffer is forced to overflow.
    pub overflow_rate: f64,
    /// Probability the queue head is corrupted before a launch.
    pub counter_bump_rate: f64,
    /// Maximum spurious head advance of a corruption (≥ 1).
    pub counter_bump_max: u64,
    /// Probability a batch's device-to-host transfer stalls.
    pub transfer_stall_rate: f64,
    /// Added transfer latency per stall, model seconds.
    pub transfer_stall_s: f64,
}

impl FaultProfile {
    fn quiet() -> Self {
        Self {
            horizon: 256,
            transient_rate: 0.0,
            device_lost_rate: 0.0,
            overflow_rate: 0.0,
            counter_bump_rate: 0.0,
            counter_bump_max: 4,
            transfer_stall_rate: 0.0,
            transfer_stall_s: 5e-3,
        }
    }

    /// Occasional retryable launch failures.
    pub fn transient() -> Self {
        Self {
            transient_rate: 0.3,
            ..Self::quiet()
        }
    }

    /// The device eventually drops mid-join.
    pub fn device_lost() -> Self {
        Self {
            device_lost_rate: 0.25,
            ..Self::quiet()
        }
    }

    /// Result buffers overflow regardless of the estimate.
    pub fn overflow() -> Self {
        Self {
            overflow_rate: 0.3,
            ..Self::quiet()
        }
    }

    /// The work-queue head gets corrupted between launches.
    pub fn counter() -> Self {
        Self {
            counter_bump_rate: 0.35,
            ..Self::quiet()
        }
    }

    /// Device-to-host transfers stall behind other traffic.
    pub fn stall() -> Self {
        Self {
            transfer_stall_rate: 0.4,
            ..Self::quiet()
        }
    }

    /// A bit of everything, at lower rates.
    pub fn mixed() -> Self {
        Self {
            transient_rate: 0.12,
            device_lost_rate: 0.04,
            overflow_rate: 0.1,
            counter_bump_rate: 0.1,
            transfer_stall_rate: 0.15,
            ..Self::quiet()
        }
    }

    /// The profile names accepted by [`FaultProfile::by_name`].
    pub fn names() -> &'static [&'static str] {
        &[
            "transient",
            "device-lost",
            "overflow",
            "counter",
            "stall",
            "mixed",
        ]
    }

    /// Looks up a named profile (the `simjoin join --fault-profile` values).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "transient" => Some(Self::transient()),
            "device-lost" => Some(Self::device_lost()),
            "overflow" => Some(Self::overflow()),
            "counter" => Some(Self::counter()),
            "stall" => Some(Self::stall()),
            "mixed" => Some(Self::mixed()),
            _ => None,
        }
    }
}

/// A reproducible mapping from launch indices to injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    entries: BTreeMap<u64, LaunchFaults>,
}

impl FaultSchedule {
    /// An empty (inert) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of launch indices with at least one scheduled fault.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules a transient failure for launch `index`.
    pub fn transient_at(mut self, index: u64) -> Self {
        self.entries.entry(index).or_default().launch = Some(LaunchFault::Transient);
        self
    }

    /// Schedules the device-lost condition at launch `index`.
    pub fn device_lost_at(mut self, index: u64) -> Self {
        self.entries.entry(index).or_default().launch = Some(LaunchFault::DeviceLost);
        self
    }

    /// Forces launch `index`'s result buffer to overflow.
    pub fn overflow_at(mut self, index: u64) -> Self {
        self.entries.entry(index).or_default().launch = Some(LaunchFault::ForcedOverflow);
        self
    }

    /// Corrupts the queue head by `bump` spurious increments before launch
    /// `index` (consumed by the executor, queue plans only).
    pub fn counter_bump_at(mut self, index: u64, bump: u64) -> Self {
        self.entries.entry(index).or_default().counter_bump = Some(bump.max(1));
        self
    }

    /// Stalls the transfer of the batch completed by launch `index` for
    /// `stall_s` model seconds.
    pub fn transfer_stall_at(mut self, index: u64, stall_s: f64) -> Self {
        self.entries.entry(index).or_default().transfer_stall_s = Some(stall_s.max(0.0));
        self
    }

    /// Rolls a schedule from `seed` under `profile` — the same `(seed,
    /// profile)` always yields the same schedule.
    pub fn seeded(seed: u64, profile: &FaultProfile) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut schedule = Self::new();
        for index in 0..profile.horizon {
            let launch = if unit(&mut state) < profile.transient_rate {
                Some(LaunchFault::Transient)
            } else if unit(&mut state) < profile.device_lost_rate {
                Some(LaunchFault::DeviceLost)
            } else if unit(&mut state) < profile.overflow_rate {
                Some(LaunchFault::ForcedOverflow)
            } else {
                None
            };
            let counter_bump = (unit(&mut state) < profile.counter_bump_rate)
                .then(|| 1 + splitmix64(&mut state) % profile.counter_bump_max.max(1));
            let transfer_stall_s = (unit(&mut state) < profile.transfer_stall_rate)
                .then_some(profile.transfer_stall_s);
            if launch.is_some() || counter_bump.is_some() || transfer_stall_s.is_some() {
                schedule.entries.insert(
                    index,
                    LaunchFaults {
                        launch,
                        counter_bump,
                        transfer_stall_s,
                    },
                );
            }
        }
        schedule
    }
}

/// What [`FaultPlane::admit_launch`] grants a launch that is allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchAdmission {
    /// Index of this launch in the plane's launch order.
    pub launch_index: u64,
    /// The launch must report a result-buffer overflow after executing.
    pub force_overflow: bool,
}

/// The attachable fault-injection plane.
///
/// One plane observes every launch issued against it (through
/// [`crate::kernel::LaunchOptions::fault_plane`]) and injects the faults its
/// [`FaultSchedule`] assigns to each launch index. The device-lost condition
/// latches: once injected, every later admission fails too, like a real
/// device that fell off the bus.
#[derive(Debug)]
pub struct FaultPlane {
    schedule: Mutex<BTreeMap<u64, LaunchFaults>>,
    next_launch: AtomicU64,
    lost: AtomicBool,
    injected: AtomicU64,
}

impl FaultPlane {
    /// A plane injecting `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        Self {
            schedule: Mutex::new(schedule.entries),
            next_launch: AtomicU64::new(0),
            lost: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        }
    }

    /// A plane rolled from `seed` under a named or constructed profile.
    pub fn seeded(seed: u64, profile: &FaultProfile) -> Self {
        Self::new(FaultSchedule::seeded(seed, profile))
    }

    /// Index the next admitted launch will receive.
    pub fn next_launch_index(&self) -> u64 {
        self.next_launch.load(Ordering::Relaxed)
    }

    /// Whether the device-lost condition has latched.
    pub fn device_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (all kinds).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Admits or fails the next launch. Called by
    /// [`crate::kernel::launch_with`] before any warp is constructed, so a
    /// failed admission leaves device state (queue counters) untouched.
    pub fn admit_launch(&self) -> Result<LaunchAdmission, crate::kernel::LaunchError> {
        use crate::kernel::LaunchError;
        let launch_index = self.next_launch.fetch_add(1, Ordering::Relaxed);
        if self.lost.load(Ordering::Relaxed) {
            return Err(LaunchError::DeviceLost(DeviceLostFault { launch_index }));
        }
        let fault = {
            let mut schedule = self.schedule.lock().expect("fault schedule poisoned");
            schedule
                .get_mut(&launch_index)
                .and_then(|entry| entry.launch.take())
        };
        match fault {
            None => Ok(LaunchAdmission {
                launch_index,
                force_overflow: false,
            }),
            Some(LaunchFault::ForcedOverflow) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Ok(LaunchAdmission {
                    launch_index,
                    force_overflow: true,
                })
            }
            Some(LaunchFault::Transient) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(LaunchError::Transient(TransientFault { launch_index }))
            }
            Some(LaunchFault::DeviceLost) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.lost.store(true, Ordering::Relaxed);
                Err(LaunchError::DeviceLost(DeviceLostFault { launch_index }))
            }
        }
    }

    /// Takes the queue-head corruption scheduled for the **next** launch, if
    /// any. The executor calls this immediately before a queue-chunk launch
    /// and applies the bump to its [`crate::atomics::DeviceCounter`],
    /// simulating device-side corruption of the work-queue head.
    pub fn take_counter_bump(&self) -> Option<u64> {
        let index = self.next_launch.load(Ordering::Relaxed);
        let bump = {
            let mut schedule = self.schedule.lock().expect("fault schedule poisoned");
            schedule
                .get_mut(&index)
                .and_then(|entry| entry.counter_bump.take())
        };
        if bump.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        bump
    }

    /// Takes the transfer stall scheduled for the launch that **just
    /// completed**, if any — extra model seconds the executor adds to that
    /// batch's device-to-host transfer.
    pub fn take_transfer_stall(&self) -> Option<f64> {
        let completed = self.next_launch.load(Ordering::Relaxed).checked_sub(1)?;
        let stall = {
            let mut schedule = self.schedule.lock().expect("fault schedule poisoned");
            schedule
                .get_mut(&completed)
                .and_then(|entry| entry.transfer_stall_s.take())
        };
        if stall.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        stall
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchError;

    #[test]
    fn empty_schedule_admits_everything() {
        let plane = FaultPlane::new(FaultSchedule::new());
        for i in 0..10 {
            let adm = plane.admit_launch().unwrap();
            assert_eq!(adm.launch_index, i);
            assert!(!adm.force_overflow);
        }
        assert_eq!(plane.injected_faults(), 0);
        assert!(plane.take_counter_bump().is_none());
        assert!(plane.take_transfer_stall().is_none());
    }

    #[test]
    fn scheduled_faults_fire_at_their_launch_index() {
        let schedule = FaultSchedule::new()
            .transient_at(1)
            .overflow_at(2)
            .counter_bump_at(3, 5)
            .transfer_stall_at(0, 0.25);
        let plane = FaultPlane::new(schedule);
        assert!(plane.admit_launch().is_ok());
        assert_eq!(plane.take_transfer_stall(), Some(0.25));
        assert!(matches!(
            plane.admit_launch(),
            Err(LaunchError::Transient(TransientFault { launch_index: 1 }))
        ));
        let adm = plane.admit_launch().unwrap();
        assert!(adm.force_overflow);
        assert_eq!(plane.take_counter_bump(), Some(5));
        assert!(!plane.admit_launch().unwrap().force_overflow);
        assert_eq!(plane.injected_faults(), 4);
    }

    #[test]
    fn device_lost_latches() {
        let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(0));
        assert!(matches!(
            plane.admit_launch(),
            Err(LaunchError::DeviceLost(_))
        ));
        assert!(plane.device_lost());
        // Every later launch fails too.
        for _ in 0..3 {
            assert!(matches!(
                plane.admit_launch(),
                Err(LaunchError::DeviceLost(_))
            ));
        }
    }

    #[test]
    fn faults_are_consumed_once() {
        let plane = FaultPlane::new(FaultSchedule::new().counter_bump_at(0, 2));
        assert_eq!(plane.take_counter_bump(), Some(2));
        assert_eq!(plane.take_counter_bump(), None);
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let profile = FaultProfile::mixed();
        let a = FaultSchedule::seeded(42, &profile);
        let b = FaultSchedule::seeded(42, &profile);
        assert_eq!(a, b);
        let c = FaultSchedule::seeded(43, &profile);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn seeded_rates_roughly_hold() {
        let profile = FaultProfile {
            horizon: 2000,
            transient_rate: 0.5,
            ..FaultProfile::transient()
        };
        let schedule = FaultSchedule::seeded(7, &profile);
        let hits = schedule.len();
        assert!(
            (800..1200).contains(&hits),
            "~50% of 2000 indices should carry a fault, got {hits}"
        );
    }

    #[test]
    fn named_profiles_resolve() {
        for name in FaultProfile::names() {
            assert!(FaultProfile::by_name(name).is_some(), "{name}");
        }
        assert!(FaultProfile::by_name("nope").is_none());
    }

    #[test]
    fn fault_payloads_display_and_chain() {
        let t = TransientFault { launch_index: 3 };
        assert!(t.to_string().contains("launch 3"));
        let d = DeviceLostFault { launch_index: 1 };
        assert!(d.to_string().contains("device lost"));
        let c = CounterFault {
            expected: 10,
            observed: 12,
        };
        assert!(c.to_string().contains("12"));
    }
}
