//! The CPU/GPU overlap driver of §4.3 (Figure 11).
//!
//! MetaHipMer2 launches the driver function in a separate thread so that,
//! while the GPU chews on bin 3 (the few contigs with the most candidate
//! reads), the CPU keeps extending bin-2 contigs; whatever bin-2 work
//! remains when the GPU returns is offloaded too — a *dynamic* handoff.
//!
//! Two scheduling policies reproduce that:
//!
//! * [`SchedulePolicy::WorkSteal`] (default) — the deque scheduler of
//!   [`crate::schedule`]: cost-estimated batches, GPU drains the
//!   bin-3-first head, CPU steals from the bin-2 tail, whichever engine is
//!   behind on its virtual clock takes the next batch.
//! * [`SchedulePolicy::Static`] — the historical fixed `cpu_bin2_fraction`
//!   split, kept as the comparison baseline. The CPU share is now dealt
//!   **size-interleaved** (not a prefix of `bins.small`), so even the
//!   static split is no longer biased by binning order.
//!
//! Functional output is engine-independent (the equivalence tests
//! guarantee it), so the policy is purely a performance knob — exactly as
//! in the paper. Both paths share task data by index; tasks are never
//! deep-cloned per engine.

use crate::binning::bin_tasks;
use crate::cpu::extend_cpu_isolated_refs;
use crate::gpu::pack::estimate_task_cost;
use crate::gpu::{GpuLocalAssembler, GpuRunStats, KernelVersion};
use crate::params::LocalAssemblyParams;
use crate::schedule::{build_batches, run_work_steal, ScheduleReport, StealConfig};
use crate::task::{ExtResult, ExtTask, TaskOutcome};
use gpusim::DeviceConfig;
use std::time::Instant;

/// Why an overlapped run could not produce results at all. Per-task
/// failures do NOT produce this — they degrade to skipped tasks, counted
/// in [`OverlapOutcome::failed_tasks`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// An engine returned the wrong number of results for its task split —
    /// an internal invariant violation, not a recoverable device fault.
    ResultMismatch {
        /// Results the split said the engine should produce.
        expected: usize,
        /// Results the engine actually returned.
        got: usize,
    },
    /// The driver was configured with an out-of-domain knob (NaN or
    /// out-of-range fraction, zero batch granularity, non-positive rate).
    /// Rejected up front rather than silently misrouting work.
    BadConfig {
        /// Which knob was rejected, and why.
        what: String,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::ResultMismatch { expected, got } => {
                write!(f, "engine returned {got} results for {expected} tasks")
            }
            DriverError::BadConfig { what } => write!(f, "bad driver config: {what}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// How bin-2/bin-3 work is divided between the engines.
#[derive(Debug, Clone)]
pub enum SchedulePolicy {
    /// Fixed split: this fraction of bin 2 stays on the CPU (0 = all bin 2
    /// follows bin 3 onto the GPU; 1 = CPU does all of bin 2), dealt
    /// size-interleaved. Bin 3 always goes to the GPU.
    Static {
        /// Fraction of bin-2 tasks kept on the CPU. Must be finite and in
        /// `[0, 1]` — anything else is a [`DriverError::BadConfig`].
        cpu_bin2_fraction: f64,
    },
    /// Deque work-stealing with cost-estimated batches (the tentpole).
    WorkSteal(StealConfig),
}

/// Outcome of an overlapped run.
#[derive(Debug)]
pub struct OverlapOutcome {
    /// Results, index-aligned with the input tasks.
    pub results: Vec<ExtResult>,
    /// Tasks answered host-side with no work (bin 1).
    pub zero_tasks: usize,
    /// Tasks the CPU engine handled.
    pub cpu_tasks: usize,
    /// Tasks the GPU engine handled.
    pub gpu_tasks: usize,
    /// Tasks that failed on every rung of the recovery ladder and were
    /// skipped (their contigs keep their current sequence).
    pub failed_tasks: usize,
    /// The GPU engine branch panicked and its remaining share was re-run
    /// on the CPU engine.
    pub gpu_branch_fell_back: bool,
    /// Host wall seconds of the CPU side.
    pub cpu_wall_s: f64,
    /// Host wall seconds spent driving the GPU side (simulation cost).
    pub gpu_wall_s: f64,
    /// Simulated device stats of the GPU side.
    pub gpu_stats: Option<GpuRunStats>,
    /// What the scheduler did (shares, steals, virtual-clock model).
    pub schedule: ScheduleReport,
}

/// The overlap driver.
pub struct OverlapDriver {
    /// Simulated device the GPU engine runs on (fault plan included).
    pub device: DeviceConfig,
    /// Kernel version the GPU engine launches.
    pub version: KernelVersion,
    /// Scheduling policy (default: work-stealing).
    pub schedule: SchedulePolicy,
}

impl Default for OverlapDriver {
    fn default() -> Self {
        OverlapDriver {
            device: DeviceConfig::v100(),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(StealConfig::default()),
        }
    }
}

impl OverlapDriver {
    /// The historical fixed-fraction driver (comparison baseline).
    pub fn static_split(cpu_bin2_fraction: f64) -> OverlapDriver {
        OverlapDriver {
            schedule: SchedulePolicy::Static { cpu_bin2_fraction },
            ..Default::default()
        }
    }

    /// The work-stealing driver with default steal granularity.
    pub fn work_stealing() -> OverlapDriver {
        OverlapDriver::default()
    }

    fn validate(&self) -> Result<(), DriverError> {
        let bad = |what: String| Err(DriverError::BadConfig { what });
        match &self.schedule {
            SchedulePolicy::Static { cpu_bin2_fraction: f } => {
                if !f.is_finite() || !(0.0..=1.0).contains(f) {
                    return bad(format!("cpu_bin2_fraction must be in [0, 1], got {f}"));
                }
            }
            SchedulePolicy::WorkSteal(cfg) => {
                if cfg.batch_words == 0 {
                    return bad("batch_words must be >= 1".to_string());
                }
                if !cfg.cpu_words_per_s.is_finite() || cfg.cpu_words_per_s <= 0.0 {
                    return bad(format!(
                        "cpu_words_per_s must be positive and finite, got {}",
                        cfg.cpu_words_per_s
                    ));
                }
                if !cfg.drain_factor.is_finite() || cfg.drain_factor <= 0.0 {
                    return bad(format!(
                        "drain_factor must be positive and finite, got {}",
                        cfg.drain_factor
                    ));
                }
                if cfg.min_batch_words == 0 {
                    return bad("min_batch_words must be >= 1".to_string());
                }
            }
        }
        Ok(())
    }

    /// Run all tasks with CPU/GPU overlap.
    ///
    /// Device faults are handled inside the GPU engine's recovery ladder
    /// (retry → shrink → reset → CPU fallback); if the whole GPU branch
    /// panics, its remaining share is re-run on the CPU engine with
    /// per-task panic isolation, so a single bad task is skipped, never
    /// fatal.
    pub fn run(
        &self,
        tasks: &[ExtTask],
        params: &LocalAssemblyParams,
    ) -> Result<OverlapOutcome, DriverError> {
        self.validate()?;
        let bins = bin_tasks(tasks);
        let mut results: Vec<Option<TaskOutcome>> = vec![None; tasks.len()];
        for &i in &bins.zero {
            results[i] = Some(TaskOutcome::Done(ExtResult::empty()));
        }

        let (report, gpu_stats, fell_back, cpu_wall, gpu_wall, cpu_tasks, gpu_tasks) =
            match &self.schedule {
                SchedulePolicy::WorkSteal(cfg) => {
                    let batches = build_batches(tasks, &bins, params, cfg.batch_words);
                    let run = run_work_steal(
                        tasks,
                        &batches,
                        params,
                        self.device.clone(),
                        self.version,
                        cfg,
                        &mut results,
                    );
                    (
                        run.report,
                        run.gpu_stats,
                        run.gpu_branch_fell_back,
                        run.cpu_wall_s,
                        run.gpu_wall_s,
                        run.cpu_tasks,
                        run.gpu_tasks,
                    )
                }
                SchedulePolicy::Static { cpu_bin2_fraction } => {
                    self.run_static(tasks, &bins, params, *cpu_bin2_fraction, &mut results)?
                }
            };

        let mut failed_tasks = 0usize;
        let mut missing = 0usize;
        let results: Vec<ExtResult> = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let outcome = r.unwrap_or_else(|| {
                    missing += 1;
                    TaskOutcome::Failed {
                        contig: tasks[i].contig,
                        reason: "task was never scheduled".to_string(),
                    }
                });
                if outcome.is_failed() {
                    failed_tasks += 1;
                }
                outcome.into_result()
            })
            .collect();
        if missing > 0 {
            return Err(DriverError::ResultMismatch {
                expected: tasks.len(),
                got: tasks.len() - missing,
            });
        }

        Ok(OverlapOutcome {
            results,
            zero_tasks: bins.zero.len(),
            cpu_tasks,
            gpu_tasks,
            failed_tasks,
            gpu_branch_fell_back: fell_back,
            cpu_wall_s: cpu_wall,
            gpu_wall_s: gpu_wall,
            gpu_stats,
            schedule: report,
        })
    }

    /// The fixed-fraction baseline: split bin 2 size-interleaved, bin 3 on
    /// the GPU, both shares run back-to-back (rayon in this tree is the
    /// vendored sequential stub, so join order is irrelevant to results).
    #[allow(clippy::type_complexity)]
    fn run_static(
        &self,
        tasks: &[ExtTask],
        bins: &crate::binning::BinStats,
        params: &LocalAssemblyParams,
        fraction: f64,
        results: &mut [Option<TaskOutcome>],
    ) -> Result<(ScheduleReport, Option<GpuRunStats>, bool, f64, f64, usize, usize), DriverError>
    {
        // Deal bin 2 in descending size order, Bresenham-style, so the CPU
        // share holds `fraction` of the *tasks* while both shares see the
        // same size mix — the prefix-bias fix.
        let cost = |i: usize| estimate_task_cost(&tasks[i], params);
        let mut small: Vec<(u64, usize)> = bins.small.iter().map(|&i| (cost(i), i)).collect();
        small.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let (mut cpu_idx, mut gpu_small) = (Vec::new(), Vec::new());
        let mut cpu_words = 0u64;
        let mut gpu_words: u64 = bins.large.iter().map(|&i| cost(i)).sum();
        for (j, (w, i)) in small.into_iter().enumerate() {
            let take = ((j + 1) as f64 * fraction) as usize > (j as f64 * fraction) as usize;
            if take {
                cpu_idx.push(i);
                cpu_words += w;
            } else {
                gpu_small.push(i);
                gpu_words += w;
            }
        }
        let gpu_idx: Vec<usize> = bins.large.iter().copied().chain(gpu_small).collect();

        let cpu_refs: Vec<&ExtTask> = cpu_idx.iter().map(|&i| &tasks[i]).collect();
        let gpu_refs: Vec<&ExtTask> = gpu_idx.iter().map(|&i| &tasks[i]).collect();

        let device = self.device.clone();
        let version = self.version;
        let params_gpu = params.clone();
        let params_cpu = params.clone();

        // Host-side overlap structure preserved: the GPU simulation runs on
        // one branch of a rayon join while the CPU engine takes the other.
        let ((gpu_branch, gpu_wall), (cpu_results, cpu_wall)) = rayon::join(
            || {
                let t = Instant::now();
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut engine = GpuLocalAssembler::new(device, params_gpu, version);
                    engine.extend_tasks_outcomes_ref(&gpu_refs)
                }));
                (r, t.elapsed().as_secs_f64())
            },
            || {
                let t = Instant::now();
                let r = extend_cpu_isolated_refs(&cpu_refs, &params_cpu);
                (r, t.elapsed().as_secs_f64())
            },
        );

        // A panic of the whole GPU branch (engine bug, not a device fault —
        // those are absorbed by the ladder) degrades to re-running its
        // share on the CPU engine. The share is re-borrowed by index — the
        // tasks themselves are never cloned.
        let (gpu_results, gpu_stats, fell_back) = match gpu_branch {
            Ok((r, s)) => (r, Some(s), false),
            Err(_panic) => {
                let refs: Vec<&ExtTask> = gpu_idx.iter().map(|&i| &tasks[i]).collect();
                (extend_cpu_isolated_refs(&refs, params), None, true)
            }
        };

        if cpu_results.len() != cpu_idx.len() {
            return Err(DriverError::ResultMismatch {
                expected: cpu_idx.len(),
                got: cpu_results.len(),
            });
        }
        if gpu_results.len() != gpu_idx.len() {
            return Err(DriverError::ResultMismatch {
                expected: gpu_idx.len(),
                got: gpu_results.len(),
            });
        }

        for (&i, r) in cpu_idx.iter().zip(cpu_results) {
            results[i] = Some(r);
        }
        for (&i, r) in gpu_idx.iter().zip(gpu_results) {
            results[i] = Some(r);
        }

        let report = ScheduleReport {
            policy: "static",
            batches: 2,
            gpu_batches: usize::from(!gpu_idx.is_empty()),
            cpu_batches: usize::from(!cpu_idx.is_empty()),
            cpu_est_words: cpu_words,
            gpu_est_words: gpu_words,
            ..Default::default()
        };
        Ok((report, gpu_stats, fell_back, cpu_wall, gpu_wall, cpu_idx.len(), gpu_idx.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::extend_all_cpu;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn tasks_with_mixed_bins() -> Vec<ExtTask> {
        let mut tasks = Vec::new();
        for i in 0..24 {
            let genome = random_seq(400, 500 + i as u64);
            let n_reads = match i % 3 {
                0 => 0,
                1 => 4,
                _ => 14,
            };
            let reads = (0..n_reads)
                .map(|r| {
                    let start = 60 + (r * 13) % 200;
                    Read::with_uniform_qual(format!("t{i}r{r}"), genome.subseq(start, 80), 35)
                })
                .collect();
            tasks.push(ExtTask {
                contig: i,
                end: ContigEnd::Right,
                tail: genome.subseq(0, 120),
                reads,
            });
        }
        tasks
    }

    #[test]
    fn work_steal_matches_pure_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let pure = extend_all_cpu(&tasks, &params);
        let outcome = OverlapDriver::default().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure);
        assert_eq!(outcome.zero_tasks, 8);
        assert_eq!(outcome.failed_tasks, 0);
        assert!(!outcome.gpu_branch_fell_back);
        assert_eq!(outcome.schedule.policy, "work-steal");
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks + outcome.zero_tasks, tasks.len());
    }

    #[test]
    fn static_matches_pure_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let pure = extend_all_cpu(&tasks, &params);
        let outcome = OverlapDriver::static_split(0.5).run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure);
        assert_eq!(outcome.schedule.policy, "static");
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks + outcome.zero_tasks, tasks.len());
    }

    #[test]
    fn split_fraction_extremes() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let pure = extend_all_cpu(&tasks, &params);
        for frac in [0.0, 1.0] {
            let driver = OverlapDriver::static_split(frac);
            let outcome = driver.run(&tasks, &params).expect("driver runs");
            assert_eq!(outcome.results, pure, "fraction {frac}");
            if frac == 0.0 {
                assert_eq!(outcome.cpu_tasks, 0);
            } else {
                // All bin-2 on CPU; GPU still gets bin 3.
                assert_eq!(outcome.cpu_tasks, 8);
                assert_eq!(outcome.gpu_tasks, 8);
            }
        }
    }

    #[test]
    fn bad_config_is_rejected() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        for frac in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let err = OverlapDriver::static_split(frac)
                .run(&tasks, &params)
                .expect_err("out-of-domain fraction must be rejected");
            assert!(matches!(err, DriverError::BadConfig { .. }), "fraction {frac}: got {err:?}");
        }
        let ws = |cfg: StealConfig| OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(cfg),
            ..Default::default()
        };
        let err = ws(StealConfig { batch_words: 0, ..Default::default() })
            .run(&tasks, &params)
            .expect_err("zero batch_words must be rejected");
        assert!(matches!(err, DriverError::BadConfig { .. }));
        for rate in [0.0, -1.0, f64::NAN] {
            let err = ws(StealConfig { cpu_words_per_s: rate, ..Default::default() })
                .run(&tasks, &params)
                .expect_err("bad cpu rate must be rejected");
            assert!(matches!(err, DriverError::BadConfig { .. }), "rate {rate}");
        }
        for df in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err =
                ws(StealConfig { adaptive_batch: true, drain_factor: df, ..Default::default() })
                    .run(&tasks, &params)
                    .expect_err("bad drain_factor must be rejected");
            assert!(matches!(err, DriverError::BadConfig { .. }), "drain_factor {df}");
        }
        let err = ws(StealConfig { min_batch_words: 0, ..Default::default() })
            .run(&tasks, &params)
            .expect_err("zero min_batch_words must be rejected");
        assert!(matches!(err, DriverError::BadConfig { .. }));
    }

    #[test]
    fn adaptive_batch_matches_pure_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let pure = extend_all_cpu(&tasks, &params);
        let driver = OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: 4 * 1024,
                adaptive_batch: true,
                min_batch_words: 256,
                ..Default::default()
            }),
            ..Default::default()
        };
        let outcome = driver.run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure, "adaptive sizing must not change results");
        assert!(outcome.schedule.adaptive_batch);
        assert!(outcome.schedule.min_issued_batch_words >= 1, "no issued batch may be zero words");
    }

    #[test]
    fn bin3_always_on_gpu_in_static_mode() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let driver = OverlapDriver::static_split(1.0);
        let outcome = driver.run(&tasks, &params).expect("driver runs");
        let stats = outcome.gpu_stats.expect("gpu ran");
        assert_eq!(stats.device_tasks, 8, "the 8 bin-3 tasks");
        assert!(stats.seconds > 0.0);
    }

    #[test]
    fn injected_faults_degrade_gracefully() {
        use gpusim::{Fault, FaultPlan};
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::for_tests();
        let pure = extend_all_cpu(&tasks, &params);
        // A denied allocation AND a hung kernel in the same run: the
        // ladder shrinks / resets / falls back, and the final extensions
        // must be byte-identical to the fault-free run — under both
        // scheduling policies.
        let plan = FaultPlan {
            faults: vec![
                Fault::SlabOom { at_alloc: 0 },
                Fault::KernelHang { at_launch: 1, after_cycles: 5_000 },
            ],
        };
        for driver in [
            OverlapDriver {
                device: DeviceConfig::v100().with_fault_plan(plan.clone()),
                ..Default::default()
            },
            OverlapDriver {
                device: DeviceConfig::v100().with_fault_plan(plan.clone()),
                ..OverlapDriver::static_split(0.5)
            },
        ] {
            let outcome = driver.run(&tasks, &params).expect("driver runs");
            assert_eq!(outcome.results, pure, "recovery must not change results");
            assert_eq!(outcome.failed_tasks, 0);
            let stats = outcome.gpu_stats.expect("gpu ran");
            assert!(stats.recovery.any_recovery(), "ladder must have been exercised");
        }
    }
}
