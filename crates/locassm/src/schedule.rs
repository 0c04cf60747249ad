//! Work-stealing CPU/GPU overlap scheduler (paper §4.3, Figure 11).
//!
//! The paper's driver offloads bin 3 to the GPU and lets the CPU chew on
//! bin 2, handing *whatever remains* to whichever engine frees up first — a
//! dynamic split. This module reproduces that with a shared deque of
//! cost-estimated task batches:
//!
//! * batches are built from [`estimate_task_words`](crate::gpu::pack::estimate_task_words) costs — bin 3 sorted
//!   heaviest-first at the **head**, bin 2 dealt **size-interleaved** into
//!   tail batches (so no share is biased by binning order);
//! * the GPU engine drains the head (heaviest work first, the paper's
//!   scheduling), the CPU engine steals from the tail;
//! * whichever engine's clock is behind takes the next batch, so an early
//!   finisher absorbs the remainder — the CPU can steal leftover bin-3
//!   batches, the GPU can absorb leftover bin-2 batches.
//!
//! Because the GPU is a simulator, "time" here is **virtual**: the GPU
//! clock advances by [`GpuRunStats::wall_s`] (simulated kernel seconds plus
//! the modeled pack cost minus double-buffer savings) and the CPU clock by
//! `estimated words / cpu_words_per_s`, a constant rate. Neither clock reads
//! host wall time, so the schedule — and therefore every test and bench
//! number — is deterministic, while the actual task execution still runs on
//! the host engines. Results are index-aligned and byte-identical to
//! [`crate::cpu::extend_all_cpu`] regardless of who ran what (the
//! engine-equivalence invariant).
//!
//! **Adaptive drain-point batch sizing** ([`StealConfig::adaptive_batch`],
//! off by default) — `batch_words` becomes only the initial granularity;
//! once the remaining work approaches `drain_factor × batch_words` the
//! scheduler halves the steal granularity geometrically ([`drain_target`]),
//! splitting oversized CPU steals ([`split_batch_at`]) so the tail is dealt
//! in slivers and the last batch cannot strand the CPU past the GPU's
//! finish. Only CPU-side pops shrink: CPU cost is linear in words, whereas
//! splitting GPU launches would add per-launch overhead exactly when
//! batches get small.

use crate::binning::BinStats;
use crate::cpu::extend_cpu_isolated_refs;
use crate::gpu::pack::estimate_task_cost;
use crate::gpu::{GpuLocalAssembler, GpuRunStats, KernelVersion};
use crate::params::LocalAssemblyParams;
use crate::task::{ExtTask, TaskOutcome};
use gpusim::DeviceConfig;
use std::collections::VecDeque;
use std::time::Instant;

/// Knobs of the work-stealing scheduler.
#[derive(Debug, Clone)]
pub struct StealConfig {
    /// Steal granularity: target estimated device-words per batch. Smaller
    /// batches balance better but pay more per-launch overhead. With
    /// [`StealConfig::adaptive_batch`] on, this is only the *initial*
    /// granularity — see [`drain_target`].
    pub batch_words: u64,
    /// Modeled CPU-engine throughput in estimated words per second — the
    /// virtual-clock cost of a batch on the CPU side. The default sits a
    /// few× below the simulated V100's effective rate, matching the
    /// paper's ~4.3× local-assembly speedup at node level.
    pub cpu_words_per_s: f64,
    /// Shrink steal batches geometrically as the deque approaches its
    /// drain point (remaining work within [`StealConfig::drain_factor`] ×
    /// the current granularity): an oversized popped batch is split and
    /// its remainder pushed back, so the final batches are small enough
    /// that neither engine idles behind one last coarse chunk. Off (the
    /// default), batches are issued exactly as built.
    pub adaptive_batch: bool,
    /// Drain-point threshold `k`: shrinking starts once the remaining
    /// estimated words fit within `k × granularity`, and each halving
    /// re-tests against the shrunken granularity (geometric descent). Must
    /// be positive and finite.
    pub drain_factor: f64,
    /// Floor for the adaptive granularity in estimated words — batches
    /// never shrink below this, so per-launch overhead stays bounded. Must
    /// be >= 1; clamped to [`StealConfig::batch_words`] when larger.
    pub min_batch_words: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            batch_words: 64 * 1024,
            cpu_words_per_s: 5.0e7,
            adaptive_batch: false,
            drain_factor: 4.0,
            min_batch_words: 1024,
        }
    }
}

/// Target batch granularity given the estimated words still in the deque.
///
/// Away from the drain point (remaining work above
/// `drain_factor × batch_words`) the answer is simply
/// [`StealConfig::batch_words`]. Inside it, the granularity halves until
/// the remaining work no longer fits within `drain_factor ×` the shrunken
/// target (or the [`StealConfig::min_batch_words`] floor is hit) — a
/// geometric descent that keeps the last few batches proportional to what
/// is left, so the final chunk an engine takes is never large enough to
/// leave the other engine idling. With [`StealConfig::adaptive_batch`]
/// off, the answer is always `batch_words`.
///
/// The result is always >= 1: a zero-word batch can never be requested.
///
/// ```
/// use locassm::schedule::{drain_target, StealConfig};
///
/// let cfg = StealConfig {
///     batch_words: 64 * 1024,
///     adaptive_batch: true,
///     drain_factor: 4.0,
///     min_batch_words: 1024,
///     ..StealConfig::default()
/// };
/// // Far from the drain point: full granularity.
/// assert_eq!(drain_target(10_000_000, &cfg), 64 * 1024);
/// // Remaining work inside 4 x 64 KiB: halve until it no longer fits.
/// assert_eq!(drain_target(200_000, &cfg), 64 * 1024 / 2);
/// // Nearly drained: the floor holds, never zero.
/// assert_eq!(drain_target(100, &cfg), 1024);
/// assert_eq!(drain_target(0, &cfg), 1024);
/// // Adaptive sizing off: the static granularity, always.
/// let off = StealConfig { adaptive_batch: false, ..cfg };
/// assert_eq!(drain_target(100, &off), 64 * 1024);
/// ```
pub fn drain_target(remaining_words: u64, cfg: &StealConfig) -> u64 {
    let base = cfg.batch_words.max(1);
    if !cfg.adaptive_batch {
        return base;
    }
    let floor = cfg.min_batch_words.clamp(1, base);
    let mut target = base;
    while target > floor && (remaining_words as f64) <= cfg.drain_factor * target as f64 {
        target = (target / 2).max(floor);
    }
    target
}

/// Split `batch` so its head holds ≈`target_words` of estimated cost,
/// returning the remainder as a new batch (same bin) — or `None` when the
/// batch is already within `target_words`, or holds a single task (a lone
/// oversized task can not be subdivided; the engine's internal memory
/// batching still protects the device).
///
/// Tasks stay in batch order and every piece keeps at least one task, so a
/// split can never produce a zero-word batch (per-task cost is clamped to
/// >= 1 word by [`crate::gpu::pack::estimate_task_cost`]).
///
/// ```
/// use bioseq::DnaSeq;
/// use locassm::gpu::pack::estimate_task_words;
/// use locassm::schedule::{split_batch_at, TaskBatch};
/// use locassm::{ContigEnd, ExtTask, LocalAssemblyParams};
///
/// let params = LocalAssemblyParams::for_tests();
/// let tasks: Vec<ExtTask> = (0..4)
///     .map(|i| ExtTask { contig: i, end: ContigEnd::Right, tail: DnaSeq::new(), reads: vec![] })
///     .collect();
/// let costs: Vec<u64> = tasks.iter().map(|t| estimate_task_words(t, &params)).collect();
/// let total: u64 = costs.iter().sum();
///
/// let mut batch = TaskBatch { idx: vec![0, 1, 2, 3], est_words: total, heavy: false };
/// let rest = split_batch_at(&mut batch, costs[0], &tasks, &params).expect("oversized: splits");
/// // Conservation: every estimated word lands in exactly one piece, and
/// // both pieces keep at least one task (never a zero-word batch).
/// assert_eq!(batch.est_words + rest.est_words, total);
/// assert!(batch.est_words >= 1 && rest.est_words >= 1);
/// assert_eq!(batch.idx.len() + rest.idx.len(), 4);
///
/// // A batch already within the target is not split.
/// let mut small = TaskBatch { idx: vec![0], est_words: costs[0], heavy: true };
/// assert!(split_batch_at(&mut small, costs[0], &tasks, &params).is_none());
/// ```
pub fn split_batch_at(
    batch: &mut TaskBatch,
    target_words: u64,
    tasks: &[ExtTask],
    params: &LocalAssemblyParams,
) -> Option<TaskBatch> {
    if batch.est_words <= target_words || batch.idx.len() < 2 {
        return None;
    }
    let mut cut = 0usize;
    let mut head_words = 0u64;
    for (n, &i) in batch.idx.iter().enumerate() {
        head_words += estimate_task_cost(&tasks[i], params);
        cut = n + 1;
        if head_words >= target_words {
            break;
        }
    }
    if cut >= batch.idx.len() {
        return None;
    }
    let rest_idx = batch.idx.split_off(cut);
    let rest =
        TaskBatch { idx: rest_idx, est_words: batch.est_words - head_words, heavy: batch.heavy };
    batch.est_words = head_words;
    Some(rest)
}

/// One deque entry: an index share into the caller's task slice.
#[derive(Debug, Clone)]
pub struct TaskBatch {
    /// Task indices (into the scheduler's input slice).
    pub idx: Vec<usize>,
    /// Total estimated device words (the batch's cost).
    pub est_words: u64,
    /// True for bin-3 (head-end) batches.
    pub heavy: bool,
}

/// What the scheduler did: share sizes, steal counts, and the virtual-time
/// model behind the makespan claims.
#[derive(Debug, Clone, Default)]
pub struct ScheduleReport {
    /// `"static"` or `"work-steal"`.
    pub policy: &'static str,
    /// Batches handed out (2 for the static split).
    pub batches: usize,
    /// Batches the GPU engine drained from the head.
    pub gpu_batches: usize,
    /// Batches the CPU engine stole from the tail.
    pub cpu_batches: usize,
    /// Heavy (bin-3) batches the CPU stole — dynamic rebalance the static
    /// split can never do.
    pub cpu_stole_heavy: usize,
    /// Light (bin-2) batches the GPU absorbed after draining bin 3.
    pub gpu_absorbed_light: usize,
    /// Estimated words executed by the CPU share.
    pub cpu_est_words: u64,
    /// Estimated words executed by the GPU share.
    pub gpu_est_words: u64,
    /// CPU virtual clock at the end of the run (modeled seconds).
    pub cpu_model_s: f64,
    /// GPU virtual clock at the end of the run (simulated + pack seconds).
    pub gpu_model_s: f64,
    /// Whether adaptive drain-point batch sizing was on for this run.
    pub adaptive_batch: bool,
    /// Batches split at the drain point (the remainder pushed back onto
    /// the deque); 0 with adaptive sizing off.
    pub drain_splits: usize,
    /// Smallest estimated-words total over all issued (post-split)
    /// batches; 0 when no batch was issued. Never 0 when batches ran —
    /// adaptive sizing cannot produce a zero-word batch.
    pub min_issued_batch_words: u64,
}

impl ScheduleReport {
    /// Modeled overlap makespan: both engines run concurrently, so the run
    /// ends when the slower clock does.
    pub fn makespan_model_s(&self) -> f64 {
        self.cpu_model_s.max(self.gpu_model_s)
    }

    /// Word-share balance: `min(cpu, gpu) / max(cpu, gpu)` estimated words
    /// (1.0 = perfectly even shares, 0.0 = one engine idle).
    pub fn word_balance(&self) -> f64 {
        let (lo, hi) = if self.cpu_est_words <= self.gpu_est_words {
            (self.cpu_est_words, self.gpu_est_words)
        } else {
            (self.gpu_est_words, self.cpu_est_words)
        };
        if hi == 0 {
            return 1.0;
        }
        lo as f64 / hi as f64
    }
}

/// Build the deque: bin-3 batches heaviest-first at the head, bin-2 dealt
/// size-interleaved into tail batches of ≈`batch_words` each.
pub fn build_batches(
    tasks: &[ExtTask],
    bins: &BinStats,
    params: &LocalAssemblyParams,
    batch_words: u64,
) -> Vec<TaskBatch> {
    let batch_words = batch_words.max(1);
    let cost = |i: usize| estimate_task_cost(&tasks[i], params);

    // Head: bin 3, heaviest first, greedy-filled up to the granularity (a
    // single oversized task forms its own batch — the engine's internal
    // memory batching still protects the device).
    let mut large: Vec<(u64, usize)> = bins.large.iter().map(|&i| (cost(i), i)).collect();
    large.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut batches: Vec<TaskBatch> = Vec::new();
    let mut cur = TaskBatch { idx: Vec::new(), est_words: 0, heavy: true };
    for (w, i) in large {
        if !cur.idx.is_empty() && cur.est_words + w > batch_words {
            batches.push(std::mem::replace(
                &mut cur,
                TaskBatch { idx: Vec::new(), est_words: 0, heavy: true },
            ));
        }
        cur.idx.push(i);
        cur.est_words += w;
    }
    if !cur.idx.is_empty() {
        batches.push(cur);
    }

    // Tail: bin 2, dealt in descending size order into whichever of the K
    // batches is currently lightest (greedy LPT), so every batch carries a
    // comparable words total and a mix of sizes. A plain `j % k` deal here
    // biased batch 0: with items sorted descending it collected the larger
    // item of every round, so the first-dealt batch systematically
    // outweighed the last.
    let mut small: Vec<(u64, usize)> = bins.small.iter().map(|&i| (cost(i), i)).collect();
    if !small.is_empty() {
        small.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let total: u64 = small.iter().map(|(w, _)| w).sum();
        let k = (total.div_ceil(batch_words) as usize).clamp(1, small.len());
        let mut light: Vec<TaskBatch> =
            (0..k).map(|_| TaskBatch { idx: Vec::new(), est_words: 0, heavy: false }).collect();
        for (w, i) in small {
            let mut best = 0;
            for b in 1..k {
                if light[b].est_words < light[best].est_words {
                    best = b;
                }
            }
            light[best].idx.push(i);
            light[best].est_words += w;
        }
        batches.extend(light);
    }
    batches
}

/// Everything a work-stealing run hands back to the driver.
pub(crate) struct StealRun {
    pub report: ScheduleReport,
    pub gpu_stats: Option<GpuRunStats>,
    /// The GPU engine branch panicked; its popped batch and the rest of the
    /// deque were absorbed by the CPU engine.
    pub gpu_branch_fell_back: bool,
    /// Host wall seconds spent inside CPU-engine batch runs.
    pub cpu_wall_s: f64,
    /// Host wall seconds spent driving the GPU engine (simulation cost).
    pub gpu_wall_s: f64,
    /// Tasks executed by the CPU engine.
    pub cpu_tasks: usize,
    /// Tasks executed by the GPU engine.
    pub gpu_tasks: usize,
}

/// Drain the deque with two engines under virtual clocks, writing per-task
/// outcomes into `results` (index-aligned with `tasks`).
pub(crate) fn run_work_steal(
    tasks: &[ExtTask],
    batches: &[TaskBatch],
    params: &LocalAssemblyParams,
    device: DeviceConfig,
    version: KernelVersion,
    cfg: &StealConfig,
    results: &mut [Option<TaskOutcome>],
) -> StealRun {
    let mut engine = GpuLocalAssembler::new(device, params.clone(), version);
    let mut report = ScheduleReport {
        policy: "work-steal",
        batches: batches.len(),
        adaptive_batch: cfg.adaptive_batch,
        ..Default::default()
    };
    let mut gpu_stats = GpuRunStats::default();
    let mut gpu_ran = false;
    let mut gpu_dead = false;
    let mut fell_back = false;
    let (mut cpu_wall, mut gpu_wall) = (0.0f64, 0.0f64);
    let (mut cpu_clock, mut gpu_clock) = (0.0f64, 0.0f64);
    let (mut cpu_tasks, mut gpu_tasks) = (0usize, 0usize);
    // The deque proper: the GPU pops the heavy head, the CPU pops the
    // light tail. With adaptive sizing on, split remainders are pushed
    // back onto the end they were popped from, preserving the head/tail
    // discipline.
    let mut deque: VecDeque<TaskBatch> = batches.to_vec().into();
    let mut remaining_words: u64 = deque.iter().map(|b| b.est_words).sum();
    let mut min_issued: Option<u64> = None;

    while !deque.is_empty() {
        // The engine whose virtual clock is behind takes the next batch;
        // the GPU from the heavy head, the CPU from the light tail. Ties go
        // to the GPU (the paper launches the GPU first).
        let gpu_turn = !gpu_dead && gpu_clock <= cpu_clock;
        let popped = if gpu_turn { deque.pop_front() } else { deque.pop_back() };
        let Some(mut batch) = popped else { break };
        // Adaptive sizing shrinks *steal* batches only: CPU cost is linear
        // in words, so dealing the tail in slivers is free there, while
        // splitting GPU launches would add a per-launch overhead exactly
        // when batches get small. The GPU keeps draining at the built
        // granularity; the CPU's steals shrink toward the drain point.
        if cfg.adaptive_batch && !gpu_turn {
            let target = drain_target(remaining_words, cfg);
            if let Some(rest) = split_batch_at(&mut batch, target, tasks, params) {
                deque.push_back(rest);
                report.drain_splits += 1;
            }
        }
        remaining_words = remaining_words.saturating_sub(batch.est_words);
        min_issued = Some(min_issued.map_or(batch.est_words, |m| m.min(batch.est_words)));

        if gpu_turn {
            let refs: Vec<&ExtTask> = batch.idx.iter().map(|&i| &tasks[i]).collect();
            let t = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.extend_tasks_outcomes_ref(&refs)
            }));
            gpu_wall += t.elapsed().as_secs_f64();
            match run {
                Ok((outcomes, stats)) => {
                    for (&i, outcome) in batch.idx.iter().zip(outcomes) {
                        results[i] = Some(outcome);
                    }
                    gpu_clock += stats.wall_s();
                    if stats.recovery.device_lost {
                        // Reset budget exhausted: route the rest of the
                        // deque to the CPU instead of the per-task fallback.
                        gpu_dead = true;
                    }
                    gpu_stats.absorb(&stats);
                    gpu_ran = true;
                    gpu_tasks += batch.idx.len();
                    report.gpu_batches += 1;
                    report.gpu_est_words += batch.est_words;
                    if !batch.heavy {
                        report.gpu_absorbed_light += 1;
                    }
                }
                Err(_panic) => {
                    // Engine bug (device faults are absorbed by the
                    // ladder): the popped batch re-runs on the CPU and the
                    // deque drains CPU-side from here on.
                    gpu_dead = true;
                    fell_back = true;
                    cpu_wall += run_batch_cpu(tasks, &batch, params, results, &mut report);
                    cpu_clock += batch.est_words as f64 / cfg.cpu_words_per_s;
                    cpu_tasks += batch.idx.len();
                }
            }
        } else {
            cpu_wall += run_batch_cpu(tasks, &batch, params, results, &mut report);
            cpu_clock += batch.est_words as f64 / cfg.cpu_words_per_s;
            cpu_tasks += batch.idx.len();
        }
    }

    report.cpu_model_s = cpu_clock;
    report.gpu_model_s = gpu_clock;
    report.min_issued_batch_words = min_issued.unwrap_or(0);
    StealRun {
        report,
        gpu_stats: gpu_ran.then_some(gpu_stats),
        gpu_branch_fell_back: fell_back,
        cpu_wall_s: cpu_wall,
        gpu_wall_s: gpu_wall,
        cpu_tasks,
        gpu_tasks,
    }
}

/// Run one batch on the CPU engine; returns its measured host wall
/// seconds.
fn run_batch_cpu(
    tasks: &[ExtTask],
    batch: &TaskBatch,
    params: &LocalAssemblyParams,
    results: &mut [Option<TaskOutcome>],
    report: &mut ScheduleReport,
) -> f64 {
    let refs: Vec<&ExtTask> = batch.idx.iter().map(|&i| &tasks[i]).collect();
    let t = Instant::now();
    let outcomes = extend_cpu_isolated_refs(&refs, params);
    let batch_wall = t.elapsed().as_secs_f64();
    for (&i, outcome) in batch.idx.iter().zip(outcomes) {
        results[i] = Some(outcome);
    }
    report.cpu_batches += 1;
    report.cpu_est_words += batch.est_words;
    if batch.heavy {
        report.cpu_stole_heavy += 1;
    }
    batch_wall
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_tasks;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn task_with_reads(i: usize, n_reads: usize) -> ExtTask {
        let genome = random_seq(300, 40_000 + i as u64);
        let reads = (0..n_reads)
            .map(|r| {
                Read::with_uniform_qual(
                    format!("t{i}r{r}"),
                    genome.subseq(40 + (r * 11) % 150, 70),
                    35,
                )
            })
            .collect();
        ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 100), reads }
    }

    #[test]
    fn batches_cover_all_nonzero_tasks_once() {
        let tasks: Vec<ExtTask> = (0..30).map(|i| task_with_reads(i, [0, 3, 25][i % 3])).collect();
        let params = LocalAssemblyParams::for_tests();
        let bins = bin_tasks(&tasks);
        let batches = build_batches(&tasks, &bins, &params, 8 * 1024);
        let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.idx.iter().copied()).collect();
        seen.sort_unstable();
        let mut expect: Vec<usize> = bins.small.iter().chain(bins.large.iter()).copied().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "every bin-2/3 task scheduled exactly once");
        // Heavy batches lead; light batches follow.
        let first_light = batches.iter().position(|b| !b.heavy).unwrap();
        assert!(batches[..first_light].iter().all(|b| b.heavy));
        assert!(batches[first_light..].iter().all(|b| !b.heavy));
    }

    #[test]
    fn light_batches_are_size_interleaved() {
        // Sizes span 1..=9 reads; dealing must spread them so batch totals
        // are comparable even though binning order is ascending-by-size.
        let tasks: Vec<ExtTask> = (0..40).map(|i| task_with_reads(i, 1 + i % 9)).collect();
        let params = LocalAssemblyParams::for_tests();
        let bins = bin_tasks(&tasks);
        let batches = build_batches(&tasks, &bins, &params, 16 * 1024);
        let light: Vec<&TaskBatch> = batches.iter().filter(|b| !b.heavy).collect();
        assert!(light.len() > 1, "want several light batches, got {}", light.len());
        let max = light.iter().map(|b| b.est_words).max().unwrap();
        let min = light.iter().map(|b| b.est_words).min().unwrap();
        assert!(
            (min as f64) > 0.5 * max as f64,
            "light batch totals must be comparable: min {min} vs max {max}"
        );
    }

    #[test]
    fn drain_target_descends_geometrically_and_never_zero() {
        let cfg = StealConfig {
            batch_words: 1024,
            adaptive_batch: true,
            drain_factor: 2.0,
            min_batch_words: 64,
            ..Default::default()
        };
        assert_eq!(drain_target(1_000_000, &cfg), 1024, "far from drain: full granularity");
        assert_eq!(drain_target(2048, &cfg), 512);
        assert_eq!(drain_target(1024, &cfg), 256);
        for remaining in [512, 64, 1, 0] {
            let t = drain_target(remaining, &cfg);
            assert!(t >= 64, "floor must hold: {t} for remaining {remaining}");
        }
        // min_batch_words above batch_words clamps to batch_words.
        let weird = StealConfig { min_batch_words: 1 << 40, batch_words: 1024, ..cfg.clone() };
        assert_eq!(drain_target(0, &weird), 1024);
        // Degenerate batch_words = 0 would divide by zero without the max.
        let zero = StealConfig { batch_words: 0, ..cfg };
        assert!(drain_target(0, &zero) >= 1);
    }

    #[test]
    fn split_batch_keeps_order_and_words() {
        let tasks: Vec<ExtTask> = (0..8).map(|i| task_with_reads(i, 4)).collect();
        let params = LocalAssemblyParams::for_tests();
        let costs: Vec<u64> = (0..8).map(|i| estimate_task_cost(&tasks[i], &params)).collect();
        let total: u64 = costs.iter().sum();
        let mut batch = TaskBatch { idx: (0..8).collect(), est_words: total, heavy: false };
        let target = costs[0] + costs[1]; // cut after the second task
        let rest = split_batch_at(&mut batch, target, &tasks, &params)
            .expect("an 8-task batch above target must split");
        assert_eq!(batch.idx, vec![0, 1]);
        assert_eq!(rest.idx, (2..8).collect::<Vec<_>>());
        assert_eq!(batch.est_words + rest.est_words, total, "no words lost");
        assert!(batch.est_words >= 1 && rest.est_words >= 1, "no zero-word piece");
        assert!(!rest.heavy, "bin flag inherited");

        // A single-task batch can never be split, no matter the target.
        let mut lone = TaskBatch { idx: vec![3], est_words: costs[3], heavy: true };
        assert!(split_batch_at(&mut lone, 1, &tasks, &params).is_none());
        // A batch already within target is left alone.
        let mut small = TaskBatch { idx: vec![0, 1], est_words: 10, heavy: false };
        assert!(split_batch_at(&mut small, 10, &tasks, &params).is_none());
    }

    #[test]
    fn report_balance_and_makespan() {
        let r = ScheduleReport {
            cpu_est_words: 80,
            gpu_est_words: 100,
            cpu_model_s: 2.0,
            gpu_model_s: 1.5,
            ..Default::default()
        };
        assert!((r.word_balance() - 0.8).abs() < 1e-12);
        assert_eq!(r.makespan_model_s(), 2.0);
        assert_eq!(ScheduleReport::default().word_balance(), 1.0);
    }
}
