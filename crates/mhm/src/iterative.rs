//! The pipeline's round loop — the outer loop of Figure 1 ("Iterate for
//! k = k₁, k₂, …").
//!
//! MetaHipMer assembles at a small k first (sensitive at low coverage,
//! repeat-fragile), then re-assembles at progressively larger k with the
//! previous round's contigs injected as *pseudo-reads*: regions that only
//! small-k evidence could assemble survive into the large-k rounds, while
//! large k resolves repeats the small rounds forked on. k-mer analysis,
//! contig generation, alignment, SW rescoring and local assembly run inside
//! every round, exactly as in the paper's pipeline diagram; merging runs
//! once before the loop, scaffolding once after it. A single-k run
//! ([`run_pipeline`](crate::pipeline::run_pipeline)) is this loop with one
//! round.

use crate::errors::{ConfigError, PipelineError};
use crate::merge::merge_reads;
use crate::pipeline::{
    validate_k, EngineChoice, Phase, PhaseTimings, PipelineConfig, PipelineResult, PipelineStats,
    RoundStats,
};
use crate::scaffold::scaffold_contigs;
use crate::stats::AssemblyStats;
use align::sw::{banded_sw, SwScoring};
use align::{collect_candidates, EndCandidates, SeedIndex};
use bioseq::{DnaSeq, PairedRead, Read};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use locassm::gpu::{GpuLocalAssembler, GpuRunStats};
use locassm::{
    apply_extensions, bin_tasks, extend_all_cpu_isolated, make_tasks, summarize, ExtResult,
    ExtTask, ScheduleReport, TaskOutcome,
};
use std::time::Instant;

/// Weight given to contig pseudo-reads when re-counting k-mers (so contig
/// sequence passes the singleton filter on its own).
const CONTIG_PSEUDO_WEIGHT: usize = 2;

/// Run the pipeline over `k_schedule` (ascending), one round per k.
///
/// Every k in the schedule must pass the same check as
/// [`PipelineConfig::validate`]; `cfg.k` itself is not used. An overlap
/// driver error in any round ends the run with a
/// [`Phase::LocalAssembly`] engine error.
pub fn run_iterative(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    k_schedule: &[usize],
) -> Result<PipelineResult, PipelineError> {
    if k_schedule.is_empty() {
        return Err(PipelineError::invalid_config(ConfigError::EmptySchedule));
    }
    for &k in k_schedule {
        validate_k(k)?;
    }
    let mut timings = PhaseTimings::new();
    let mut stats = PipelineStats { pairs_in: pairs.len(), ..Default::default() };

    let t = Instant::now();
    let (mut reads, merge_stats) = merge_reads(pairs, &cfg.merge);
    timings.add(Phase::MergeReads, t.elapsed().as_secs_f64());
    stats.merge = merge_stats;
    // The merged reads stay at the front of `reads`; each round replaces
    // the pseudo-reads after them.
    let n_reads = reads.len();
    stats.reads_for_assembly = n_reads;

    let mut contigs: Vec<DnaSeq> = Vec::new();
    for &k in k_schedule {
        // k-mer analysis over the reads plus the previous round's contigs
        // as pseudo-reads.
        let t = Instant::now();
        reads.truncate(n_reads);
        for (i, c) in contigs.iter().enumerate() {
            for w in 0..CONTIG_PSEUDO_WEIGHT {
                reads.push(Read::with_uniform_qual(format!("__contig_{i}_{w}"), c.clone(), 40));
            }
        }
        let counts = count_kmers(&reads, k, cfg.min_kmer_count);
        timings.add(Phase::KmerAnalysis, t.elapsed().as_secs_f64());
        stats.distinct_kmers = counts.len();

        let t = Instant::now();
        let raw_contigs = generate_contigs(&DbgGraph::new(k, counts), cfg.min_votes);
        stats.contigs_initial = raw_contigs.len();
        contigs = raw_contigs
            .into_iter()
            .filter(|c| c.len() >= cfg.min_contig_len)
            .map(|c| c.seq)
            .collect();
        stats.contigs_kept = contigs.len();
        timings.add(Phase::ContigGeneration, t.elapsed().as_secs_f64());

        // Candidates come from the real reads only: contigs must not vote
        // on their own extension.
        let t = Instant::now();
        let idx = SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ);
        let cands = collect_candidates(&contigs, &reads[..n_reads], &idx, &cfg.candidates);
        timings.add(Phase::Alignment, t.elapsed().as_secs_f64());

        let t = Instant::now();
        sw_rescore(&cands, &contigs, cfg.sw_rescore_frac);
        timings.add(Phase::AlnKernel, t.elapsed().as_secs_f64());

        let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
            cands.into_iter().map(|c| (c.right, c.left)).collect();
        let tasks = make_tasks(&contigs, &cand_pairs, &cfg.locassm);
        stats.tasks = tasks.len();
        stats.bins = bin_tasks(&tasks);
        let la = local_assembly(&tasks, cfg)?;
        timings.add(Phase::LocalAssembly, la.phase_s);
        stats.la_wall_seconds += la.host_s;
        stats.la_failed_tasks += la.failed_tasks;
        stats.bases_appended = la.results.iter().map(|r| r.appended.len()).sum();
        stats.ext_summary = summarize(&la.results);
        contigs = apply_extensions(&contigs, &tasks, &la.results);
        stats.overlap.clone_from(&la.schedule);
        stats.rounds.push(RoundStats {
            k,
            stats: AssemblyStats::of(&contigs),
            bases_appended: stats.bases_appended,
            gpu: la.gpu,
            overlap: la.schedule,
        });
    }
    stats.gpu = stats.rounds.iter().filter_map(|r| r.gpu.clone()).reduce(|mut run, round| {
        run.absorb(&round);
        run
    });
    stats.recovery = stats.gpu.as_ref().map(|g| g.recovery.clone());

    let t = Instant::now();
    let scaffolds = scaffold_contigs(&contigs, pairs, &cfg.scaffold);
    stats.scaffolds = scaffolds.len();
    timings.add(Phase::Scaffolding, t.elapsed().as_secs_f64());

    Ok(PipelineResult { contigs, scaffolds, timings, stats })
}

/// The "aln kernel": banded SW over the first `frac` of the accepted
/// candidate alignments. Only its time counts; the scores are discarded.
fn sw_rescore(cands: &[EndCandidates], contigs: &[DnaSeq], frac: f64) {
    if frac <= 0.0 {
        return;
    }
    let mut budget = (cands.iter().map(|c| c.total()).sum::<usize>() as f64 * frac) as usize;
    'outer: for (ci, c) in cands.iter().enumerate() {
        for r in c.right.iter().chain(c.left.iter()) {
            if budget == 0 {
                break 'outer;
            }
            let _ = banded_sw(&r.seq, &contigs[ci], SwScoring::default(), 16, 0);
            budget -= 1;
        }
    }
}

/// What one round's local assembly produced.
struct LocalAssemblyRun {
    /// Results, index-aligned with the tasks.
    results: Vec<ExtResult>,
    /// Tasks skipped after every recovery rung failed.
    failed_tasks: usize,
    /// Host wall seconds of the engine call.
    host_s: f64,
    /// The phase time (see [`PipelineResult::timings`]).
    phase_s: f64,
    gpu: Option<GpuRunStats>,
    schedule: Option<ScheduleReport>,
}

/// Extend one round's tasks on the configured engine. Every engine yields
/// per-task outcomes: a task that fails every rung of the recovery ladder
/// is skipped (its contig keeps its sequence), never fatal to the run.
fn local_assembly(
    tasks: &[ExtTask],
    cfg: &PipelineConfig,
) -> Result<LocalAssemblyRun, PipelineError> {
    let split = |outcomes: Vec<TaskOutcome>| {
        let failed = outcomes.iter().filter(|o| o.is_failed()).count();
        (outcomes.into_iter().map(TaskOutcome::into_result).collect(), failed)
    };
    let t = Instant::now();
    let (results, failed_tasks, gpu, cpu_side_s, schedule) = match &cfg.engine {
        EngineChoice::Cpu => {
            let (results, failed) = split(extend_all_cpu_isolated(tasks, &cfg.locassm));
            (results, failed, None, None, None)
        }
        EngineChoice::Gpu { device, version } => {
            let mut engine = GpuLocalAssembler::new(device.clone(), cfg.locassm.clone(), *version);
            let (outcomes, gpu) = engine.extend_tasks_outcomes(tasks);
            let (results, failed) = split(outcomes);
            (results, failed, Some(gpu), None, None)
        }
        EngineChoice::Overlap { device, version, schedule } => {
            let driver = locassm::OverlapDriver {
                device: device.clone(),
                version: *version,
                schedule: schedule.clone(),
            };
            let out = driver
                .run(tasks, &cfg.locassm)
                .map_err(|e| PipelineError::engine(Phase::LocalAssembly, e))?;
            (out.results, out.failed_tasks, out.gpu_stats, Some(out.cpu_wall_s), Some(out.schedule))
        }
    };
    let host_s = t.elapsed().as_secs_f64();
    let device_s = gpu.as_ref().map(GpuRunStats::wall_s);
    let phase_s = match (cpu_side_s, device_s) {
        (Some(cpu), device) => cpu.max(device.unwrap_or(0.0)),
        (None, Some(device)) => device,
        (None, None) => host_s,
    };
    Ok(LocalAssemblyRun { results, failed_tasks, host_s, phase_s, gpu, schedule })
}

/// Default MetaHipMer-style schedule clipped to the observed read length.
pub fn default_schedule(max_read_len: usize) -> Vec<usize> {
    [21usize, 33, 55, 77, 99].into_iter().filter(|&k| k + 1 < max_read_len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_community, simulate_reads, CommunityConfig, ReadSimConfig};

    fn dataset(seed: u64, repeat_prob: f64) -> (datagen::Community, Vec<PairedRead>) {
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (9_000, 12_000),
            abundance_sigma: 0.4,
            repeat_prob,
            repeat_period: 61,
            seed,
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig {
                n_pairs: 4_000,
                read_len: 100,
                insert_mean: 260.0,
                insert_sd: 20.0,
                lo_frac: 0.01,
                seed: seed + 1,
                ..Default::default()
            },
        );
        (community, pairs)
    }

    #[test]
    fn schedule_clips_to_read_length() {
        assert_eq!(default_schedule(150), vec![21, 33, 55, 77, 99]);
        assert_eq!(default_schedule(60), vec![21, 33, 55]);
        assert_eq!(default_schedule(20), Vec::<usize>::new());
    }

    #[test]
    fn every_scheduled_k_is_validated() {
        let cfg = PipelineConfig::default();
        let reason = |schedule: &[usize]| match run_iterative(&[], &cfg, schedule) {
            Err(PipelineError { kind: crate::ErrorKind::InvalidConfig(e), .. }) => e,
            other => {
                panic!("schedule {schedule:?} accepted: {:?}", other.map(|r| r.stats.rounds.len()))
            }
        };
        assert_eq!(reason(&[]), ConfigError::EmptySchedule);
        assert_eq!(reason(&[21, 32, 55]), ConfigError::KEven(32));
        assert_eq!(reason(&[21, 33, 201]), ConfigError::KTooLarge(201));
        assert_eq!(reason(&[3, 21]), ConfigError::KTooSmall(3));
    }

    #[test]
    fn iterative_runs_all_rounds() {
        let (_, pairs) = dataset(42, 0.0);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31, 41]).expect("valid schedule");
        assert_eq!(result.stats.rounds.len(), 3);
        assert!(result.stats.rounds.iter().all(|r| r.stats.count > 0));
        // Each contig appears in exactly one scaffold.
        let members: usize = result.scaffolds.iter().map(|s| s.members.len()).sum();
        assert_eq!(members, result.contigs.len());
    }

    #[test]
    fn iterating_does_not_hurt_contiguity_on_repeats() {
        // On repeat-bearing genomes the final (large-k) round should be at
        // least as contiguous as the first (small-k) round.
        let (_, pairs) = dataset(7, 0.25);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31, 41]).expect("valid schedule");
        let first = &result.stats.rounds[0].stats;
        let last = &result.stats.rounds[result.stats.rounds.len() - 1].stats;
        assert!(
            last.n50 * 10 >= first.n50 * 9,
            "iterating collapsed N50: {} -> {}",
            first.n50,
            last.n50
        );
    }

    #[test]
    fn final_assembly_covers_genomes() {
        let (community, pairs) = dataset(11, 0.1);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31]).expect("valid schedule");
        let refs: Vec<DnaSeq> = community.genomes.iter().map(|g| g.seq.clone()).collect();
        let eval = crate::stats::evaluate_against_refs(&result.contigs, &refs, 31);
        assert!(eval.genome_fraction > 0.7, "genome fraction {:.3}", eval.genome_fraction);
        assert!(eval.precision > 0.9, "precision {:.3}", eval.precision);
    }

    #[test]
    fn overlap_driver_error_is_typed() {
        let (_, pairs) = dataset(5, 0.0);
        let cfg = PipelineConfig {
            engine: EngineChoice::Overlap {
                device: gpusim::DeviceConfig::v100(),
                version: locassm::gpu::KernelVersion::V2,
                schedule: locassm::SchedulePolicy::Static { cpu_bin2_fraction: f64::NAN },
            },
            ..PipelineConfig::default()
        };
        let err =
            run_iterative(&pairs, &cfg, &[21, 31]).expect_err("a bad split must not fall back");
        assert_eq!(err.phase, Phase::LocalAssembly);
        assert!(
            matches!(err.kind, crate::ErrorKind::Engine(locassm::DriverError::BadConfig { .. })),
            "{err}"
        );
    }

    #[test]
    fn deterministic() {
        let (_, pairs) = dataset(3, 0.1);
        let cfg = PipelineConfig::default();
        let a = run_iterative(&pairs, &cfg, &[21, 31]).expect("valid schedule");
        let b = run_iterative(&pairs, &cfg, &[21, 31]).expect("valid schedule");
        assert_eq!(a.contigs, b.contigs);
    }
}
