//! Iterative-k assembly — the outer loop of Figure 1 ("Iterate for
//! k = k₁, k₂, …").
//!
//! MetaHipMer assembles at a small k first (sensitive at low coverage,
//! repeat-fragile), then re-assembles at progressively larger k with the
//! previous round's contigs injected as *pseudo-reads*: regions that only
//! small-k evidence could assemble survive into the large-k rounds, while
//! large k resolves repeats the small rounds forked on. Alignment + local
//! assembly run inside every round, exactly as in the paper's pipeline
//! diagram; scaffolding runs once at the end.

use crate::errors::{ConfigError, PipelineError};
use crate::merge::merge_reads;
use crate::pipeline::{validate_k, EngineChoice, Phase, PhaseTimings, PipelineConfig};
use crate::scaffold::{scaffold_contigs, Scaffold};
use crate::stats::AssemblyStats;
use align::{collect_candidates, SeedIndex};
use bioseq::{DnaSeq, PairedRead, Read};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{apply_extensions, extend_all_cpu_isolated, make_tasks, ExtResult, TaskOutcome};
use std::time::Instant;

/// Per-round statistics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub k: usize,
    pub contigs: usize,
    pub stats: AssemblyStats,
    pub bases_appended: usize,
}

/// Result of an iterative assembly.
#[derive(Debug)]
pub struct IterativeResult {
    pub contigs: Vec<DnaSeq>,
    pub scaffolds: Vec<Scaffold>,
    pub rounds: Vec<RoundStats>,
    pub timings: PhaseTimings,
}

/// Weight given to contig pseudo-reads when re-counting k-mers (so contig
/// sequence passes the singleton filter on its own).
const CONTIG_PSEUDO_WEIGHT: usize = 2;

/// Run the iterative pipeline over `k_schedule` (ascending).
///
/// Every k in the schedule must pass the same check as
/// [`PipelineConfig::validate`]; `cfg.k` itself is not used.
pub fn run_iterative(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    k_schedule: &[usize],
) -> Result<IterativeResult, PipelineError> {
    if k_schedule.is_empty() {
        return Err(PipelineError::invalid_config(ConfigError::EmptySchedule));
    }
    for &k in k_schedule {
        validate_k(k)?;
    }
    let mut timings = PhaseTimings::new();

    let t = Instant::now();
    let (reads, _) = merge_reads(pairs, &cfg.merge);
    timings.add(Phase::MergeReads, t.elapsed().as_secs_f64());

    let mut contigs: Vec<DnaSeq> = Vec::new();
    let mut rounds = Vec::new();

    for &k in k_schedule {
        // k-mer analysis over reads + previous contigs as pseudo-reads.
        let t = Instant::now();
        let mut round_reads: Vec<Read> = reads.clone();
        for (i, c) in contigs.iter().enumerate() {
            for w in 0..CONTIG_PSEUDO_WEIGHT {
                round_reads.push(Read::with_uniform_qual(
                    format!("__contig_{i}_{w}"),
                    c.clone(),
                    40,
                ));
            }
        }
        let counts = count_kmers(&round_reads, k, cfg.min_kmer_count);
        timings.add(Phase::KmerAnalysis, t.elapsed().as_secs_f64());

        // contig generation
        let t = Instant::now();
        let graph = DbgGraph::new(k, counts);
        contigs = generate_contigs(&graph, cfg.min_votes)
            .into_iter()
            .filter(|c| c.len() >= cfg.min_contig_len)
            .map(|c| c.seq)
            .collect();
        timings.add(Phase::ContigGeneration, t.elapsed().as_secs_f64());

        // alignment (candidates from the real reads only — contigs must not
        // vote on their own extension)
        let t = Instant::now();
        let idx = SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ);
        let cands = collect_candidates(&contigs, &reads, &idx, &cfg.candidates);
        timings.add(Phase::Alignment, t.elapsed().as_secs_f64());

        // local assembly
        let t = Instant::now();
        let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
            cands.into_iter().map(|c| (c.right, c.left)).collect();
        let tasks = make_tasks(&contigs, &cand_pairs, &cfg.locassm);
        // Per-task isolation on both engines: a task that fails every
        // recovery rung is skipped for this round, never fatal.
        let results: Vec<ExtResult> = match &cfg.engine {
            EngineChoice::Cpu => extend_all_cpu_isolated(&tasks, &cfg.locassm)
                .into_iter()
                .map(TaskOutcome::into_result)
                .collect(),
            EngineChoice::Gpu { device, version } => {
                let mut engine =
                    GpuLocalAssembler::new(device.clone(), cfg.locassm.clone(), *version);
                engine
                    .extend_tasks_outcomes(&tasks)
                    .0
                    .into_iter()
                    .map(TaskOutcome::into_result)
                    .collect()
            }
            EngineChoice::Overlap { device, version, schedule } => {
                let driver = locassm::OverlapDriver {
                    device: device.clone(),
                    version: *version,
                    schedule: schedule.clone(),
                };
                match driver.run(&tasks, &cfg.locassm) {
                    Ok(out) => out.results,
                    // An invariant violation in one round degrades to the
                    // CPU reference rather than aborting the whole ladder.
                    Err(_e) => extend_all_cpu_isolated(&tasks, &cfg.locassm)
                        .into_iter()
                        .map(TaskOutcome::into_result)
                        .collect(),
                }
            }
        };
        let appended: usize = results.iter().map(|r| r.appended.len()).sum();
        contigs = apply_extensions(&contigs, &tasks, &results);
        timings.add(Phase::LocalAssembly, t.elapsed().as_secs_f64());

        rounds.push(RoundStats {
            k,
            contigs: contigs.len(),
            stats: AssemblyStats::of(&contigs),
            bases_appended: appended,
        });
    }

    // scaffolding on the final round's contigs
    let t = Instant::now();
    let scaffolds = scaffold_contigs(&contigs, pairs, &cfg.scaffold);
    timings.add(Phase::Scaffolding, t.elapsed().as_secs_f64());

    Ok(IterativeResult { contigs, scaffolds, rounds, timings })
}

/// Default MetaHipMer-style schedule clipped to the observed read length.
pub fn default_schedule(max_read_len: usize) -> Vec<usize> {
    [21usize, 33, 55, 77, 99].into_iter().filter(|&k| k + 1 < max_read_len).collect()
}

/// Convenience wrapper for the GPU engine.
pub fn gpu_engine_choice() -> EngineChoice {
    EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 }
}

/// Convenience wrapper for the work-stealing overlap driver.
pub fn overlap_engine_choice() -> EngineChoice {
    EngineChoice::Overlap {
        device: DeviceConfig::v100(),
        version: KernelVersion::V2,
        schedule: locassm::SchedulePolicy::WorkSteal(locassm::StealConfig::default()),
    }
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
            other => panic!("schedule {schedule:?} accepted: {:?}", other.map(|r| r.rounds.len())),
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
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds.iter().all(|r| r.contigs > 0));
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
        let first = &result.rounds[0].stats;
        let last = &result.rounds[result.rounds.len() - 1].stats;
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
    fn deterministic() {
        let (_, pairs) = dataset(3, 0.1);
        let cfg = PipelineConfig::default();
        let a = run_iterative(&pairs, &cfg, &[21, 31]).expect("valid schedule");
        let b = run_iterative(&pairs, &cfg, &[21, 31]).expect("valid schedule");
        assert_eq!(a.contigs, b.contigs);
    }
}
