//! End-to-end pipeline orchestration with per-phase timing.

use crate::errors::{ConfigError, PipelineError};
use crate::iterative::run_iterative;
use crate::merge::{MergeParams, MergeStats};
use crate::scaffold::{Scaffold, ScaffoldParams};
use crate::stats::AssemblyStats;
use align::CandidateParams;
use bioseq::{DnaSeq, PairedRead};
use gpusim::DeviceConfig;
use locassm::gpu::{GpuRunStats, KernelVersion, RecoveryStats};
use locassm::{BinStats, ExtSummary, LocalAssemblyParams, ScheduleReport};
use serde::{Deserialize, Serialize};

/// Pipeline phases, named as in the paper's run-time breakdowns (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    MergeReads,
    KmerAnalysis,
    ContigGeneration,
    Alignment,
    AlnKernel,
    LocalAssembly,
    Scaffolding,
    FileIo,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 8] = [
        Phase::MergeReads,
        Phase::KmerAnalysis,
        Phase::ContigGeneration,
        Phase::Alignment,
        Phase::AlnKernel,
        Phase::LocalAssembly,
        Phase::Scaffolding,
        Phase::FileIo,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Phase::MergeReads => "merge reads",
            Phase::KmerAnalysis => "k-mer analysis",
            Phase::ContigGeneration => "contig generation",
            Phase::Alignment => "alignment",
            Phase::AlnKernel => "aln kernel",
            Phase::LocalAssembly => "local assembly",
            Phase::Scaffolding => "scaffolding",
            Phase::FileIo => "file I/O",
        }
    }
}

/// Seconds per phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    entries: Vec<(Phase, f64)>,
}

impl PhaseTimings {
    /// Empty timings.
    pub fn new() -> PhaseTimings {
        PhaseTimings::default()
    }

    /// Record (accumulate) seconds for a phase.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == phase) {
            e.1 += seconds;
        } else {
            self.entries.push((phase, seconds));
        }
    }

    /// Seconds recorded for a phase (0 if absent).
    pub fn get(&self, phase: Phase) -> f64 {
        self.entries.iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, s)| *s)
    }

    /// Total across phases.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }

    /// `(phase, seconds, fraction)` rows in pipeline order.
    pub fn breakdown(&self) -> Vec<(Phase, f64, f64)> {
        let total = self.total().max(f64::MIN_POSITIVE);
        Phase::ALL.iter().map(|&p| (p, self.get(p), self.get(p) / total)).collect()
    }
}

/// Which local-assembly engine the pipeline uses.
#[derive(Debug, Clone)]
pub enum EngineChoice {
    /// Multicore CPU reference.
    Cpu,
    /// Simulated-GPU engine with the given device and kernel version.
    Gpu { device: DeviceConfig, version: KernelVersion },
    /// CPU/GPU overlap driver (paper §4.3): both engines share the task
    /// list under a [`locassm::SchedulePolicy`] — work-stealing by
    /// default, or the static `cpu_bin2_fraction` split.
    Overlap { device: DeviceConfig, version: KernelVersion, schedule: locassm::SchedulePolicy },
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Contig-generation k.
    pub k: usize,
    /// Minimum k-mer count (singleton filter).
    pub min_kmer_count: u32,
    /// Minimum extension votes during contig generation.
    pub min_votes: u16,
    /// Discard contigs shorter than this before downstream phases.
    pub min_contig_len: usize,
    pub merge: MergeParams,
    pub candidates: CandidateParams,
    pub locassm: LocalAssemblyParams,
    pub scaffold: ScaffoldParams,
    pub engine: EngineChoice,
    /// Fraction of accepted candidate alignments rescored with banded SW
    /// (the "aln kernel" phase; 0 disables).
    pub sw_rescore_frac: f64,
}

/// Smallest k the pipeline accepts. A k-mer must be long enough to be
/// unique within a genome for the de Bruijn graph to have unitigs: 4^15 ≈
/// 1.1·10^9 possible 15-mers against the 10^5–10^7 bases of a microbial
/// genome. Shorter k forks the graph at nearly every vertex, and the run
/// would silently produce no contigs.
pub const MIN_K: usize = 15;

/// Reject a contig-generation k the pipeline cannot assemble with: below
/// [`MIN_K`], above the widest packed k-mer, or even.
pub(crate) fn validate_k(k: usize) -> Result<(), PipelineError> {
    let reason = if k < MIN_K {
        ConfigError::KTooSmall(k)
    } else if k > kmer::MAX_K {
        ConfigError::KTooLarge(k)
    } else if k.is_multiple_of(2) {
        ConfigError::KEven(k)
    } else {
        return Ok(());
    };
    Err(PipelineError::invalid_config(reason))
}

impl PipelineConfig {
    /// Check the configuration before any work starts: today, that `k` is
    /// odd and within [`MIN_K`]`..=`[`kmer::MAX_K`].
    pub fn validate(&self) -> Result<(), PipelineError> {
        validate_k(self.k)
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            k: 31,
            min_kmer_count: 2,
            min_votes: 2,
            min_contig_len: 100,
            merge: MergeParams::default(),
            candidates: CandidateParams::default(),
            locassm: LocalAssemblyParams::for_tests(),
            scaffold: ScaffoldParams::default(),
            engine: EngineChoice::Cpu,
            sw_rescore_frac: 0.25,
        }
    }
}

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct PipelineResult {
    /// Contigs after the last round's local-assembly extension.
    pub contigs: Vec<DnaSeq>,
    /// Scaffolds over the extended contigs.
    pub scaffolds: Vec<Scaffold>,
    /// Seconds per phase, summed over rounds. Every phase is host wall
    /// time except local assembly, whose time is defined per engine: host
    /// wall on the CPU engine, the simulated device wall
    /// ([`GpuRunStats::wall_s`]: kernel plus pack minus hidden pack) on the
    /// GPU engine, and the makespan `max(CPU host wall, GPU wall_s)` on the
    /// overlap engine. The host wall of local assembly on every engine is
    /// `stats.la_wall_seconds`. The run writes no files, so
    /// [`Phase::FileIo`] is left for the caller that does (the CLI times
    /// its FASTA writes there).
    pub timings: PhaseTimings,
    pub stats: PipelineStats,
}

impl PipelineResult {
    /// Whether local assembly had to exercise any rung of the recovery
    /// ladder (retry, batch shrink, device reset, CPU fallback, or skip) in
    /// any round.
    pub fn degraded(&self) -> bool {
        self.stats.recovery.as_ref().is_some_and(RecoveryStats::any_recovery)
            || self.stats.la_failed_tasks > 0
    }
}

/// Run statistics. Run-wide counters (merge, local-assembly host wall,
/// GPU stats, recovery, skipped tasks) cover every round; the per-phase
/// counts of a round (k-mers, contigs, bins, tasks, bases appended, walk
/// summary, scheduler report) are the last round's, the one whose contigs
/// are the assembly. [`PipelineStats::rounds`] has every round.
#[derive(Debug, Default)]
pub struct PipelineStats {
    pub pairs_in: usize,
    pub merge: MergeStats,
    pub reads_for_assembly: usize,
    pub distinct_kmers: usize,
    pub contigs_initial: usize,
    pub contigs_kept: usize,
    pub bins: BinStats,
    pub tasks: usize,
    pub bases_appended: usize,
    /// Walk-outcome telemetry (states, iterations, extension lengths).
    pub ext_summary: ExtSummary,
    /// Host wall seconds spent in local assembly (whichever engine).
    pub la_wall_seconds: f64,
    /// GPU engine run stats folded over rounds (GPU and overlap engines).
    pub gpu: Option<GpuRunStats>,
    /// Recovery-ladder counters from the GPU engine (GPU and overlap
    /// engines); all-zero for a fault-free run.
    pub recovery: Option<RecoveryStats>,
    /// Tasks skipped after every recovery rung failed (their contigs keep
    /// their unextended sequence).
    pub la_failed_tasks: usize,
    /// Overlap-scheduler report (overlap engine only): shares, steal
    /// counts, and the virtual-time makespan model.
    pub overlap: Option<ScheduleReport>,
    /// One record per k of the schedule, in order.
    pub rounds: Vec<RoundStats>,
    pub scaffolds: usize,
}

/// One round of the k loop.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub k: usize,
    /// The round's contigs after local assembly.
    pub stats: AssemblyStats,
    pub bases_appended: usize,
    /// The round's GPU engine run stats (GPU and overlap engines).
    pub gpu: Option<GpuRunStats>,
    /// The round's overlap-scheduler report (overlap engine only).
    pub overlap: Option<ScheduleReport>,
}

/// Run the full pipeline at one k (`cfg.k`): the round loop of
/// [`run_iterative`] with a single round.
///
/// Recoverable device faults (injected or genuine OOM/launch failures) are
/// absorbed by the local-assembly recovery ladder and reported as counters
/// in [`PipelineStats::recovery`]; an `Err` means the run could not
/// produce a result at all.
pub fn run_pipeline(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    run_iterative(pairs, cfg, &[cfg.k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{
        arcticsynth_like, generate_community, simulate_reads, CommunityConfig, ReadSimConfig,
    };

    fn tiny_dataset() -> (datagen::Community, Vec<PairedRead>) {
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (8_000, 9_000),
            abundance_sigma: 0.3,
            seed: 11,
            ..Default::default()
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig {
                n_pairs: 3_000,
                read_len: 100,
                insert_mean: 240.0,
                insert_sd: 15.0,
                lo_frac: 0.01,
                ..Default::default()
            },
        );
        (community, pairs)
    }

    #[test]
    fn cpu_pipeline_assembles_genomes() {
        let (community, pairs) = tiny_dataset();
        let cfg = PipelineConfig::default();
        let result = run_pipeline(&pairs, &cfg).expect("pipeline runs");
        assert!(result.stats.contigs_kept > 0, "no contigs survived");
        assert!(result.stats.distinct_kmers > 1000);
        // Longest contig should cover a large chunk of some genome.
        let longest = result.contigs.iter().map(DnaSeq::len).max().unwrap();
        let min_genome = community.genomes.iter().map(|g| g.seq.len()).min().unwrap();
        assert!(
            longest as f64 > 0.5 * min_genome as f64,
            "longest contig {longest} vs smallest genome {min_genome}"
        );
        // All phases ticked.
        for p in Phase::ALL {
            assert!(result.timings.get(p) >= 0.0);
        }
        assert!(result.timings.get(Phase::LocalAssembly) > 0.0);
    }

    #[test]
    fn gpu_pipeline_matches_cpu_contigs() {
        let (_, pairs) = tiny_dataset();
        let cpu_cfg = PipelineConfig::default();
        let gpu_cfg = PipelineConfig {
            engine: EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 },
            ..PipelineConfig::default()
        };
        let cpu = run_pipeline(&pairs, &cpu_cfg).expect("pipeline runs");
        let gpu = run_pipeline(&pairs, &gpu_cfg).expect("pipeline runs");
        assert_eq!(cpu.contigs, gpu.contigs, "engines must produce identical assemblies");
        assert!(gpu.stats.gpu.as_ref().unwrap().seconds > 0.0);
        assert!(gpu.stats.gpu.as_ref().unwrap().counters.warp_insts() > 0);
    }

    #[test]
    fn local_assembly_extends_contigs() {
        // Repeat-bearing genomes with the default (wider) insert
        // distribution: the global graph forks at the repeats, so the
        // assembly fragments and local assembly has ends to extend.
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (8_000, 9_000),
            abundance_sigma: 0.3,
            repeat_prob: 0.3,
            repeat_period: 97,
            seed: 11,
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig { n_pairs: 3_000, read_len: 100, seed: 12, ..Default::default() },
        );
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        assert!(result.stats.bases_appended > 0, "local assembly appended nothing");
    }

    #[test]
    fn preset_smoke() {
        let (_, pairs) = arcticsynth_like(0.02).generate();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        assert!(result.stats.reads_for_assembly > 0);
        assert_eq!(result.stats.pairs_in, pairs.len());
    }

    #[test]
    fn ext_summary_consistent_with_stats() {
        let (_, pairs) = tiny_dataset();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        assert_eq!(result.stats.ext_summary.tasks, result.stats.tasks);
        assert_eq!(result.stats.ext_summary.bases_appended, result.stats.bases_appended);
    }

    #[test]
    fn validate_rejects_unusable_k() {
        let reason = |k| match (PipelineConfig { k, ..PipelineConfig::default() }).validate() {
            Ok(()) => None,
            Err(PipelineError { kind: crate::ErrorKind::InvalidConfig(e), .. }) => Some(e),
            Err(e) => panic!("untyped rejection: {e}"),
        };
        assert_eq!(reason(0), Some(ConfigError::KTooSmall(0)));
        assert_eq!(reason(MIN_K - 2), Some(ConfigError::KTooSmall(MIN_K - 2)));
        assert_eq!(reason(kmer::MAX_K + 1), Some(ConfigError::KTooLarge(kmer::MAX_K + 1)));
        assert_eq!(reason(32), Some(ConfigError::KEven(32)));
        assert_eq!(reason(kmer::MAX_K), Some(ConfigError::KEven(kmer::MAX_K)));
        for k in [MIN_K, 21, 31, 99, kmer::MAX_K - 1] {
            assert_eq!(reason(k), None, "k={k}");
        }
    }

    #[test]
    fn run_pipeline_rejects_even_k_before_work() {
        let err = run_pipeline(&[], &PipelineConfig { k: 30, ..PipelineConfig::default() })
            .expect_err("even k");
        assert!(matches!(err.kind, crate::ErrorKind::InvalidConfig(ConfigError::KEven(30))));
    }

    #[test]
    fn timings_breakdown_sums_to_one() {
        let (_, pairs) = tiny_dataset();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        let frac_sum: f64 = result.timings.breakdown().iter().map(|(_, _, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}
