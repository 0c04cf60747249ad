//! The traced run: `mhm2rs assemble` re-composed from the public calls it
//! makes into each layer, in the same order as `mhm::cli::run_assemble`,
//! `mhm::run_pipeline` and `mhm::run_iterative`, with a span around each
//! call. The benchmark compares the contigs written here with those of the
//! untraced runs byte for byte, which catches drift in what the calls
//! compute. Local-assembly results do not depend on the overlap schedule, so
//! the scheduler settings are checked on their own: the traced run's
//! settings lines must match the timed run's report (see [`schedule_settings`]).

use crate::trace::Tracer;
use crate::workload::Workload;
use align::sw::{banded_sw, SwScoring};
use align::{collect_candidates, EndCandidates, SeedIndex};
use bioseq::fastq::{self, NPolicy, ParseMode};
use bioseq::{DnaSeq, PairedRead, Read};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use locassm::binning::{bin_of, Bin};
use locassm::{
    apply_extensions, bin_tasks, extend_all_cpu_isolated, make_tasks, summarize, ExtResult,
    ExtTask, ScheduleReport, TaskOutcome,
};
use mhm::iterative::default_schedule;
use mhm::pipeline::PipelineStats;
use mhm::report::render_overlap;
use mhm::{
    evaluate_against_refs, merge_reads, scaffold_contigs, AssemblyStats, EngineChoice,
    PipelineConfig, Scaffold,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Weight `mhm::run_iterative` gives contig pseudo-reads.
const CONTIG_PSEUDO_WEIGHT: usize = 2;

/// What the checks after the traced assemble need.
struct Kept {
    /// Merged reads.
    reads: Vec<Read>,
    /// Per round: k, the contigs fed back as pseudo-reads, and the number
    /// of k-mers the timed count kept.
    rounds: Vec<(usize, Vec<DnaSeq>, usize)>,
    /// Overlap-engine rounds: the tasks and the results the driver gave.
    overlap: Vec<(Vec<ExtTask>, Vec<ExtResult>)>,
    /// The scheduler report of a single-k overlap run, the one the CLI
    /// renders (its iterative report has no scheduler section).
    schedule: Option<ScheduleReport>,
}

/// Outcome of the checks made after the traced assemble.
pub struct Checks {
    /// The min_count=1 census agreed with the timed count's survivors.
    pub census_consistent: bool,
    /// `extend_all_cpu_isolated` matched the overlap driver (`None` when no
    /// round ran the overlap engine).
    pub cpu_equals_overlap: Option<bool>,
    /// [`schedule_settings`] of the scheduler this run used (empty when it
    /// used none).
    pub schedule_settings: Vec<String>,
}

/// The lines of a report's overlap-scheduler section that the scheduler's
/// configuration fixes: the policy, calibration on or off, the seed CPU
/// rate, per-bin rates and adaptive batching. Figures a run measures are
/// left out. Empty when the report has no such section.
pub fn schedule_settings(report: &str) -> Vec<String> {
    let mut lines = report.lines().skip_while(|l| !l.starts_with("overlap scheduler"));
    let Some(head) = lines.next() else {
        return Vec::new();
    };
    let mut out = vec![head.to_string()];
    for l in lines.take_while(|l| l.starts_with("  ")).map(str::trim) {
        if l.starts_with("calibration") || l.starts_with("per-bin rates") {
            out.push(l.to_string());
        } else if l.starts_with("cpu rate") {
            out.push(l.split(" ->").next().unwrap_or(l).to_string());
        } else if l.starts_with("adaptive batches") {
            out.push("adaptive batches".to_string());
        }
    }
    out
}

/// Assemble `dir`'s reads as `mhm2rs assemble` would for `w`, writing
/// contigs/scaffolds FASTA under `dir/traced`, then run the untimed
/// checks and the reference evaluation.
pub fn run(w: &Workload, dir: &Path, tr: &mut Tracer) -> Result<Checks, String> {
    let out = dir.join("traced");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let (cfg, iterative) = w.config();

    tr.enter("bench.assemble");
    let pairs = tr
        .leaf("bioseq.ingest", || ingest(&dir.join("reads_1.fastq"), &dir.join("reads_2.fastq")))?;
    let (contigs, scaffolds, kept) = if iterative {
        let max_read = pairs.iter().map(|p| p.r1.len().max(p.r2.len())).max().unwrap_or(150);
        let mut schedule = default_schedule(max_read);
        if schedule.is_empty() {
            schedule = vec![cfg.k];
        }
        iterative_rounds(tr, &pairs, &cfg, &schedule)?
    } else {
        single_k(tr, &pairs, &cfg)?
    };
    let scaffold_seqs: Vec<DnaSeq> =
        tr.leaf("mhm.render", || scaffolds.iter().map(|s| s.render(&contigs)).collect());
    tr.leaf("mhm.stats", || (AssemblyStats::of(&contigs), AssemblyStats::of(&scaffold_seqs)));
    tr.leaf("bioseq.write_fasta", || write_outputs(&out, &contigs, &scaffold_seqs))?;
    tr.exit();

    let census_consistent = kmer_census(tr, &kept, cfg.min_kmer_count);
    let cpu_equals_overlap = if kept.overlap.is_empty() {
        None
    } else {
        tr.enter("check.cpu_equiv");
        let same = kept.overlap.iter().all(|(tasks, results)| {
            let cpu: Vec<ExtResult> = extend_all_cpu_isolated(tasks, &cfg.locassm)
                .into_iter()
                .map(TaskOutcome::into_result)
                .collect();
            &cpu == results
        });
        tr.exit();
        Some(same)
    };
    let schedule_settings = kept.schedule.map_or_else(Vec::new, |s| {
        let stats = PipelineStats { overlap: Some(s), ..Default::default() };
        schedule_settings(&render_overlap(&stats))
    });

    tr.enter("mhm.ref_eval");
    let refs = tr.leaf("bioseq.read_refs", || read_fasta(&dir.join("refs.fasta")))?;
    let eval = evaluate_against_refs(&contigs, &refs, 31.min(cfg.k));
    tr.exit();
    tr.add("mhm.genome_fraction", eval.genome_fraction);
    tr.add("mhm.precision", eval.precision);

    Ok(Checks { census_consistent, cpu_equals_overlap, schedule_settings })
}

/// `run_pipeline`'s phases, single k.
fn single_k(
    tr: &mut Tracer,
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
) -> Result<(Vec<DnaSeq>, Vec<Scaffold>, Kept), String> {
    let reads = merge(tr, pairs, cfg);
    tr.set_k(Some(cfg.k));
    // The CLI leaves `auto_min_count` off.
    let counts = tr.leaf("dbg.count", || count_kmers(&reads, cfg.k, cfg.min_kmer_count));
    let surviving = counts.len();
    let contigs = tr.leaf("dbg.contig_gen", || contig_gen(cfg.k, counts, cfg));
    tr.add("dbg.contigs", contigs.len() as f64);
    let cands = align(tr, &contigs, &reads, cfg);
    let sw_calls = tr.leaf("align.sw", || sw_rescore(&cands, &contigs, cfg.sw_rescore_frac));
    tr.add("align.sw_calls", sw_calls as f64);
    let tasks = tr.leaf("locassm.tasks", || {
        let tasks = make_tasks(&contigs, &candidate_pairs(cands), &cfg.locassm);
        let _bins = bin_tasks(&tasks);
        tasks
    });
    let (results, schedule) = local_assembly(tr, &tasks, cfg)?;
    let extended = tr.leaf("locassm.apply", || {
        let _summary = summarize(&results);
        apply_extensions(&contigs, &tasks, &results)
    });
    tr.set_k(None);
    let scaffolds = tr.leaf("mhm.scaffold", || scaffold_contigs(&extended, pairs, &cfg.scaffold));
    // run_pipeline's file-I/O phase: serialize scaffolds to memory.
    tr.leaf("bioseq.write_fasta", || {
        let mut sink = Vec::new();
        let records = scaffolds
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("scaffold_{i}"), s.render(&extended)));
        fastq::write_fasta(&mut sink, records, 80).map(|()| sink.len())
    })
    .map_err(|e| e.to_string())?;
    tr.add("mhm.scaffolds", scaffolds.len() as f64);
    let overlap = overlap_kept(cfg, tasks, results).into_iter().collect();
    let kept = Kept { reads, rounds: vec![(cfg.k, Vec::new(), surviving)], overlap, schedule };
    Ok((extended, scaffolds, kept))
}

/// `run_iterative`'s rounds.
fn iterative_rounds(
    tr: &mut Tracer,
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    schedule: &[usize],
) -> Result<(Vec<DnaSeq>, Vec<Scaffold>, Kept), String> {
    let reads = merge(tr, pairs, cfg);
    let mut contigs: Vec<DnaSeq> = Vec::new();
    let mut rounds = Vec::new();
    let mut overlap = Vec::new();
    for &k in schedule {
        tr.set_k(Some(k));
        tr.enter("mhm.round");
        let prev = std::mem::take(&mut contigs);
        let round_reads = tr.leaf("mhm.pseudo_reads", || pseudo_reads(&reads, &prev));
        let counts = tr.leaf("dbg.count", || count_kmers(&round_reads, k, cfg.min_kmer_count));
        rounds.push((k, prev, counts.len()));
        contigs = tr.leaf("dbg.contig_gen", || contig_gen(k, counts, cfg));
        tr.add("dbg.contigs", contigs.len() as f64);
        // Candidates come from the real reads only, as in run_iterative.
        let cands = align(tr, &contigs, &reads, cfg);
        let tasks = tr
            .leaf("locassm.tasks", || make_tasks(&contigs, &candidate_pairs(cands), &cfg.locassm));
        let (results, _) = local_assembly(tr, &tasks, cfg)?;
        contigs = tr.leaf("locassm.apply", || apply_extensions(&contigs, &tasks, &results));
        tr.leaf("mhm.stats", || AssemblyStats::of(&contigs));
        overlap.extend(overlap_kept(cfg, tasks, results));
        tr.exit();
    }
    tr.set_k(None);
    let scaffolds = tr.leaf("mhm.scaffold", || scaffold_contigs(&contigs, pairs, &cfg.scaffold));
    tr.add("mhm.scaffolds", scaffolds.len() as f64);
    Ok((contigs, scaffolds, Kept { reads, rounds, overlap, schedule: None }))
}

fn merge(tr: &mut Tracer, pairs: &[PairedRead], cfg: &PipelineConfig) -> Vec<Read> {
    let (reads, stats) = tr.leaf("mhm.merge", || merge_reads(pairs, &cfg.merge));
    tr.add("mhm.pairs_in", stats.pairs_in as f64);
    tr.add("mhm.merged", stats.merged as f64);
    reads
}

fn contig_gen(k: usize, counts: dbg::KmerCountMap, cfg: &PipelineConfig) -> Vec<DnaSeq> {
    let graph = DbgGraph::new(k, counts);
    generate_contigs(&graph, cfg.min_votes)
        .into_iter()
        .filter(|c| c.len() >= cfg.min_contig_len)
        .map(|c| c.seq)
        .collect()
}

fn align(
    tr: &mut Tracer,
    contigs: &[DnaSeq],
    reads: &[Read],
    cfg: &PipelineConfig,
) -> Vec<EndCandidates> {
    let idx = tr.leaf("align.index", || {
        SeedIndex::build(contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ)
    });
    let cands =
        tr.leaf("align.candidates", || collect_candidates(contigs, reads, &idx, &cfg.candidates));
    tr.add("align.candidate_reads", cands.iter().map(EndCandidates::total).sum::<usize>() as f64);
    cands
}

/// run_pipeline's "aln kernel": banded SW over a fraction of the accepted
/// candidates. Returns the number of alignments made.
fn sw_rescore(cands: &[EndCandidates], contigs: &[DnaSeq], frac: f64) -> usize {
    let mut calls = 0;
    if frac > 0.0 {
        let mut budget = (cands.iter().map(|c| c.total()).sum::<usize>() as f64 * frac) as usize;
        'outer: for (ci, c) in cands.iter().enumerate() {
            for r in c.right.iter().chain(c.left.iter()) {
                if budget == 0 {
                    break 'outer;
                }
                std::hint::black_box(banded_sw(&r.seq, &contigs[ci], SwScoring::default(), 16, 0));
                budget -= 1;
                calls += 1;
            }
        }
    }
    calls
}

fn candidate_pairs(cands: Vec<EndCandidates>) -> Vec<(Vec<Read>, Vec<Read>)> {
    cands.into_iter().map(|c| (c.right, c.left)).collect()
}

/// The local-assembly engine call, with its counters, and the overlap
/// scheduler's report. An error ends the traced run (run_iterative would
/// re-run the round on the CPU instead; no iterative workload uses the
/// overlap engine).
fn local_assembly(
    tr: &mut Tracer,
    tasks: &[ExtTask],
    cfg: &PipelineConfig,
) -> Result<(Vec<ExtResult>, Option<ScheduleReport>), String> {
    tr.add("locassm.tasks", tasks.len() as f64);
    for t in tasks {
        match bin_of(t) {
            Bin::Small => tr.add("locassm.bin2_tasks", 1.0),
            Bin::Large => tr.add("locassm.bin3_tasks", 1.0),
            Bin::Zero => {}
        }
    }
    tr.enter("locassm.extend");
    let (results, schedule) = match &cfg.engine {
        EngineChoice::Cpu => {
            let outcomes = extend_all_cpu_isolated(tasks, &cfg.locassm);
            tr.add(
                "locassm.failed_tasks",
                outcomes.iter().filter(|o| o.is_failed()).count() as f64,
            );
            (outcomes.into_iter().map(TaskOutcome::into_result).collect(), None)
        }
        EngineChoice::Overlap { device, version, schedule } => {
            let driver = locassm::OverlapDriver {
                device: device.clone(),
                version: *version,
                schedule: schedule.clone(),
            };
            let out =
                driver.run(tasks, &cfg.locassm).map_err(|e| format!("local assembly: {e}"))?;
            tr.reported("gpusim.host", out.gpu_wall_s);
            tr.add("locassm.failed_tasks", out.failed_tasks as f64);
            tr.add("locassm.cpu_host_s", out.cpu_wall_s);
            tr.add("locassm.gpu_host_s", out.gpu_wall_s);
            tr.add("locassm.cpu_batches", out.schedule.cpu_batches as f64);
            tr.add("locassm.gpu_batches", out.schedule.gpu_batches as f64);
            let gpu_device_s = out.gpu_stats.as_ref().map_or(0.0, |g| g.wall_s());
            tr.add("locassm.makespan_s", out.cpu_wall_s.max(gpu_device_s));
            if let Some(g) = &out.gpu_stats {
                tr.add("locassm.device_kernel_s", g.seconds);
                tr.add("locassm.device_pack_s", g.pack_s);
                tr.add("locassm.device_pack_hidden_s", g.overlap_saved_s);
                tr.add("gpusim.warp_insts", g.counters.warp_insts() as f64);
                tr.add("gpusim.global_transactions", g.counters.global_transactions() as f64);
                tr.add("gpusim.launches", g.launches as f64);
            }
            (out.results, Some(out.schedule))
        }
        EngineChoice::Gpu { .. } => {
            return Err("the traced run covers the CPU and overlap engines only".to_string())
        }
    };
    tr.exit();
    tr.add(
        "locassm.bases_appended",
        results.iter().map(|r| r.appended.len()).sum::<usize>() as f64,
    );
    Ok((results, schedule))
}

fn overlap_kept(
    cfg: &PipelineConfig,
    tasks: Vec<ExtTask>,
    results: Vec<ExtResult>,
) -> Option<(Vec<ExtTask>, Vec<ExtResult>)> {
    matches!(cfg.engine, EngineChoice::Overlap { .. }).then_some((tasks, results))
}

/// The reads one round counts: the merged reads plus the previous round's
/// contigs as pseudo-reads.
fn pseudo_reads(reads: &[Read], contigs: &[DnaSeq]) -> Vec<Read> {
    let mut round_reads: Vec<Read> = reads.to_vec();
    for (i, c) in contigs.iter().enumerate() {
        for w in 0..CONTIG_PSEUDO_WEIGHT {
            round_reads.push(Read::with_uniform_qual(format!("__contig_{i}_{w}"), c.clone(), 40));
        }
    }
    round_reads
}

/// Recount each round's input with `min_count = 1` (untimed): distinct
/// k-mers, singletons, k-mer instances, and the survivors of the round's
/// cutoff, which must equal what the timed count kept.
fn kmer_census(tr: &mut Tracer, kept: &Kept, min_count: u32) -> bool {
    tr.enter("check.kmer_census");
    let mut consistent = true;
    for (k, prev, timed_surviving) in &kept.rounds {
        let all = count_kmers(&pseudo_reads(&kept.reads, prev), *k, 1);
        let surviving = all.values().filter(|v| v.count >= min_count).count();
        consistent &= surviving == *timed_surviving;
        tr.add("dbg.distinct_kmers", all.len() as f64);
        tr.add("dbg.surviving_kmers", surviving as f64);
        tr.add("dbg.singleton_kmers", all.values().filter(|v| v.count == 1).count() as f64);
        tr.add("dbg.kmer_instances", all.values().map(|v| f64::from(v.count)).sum());
    }
    tr.exit();
    consistent
}

fn ingest(r1: &Path, r2: &Path) -> Result<Vec<PairedRead>, String> {
    let read = |p: &Path| -> Result<Vec<Read>, String> {
        let f = File::open(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let (reads, _) =
            fastq::parse_fastq_with(BufReader::new(f), NPolicy::Drop, ParseMode::Lenient)
                .map_err(|e| e.to_string())?;
        Ok(reads)
    };
    fastq::pair_up(read(r1)?, read(r2)?).map_err(|e| e.to_string())
}

/// Sequences of a FASTA file.
pub fn read_fasta(path: &Path) -> Result<Vec<DnaSeq>, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (records, _) =
        fastq::parse_fasta(BufReader::new(f), NPolicy::Drop).map_err(|e| e.to_string())?;
    Ok(records.into_iter().map(|(_, s)| s).collect())
}

/// The two files `mhm2rs assemble` writes, in its format.
fn write_outputs(out: &Path, contigs: &[DnaSeq], scaffolds: &[DnaSeq]) -> Result<(), String> {
    let write = |name: &str, prefix: &str, seqs: &[DnaSeq]| -> Result<(), String> {
        let mut w = BufWriter::new(File::create(out.join(name)).map_err(|e| e.to_string())?);
        let records = seqs.iter().enumerate().map(|(i, s)| (format!("{prefix}_{i}"), s.clone()));
        fastq::write_fasta(&mut w, records, 80).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())
    };
    write("contigs.fasta", "contig", contigs)?;
    write("scaffolds.fasta", "scaffold", scaffolds)
}

#[cfg(test)]
mod tests {
    use super::schedule_settings;

    #[test]
    fn schedule_settings_keep_configuration_lines_only() {
        let report = "pipeline\n  merge 1.0 s\n\noverlap scheduler (work-steal)\n  \
            batches                  cpu 3 / gpu 9 of 12\n  \
            calibration              on (EWMA feedback)\n  \
            cpu rate (words/s)       seed 2.000e8 -> 2.513e8 (4 updates)\n  \
            adaptive batches         2 drain splits, min issued 100 w\n\ncontigs: 10\n";
        assert_eq!(
            schedule_settings(report),
            [
                "overlap scheduler (work-steal)",
                "calibration              on (EWMA feedback)",
                "cpu rate (words/s)       seed 2.000e8",
                "adaptive batches",
            ]
        );
        assert!(schedule_settings("contigs: 10\n").is_empty());
    }
}
