//! Benchmark harness for `mhm2rs assemble`. `perfbench/run.py` drives it;
//! each subcommand runs in a process of its own, so a process's peak RSS
//! and wall time belong to that one step.
//!
//! ```text
//! perfbench setup    --workload W --dir D [--seed N] [--scale-factor F]
//! perfbench assemble --workload W --dir D
//! perfbench eval     --workload W --dir D
//! perfbench traced   --workload W --dir D --run ID
//! ```
//!
//! Each prints one JSON object on stdout; errors go to stderr with exit 1.

mod json;
mod trace;
mod traced;
mod workload;

use bioseq::fastq;
use json::Obj;
use mhm::{evaluate_against_refs, AssemblyStats};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(record) => println!("{}", record.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<Obj, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let flags = parse_flags(rest)?;
    let flag = |k: &str| flags.get(k).map(String::as_str).ok_or(format!("missing --{k}"));
    let w = workload::find(flag("workload")?)?;
    let dir = PathBuf::from(flag("dir")?);
    match cmd.as_str() {
        "setup" => {
            let seed = parse_or(&flags, "seed", w.default_seed())?;
            let scale = parse_or(&flags, "scale-factor", 1.0)?;
            setup(w, &dir, seed, scale)
        }
        "assemble" => assemble(w, &dir),
        "eval" => eval(&dir),
        "traced" => {
            let mut tr = trace::Tracer::new(flag("run")?);
            let checks = traced::run(w, &dir, &mut tr)?;
            let path = dir.join("trace.json");
            std::fs::write(&path, tr.to_json().render() + "\n").map_err(|e| e.to_string())?;
            let cpu_eq = checks.cpu_equals_overlap.map_or(json::Value::Null, json::Value::Bool);
            // The timed assembles' report: their scheduler must be this one.
            let report = std::fs::read_to_string(dir.join("asm").join("report.txt"))
                .map_err(|e| format!("the timed run's report.txt: {e}"))?;
            let same_schedule = traced::schedule_settings(&report) == checks.schedule_settings;
            Ok(Obj::new()
                .str("trace", &path.to_string_lossy())
                .bool("census_consistent", checks.census_consistent)
                .val("cpu_equals_overlap", cpu_eq)
                .bool("schedule_matches", same_schedule))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_flags(rest: &[String]) -> Result<HashMap<String, String>, String> {
    if !rest.len().is_multiple_of(2) {
        return Err("flags come in --key value pairs".to_string());
    }
    rest.chunks(2)
        .map(|kv| {
            let key = kv[0].strip_prefix("--").ok_or(format!("expected --flag, got {}", kv[0]))?;
            Ok((key.to_string(), kv[1].clone()))
        })
        .collect()
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        None => Ok(default),
    }
}

/// Generate the workload's community and reads and write them as
/// `mhm2rs simulate` does: reads_1.fastq, reads_2.fastq, refs.fasta.
fn setup(w: &Workload, dir: &Path, seed: u64, scale: f64) -> Result<Obj, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let preset = w.preset(seed, scale);
    let (community, pairs) = preset.generate();
    let r1: Vec<bioseq::Read> = pairs.iter().map(|p| p.r1.clone()).collect();
    let r2: Vec<bioseq::Read> = pairs.iter().map(|p| p.r2.clone()).collect();
    write_fastq(&dir.join("reads_1.fastq"), &r1)?;
    write_fastq(&dir.join("reads_2.fastq"), &r2)?;
    let refs = community.genomes.iter().map(|g| (g.id.clone(), g.seq.clone()));
    let mut f = BufWriter::new(File::create(dir.join("refs.fasta")).map_err(|e| e.to_string())?);
    fastq::write_fasta(&mut f, refs, 80).map_err(|e| e.to_string())?;
    f.flush().map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();

    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let bases: usize = pairs.iter().map(|p| p.r1.len() + p.r2.len()).sum();
    Ok(Obj::new()
        .num("setup_s", setup_s)
        .int("seed", seed)
        .int("community_seed", preset.community.seed)
        .str("preset", &preset.name)
        .int("pairs", pairs.len() as u64)
        .int("bases", bases as u64)
        .int("fastq_bytes", size("reads_1.fastq") + size("reads_2.fastq"))
        .int("genomes", community.genomes.len() as u64)
        .int("ref_bases", community.total_bases() as u64))
}

fn write_fastq(path: &Path, reads: &[bioseq::Read]) -> Result<(), String> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    fastq::write_fastq(&mut w, reads).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}

/// Time `mhm::cli::run` on the argv a user passes to `mhm2rs assemble`.
fn assemble(w: &Workload, dir: &Path) -> Result<Obj, String> {
    let argv = w.argv(dir);
    let t = Instant::now();
    let report = mhm::cli::run(&argv)?;
    let assemble_s = t.elapsed().as_secs_f64();
    let peak_kb = vm_hwm_kb()?;
    let cpu_s = cpu_seconds()?;
    std::fs::write(dir.join("asm").join("report.txt"), report).map_err(|e| e.to_string())?;
    Ok(Obj::new()
        .num("assemble_s", assemble_s)
        .num("peak_rss_mb", peak_kb as f64 / 1024.0)
        .num("process_cpu_s", cpu_s)
        .str("argv", &argv.join(" ")))
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// User plus system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in USER_HZ = 100 ticks per second).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let ticks: Vec<f64> =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse().ok()).collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_string()),
    }
}

/// Quality of the untraced FASTA output (`dir/asm`) against the refs.
fn eval(dir: &Path) -> Result<Obj, String> {
    let asm = dir.join("asm");
    let contigs = traced::read_fasta(&asm.join("contigs.fasta"))?;
    let scaffolds = traced::read_fasta(&asm.join("scaffolds.fasta"))?;
    let refs = traced::read_fasta(&dir.join("refs.fasta"))?;
    // mhm::cli evaluates at min(31, k); every workload uses k >= 31.
    let e = evaluate_against_refs(&contigs, &refs, 31);
    let cs = AssemblyStats::of(&contigs);
    let ss = AssemblyStats::of(&scaffolds);
    Ok(Obj::new()
        .num("genome_fraction", e.genome_fraction)
        .num("precision", e.precision)
        .int("contig_n50", cs.n50 as u64)
        .int("scaffold_n50", ss.n50 as u64)
        .int("contigs", cs.count as u64)
        .int("scaffolds", ss.count as u64)
        .int("contig_bases", cs.total_bases as u64))
}
