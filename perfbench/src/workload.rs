//! The benchmark's workloads: which dataset preset each one generates, and
//! the `mhm2rs assemble` flags it runs with.

use datagen::{arcticsynth_like, wa_like, Preset};
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;
use mhm::{EngineChoice, PipelineConfig};
use std::path::Path;

/// One workload.
pub struct Workload {
    pub name: &'static str,
    preset: fn(f64) -> Preset,
    scale: f64,
    /// Flags appended to `assemble --r1 … --r2 … --out …`.
    pub flags: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 3] = [
    Workload { name: "arctic-cpu", preset: arcticsynth_like, scale: 1.0, flags: &[] },
    Workload { name: "wa-overlap", preset: wa_like, scale: 0.5, flags: &["--gpu", "--overlap"] },
    Workload {
        name: "arctic-iterative",
        preset: arcticsynth_like,
        scale: 0.25,
        flags: &["--iterative"],
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

impl Workload {
    /// The preset's own community seed. Its reads use `seed << 16 | 1`,
    /// so this seed reproduces the preset exactly.
    pub fn default_seed(&self) -> u64 {
        (self.preset)(1.0).community.seed
    }

    /// The preset at this workload's scale times `scale_factor`, with its
    /// own community and reads simulated from `seed` (as `seed << 16 | 1`).
    pub fn preset(&self, seed: u64, scale_factor: f64) -> Preset {
        let mut p = (self.preset)(self.scale * scale_factor);
        p.reads.seed = seed.wrapping_shl(16) | 1;
        p
    }

    /// The argv a user passes to `mhm2rs assemble` for the data in `dir`.
    pub fn argv(&self, dir: &Path) -> Vec<String> {
        let p = |f: &str| dir.join(f).to_string_lossy().into_owned();
        let mut argv = vec![
            "assemble".to_string(),
            "--r1".to_string(),
            p("reads_1.fastq"),
            "--r2".to_string(),
            p("reads_2.fastq"),
            "--out".to_string(),
            p("asm"),
        ];
        argv.extend(self.flags.iter().map(|f| f.to_string()));
        argv
    }

    /// The configuration `mhm::cli` builds from [`Workload::flags`], and
    /// whether it runs the iterative driver.
    pub fn config(&self) -> (PipelineConfig, bool) {
        let mut cfg = PipelineConfig { k: 31, ..Default::default() };
        if self.flags.contains(&"--overlap") {
            let steal = locassm::StealConfig { adaptive_batch: false, ..Default::default() };
            cfg.engine = EngineChoice::Overlap {
                device: DeviceConfig::v100(),
                version: KernelVersion::V2,
                schedule: locassm::SchedulePolicy::WorkSteal(steal),
            };
        }
        (cfg, self.flags.contains(&"--iterative"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_preset_seeds() {
        for w in &WORKLOADS {
            let own = (w.preset)(w.scale);
            let p = w.preset(w.default_seed(), 1.0);
            assert_eq!(p.community.seed, own.community.seed, "{}", w.name);
            assert_eq!(p.reads.seed, own.reads.seed, "{}", w.name);
        }
    }

    #[test]
    fn lookup_rejects_unknown_names() {
        assert!(find("arctic-cpu").is_ok());
        assert!(find("nope").err().is_some_and(|e| e.contains("wa-overlap")));
    }
}
