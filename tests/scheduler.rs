//! Overlap-scheduler integration tests.
//!
//! The scheduler is a performance feature with a correctness contract: no
//! matter how tasks are split between the CPU and GPU engines — statically,
//! by work stealing, or mid-flight after an injected fault — the extension
//! results must be byte-identical to the pure-CPU reference, in task order.
//! These tests drive that contract across randomized task mixes and fault
//! plans, pin the static bin-2 split's size-interleaved deal, and check
//! that the schedule itself is a pure function of its inputs.

use bioseq::{DnaSeq, Read};
use gpusim::{DeviceConfig, Fault, FaultPlan};
use locassm::gpu::pack::{estimate_task_cost, estimate_task_words};
use locassm::gpu::KernelVersion;
use locassm::{
    bin_tasks, build_batches, extend_all_cpu, ContigEnd, ExtTask, LocalAssemblyParams,
    OverlapDriver, SchedulePolicy, StealConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(len: usize, rng: &mut StdRng) -> DnaSeq {
    (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
}

/// Deterministic task list from a per-task read-count spec: count 0 lands in
/// bin 1, counts below `BIN2_LIMIT` in bin 2, the rest in bin 3.
fn tasks_from_counts(counts: &[usize], seed: u64) -> Vec<ExtTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    counts
        .iter()
        .enumerate()
        .map(|(i, &n_reads)| {
            let genome = random_seq(560, &mut rng);
            let reads = (0..n_reads)
                .map(|r| {
                    Read::with_uniform_qual(
                        format!("t{i}r{r}"),
                        genome.subseq(55 + (r * 17) % 320, 90),
                        35,
                    )
                })
                .collect();
            ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 130), reads }
        })
        .collect()
}

fn fault_plan(kind: usize) -> FaultPlan {
    match kind {
        0 => FaultPlan::default(),
        1 => FaultPlan {
            faults: vec![
                Fault::SlabOom { at_alloc: 0 },
                Fault::KernelHang { at_launch: 1, after_cycles: 5_000 },
            ],
        },
        // A hang storm that exhausts the reset budget: the device is lost
        // mid-schedule and the CPU must absorb the remaining batches.
        _ => FaultPlan {
            faults: (0..64)
                .map(|i| Fault::KernelHang { at_launch: i, after_cycles: 100 })
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Work stealing must reproduce the pure-CPU reference byte-for-byte
    /// across arbitrary bin mixes, steal granularities, and fault plans —
    /// including plans that kill the device partway through the deque.
    #[test]
    fn work_steal_is_byte_identical_across_mixes_and_faults(
        counts in proptest::collection::vec(0usize..=24, 1..=28),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        batch_kib in (0usize..3).prop_map(|i| [2u64, 16, 64][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);

        let driver = OverlapDriver {
            device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: batch_kib * 1024,
                ..StealConfig::default()
            }),
        };
        let out = driver.run(&tasks, &params).expect("driver must not error");
        prop_assert_eq!(&out.results, &reference);
        // Every task is accounted for on exactly one engine (bin-1 tasks
        // are finished on the host before the deque is built).
        let binned = locassm::bin_tasks(&tasks);
        prop_assert_eq!(
            out.cpu_tasks + out.gpu_tasks,
            tasks.len() - binned.zero.len()
        );
    }

    /// The static split must also hold the identity contract under faults —
    /// the recovery ladder and the panic fallback both end at the same CPU
    /// reference code.
    #[test]
    fn static_split_is_byte_identical_across_fractions_and_faults(
        counts in proptest::collection::vec(0usize..=24, 1..=20),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        frac in (0usize..3).prop_map(|i| [0.0f64, 0.3, 1.0][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);

        let driver = OverlapDriver {
            device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
            ..OverlapDriver::static_split(frac)
        };
        let out = driver.run(&tasks, &params).expect("driver must not error");
        prop_assert_eq!(&out.results, &reference);
    }
}

/// Regression for the prefix-bias bug: with bin-2 tasks arriving in
/// ascending size order, a `cpu_bin2_fraction=0.5` split must deal the
/// tasks so both engines get comparable estimated words — the old prefix
/// cut handed the CPU the smallest half of the work.
#[test]
fn static_split_deals_bin2_sizes_instead_of_prefix() {
    // 36 bin-2 tasks in ascending size order (1,..,9 read counts, blocked),
    // the adversarial input for a prefix cut. No bin-3 tasks, so the GPU's
    // scheduled words are purely its bin-2 share.
    let mut counts: Vec<usize> = (0..36).map(|i| 1 + i / 4).collect();
    counts.iter_mut().for_each(|c| *c = (*c).min(9));
    let tasks = tasks_from_counts(&counts, 7);
    let params = LocalAssemblyParams::for_tests();

    let out = OverlapDriver { device: DeviceConfig::tiny(), ..OverlapDriver::static_split(0.5) }
        .run(&tasks, &params)
        .expect("static split runs");
    assert_eq!(out.results, extend_all_cpu(&tasks, &params));

    let total: u64 = tasks.iter().map(|t| estimate_task_words(t, &params)).sum();
    let (cpu_w, gpu_w) = (out.schedule.cpu_est_words, out.schedule.gpu_est_words);
    assert_eq!(cpu_w + gpu_w, total, "every estimated word lands on exactly one engine");
    let (lo, hi) = (cpu_w.min(gpu_w), cpu_w.max(gpu_w));
    assert!(
        lo as f64 >= 0.8 * hi as f64,
        "half split must deal comparable est-words shares, got cpu {cpu_w} / gpu {gpu_w}"
    );

    // The prefix cut would have produced a far worse share: the smallest
    // half of the tasks carries well under 80% of the larger half's words.
    let sorted_words: Vec<u64> = tasks.iter().map(|t| estimate_task_words(t, &params)).collect();
    let prefix_cpu: u64 = sorted_words[..18].iter().sum();
    let prefix_gpu: u64 = sorted_words[18..].iter().sum();
    assert!(
        (prefix_cpu as f64) < 0.8 * prefix_gpu as f64,
        "workload no longer adversarial for a prefix cut: {prefix_cpu} vs {prefix_gpu}"
    );
}

/// The work-steal makespan model must beat a static half split on a skewed
/// workload when the CPU peer is fast enough to help with bin-3 — the
/// scheduler-level version of the Figure 11 harness claim.
#[test]
fn work_steal_model_beats_static_half_split_on_skew() {
    const STRIDE: usize = 4;
    let counts: Vec<usize> =
        (0..64).map(|i| if i % STRIDE == 0 { 18 + i % 5 } else { 1 + (i % 8) }).collect();
    let tasks = tasks_from_counts(&counts, 4242);
    let params = LocalAssemblyParams::for_tests();
    let total: u64 = tasks.iter().map(|t| estimate_task_words(t, &params)).sum();

    // Probe the GPU rate once (single amortized run), then model the CPU
    // peer at twice that rate, as in the fig11 harness.
    let probe = OverlapDriver { device: DeviceConfig::tiny(), ..OverlapDriver::static_split(0.0) }
        .run(&tasks, &params)
        .expect("probe runs");
    let gpu_rate = total as f64 / probe.gpu_stats.as_ref().unwrap().wall_s().max(1e-12);

    let st = OverlapDriver { device: DeviceConfig::tiny(), ..OverlapDriver::static_split(0.5) }
        .run(&tasks, &params)
        .expect("static runs");
    let static_makespan = (st.schedule.cpu_est_words as f64 / (2.0 * gpu_rate))
        .max(st.gpu_stats.as_ref().unwrap().wall_s());

    let ws = OverlapDriver {
        device: DeviceConfig::tiny(),
        schedule: SchedulePolicy::WorkSteal(StealConfig {
            batch_words: 32 * 1024,
            cpu_words_per_s: 2.0 * gpu_rate,
            ..StealConfig::default()
        }),
        ..Default::default()
    }
    .run(&tasks, &params)
    .expect("work-steal runs");
    assert_eq!(ws.results, st.results, "schedules must agree on results");

    let improvement = (static_makespan - ws.schedule.makespan_model_s()) / static_makespan;
    assert!(
        improvement >= 0.15,
        "work-steal should beat static 0.5 by >= 15%, got {:.1}%",
        100.0 * improvement
    );
    assert!(ws.schedule.cpu_stole_heavy > 0, "the win must come from stealing bin-3 work");
}

/// Regression for the bin-2 deal bias: `j % k` dealing in descending size
/// order handed batch 0 the larger item of every round, so the first-dealt
/// batch systematically outweighed the last. The lightest-batch deal must
/// keep max/min batch words tight even on an adversarial geometric size mix.
#[test]
fn light_batch_deal_balances_max_and_min_words() {
    // Heavy size spread (1..=9 reads, many repeats) with no bin-3 tasks, so
    // every scheduled batch is a light one.
    let counts: Vec<usize> = (0..54).map(|i| 1 + i % 9).collect();
    let tasks = tasks_from_counts(&counts, 11);
    let params = LocalAssemblyParams::for_tests();
    let bins = bin_tasks(&tasks);
    let batches = build_batches(&tasks, &bins, &params, 16 * 1024);
    let light: Vec<u64> = batches.iter().filter(|b| !b.heavy).map(|b| b.est_words).collect();
    assert!(light.len() >= 3, "want several light batches, got {}", light.len());
    let (min, max) = (*light.iter().min().unwrap(), *light.iter().max().unwrap());
    assert!(
        min as f64 >= 0.8 * max as f64,
        "lightest-batch deal must balance words: min {min} vs max {max} ({light:?})"
    );
}

/// The per-task cost the schedulers charge is clamped to >= 1 word even for
/// a degenerate empty task, so no batch can be free.
#[test]
fn task_cost_is_clamped_to_at_least_one_word() {
    let params = LocalAssemblyParams::for_tests();
    let empty =
        ExtTask { contig: 0, end: ContigEnd::Right, tail: DnaSeq::new(), reads: Vec::new() };
    assert!(estimate_task_cost(&empty, &params) >= 1);
}

/// The schedule is a pure function of the tasks and the configuration: both
/// virtual clocks are modeled (the CPU's at the constant configured rate,
/// the GPU's from simulated kernel and modeled pack seconds), so two runs
/// of the default driver on the same skewed tasks split the work the same
/// way, to the bit.
#[test]
fn default_schedule_is_deterministic() {
    let counts: Vec<usize> =
        (0..64).map(|i| if i % 4 == 0 { 18 + i % 5 } else { 1 + (i % 8) }).collect();
    let tasks = tasks_from_counts(&counts, 4242);
    let params = LocalAssemblyParams::for_tests();
    let run = || {
        OverlapDriver { device: DeviceConfig::tiny(), ..Default::default() }
            .run(&tasks, &params)
            .expect("driver runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.results, b.results);
    let (a, b) = (&a.schedule, &b.schedule);
    assert!(a.cpu_batches > 0 && a.gpu_batches > 0, "both engines must take work: {a:?}");
    assert_eq!(a.batches, b.batches);
    assert_eq!((a.cpu_batches, a.gpu_batches), (b.cpu_batches, b.gpu_batches));
    assert_eq!((a.cpu_est_words, a.gpu_est_words), (b.cpu_est_words, b.gpu_est_words));
    assert_eq!(
        (a.cpu_stole_heavy, a.gpu_absorbed_light),
        (b.cpu_stole_heavy, b.gpu_absorbed_light)
    );
    assert_eq!(a.cpu_model_s.to_bits(), b.cpu_model_s.to_bits());
    assert_eq!(a.gpu_model_s.to_bits(), b.gpu_model_s.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adaptive drain sizing must never issue a zero-word batch, for any
    /// combination of granularity, drain factor, and floor — and the split
    /// bookkeeping must conserve both results and estimated words.
    #[test]
    fn adaptive_sizing_never_issues_a_zero_word_batch(
        counts in proptest::collection::vec(0usize..=24, 1..=24),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        batch_kib in (0usize..3).prop_map(|i| [2u64, 8, 64][i]),
        drain_factor in (0usize..3).prop_map(|i| [1.5f64, 4.0, 16.0][i]),
        min_batch_words in (0usize..3).prop_map(|i| [1u64, 512, 1 << 20][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);
        // Bin-1 tasks (no reads) are answered host-side before the deque is
        // built, so only read-bearing tasks contribute scheduled words.
        let total: u64 = tasks
            .iter()
            .filter(|t| !t.reads.is_empty())
            .map(|t| estimate_task_words(t, &params))
            .sum();

        let out = OverlapDriver {
            device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: batch_kib * 1024,
                adaptive_batch: true,
                drain_factor,
                min_batch_words,
                ..StealConfig::default()
            }),
        }
        .run(&tasks, &params)
        .expect("driver runs");
        prop_assert_eq!(&out.results, &reference);
        let sched = &out.schedule;
        prop_assert!(sched.adaptive_batch);
        if sched.batches > 0 {
            prop_assert!(
                sched.min_issued_batch_words >= 1,
                "issued a zero-word batch (drain_splits {})", sched.drain_splits
            );
        }
        prop_assert_eq!(sched.cpu_est_words + sched.gpu_est_words, total);
    }

    /// Off-switch contract: with `adaptive_batch` off, the schedule must
    /// not depend on what the (inert) drain knobs are set to — same batch
    /// counts, same steal decisions, bit-identical virtual clocks — under
    /// every fault plan.
    #[test]
    fn disabled_features_reproduce_the_baseline_schedule(
        counts in proptest::collection::vec(0usize..=24, 1..=24),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        drain_factor in (0usize..3).prop_map(|i| [1.5f64, 7.0, 64.0][i]),
        min_batch_words in (0usize..3).prop_map(|i| [1u64, 4096, 1 << 20][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);
        let run = |cfg: StealConfig| {
            OverlapDriver {
                device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
                version: KernelVersion::V2,
                schedule: SchedulePolicy::WorkSteal(cfg),
            }
            .run(&tasks, &params)
            .expect("driver runs")
        };
        let base = run(StealConfig::default());
        let knobbed = run(StealConfig {
            adaptive_batch: false,
            drain_factor,
            min_batch_words,
            ..StealConfig::default()
        });
        prop_assert_eq!(&base.results, &reference);
        prop_assert_eq!(&knobbed.results, &reference);

        let (a, b) = (&base.schedule, &knobbed.schedule);
        prop_assert_eq!(a.batches, b.batches);
        prop_assert_eq!(a.gpu_batches, b.gpu_batches);
        prop_assert_eq!(a.cpu_batches, b.cpu_batches);
        prop_assert_eq!(a.cpu_stole_heavy, b.cpu_stole_heavy);
        prop_assert_eq!(a.gpu_absorbed_light, b.gpu_absorbed_light);
        prop_assert_eq!(a.cpu_est_words, b.cpu_est_words);
        prop_assert_eq!(a.gpu_est_words, b.gpu_est_words);
        // Both clocks are fully modeled, so they must agree to the bit.
        prop_assert_eq!(a.cpu_model_s.to_bits(), b.cpu_model_s.to_bits());
        prop_assert_eq!(a.gpu_model_s.to_bits(), b.gpu_model_s.to_bits());
        prop_assert_eq!(a.min_issued_batch_words, b.min_issued_batch_words);
        prop_assert_eq!(a.drain_splits, 0);
        prop_assert_eq!(b.drain_splits, 0);
        prop_assert!(!b.adaptive_batch);
    }

    /// All-empty-tasks degenerate input: every task is bin 1 (answered
    /// host-side), nothing reaches the deque, and the run stays
    /// byte-identical with a well-formed report under any policy.
    #[test]
    fn all_empty_tasks_never_wedge_the_scheduler(
        n in 1usize..=20,
        work_steal in any::<bool>(),
    ) {
        let counts = vec![0usize; n];
        let tasks = tasks_from_counts(&counts, 5);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);
        let driver = if work_steal {
            OverlapDriver::default()
        } else {
            OverlapDriver::static_split(0.5)
        };
        let out = OverlapDriver { device: DeviceConfig::tiny(), ..driver }
            .run(&tasks, &params)
            .expect("driver runs");
        prop_assert_eq!(&out.results, &reference);
        prop_assert_eq!(out.zero_tasks, n);
        prop_assert_eq!(out.cpu_tasks + out.gpu_tasks, 0);
    }
}
