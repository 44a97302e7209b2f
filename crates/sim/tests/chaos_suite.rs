//! The oracle conformance suite: ≥200 seeded chaos scenarios swept over
//! the full pattern × strategy grid (3 patterns × all 5 `paper_variants`
//! strategies × 14 seeds = 210 scenarios). Each scenario draws its own
//! fault cocktail — scheduler reorderings, stalls, steal storms with and
//! without budgets, chunk-pool exhaustion, partition skew, exchange
//! shuffles, checkpointed suspend/resume, forced slice-boundary
//! preemptions — and must match the centralized oracle's instance count
//! exactly with zero invariant violations, and reproduce the replay
//! fingerprint pinned for it in `corpus/fingerprints.txt`.

use psgl_core::Strategy;
use psgl_sim::chaos::chaos_patterns;
use psgl_sim::Scenario;
use std::collections::HashMap;

const SEEDS_PER_CELL: u64 = 14;

/// The pinned fingerprints of one set (`suite` or `corpus`), by seed.
fn pinned(set: &str) -> HashMap<u64, u64> {
    let text = include_str!("../corpus/fingerprints.txt");
    let mut pins = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [kind, seed, fp] = fields[..] else { panic!("bad fingerprint line {line:?}") };
        if kind == set {
            let fp = u64::from_str_radix(fp, 16).expect("hex fingerprint");
            pins.insert(seed.parse().expect("numeric seed"), fp);
        }
    }
    pins
}

/// Compares a run's fingerprint with its pin, recording any mismatch.
fn check_pin(pins: &HashMap<u64, u64>, seed: u64, got: u64, failures: &mut Vec<String>) {
    match pins.get(&seed) {
        Some(&want) if want == got => {}
        Some(&want) => {
            failures.push(format!("seed {seed}: fingerprint {got:016x}, pinned {want:016x}"))
        }
        None => failures.push(format!("seed {seed}: no pinned fingerprint")),
    }
}

#[test]
fn every_corpus_seed_reproduces_its_pinned_fingerprint() {
    let pins = pinned("corpus");
    let corpus = include_str!("../corpus/seeds.txt");
    let mut failures = Vec::new();
    let mut seeds = 0;
    for line in corpus.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let seed: u64 = line.parse().expect("numeric corpus seed");
        seeds += 1;
        match Scenario::from_seed(seed).run() {
            Ok(report) => check_pin(&pins, seed, report.fingerprint, &mut failures),
            Err(failure) => failures.push(failure.to_string()),
        }
    }
    assert_eq!(seeds, pins.len(), "every corpus seed has exactly one pin");
    assert!(failures.is_empty(), "corpus drifted:\n{}", failures.join("\n"));
}

#[test]
fn two_hundred_plus_scenarios_keep_oracle_parity_under_chaos() {
    let pins = pinned("suite");
    let patterns = chaos_patterns();
    let mut scenarios_run = 0u64;
    let mut failures = Vec::new();
    // steal, pool cap, skew, stall, shuffle, cancel, preempt drawn
    let mut fault_coverage = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut resumed = 0u64;
    let mut preempted = 0u64;
    for (pi, pattern) in patterns.iter().enumerate() {
        for (si, (name, strategy)) in Strategy::paper_variants().into_iter().enumerate() {
            for i in 0..SEEDS_PER_CELL {
                // Distinct seed per grid cell and iteration.
                let seed = 1 + i + SEEDS_PER_CELL * (si as u64 + 8 * pi as u64);
                let scenario = Scenario::from_seed_with(seed, pattern.clone(), name, strategy);
                fault_coverage.0 += u64::from(scenario.steal);
                fault_coverage.1 += u64::from(scenario.max_live_chunks.is_some());
                fault_coverage.2 += u64::from(scenario.skew_per_mille > 0);
                fault_coverage.3 += u64::from(scenario.stall_per_mille > 0);
                fault_coverage.4 += u64::from(scenario.exchange_shuffle_seed.is_some());
                fault_coverage.5 += u64::from(scenario.cancel_at_superstep.is_some());
                fault_coverage.6 += u64::from(scenario.preempt_every.is_some());
                scenarios_run += 1;
                match scenario.run() {
                    Ok(report) => {
                        check_pin(&pins, seed, report.fingerprint, &mut failures);
                        resumed += u64::from(report.resumed_at.is_some());
                        preempted += u64::from(report.preempted_slices.is_some());
                    }
                    Err(failure) => failures.push(failure.to_string()),
                }
            }
        }
    }
    assert!(scenarios_run >= 200, "suite must cover >= 200 scenarios, ran {scenarios_run}");
    assert_eq!(scenarios_run, pins.len() as u64, "every suite scenario has exactly one pin");
    // Every fault class must actually have been exercised by the sweep.
    let (steal, pool, skew, stall, shuffle, cancel, preempt) = fault_coverage;
    assert!(steal > 0 && pool > 0 && skew > 0 && stall > 0 && shuffle > 0 && cancel > 0 && preempt > 0,
        "fault menu under-covered: steal {steal}, pool {pool}, skew {skew}, stall {stall}, shuffle {shuffle}, cancel {cancel}, preempt {preempt}");
    // Drawing the fault is not enough: some runs must actually have been
    // suspended at a checkpoint and resumed to exact parity.
    assert!(
        resumed > 0,
        "no scenario was actually suspended and resumed ({cancel} drew the fault)"
    );
    // Likewise for forced slice-boundary preemptions.
    assert!(
        preempted > 0,
        "no scenario was actually sliced and preempted ({preempt} drew the fault)"
    );
    assert!(
        failures.is_empty(),
        "{} of {scenarios_run} chaos scenarios failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
