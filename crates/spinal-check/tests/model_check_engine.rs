//! Model-check harnesses driving the *real* `DecodeEngine` through
//! thousands of deterministic schedules. (The service's session paths,
//! which own the engine's streaming use, have their own harnesses in
//! `model_check_service.rs`.)
//!
//! Each harness runs an engine workload as a checked body: every
//! lock/unlock and condvar wait/notify inside the engine (the vendored
//! `parking_lot` shim, built here with its `check` feature) becomes a
//! schedule point, and the session's strategy decides every handoff.
//! Every harness asserts no deadlock, no lost wakeup and no lock-order
//! inversion on *any* schedule, and bit-identical `(message, cost)`
//! output versus a serial reference on *every* schedule.
//!
//! The schedule budget of the flagship test is tunable for CI smoke
//! runs via `SPINAL_CHECK_SCHEDULES` (the distinct-schedule floor
//! scales down with it); the default budget satisfies the ≥1000
//! distinct-schedule acceptance bar.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, Channel};
use spinal_check::hooks::await_participants;
use spinal_check::{check_random, CheckConfig};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeEngine, DecodeRequest, Encoder, Message, RxSymbols, Schedule,
};

fn make_rx(p: &CodeParams, passes: usize, seed: u64) -> RxSymbols {
    let mut rng = StdRng::seed_from_u64(seed);
    let msg = Message::random(p.n, || rng.gen());
    let mut enc = Encoder::new(p, &msg);
    let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
    let mut rx = RxSymbols::new(schedule);
    let mut ch = AwgnChannel::new(9.0, seed.wrapping_add(7));
    rx.push(&ch.transmit(&enc.next_symbols(passes * p.symbols_per_pass())));
    rx
}

/// `(message, cost-bits)` — the bit-identity fingerprint of a decode.
type Fingerprint = (Message, u64);

fn fingerprint_serial(dec: &BubbleDecoder, rxs: &[RxSymbols]) -> Vec<Fingerprint> {
    rxs.iter()
        .map(|rx| {
            let r = DecodeRequest::new(dec, rx).decode();
            (r.message, r.cost.to_bits())
        })
        .collect()
}

/// Schedule budget for the flagship test, overridable so the CI smoke
/// job can run a bounded slice of the same harness.
fn schedule_budget(default: usize) -> usize {
    std::env::var("SPINAL_CHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The acceptance test: batch decode plus shutdown (engine drop joins
/// its workers at the end of every schedule) at worker counts 2 and 3,
/// ≥1000 distinct schedules each, zero violations, and every schedule's
/// batch output bit-identical to the serial decode.
#[test]
fn engine_batch_shutdown_is_schedule_independent() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 2, 0xD0 + i)).collect();
    let serial = fingerprint_serial(&dec, &rxs);

    let budget = schedule_budget(1200);
    // With the default budget the acceptance bar is ≥1000 distinct
    // schedules; a smoke-sized budget keeps a ~75% density bar (PCT
    // schedules intentionally repeat at small thread counts).
    let distinct_floor = if budget >= 1200 { 1000 } else { budget * 3 / 4 };

    for workers in [2usize, 3] {
        let cfg = CheckConfig {
            schedules: budget,
            seed: 0xE1D0_0000 + workers as u64,
            // Main + the engine's worker pool.
            declared_threads: Some(1 + workers),
        };
        let (results, stats) = check_random(&cfg, || batch_fingerprints(workers, &dec, &rxs));
        stats.assert_clean(&format!("engine batch, {workers} workers"));
        eprintln!(
            "engine batch, {workers} workers: {}/{} distinct schedules",
            stats.distinct, stats.schedules
        );
        assert_eq!(
            results.len(),
            stats.schedules,
            "some schedule failed to complete ({workers} workers)"
        );
        for (i, got) in results.iter().enumerate() {
            assert_eq!(
                got, &serial,
                "schedule {i} ({workers} workers) diverged from the serial decode"
            );
        }
        assert!(
            stats.distinct >= distinct_floor,
            "only {} distinct schedules of {} runs ({workers} workers); floor {}",
            stats.distinct,
            stats.schedules,
            distinct_floor
        );
    }
}

/// One checked body: a fresh `workers`-wide engine decodes `rxs` as one
/// batch, then drops — shutdown broadcast and worker joins run under
/// the model on every schedule.
fn batch_fingerprints(workers: usize, dec: &BubbleDecoder, rxs: &[RxSymbols]) -> Vec<Fingerprint> {
    let engine = DecodeEngine::new(workers);
    // Worker registration races spawn latency; pin it so every
    // schedule explores the same participant set.
    await_participants(1 + workers);
    engine
        .decode_batch_parallel(dec, rxs)
        .into_iter()
        .map(|r| (r.message, r.cost.to_bits()))
        .collect()
}

/// Diagnostic (ignored): dump schedule structure for tuning.
#[test]
#[ignore]
fn dump_schedule_structure() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 2, 0xD0 + i)).collect();
    for i in 0..12u64 {
        let strat = if i % 2 == 0 {
            spinal_check::Strategy::Random { seed: 0x1000 + i }
        } else {
            spinal_check::Strategy::Pct {
                seed: 0x1000 + i,
                depth: 3,
            }
        };
        let out =
            spinal_check::run_schedule(strat, Some(3), || batch_fingerprints(2, &dec, &rxs).len());
        eprintln!(
            "run {i}: hash={:016x} choices={:?} steps={} steals={} diverged={}",
            out.schedule_hash, out.choices, out.steps, out.steals, out.diverged
        );
    }
}

/// Diagnostic (ignored): distinct-hash rate per strategy.
#[test]
#[ignore]
fn dump_distinct_rates() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 2, 0xD0 + i)).collect();
    let body = || batch_fingerprints(2, &dec, &rxs).len();
    for (name, pct) in [("random", false), ("pct", true)] {
        let mut hashes = std::collections::HashSet::new();
        for i in 0..40u64 {
            let seed = 0x2000 + i * 0x9E37_79B9;
            let strat = if pct {
                spinal_check::Strategy::Pct { seed, depth: 3 }
            } else {
                spinal_check::Strategy::Random { seed }
            };
            let out = spinal_check::run_schedule(strat, Some(3), body);
            hashes.insert(out.schedule_hash);
        }
        eprintln!("{name}: {}/40 distinct", hashes.len());
    }
}
