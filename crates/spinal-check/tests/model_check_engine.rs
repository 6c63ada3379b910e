//! Model-check harnesses driving the *real* `DecodeEngine` through
//! thousands of deterministic schedules.
//!
//! Each harness runs an engine workload as a checked body: every
//! lock/unlock and condvar wait/notify inside the engine (the vendored
//! `parking_lot` shim, built here with its `check` feature) becomes a
//! schedule point, and the session's strategy decides every handoff.
//! The assertions are the ISSUE acceptance criteria: no deadlock, no
//! lost wakeup, no lock-order inversion on *any* schedule, and
//! bit-identical `(message, cost)` output versus a serial reference on
//! *every* schedule.
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

/// The acceptance test: submit/drain plus shutdown (engine drop joins
/// its workers at the end of every schedule) at worker counts 2 and 3,
/// ≥1000 distinct schedules each, zero violations, and every schedule's
/// drained output bit-identical to the serial decode.
#[test]
fn engine_submit_drain_shutdown_is_schedule_independent() {
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
        let (results, stats) = check_random(&cfg, || {
            let engine = DecodeEngine::new(workers);
            // Worker registration races spawn latency; pin it so every
            // schedule explores the same participant set.
            await_participants(1 + workers);
            for rx in &rxs {
                engine.submit(&dec, rx);
            }
            // After drain, `engine` drops: shutdown broadcast + worker
            // joins run under the model on every schedule.
            engine
                .drain()
                .into_iter()
                .map(|r| {
                    let r = r.expect("clean submit decodes");
                    (r.message, r.cost.to_bits())
                })
                .collect::<Vec<Fingerprint>>()
        });
        stats.assert_clean(&format!("engine submit/drain, {workers} workers"));
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

/// Batch decode: several blocks pipelined through the pool at once.
#[test]
fn engine_batch_decode_is_schedule_independent() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..4).map(|i| make_rx(&p, 2, 0xBA + i)).collect();
    let serial = fingerprint_serial(&dec, &rxs);

    let workers = 2usize;
    let cfg = CheckConfig {
        schedules: schedule_budget(200).min(200),
        seed: 0xBA7C,
        declared_threads: Some(1 + workers),
    };
    let (results, stats) = check_random(&cfg, || {
        let engine = DecodeEngine::new(workers);
        await_participants(1 + workers);
        engine
            .decode_batch_parallel(&dec, &rxs)
            .into_iter()
            .map(|r| (r.message, r.cost.to_bits()))
            .collect::<Vec<Fingerprint>>()
    });
    stats.assert_clean("batch decode");
    assert_eq!(results.len(), stats.schedules);
    for got in &results {
        assert_eq!(got, &serial, "batch decode diverged from serial");
    }
}

/// Shutdown robustness: submit work and drop the engine *without*
/// draining. No schedule may deadlock or leak a stuck worker — drop
/// must always shut the pool down cleanly with a job still queued or
/// in flight.
#[test]
fn engine_drop_without_drain_never_wedges() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rx = make_rx(&p, 2, 0xDEAD);

    let workers = 2usize;
    let cfg = CheckConfig {
        schedules: schedule_budget(250).min(250),
        seed: 0xD20D,
        declared_threads: Some(1 + workers),
    };
    let (results, stats) = check_random(&cfg, || {
        let engine = DecodeEngine::new(workers);
        await_participants(1 + workers);
        engine.submit(&dec, &rx);
        engine.submit(&dec, &rx);
        // Dropped with both jobs possibly still queued.
    });
    stats.assert_clean("drop without drain");
    assert_eq!(
        results.len(),
        stats.schedules,
        "a drop-without-drain schedule wedged"
    );
}

/// The submit-racing-drain hazard (ISSUE satellite): a second
/// coordinator thread submits *while* the main thread drains. Under the
/// generation-counted stream every schedule must land the raced
/// submission in exactly one generation — the one the drain closed
/// (drain waits for it) or the next (a later drain returns it). No
/// schedule may lose it, duplicate it, return results out of
/// submission order, or leave a stale completion behind.
#[test]
fn engine_submit_racing_drain_loses_nothing() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 2, 0xF0 + i)).collect();
    let serial = fingerprint_serial(&dec, &rxs);

    let workers = 2usize;
    let cfg = CheckConfig {
        schedules: schedule_budget(250).min(250),
        seed: 0xACE5,
        // Main + workers + the racing submitter. The racer registers at
        // its first lock, mid-race by design — declared_threads only
        // tightens stall detection once everyone has shown up.
        declared_threads: Some(1 + workers + 1),
    };
    let (results, stats) = check_random(&cfg, || {
        let engine = DecodeEngine::new(workers);
        await_participants(1 + workers);
        engine.submit(&dec, &rxs[0]);
        engine.submit(&dec, &rxs[1]);
        let first = std::thread::scope(|s| {
            let racer = s.spawn(|| engine.submit(&dec, &rxs[2]));
            let first = engine.drain();
            racer
                .join()
                .unwrap_or_else(|_| panic!("racing submitter panicked"));
            first
        });
        let second = engine.drain();
        let split = first.len();
        let got: Vec<Fingerprint> = first
            .into_iter()
            .chain(second)
            .map(|r| {
                let r = r.expect("clean submit decodes");
                (r.message, r.cost.to_bits())
            })
            .collect();
        (got, split, engine.stale_completions())
    });
    stats.assert_clean("submit racing drain");
    assert_eq!(results.len(), stats.schedules, "a racing schedule wedged");
    let mut splits = std::collections::HashSet::new();
    for (i, (got, split, stale)) in results.iter().enumerate() {
        assert_eq!(
            got, &serial,
            "schedule {i}: raced submission lost, duplicated, or reordered"
        );
        assert!(
            *split == 2 || *split == 3,
            "schedule {i}: drain returned {split} results for its generation"
        );
        assert_eq!(*stale, 0, "schedule {i}: completion leaked as stale");
        splits.insert(*split);
    }
    // The race must actually branch: some schedules drain the raced
    // submission in the first generation, others in the second.
    assert_eq!(
        splits.len(),
        2,
        "race never explored both generations: splits {splits:?}"
    );
}

/// The panic-racing-drain hazard (PR 10 tentpole): a poisoned job
/// panics on its worker *while* healthy jobs run and the coordinator
/// drains. On every schedule the panic must resolve as a structured
/// failure in its submission slot — never aborting the process, never
/// hanging the drain, never losing or duplicating the healthy results —
/// and the poisoned slot's worker must respawn exactly once with the
/// generation books balanced.
#[test]
fn engine_panic_racing_drain_resolves_structurally_on_every_schedule() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = BubbleDecoder::new(&p);
    let rxs: Vec<RxSymbols> = (0..2).map(|i| make_rx(&p, 2, 0xB00 + i)).collect();
    let serial = fingerprint_serial(&dec, &rxs);

    let workers = 2usize;
    let cfg = CheckConfig {
        schedules: schedule_budget(250).min(250),
        seed: 0xBAD_5EED,
        // The respawned replacement worker joins mid-schedule, so the
        // participant population is not fixed — leave the thread count
        // undeclared and let stall detection adapt.
        declared_threads: None,
    };
    let (results, stats) = check_random(&cfg, || {
        let engine = DecodeEngine::new(workers);
        await_participants(1 + workers);
        engine.submit(&dec, &rxs[0]);
        engine.submit_poison("model-checked poison");
        engine.submit(&dec, &rxs[1]);
        let drained = engine.drain();
        let oks: Vec<Fingerprint> = drained
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Ok(r) => Some((r.message.clone(), r.cost.to_bits())),
                Err(spinal_core::DecodeFailure::WorkerPanicked { payload_msg }) => {
                    assert_eq!(i, 1, "failure surfaced outside the poisoned slot");
                    assert_eq!(payload_msg, "model-checked poison");
                    None
                }
                Err(other) => panic!("poison resolved as {other:?}"),
            })
            .collect();
        let errs = drained.iter().filter(|r| r.is_err()).count();
        (
            oks,
            errs,
            engine.stats().worker_respawns,
            engine.stale_completions(),
        )
    });
    stats.assert_clean("panic racing drain");
    assert_eq!(results.len(), stats.schedules, "a panic schedule wedged");
    for (i, (oks, errs, respawns, stale)) in results.iter().enumerate() {
        assert_eq!(
            oks, &serial,
            "schedule {i}: healthy results lost, duplicated, or corrupted by the panic"
        );
        assert_eq!(*errs, 1, "schedule {i}: exactly one structured failure");
        assert_eq!(*respawns, 1, "schedule {i}: poisoned worker respawns once");
        assert_eq!(*stale, 0, "schedule {i}: completion leaked as stale");
    }
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
        let out = spinal_check::run_schedule(strat, Some(3), || {
            let engine = DecodeEngine::new(2);
            await_participants(3);
            for rx in &rxs {
                engine.submit(&dec, rx);
            }
            engine.drain().len()
        });
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
    let body = || {
        let engine = DecodeEngine::new(2);
        await_participants(3);
        for rx in &rxs {
            engine.submit(&dec, rx);
        }
        engine.drain().len()
    };
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
