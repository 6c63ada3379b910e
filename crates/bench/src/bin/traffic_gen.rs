//! Many-session traffic generator for the `spinal-core` decode service:
//! a mixed n/B/SNR workload held at a target concurrency, per-session
//! retry at pass boundaries, and a sustained sessions/s figure.
//!
//! ```sh
//! cargo run --release -p bench --bin traffic_gen -- \
//!     [--sessions 600] [--concurrent 500] [--threads N] [--seed 7] \
//!     [--max-passes 8] [--p99-ceiling-us 5000000] [--json /tmp/service.json]
//! ```
//!
//! The run is deterministic for a given seed and thread count: every
//! channel is seeded per session, and the decode results themselves are
//! bit-exact at every thread count (the engine contract). The process
//! exits non-zero if any accounting invariant breaks:
//!
//! * every opened session reaches a terminal state (zero lost),
//! * every submitted attempt completes exactly once (no duplicated or
//!   dropped completions, zero stale),
//! * every session decodes its payload within the pass budget,
//! * the service genuinely held `--concurrent` sessions open at once,
//! * decode p99 stays under `--p99-ceiling-us`.
//!
//! With `--json` (or `$BENCH_JSON`) it appends a shim-criterion JSON
//! line (`group "service"`, field `sessions_per_sec`) for
//! `bench_guard --mode sessions`.

use bench::{die, Args};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeService, Encoder, Message, RxSymbols, Schedule, ServiceConfig,
    Session, SessionBuffer, SessionOptions,
};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One cell of the mixed workload: code geometry plus channel SNR.
struct Mix {
    params: CodeParams,
    decoder: Arc<BubbleDecoder>,
    snr_db: f64,
}

/// One in-flight generated session: the service session plus the
/// sender-side state needed to stream more passes on retry.
struct Active {
    session: Session,
    mix: usize,
    expect: Message,
    encoder: Encoder,
    channel: AwgnChannel,
    passes: usize,
}

fn main() {
    let args = Args::parse();
    let sessions = args.usize("sessions", 600);
    let concurrent = args.usize("concurrent", 500).max(1);
    let threads = bench::cli_threads(&args).get();
    let seed = args.usize("seed", 7) as u64;
    let max_passes = args.usize("max-passes", 8).max(1);
    let p99_ceiling_us = args.usize("p99-ceiling-us", 5_000_000) as u64;
    let json_path = {
        let cli = args.str("json", "");
        if cli.is_empty() {
            std::env::var("BENCH_JSON").unwrap_or_default()
        } else {
            cli
        }
    };

    // The mixed workload: small geometries so a CI box retires hundreds
    // of sessions in seconds, SNRs high enough that the pass budget is
    // never the limiting factor.
    let mixes: Vec<Mix> = [(32usize, 8usize, 18.0f64), (64, 8, 18.0), (64, 16, 12.0)]
        .into_iter()
        .map(|(n, b, snr_db)| {
            let params = CodeParams::default().with_n(n).with_b(b);
            let decoder = Arc::new(BubbleDecoder::new(&params));
            Mix {
                params,
                decoder,
                snr_db,
            }
        })
        .collect();

    let svc = DecodeService::new(
        threads,
        ServiceConfig {
            max_sessions: concurrent,
            queue_capacity: concurrent.max(16),
            max_inflight: 0,
        },
    );

    let clones_before = BubbleDecoder::clones_total();
    let started = Instant::now();
    let mut opened = 0usize;
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut active: VecDeque<Active> = VecDeque::new();

    while completed + failed < sessions {
        // Open sessions while concurrency slots are free.
        while opened < sessions && active.len() < concurrent {
            let mix_idx = (opened * 7 + seed as usize) % mixes.len();
            let mix = &mixes[mix_idx];
            let n_bytes = mix.params.n / 8;
            let payload: Vec<u8> = (0..n_bytes)
                .map(|i| (opened as u8).wrapping_mul(37).wrapping_add(i as u8))
                .collect();
            let expect = Message::from_bytes(payload, mix.params.n);
            let mut encoder = Encoder::new(&mix.params, &expect);
            let mut channel =
                AwgnChannel::new(mix.snr_db, seed ^ (opened as u64).wrapping_mul(0x9E37_79B9));
            let schedule = Schedule::new(
                mix.params.num_spines(),
                mix.params.tail,
                mix.params.puncturing,
            );
            let spp = mix.params.symbols_per_pass();
            let mut rx = RxSymbols::new(schedule);
            rx.push(&channel.transmit(&encoder.next_symbols(2 * spp)));
            let buffer = SessionBuffer::Symbols(rx);
            let mut session =
                match svc.open_session(&mix.decoder, buffer, SessionOptions::default()) {
                    Ok(s) => s,
                    Err(e) => die(format!("admission failed at session {opened}: {e}")),
                };
            if let Err(e) = session.submit() {
                die(format!("submit failed at session {opened}: {e}"));
            }
            active.push_back(Active {
                session,
                mix: mix_idx,
                expect,
                encoder,
                channel,
                passes: 2,
            });
            opened += 1;
        }
        // Retire (or retry) the oldest in-flight session.
        let Some(mut a) = active.pop_front() else {
            die("no active sessions but work remains — scheduler stuck");
        };
        let Some(result) = a.session.wait() else {
            die("session had no attempt in flight — submit/wait pairing broken");
        };
        let Ok(result) = result else {
            die("structured decode failure under clean traffic — recovery path misfired");
        };
        if result.message == a.expect {
            completed += 1;
        } else if a.passes < max_passes {
            // Rateless retry: stream one more pass and resubmit.
            let spp = mixes[a.mix].params.symbols_per_pass();
            let more = a.channel.transmit(&a.encoder.next_symbols(spp));
            match a.session.buffer_mut() {
                Some(SessionBuffer::Symbols(rx)) => rx.push(&more),
                _ => die("session buffer unavailable after wait"),
            }
            if let Err(e) = a.session.submit() {
                die(format!("resubmit failed: {e}"));
            }
            a.passes += 1;
            active.push_back(a);
        } else {
            failed += 1;
        }
    }
    drop(active);

    let elapsed = started.elapsed().as_secs_f64();
    let m = svc.metrics();
    let sessions_per_sec = if elapsed > 0.0 {
        completed as f64 / elapsed
    } else {
        0.0
    };
    let decoder_clones = BubbleDecoder::clones_total() - clones_before;

    println!("# traffic_gen: {sessions} sessions, target concurrency {concurrent}, {threads} thread(s), seed {seed}");
    println!(
        "completed,failed,peak_active,submits,completions,stale,retries,p50_us,p99_us,sessions_per_sec"
    );
    println!(
        "{},{},{},{},{},{},{},{},{},{:.1}",
        completed,
        failed,
        m.peak_active,
        m.submits,
        m.completions,
        m.stale_completions,
        m.retries_total,
        m.decode_p50_us,
        m.decode_p99_us,
        sessions_per_sec
    );
    println!("# service metrics: {}", m.to_json());

    // Accounting invariants — any violation is a hard failure.
    let mut bad = Vec::new();
    if completed + failed != sessions {
        bad.push(format!(
            "lost sessions: opened {opened}, terminal {}",
            completed + failed
        ));
    }
    if failed != 0 {
        bad.push(format!(
            "{failed} session(s) failed to decode within {max_passes} passes"
        ));
    }
    if m.completions != m.submits {
        bad.push(format!(
            "completion mismatch: {} submits but {} completions",
            m.submits, m.completions
        ));
    }
    if m.stale_completions != 0 {
        bad.push(format!("{} stale completions", m.stale_completions));
    }
    if m.sessions_shed != 0 {
        bad.push(format!("{} sessions shed", m.sessions_shed));
    }
    let expected_peak = concurrent.min(sessions);
    if m.peak_active < expected_peak {
        bad.push(format!(
            "peak concurrency {} never reached the {expected_peak} target",
            m.peak_active
        ));
    }
    if m.decode_p99_us > p99_ceiling_us {
        bad.push(format!(
            "decode p99 {}µs over the {p99_ceiling_us}µs ceiling",
            m.decode_p99_us
        ));
    }
    if decoder_clones != 0 {
        bad.push(format!(
            "{decoder_clones} decoder clone(s) on the session hot path"
        ));
    }
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("traffic_gen: FAIL — {b}");
        }
        std::process::exit(1);
    }

    if !json_path.is_empty() {
        let row = format!(
            "{{\"group\":\"service\",\"bench\":\"traffic_gen\",\"sessions_per_sec\":{:.3},\
             \"sessions\":{},\"concurrent\":{},\"threads\":{},\"p99_us\":{},\"retries\":{}}}\n",
            sessions_per_sec, sessions, concurrent, threads, m.decode_p99_us, m.retries_total
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&json_path)
            .unwrap_or_else(|e| die(format!("cannot open --json file '{json_path}': {e}")));
        f.write_all(row.as_bytes())
            .unwrap_or_else(|e| die(format!("cannot write --json file '{json_path}': {e}")));
        println!("# service row appended to {json_path}");
    }
    println!("traffic_gen: OK — {completed} sessions at {sessions_per_sec:.1}/s");
}
