//! Transport ledger: the repository's end-to-end and per-layer benchmark.
//!
//! One command runs one seeded workload through public APIs only —
//! `spinal_net::run_transfer` over `LoopbackLink`, or `DecodeService`
//! sessions under an open-loop generator — checks every output
//! bit-exact, and prints a result line:
//!
//! ```sh
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload short_lossy_awgn18 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all;
//! `--trace 1` replays the same inputs through a traced loop and
//! reports the per-layer metrics. See `ledger/README.md`.

mod service;
mod sys;
mod trace;
mod transport;

use spinal_core::CRC_BITS;
use std::process::{Command, ExitCode};
use std::time::Instant;
use sys::Segment;

/// Workload seed used when `--seed` is absent; the recorded baseline.
const DEFAULT_SEED: u64 = 1;
/// Seed no tuning ever looked at: a gain claimed on the default seed
/// must also hold here.
const HELD_OUT_SEED: u64 = 7919;
/// Seed of the untimed warm-up operation, fixed so set-up does the same
/// work for every workload seed.
pub const WARMUP_SEED: u64 = 0x5EED_0F3A;
/// Set-up is repeated at least this many times, and for at least
/// [`SETUP_MIN_S`], per run and its median reported: one set-up takes
/// 1–15 ms, so a few repetitions inside a few milliseconds leave the
/// median to one burst of load from elsewhere on the host.
const SETUP_REPS: usize = 25;
const SETUP_MIN_S: f64 = 0.3;
/// A run fails when more than this share of its operations go
/// undelivered. The workloads deliver every operation on a healthy
/// build; a broken decoder, transport or service loses most of them.
const MAX_UNDELIVERED_FRAC: f64 = 0.05;
/// Below this many operations per segment (bulk holds one or two), latency
/// quantiles are taken over every operation of the run, not as the
/// median of per-segment quantiles.
const MIN_SEGMENT_OPS: f64 = 10.0;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("goodput_kbps", "kbit/s"),
    ("cpu_goodput_kbps", "kbit/s"),
    ("bits_per_symbol", "bit/sym"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer that is
/// not on a workload's path reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("receiver.attempt_ms", "ms"),
    ("receiver.attempt_p50_us", "us"),
    ("receiver.attempt_p90_us", "us"),
    ("receiver.attempts_per_block", "count"),
    ("receiver.attempt_yield", "ratio"),
    ("receiver.ingest_ms", "ms"),
    ("receiver.ingest_us_per_datagram", "us"),
    ("receiver.init_ms", "ms"),
    ("receiver.feedback_ms", "ms"),
    ("receiver.evictions", "count"),
    ("sender.self_ms", "ms"),
    ("sender.symbols", "count"),
    ("sender.datagrams", "count"),
    ("sender.backoff_skips", "count"),
    ("link.send_ms", "ms"),
    ("link.recv_ms", "ms"),
    ("link.delivered_frac", "ratio"),
    ("wire.decode_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("transfer.rounds_per_transfer", "count"),
    ("transfer.unattributed_frac", "ratio"),
    ("service.open_us", "us"),
    ("service.submit_us", "us"),
    ("service.result_us", "us"),
    ("service.attempts_per_session", "count"),
    ("service.rejected_frac", "ratio"),
    ("service.dispatch_p99_us", "us"),
    ("service.decode_p50_us", "us"),
    ("engine.cpu_us_per_attempt", "us"),
    ("generator.cpu_frac", "ratio"),
    ("generator.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str =
    "usage: ledger --workload <bulk_8k_awgn20|short_lossy_awgn18|service_small_open> \
[--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Short,
    Service,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Bulk, Workload::Short, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk_8k_awgn20",
            Workload::Short => "short_lossy_awgn18",
            Workload::Service => "service_small_open",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Bulk,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid value for {flag}: '{value}' ({what})");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations (transfers or sessions) started.
    pub attempted: u64,
    /// Operations that did not deliver their payload bit-exact.
    pub failed: u64,
    /// Of `failed`, transfers whose CRC accepted a wrong payload.
    pub false_accepts: u64,
    /// Wrong candidates the CRC judged: decode attempts minus blocks
    /// decoded, over every transfer.
    pub wrong_candidates: u64,
    /// Metric values by name; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
    /// Reasons the run is wrong: the traced loop drifting from
    /// `run_transfer`, or failures the oracle does not allow. Any entry
    /// fails the run.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The value last set for `name`.
    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Set goodput and latency from a segmented timed region: goodput is
/// the median over segments, and so is each latency quantile unless the
/// segments hold too few operations for one. `op` names the operation
/// ("transfer", "session") and `tail_q` the tail quantile printed in the
/// report. The tail is not a gated metric: the transports make the same
/// attempts in nearly every transfer, so their tail is the host's
/// scheduling jitter, and the service's moved by up to 0.23 across seeds.
pub fn set_segment_metrics(out: &mut Outcome, segs: &[Segment], op: &str, tail_q: f64) {
    let kbps = |s: &Segment, secs: f64| s.bits as f64 / secs.max(1e-3) / 1e3;
    out.set(
        "goodput_kbps",
        sys::segment_median(segs, |s| kbps(s, s.wall_s)),
    );
    out.set(
        "cpu_goodput_kbps",
        sys::segment_median(segs, |s| kbps(s, s.cpu_s)),
    );
    let n: usize = segs.iter().map(|s| s.latencies_ms.len()).sum();
    let k = segs.len();
    let (p50, tail, how) =
        if sys::segment_median(segs, |s| s.latencies_ms.len() as f64) >= MIN_SEGMENT_OPS {
            let q = |q: f64| sys::segment_median(segs, |s| sys::quantile(&s.latencies_ms, q));
            (q(0.5), q(tail_q), format!("median over {k} segments"))
        } else {
            let all: Vec<f64> = segs.iter().flat_map(|s| s.latencies_ms.clone()).collect();
            let q = |q: f64| sys::quantile(&all, q);
            (q(0.5), q(tail_q), "over all operations".to_string())
        };
    out.set("latency_p50_ms", p50);
    out.note(format!("{op}_p50_ms = {p50} ms ({how}, n={n})"));
    out.note(format!(
        "{op}_p{}_ms = {tail} ms ({how}, n={n})",
        (tail_q * 100.0).round()
    ));
    out.note(format!(
        "failed_frac = {} ratio ({}/{})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    let per_segment: Vec<String> = segs
        .iter()
        .map(|s| format!("{:.2}", kbps(s, s.wall_s)))
        .collect();
    out.note(format!(
        "goodput by segment: {} kbit/s",
        per_segment.join(" ")
    ));
    let wall: f64 = segs.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = segs.iter().map(|s| s.cpu_s).sum();
    out.note(format!("timed region: {wall} s wall, {cpu} s CPU"));
}

/// The output oracle's verdict on the run as a whole: too many
/// undelivered operations, or any wrong payload, make it a violation.
fn check_failures(out: &mut Outcome) {
    let undelivered = out.failed - out.false_accepts;
    out.note(format!(
        "oracle: {undelivered} of {} undelivered (ceiling {MAX_UNDELIVERED_FRAC}); \
         {} crc false accepts of {} wrong candidates",
        out.attempted, out.false_accepts, out.wrong_candidates
    ));
    if undelivered as f64 > MAX_UNDELIVERED_FRAC * out.attempted as f64 {
        out.violations.push(format!(
            "{undelivered} of {} operations undelivered, above {MAX_UNDELIVERED_FRAC}",
            out.attempted
        ));
    }
    if out.false_accepts > 0 {
        out.violations.push(format!(
            "{} wrong payloads passed the {CRC_BITS}-bit CRC over {} wrong candidates",
            out.false_accepts, out.wrong_candidates
        ));
    }
}

/// Build a workload's inputs at least [`SETUP_REPS`] times and for at
/// least [`SETUP_MIN_S`], and keep the last; returns it with the median
/// build time in seconds and the number of builds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPS is positive"),
        sys::quantile(&times, 0.5),
        times.len(),
    )
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args, name: &str) -> String {
    let (nproc, model) = sys::cpu_info();
    format!(
        "{{\"workload\":{},\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\
         \"seconds\":{},\"trace\":{},\"offered_rate_per_s\":{},\"nproc\":{nproc},\"cpu_model\":{},\
         \"rustc\":{},\"git_rev\":{}}}",
        json_str(name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        service::OFFERED_RATE,
        json_str(&model),
        json_str(env!("LEDGER_RUSTC_VERSION")),
        json_str(&git_rev()),
    )
}

/// The result line: every metric of the run's table, in table order.
fn result_json(out: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    for (name, _) in &out.values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in this run's table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = out.value(name);
            assert!(
                value.is_some() || table == PER_LAYER,
                "end-to-end metric {name} was not measured"
            );
            let value = value.unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    println!("provenance {}", provenance(&args, name));
    let mut out = match args.workload {
        Workload::Bulk | Workload::Short => transport::run(&args, name),
        Workload::Service => service::run(&args, name),
    };
    check_failures(&mut out);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for note in &out.notes {
        println!("{note}");
    }
    for &(metric, unit) in table {
        if let Some(v) = out.value(metric) {
            println!("{metric} = {v} {unit}");
        }
    }
    for v in &out.violations {
        eprintln!("ledger: VIOLATION: {v}");
    }
    println!("{}", result_json(&out, table));
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
