//! Coarse performance-regression guard over `BENCH_*.json` baselines.
//!
//! Six modes, selected by `--mode`:
//!
//! * **`median`** (default): compares the median of one benchmark
//!   between a committed baseline and a freshly recorded run (both in
//!   the shim criterion's JSON-lines format, one object per line) and
//!   exits non-zero if the current median exceeds `--max-ratio` × the
//!   baseline. The default ratio of 3 is deliberately loose: CI machines
//!   are noisy, and this guard exists to catch "someone re-introduced
//!   the O(n log n) sort / per-step allocation" class of regressions,
//!   not 10% drift.
//! * **`throughput`**: checks parallel *scaling* within one freshly
//!   recorded file. The `throughput` bench group records blocks/s at
//!   several thread budgets, each row stamped with a `"threads"` field;
//!   this mode compares `--scaled-threads` against `--base-threads` for
//!   one `--bench-base` and fails if the speed-up falls below
//!   `--min-scaling`. When the host has fewer cores than
//!   `--scaled-threads` the check is skipped (reported, exit 0): a
//!   1-core container cannot exhibit scaling, and failing there would
//!   only teach people to delete the guard.
//! * **`profile-speedup`**: checks the quantized metric profile's edge
//!   within one freshly recorded file: the median of
//!   `--group-quant/--bench` must beat the median of
//!   `--group-exact/--bench` (same bench name in both groups) by at
//!   least `--min-speedup`. Catches "the integer fast path silently
//!   fell back to something slow" regressions; the floor is set below
//!   the recorded steady-state ratio because CI hosts are noisy.
//! * **`goodput`**: checks a transport goodput row recorded by the
//!   `net_loopback` bin (`goodput_bits_per_symbol` in the same
//!   JSON-lines format): `--group/--bench` must reach at least
//!   `--min-goodput` bits per channel symbol. Goodput is seeded and
//!   deterministic — unlike the timing modes this floor can sit close
//!   to the recorded value; a drop means the protocol got chattier or
//!   the decoder weaker, not that CI was slow.
//! * **`chaos`**: checks a degraded-mode transport row recorded by the
//!   `net_chaos` bin: `--group/--bench` must reach `--min-goodput`
//!   bits per symbol *and* deliver at least a `--min-delivered`
//!   fraction of its trials. Chaos runs are fully seeded, so like
//!   `goodput` the floors sit close to the recorded values; a drop
//!   means graceful degradation regressed (salvage broken, backoff
//!   runaway, retry budget burning rounds), not CI noise.
//! * **`sessions`**: checks a decode-service throughput row recorded
//!   by the `traffic_gen` bin (`sessions_per_sec` in the same
//!   JSON-lines format): `--group/--bench` must sustain at least
//!   `--min-sessions` sessions per second. Like `median`, the floor is
//!   deliberately loose — it exists to catch "the service serialized
//!   everything / leaked sessions" regressions, not scheduler drift on
//!   a noisy CI host.
//!
//! ```sh
//! BENCH_JSON=/tmp/now.json BENCH_FILTER=bubble_decode \
//!     cargo bench -p bench
//! cargo run --release -p bench --bin bench_guard -- \
//!     --baseline BENCH_2026-07-27_post.json --current /tmp/now.json \
//!     --group bubble_decode --bench n256_B256_2passes [--max-ratio 3.0]
//!
//! BENCH_JSON=/tmp/tp.json BENCH_FILTER=throughput BENCH_THREADS=1,4 \
//!     cargo bench -p bench
//! cargo run --release -p bench --bin bench_guard -- \
//!     --mode throughput --current /tmp/tp.json \
//!     --bench-base n256_B256 --base-threads 1 --scaled-threads 4 \
//!     --min-scaling 1.5
//! ```
//!
//! Malformed inputs (unreadable file, absent group/bench/threads row)
//! exit with a message naming the offending flag and value rather than
//! panicking.

use bench::{die, Args};

/// Extract the float value of `field` from the shim-format JSON line in
/// `text` matching the group/bench pair (and, when given, a
/// `"threads":N` stamp). Hand-rolled: the workspace has no JSON
/// dependency and the shim's output format is fixed. `None` when no line
/// carries the key (or the field is absent/malformed on it).
fn find_field_in(
    text: &str,
    group: &str,
    name: &str,
    threads: Option<u64>,
    field: &str,
) -> Option<f64> {
    let g = format!("\"group\":\"{group}\"");
    let b = format!("\"bench\":\"{name}\"");
    let t = threads.map(|t| format!("\"threads\":{t},"));
    for line in text.lines() {
        if line.contains(&g)
            && line.contains(&b)
            && t.as_ref().is_none_or(|t| line.contains(t.as_str()))
        {
            let key = format!("\"{field}\":");
            let start = line.find(&key)? + key.len();
            let rest = &line[start..];
            let end = rest.find([',', '}'])?;
            return rest[..end].trim().parse().ok();
        }
    }
    None
}

/// `find_field_in` for the median-mode key.
fn find_median_in(text: &str, group: &str, name: &str) -> Option<f64> {
    find_field_in(text, group, name, None, "median_ns")
}

/// Read `path` (named on the CLI by `flag`) and locate the group/bench
/// median, with errors that name the flag, the file, and the pair.
fn load_median(flag: &str, path: &str, group: &str, name: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --{flag} file '{path}': {e}"))?;
    find_median_in(&text, group, name).ok_or_else(|| {
        format!(
            "--group/--bench pair '{group}/{name}' has no median_ns entry in --{flag} file '{path}'"
        )
    })
}

/// Locate the blocks/s rate of `{base}_t{threads}` (cross-checked
/// against the row's `"threads"` stamp) in already-read `text` from the
/// file named by `--{flag}`.
fn load_rate(
    flag: &str,
    path: &str,
    text: &str,
    group: &str,
    base: &str,
    threads: u64,
) -> Result<f64, String> {
    let name = format!("{base}_t{threads}");
    find_field_in(text, group, &name, Some(threads), "throughput_per_s").ok_or_else(|| {
        format!(
            "benchmark '{group}/{name}' (threads={threads}) has no throughput_per_s entry in \
             --{flag} file '{path}' — was the throughput group recorded with BENCH_THREADS \
             including {threads}?"
        )
    })
}

fn run_median_mode(args: &Args) {
    let baseline = args.str("baseline", "BENCH_2026-07-27_post.json");
    let current = args.str("current", "/tmp/bench_current.json");
    let group = args.str("group", "bubble_decode");
    let name = args.str("bench", "n256_B256_2passes");
    let max_ratio = args.f64("max-ratio", 3.0);
    if max_ratio.is_nan() || max_ratio <= 0.0 {
        die(format!("--max-ratio must be positive, got {max_ratio}"));
    }

    let base = load_median("baseline", &baseline, &group, &name).unwrap_or_else(|e| die(e));
    let now = load_median("current", &current, &group, &name).unwrap_or_else(|e| die(e));
    let ratio = now / base;
    println!(
        "bench_guard: {group}/{name}: baseline {base:.0} ns, current {now:.0} ns \
         (ratio {ratio:.2}, limit {max_ratio:.2})"
    );
    if ratio > max_ratio {
        eprintln!("bench_guard: FAIL — median regressed more than {max_ratio}×");
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn run_throughput_mode(args: &Args) {
    let current = args.str("current", "/tmp/bench_current.json");
    let group = args.str("group", "throughput");
    let base_bench = args.str("bench-base", "n256_B256");
    let base_threads = args.usize("base-threads", 1) as u64;
    let scaled_threads = args.usize("scaled-threads", 4) as u64;
    let min_scaling = args.f64("min-scaling", 1.5);
    if min_scaling.is_nan() || min_scaling <= 0.0 {
        die(format!("--min-scaling must be positive, got {min_scaling}"));
    }
    if scaled_threads <= base_threads {
        die(format!(
            "--scaled-threads ({scaled_threads}) must exceed --base-threads ({base_threads})"
        ));
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    if host_cores < scaled_threads {
        println!(
            "bench_guard: SKIP — host has {host_cores} core(s), cannot judge scaling at \
             {scaled_threads} threads"
        );
        return;
    }

    let text = std::fs::read_to_string(&current)
        .unwrap_or_else(|e| die(format!("cannot read --current file '{current}': {e}")));
    let base_rate = load_rate(
        "current",
        &current,
        &text,
        &group,
        &base_bench,
        base_threads,
    )
    .unwrap_or_else(|e| die(e));
    let scaled_rate = load_rate(
        "current",
        &current,
        &text,
        &group,
        &base_bench,
        scaled_threads,
    )
    .unwrap_or_else(|e| die(e));
    let scaling = scaled_rate / base_rate;
    println!(
        "bench_guard: {group}/{base_bench}: {base_rate:.1} blocks/s at t{base_threads}, \
         {scaled_rate:.1} blocks/s at t{scaled_threads} (scaling {scaling:.2}×, floor \
         {min_scaling:.2}×)"
    );
    if scaling < min_scaling {
        eprintln!(
            "bench_guard: FAIL — {scaled_threads}-thread throughput scaled only {scaling:.2}× \
             over {base_threads} thread(s) (floor {min_scaling:.2}×)"
        );
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn run_profile_speedup_mode(args: &Args) {
    let current = args.str("current", "/tmp/bench_current.json");
    let group_exact = args.str("group-exact", "bubble_decode");
    let group_quant = args.str("group-quant", "bubble_decode_quant");
    let name = args.str("bench", "n256_B256_2passes");
    let min_speedup = args.f64("min-speedup", 1.4);
    if min_speedup.is_nan() || min_speedup <= 0.0 {
        die(format!("--min-speedup must be positive, got {min_speedup}"));
    }

    let exact = load_median("current", &current, &group_exact, &name).unwrap_or_else(|e| die(e));
    let quant = load_median("current", &current, &group_quant, &name).unwrap_or_else(|e| die(e));
    let speedup = exact / quant;
    println!(
        "bench_guard: {name}: exact ({group_exact}) {exact:.0} ns, quantized ({group_quant}) \
         {quant:.0} ns (speedup {speedup:.2}×, floor {min_speedup:.2}×)"
    );
    if speedup < min_speedup {
        eprintln!(
            "bench_guard: FAIL — quantized profile only {speedup:.2}× faster than exact \
             (floor {min_speedup:.2}×)"
        );
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn run_goodput_mode(args: &Args) {
    let current = args.str("current", "/tmp/bench_current.json");
    let group = args.str("group", "net_loopback");
    let name = args.str("bench", "awgn20_clean");
    let min_goodput = args.f64("min-goodput", 0.5);
    if min_goodput.is_nan() || min_goodput <= 0.0 {
        die(format!("--min-goodput must be positive, got {min_goodput}"));
    }

    let text = std::fs::read_to_string(&current)
        .unwrap_or_else(|e| die(format!("cannot read --current file '{current}': {e}")));
    let goodput = find_field_in(&text, &group, &name, None, "goodput_bits_per_symbol")
        .unwrap_or_else(|| {
            die(format!(
                "--group/--bench pair '{group}/{name}' has no goodput_bits_per_symbol entry in \
                 --current file '{current}' — was it recorded with the net_loopback bin's --json?"
            ))
        });
    println!("bench_guard: {group}/{name}: {goodput:.4} bits/symbol (floor {min_goodput:.4})");
    if goodput < min_goodput {
        eprintln!(
            "bench_guard: FAIL — goodput {goodput:.4} bits/symbol fell below the \
             {min_goodput:.4} floor"
        );
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn run_chaos_mode(args: &Args) {
    let current = args.str("current", "/tmp/bench_current.json");
    let group = args.str("group", "net_chaos");
    let name = args.str("bench", "ge_mild");
    let min_goodput = args.f64("min-goodput", 0.2);
    let min_delivered = args.f64("min-delivered", 0.5);
    if min_goodput.is_nan() || min_goodput <= 0.0 {
        die(format!("--min-goodput must be positive, got {min_goodput}"));
    }
    if min_delivered.is_nan() || !(0.0..=1.0).contains(&min_delivered) {
        die(format!(
            "--min-delivered must be a fraction in [0, 1], got {min_delivered}"
        ));
    }

    let text = std::fs::read_to_string(&current)
        .unwrap_or_else(|e| die(format!("cannot read --current file '{current}': {e}")));
    let missing = |field: &str| {
        die(format!(
            "--group/--bench pair '{group}/{name}' has no {field} entry in --current file \
             '{current}' — was it recorded with the net_chaos bin's --json?"
        ))
    };
    let goodput = find_field_in(&text, &group, &name, None, "goodput_bits_per_symbol")
        .unwrap_or_else(|| missing("goodput_bits_per_symbol"));
    let delivered = find_field_in(&text, &group, &name, None, "delivered")
        .unwrap_or_else(|| missing("delivered"));
    let trials =
        find_field_in(&text, &group, &name, None, "trials").unwrap_or_else(|| missing("trials"));
    if trials <= 0.0 {
        die(format!("row '{group}/{name}' records {trials} trials"));
    }
    let fraction = delivered / trials;
    println!(
        "bench_guard: {group}/{name}: {goodput:.4} bits/symbol (floor {min_goodput:.4}), \
         {delivered:.0}/{trials:.0} delivered (floor {min_delivered:.2})"
    );
    let mut failed = false;
    if goodput < min_goodput {
        eprintln!(
            "bench_guard: FAIL — degraded-mode goodput {goodput:.4} bits/symbol fell below \
             the {min_goodput:.4} floor"
        );
        failed = true;
    }
    if fraction < min_delivered {
        eprintln!(
            "bench_guard: FAIL — only {fraction:.2} of transfers delivered under chaos \
             (floor {min_delivered:.2})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn run_sessions_mode(args: &Args) {
    let current = args.str("current", "/tmp/bench_current.json");
    let group = args.str("group", "service");
    let name = args.str("bench", "traffic_gen");
    let min_sessions = args.f64("min-sessions", 100.0);
    if min_sessions.is_nan() || min_sessions <= 0.0 {
        die(format!(
            "--min-sessions must be positive, got {min_sessions}"
        ));
    }

    let text = std::fs::read_to_string(&current)
        .unwrap_or_else(|e| die(format!("cannot read --current file '{current}': {e}")));
    let rate = find_field_in(&text, &group, &name, None, "sessions_per_sec").unwrap_or_else(|| {
        die(format!(
            "--group/--bench pair '{group}/{name}' has no sessions_per_sec entry in \
             --current file '{current}' — was it recorded with the traffic_gen bin's --json?"
        ))
    });
    println!("bench_guard: {group}/{name}: {rate:.1} sessions/s (floor {min_sessions:.1})");
    if rate < min_sessions {
        eprintln!(
            "bench_guard: FAIL — sustained rate {rate:.1} sessions/s fell below the \
             {min_sessions:.1} floor"
        );
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}

fn main() {
    let args = Args::parse();
    match args.str("mode", "median").as_str() {
        "median" => run_median_mode(&args),
        "throughput" => run_throughput_mode(&args),
        "profile-speedup" => run_profile_speedup_mode(&args),
        "goodput" => run_goodput_mode(&args),
        "chaos" => run_chaos_mode(&args),
        "sessions" => run_sessions_mode(&args),
        other => die(format!(
            "invalid value for --mode: '{other}' (expected 'median', 'throughput', \
             'profile-speedup', 'goodput', 'chaos', or 'sessions')"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"group\":\"bubble_decode\",\"bench\":\"n256_B256_2passes\",\"median_ns\":4700000.0,\"mean_ns\":4800000.0}\n",
        "{\"group\":\"bubble_decode\",\"bench\":\"n256_B64_2passes\",\"median_ns\":1100000.0}\n",
        "{\"group\":\"hash\",\"bench\":\"one_at_a_time\",\"median_ns\":16.0}\n",
        "{\"group\":\"hash\",\"bench\":\"broken\",\"median_ns\":not_a_number}\n",
        "{\"group\":\"throughput\",\"bench\":\"n256_B256_t1\",\"threads\":1,\"median_ns\":80000000.0,\"throughput_per_s\":200.0}\n",
        "{\"group\":\"throughput\",\"bench\":\"n256_B256_t4\",\"threads\":4,\"median_ns\":26000000.0,\"throughput_per_s\":615.0}\n",
        "{\"group\":\"throughput\",\"bench\":\"n256_B256_t8\",\"threads\":8,\"median_ns\":26000000.0,\"throughput_per_s\":null}\n",
    );

    #[test]
    fn finds_the_matching_pair() {
        assert_eq!(
            find_median_in(SAMPLE, "bubble_decode", "n256_B256_2passes"),
            Some(4700000.0)
        );
        assert_eq!(find_median_in(SAMPLE, "hash", "one_at_a_time"), Some(16.0));
    }

    #[test]
    fn missing_pair_is_none() {
        assert_eq!(find_median_in(SAMPLE, "bubble_decode", "absent"), None);
        assert_eq!(find_median_in(SAMPLE, "absent", "n256_B256_2passes"), None);
        assert_eq!(find_median_in("", "g", "b"), None);
    }

    #[test]
    fn malformed_median_is_none_not_panic() {
        assert_eq!(find_median_in(SAMPLE, "hash", "broken"), None);
    }

    #[test]
    fn unreadable_file_names_the_flag_and_path() {
        let err = load_median("baseline", "/nonexistent/b.json", "g", "b").unwrap_err();
        assert!(
            err.contains("--baseline") && err.contains("/nonexistent/b.json"),
            "unhelpful: {err}"
        );
    }

    #[test]
    fn missing_entry_names_the_pair_and_file() {
        let path = std::env::temp_dir().join("bench_guard_test_missing_entry.json");
        std::fs::write(&path, SAMPLE).unwrap();
        let err =
            load_median("current", path.to_str().unwrap(), "bubble_decode", "nope").unwrap_err();
        assert!(
            err.contains("bubble_decode/nope") && err.contains("--current"),
            "unhelpful: {err}"
        );
        let ok = load_median(
            "current",
            path.to_str().unwrap(),
            "bubble_decode",
            "n256_B64_2passes",
        );
        assert_eq!(ok, Ok(1100000.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn throughput_rows_key_on_group_bench_and_threads() {
        assert_eq!(
            find_field_in(
                SAMPLE,
                "throughput",
                "n256_B256_t1",
                Some(1),
                "throughput_per_s"
            ),
            Some(200.0)
        );
        assert_eq!(
            find_field_in(
                SAMPLE,
                "throughput",
                "n256_B256_t4",
                Some(4),
                "throughput_per_s"
            ),
            Some(615.0)
        );
        // A threads stamp that contradicts the row is not a match.
        assert_eq!(
            find_field_in(
                SAMPLE,
                "throughput",
                "n256_B256_t4",
                Some(2),
                "throughput_per_s"
            ),
            None
        );
    }

    #[test]
    fn null_throughput_is_a_friendly_error_not_a_panic() {
        // Row exists but was recorded without a throughput annotation.
        let err = load_rate(
            "current",
            "/tmp/x.json",
            SAMPLE,
            "throughput",
            "n256_B256",
            8,
        )
        .unwrap_err();
        assert!(
            err.contains("n256_B256_t8")
                && err.contains("--current")
                && err.contains("/tmp/x.json"),
            "unhelpful: {err}"
        );
    }

    #[test]
    fn missing_thread_count_names_bench_threads_and_file() {
        let err = load_rate(
            "current",
            "/tmp/x.json",
            SAMPLE,
            "throughput",
            "n256_B256",
            2,
        )
        .unwrap_err();
        assert!(
            err.contains("n256_B256_t2")
                && err.contains("threads=2")
                && err.contains("BENCH_THREADS"),
            "unhelpful: {err}"
        );
    }

    #[test]
    fn profile_speedup_pairs_rows_across_groups() {
        // The speedup mode keys the SAME bench name in two groups; a
        // missing quant row must name the group/bench pair and the file.
        let sample = concat!(
            "{\"group\":\"bubble_decode\",\"bench\":\"n256_B256_2passes\",\"median_ns\":4600000.0}\n",
            "{\"group\":\"bubble_decode_quant\",\"bench\":\"n256_B256_2passes\",\"median_ns\":2700000.0}\n",
        );
        assert_eq!(
            find_median_in(sample, "bubble_decode", "n256_B256_2passes"),
            Some(4600000.0)
        );
        assert_eq!(
            find_median_in(sample, "bubble_decode_quant", "n256_B256_2passes"),
            Some(2700000.0)
        );
        let err = load_median(
            "current",
            "/nonexistent/q.json",
            "bubble_decode_quant",
            "n256_B256_2passes",
        )
        .unwrap_err();
        assert!(err.contains("--current") && err.contains("/nonexistent/q.json"));
    }

    #[test]
    fn goodput_rows_parse_like_any_other_field() {
        let sample = concat!(
            "{\"group\":\"net_loopback\",\"bench\":\"awgn20_clean\",\"goodput_bits_per_symbol\":1.482131,\"symbols\":2590,\"delivered\":5}\n",
            "{\"group\":\"net_loopback\",\"bench\":\"awgn15_lossy\",\"goodput_bits_per_symbol\":0.912000,\"symbols\":4210,\"delivered\":5}\n",
        );
        assert_eq!(
            find_field_in(
                sample,
                "net_loopback",
                "awgn20_clean",
                None,
                "goodput_bits_per_symbol"
            ),
            Some(1.482131)
        );
        assert_eq!(
            find_field_in(
                sample,
                "net_loopback",
                "absent",
                None,
                "goodput_bits_per_symbol"
            ),
            None
        );
    }

    #[test]
    fn chaos_rows_carry_goodput_and_delivery_fields() {
        let sample = "{\"group\":\"net_chaos\",\"bench\":\"ge_mild\",\"goodput_bits_per_symbol\":0.412345,\"delivered\":5,\"trials\":5,\"salvaged_bytes\":0,\"symbols\":4200}\n";
        assert_eq!(
            find_field_in(
                sample,
                "net_chaos",
                "ge_mild",
                None,
                "goodput_bits_per_symbol"
            ),
            Some(0.412345)
        );
        assert_eq!(
            find_field_in(sample, "net_chaos", "ge_mild", None, "delivered"),
            Some(5.0)
        );
        assert_eq!(
            find_field_in(sample, "net_chaos", "ge_mild", None, "trials"),
            Some(5.0)
        );
        assert_eq!(
            find_field_in(sample, "net_chaos", "absent", None, "delivered"),
            None
        );
    }

    #[test]
    fn sessions_rows_parse_like_any_other_field() {
        let sample = "{\"group\":\"service\",\"bench\":\"traffic_gen\",\"sessions_per_sec\":10578.365,\"sessions\":600,\"concurrent\":500,\"threads\":2,\"p99_us\":65536,\"retries\":0}\n";
        assert_eq!(
            find_field_in(sample, "service", "traffic_gen", None, "sessions_per_sec"),
            Some(10578.365)
        );
        assert_eq!(
            find_field_in(sample, "service", "absent", None, "sessions_per_sec"),
            None
        );
    }

    #[test]
    fn missing_group_is_a_friendly_error() {
        let err =
            load_rate("current", "/tmp/x.json", "", "throughput", "n256_B256", 1).unwrap_err();
        assert!(err.contains("throughput/n256_B256_t1"), "unhelpful: {err}");
    }
}
