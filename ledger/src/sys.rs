//! Host accounting from `/proc`, order statistics, and the seeded RNG
//! every workload draws its inputs from.

use std::fs;
use std::time::Instant;

/// Clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at 100 by
/// the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> f64 {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3, so utime (14) and stime
    // (15) sit at indices 11 and 12.
    let rest = &text[text.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("bad tick count in {path}: {e}")) as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU seconds of the whole process, all threads (live and exited).
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("cannot read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Online CPUs and the CPU model, from `/proc/cpuinfo`.
pub fn cpu_info() -> (usize, String) {
    let text = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = text
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, model)
}

/// The `q`-quantile of `values` with linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Length of one segment of a timed region, in seconds.
const SEGMENT_S: f64 = 1.0;

/// One-second slices of a timed region. Each rate and latency quantile
/// is reported as its median over segments, so a burst of load from
/// elsewhere on the host moves a few segments rather than the result.
pub struct Segments {
    start: Instant,
    /// Clock and process CPU when the open segment began.
    open_at: (f64, f64),
    open: Segment,
    closed: Vec<Segment>,
}

#[derive(Default)]
pub struct Segment {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Payload bits delivered bit-exact.
    pub bits: u64,
    /// Latency of each delivered operation.
    pub latencies_ms: Vec<f64>,
}

impl Segments {
    /// Start the first segment now.
    pub fn new() -> Self {
        Segments {
            start: Instant::now(),
            open_at: (0.0, process_cpu_s()),
            open: Segment::default(),
            closed: Vec::new(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn record(&mut self, bits: u64, latency_ms: f64) {
        self.open.bits += bits;
        self.open.latencies_ms.push(latency_ms);
    }

    /// Close the open segment once the clock has passed its end.
    pub fn tick(&mut self) {
        let now = self.elapsed_s();
        if now >= (self.closed.len() + 1) as f64 * SEGMENT_S {
            self.close(now);
        }
    }

    fn close(&mut self, now: f64) {
        let cpu = process_cpu_s();
        let mut seg = std::mem::take(&mut self.open);
        seg.wall_s = now - self.open_at.0;
        seg.cpu_s = cpu - self.open_at.1;
        self.open_at = (now, cpu);
        self.closed.push(seg);
    }

    /// Close the last segment and return every segment that delivered.
    /// A tail shorter than half a segment (the drain after the last
    /// boundary) joins the segment before it.
    pub fn finish(mut self) -> Vec<Segment> {
        let now = self.elapsed_s();
        self.close(now);
        if self.closed.len() >= 2 && self.closed[self.closed.len() - 1].wall_s < SEGMENT_S / 2.0 {
            let tail = self.closed.pop().expect("checked length");
            let prev = self.closed.last_mut().expect("checked length");
            prev.wall_s += tail.wall_s;
            prev.cpu_s += tail.cpu_s;
            prev.bits += tail.bits;
            prev.latencies_ms.extend(tail.latencies_ms);
        }
        self.closed.retain(|s| !s.latencies_ms.is_empty());
        self.closed
    }
}

/// Median over segments of `f`.
pub fn segment_median(segs: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    quantile(&segs.iter().map(f).collect::<Vec<_>>(), 0.5)
}

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone and never on a library's RNG.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for item `index` of stream `seed`: items are
    /// independent of how many others were drawn before them.
    pub fn for_item(seed: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ 0x5EED_1ED6_E5A1_0000);
        r.0 ^= Rng(index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}
