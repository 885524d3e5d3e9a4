//! Measurement primitives shared by every workload: process counters from
//! `/proc`, order statistics, a seeded generator, a result digest, and the
//! repeated, timed set-up.

use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long to keep running timed ops.
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: sizes ÷ 20, one set-up, checks only.
    pub quick: bool,
}

impl RunArgs {
    /// A workload size, scaled down for `--quick` but never below `floor`.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// Fewest timed ops a run reports on, however slow they are.
pub const MIN_OPS: usize = 5;
/// Most timed ops in a run, however fast they are: `serve_64t` sizes its
/// never-seen key space for this many iterations.
pub const MAX_OPS: usize = 40;
/// A run in which too few ops were undisturbed goes on for this many times
/// the seconds it was given, then reports everything it has.
pub const OVERTIME: f64 = 1.25;

/// SplitMix64: the benchmark's only source of randomness, so the inputs
/// are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the bytes a workload's result is made of. Two runs produce
/// the same digest exactly when they produced the same answers. The
/// benchmark's own, not `oracle::hash`: `expect.json` pins these digests, and
/// the stack must stay free to change how it fingerprints requests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A string plus a terminator, so `["ab","c"]` and `["a","bc"]` differ.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Process CPU time (user + system, every thread, including ones that have
/// exited) in seconds, from `/proc/self/stat`. Resolution is one clock tick
/// (10 ms), so callers difference it over a whole timed region, not one op.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields are counted after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
    // USER_HZ is 100 on every Linux ABI Rust targets.
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// CPU time the hypervisor gave to someone else while this guest wanted to
/// run, all CPUs, in seconds (`steal` on the `cpu` line of `/proc/stat`).
pub fn stolen_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0.0);
    ticks / 100.0
}

/// The share of the machine the hypervisor withheld during an interval.
///
/// The benchmark runs on shared hosts whose neighbours take CPU in bursts
/// (measured here: the same op at 0.8 s and, minutes later, at 2.5 s with
/// `steal` climbing). An op that lost more than [`STEAL_LIMIT`] of the
/// machine measures the neighbour, so it is set aside; a run disturbed
/// throughout reports on the ops that lost least.
pub struct StealWatch {
    before_s: f64,
    started: Instant,
}

/// Largest share of the machine's CPU time an op may lose and still count.
pub const STEAL_LIMIT: f64 = 0.02;

impl StealWatch {
    pub fn start() -> StealWatch {
        StealWatch {
            before_s: stolen_cpu_s(),
            started: Instant::now(),
        }
    }

    /// The share of the machine's CPU time the hypervisor withheld since
    /// `start`.
    pub fn stolen_share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let offered = self.started.elapsed().as_secs_f64() * cpus;
        (stolen_cpu_s() - self.before_s) / offered.max(f64::MIN_POSITIVE)
    }
}

/// The items that lost no more than [`STEAL_LIMIT`] of the machine if there
/// are at least `min` of them, else the `min` that lost least: a run
/// disturbed throughout reports on its calmest ops, not on all of them.
pub fn undisturbed<T>(items: &[T], stolen_share: impl Fn(&T) -> f64, min: usize) -> Vec<&T> {
    let calm: Vec<&T> = items
        .iter()
        .filter(|i| stolen_share(i) <= STEAL_LIMIT)
        .collect();
    if calm.len() >= min {
        return calm;
    }
    let mut by_share: Vec<&T> = items.iter().collect();
    by_share.sort_by(|a, b| stolen_share(a).total_cmp(&stolen_share(b)));
    by_share.truncate(min);
    by_share
}

/// A fixed piece of single-threaded work the harness times before and after
/// an op, to learn how fast the machine is *at that moment*.
///
/// The hosts this benchmark runs on are shared, and their speed moves by tens
/// of percent for seconds to minutes at a time with no `steal` to show for it
/// (a neighbour on the sibling hardware thread, or in the shared cache: a
/// register-only loop measured here took 104 ms and, seconds later, 139 ms).
/// The same CPU-bound op ran at 0.56 s and at 0.73 s in two runs ten minutes
/// apart, with the reference work slower by the same share. So a timing that
/// is straight-line CPU work is reported in *reference seconds*: multiplied
/// by [`REFERENCE_NOMINAL_S`] over what the reference work took around it.
/// A change to the program moves a reference-second timing exactly as it
/// moves the raw one; a change in the machine's speed moves it far less.
///
/// The work is this file's own, never the stack's: a faster stack must not
/// make the yardstick shorter. It mixes what the stack's hot paths are made
/// of (integer formatting and byte hashing, which run out of the nearest
/// cache and feel a busy sibling thread, and dependent loads scattered over a
/// table larger than the private caches, which feel a neighbour's memory
/// traffic), and it allocates nothing, so the allocator's state after an op
/// does not leak into the sample.
pub struct Reference {
    table: Vec<u64>,
    text: String,
}

/// What [`Reference::sample`] takes on the machine the benchmark was defined
/// on (2-vCPU Xeon @ 2.1 GHz guest) when nothing else runs. It only fixes the
/// scale of reference seconds, so that they read like seconds there.
pub const REFERENCE_NOMINAL_S: f64 = 0.0185;

impl Reference {
    const TABLE_WORDS: usize = 1 << 20; // 8 MB
    const RECORDS: u64 = 36_000;
    const PROBES_PER_RECORD: usize = 2;

    pub fn new() -> Reference {
        let mut rng = SplitMix(0x0072_6566);
        Reference {
            table: (0..Self::TABLE_WORDS).map(|_| rng.next_u64()).collect(),
            text: String::with_capacity(128),
        }
    }

    /// Seconds the fixed work takes right now.
    #[inline(never)]
    pub fn sample(&mut self) -> f64 {
        use std::fmt::Write;
        let started = Instant::now();
        let mut digest = Digest::default();
        for i in 0..Self::RECORDS {
            self.text.clear();
            let _ = write!(
                self.text,
                "record {i}: field {} of {} is {:.3}",
                i * 7919 % 1013,
                i % 97,
                i as f64 / 7.0
            );
            digest.str(&self.text);
        }
        let mask = Self::TABLE_WORDS - 1;
        let mut at = digest.finish() as usize & mask;
        for _ in 0..Self::RECORDS as usize * Self::PROBES_PER_RECORD {
            let word = self.table[at];
            self.table[at] = word.wrapping_add(1);
            at = (word as usize ^ at.wrapping_mul(31)) & mask;
        }
        std::hint::black_box(at);
        started.elapsed().as_secs_f64()
    }

    /// The factor that turns a time measured between two samples into
    /// reference seconds: above 1 when the machine was faster than nominal.
    pub fn scale(before_s: f64, after_s: f64) -> f64 {
        REFERENCE_NOMINAL_S / ((before_s + after_s) / 2.0)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// Machine facts printed with every run.
pub fn machine_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc} cpu=\"{model}\"")
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of an unsorted sample (`0.0` for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Nearest-rank percentile of an already sorted integer sample.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    f64::from(sorted[((sorted.len() - 1) as f64 * p).round() as usize])
}

/// Money compares by tolerance, never `==`: ledger, budget and meters sum
/// the same charges in different orders.
pub fn money_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Run `setup` several times, keep the last product, and report the median
/// set-up time in reference seconds (set-up is CPU-bound on every workload):
/// one discarded set-up, as with ops (it touches every page for the first
/// time, and took 1.26 s where the next two took 0.85 s and 0.77 s), then
/// three at least, and as many more as fit in a second and a half, because a
/// sub-millisecond sample is mostly timer and allocator noise. Set-ups run in
/// slices of a tenth of a second, each slice bracketed by two samples of the
/// reference work. Set-ups the hypervisor disturbed are left out of the
/// median when at least two others remain.
pub fn timed_setups<T>(args: &RunArgs, mut setup: impl FnMut() -> T) -> (T, f64) {
    const CHEAP_BUDGET: Duration = Duration::from_millis(1_500);
    const SLICE: Duration = Duration::from_millis(100);
    const MAX_SETUPS: usize = 2_000;
    let (discarded, min_setups) = if args.quick || args.trace {
        (0, 1)
    } else {
        (1, 4)
    };
    let mut reference = Reference::new();
    let began = Instant::now();
    let mut times: Vec<(f64, f64)> = Vec::new();
    let mut product = None;
    loop {
        let before = reference.sample();
        let slice_began = Instant::now();
        let mut slice: Vec<(f64, f64)> = Vec::new();
        while slice.is_empty() || (slice_began.elapsed() < SLICE && min_setups > 1) {
            // One store file, one writer: the previous product goes first.
            drop(product.take());
            let watch = StealWatch::start();
            let started = Instant::now();
            product = Some(setup());
            slice.push((started.elapsed().as_secs_f64(), watch.stolen_share()));
        }
        let to_reference = Reference::scale(before, reference.sample());
        if !args.quick && slice.len() == 1 {
            println!(
                "# set-up {}: {:.6} s, to reference x{to_reference:.3}{}",
                times.len(),
                slice[0].0,
                if slice[0].1 > STEAL_LIMIT {
                    ", disturbed (CPU stolen by the host)"
                } else {
                    ""
                }
            );
        }
        times.extend(slice.into_iter().map(|(s, d)| (s * to_reference, d)));
        let enough = times.len() >= min_setups
            && (min_setups == 1 || began.elapsed() >= CHEAP_BUDGET || times.len() >= MAX_SETUPS);
        if enough {
            let kept: Vec<f64> = undisturbed(&times[discarded..], |t| t.1, 2)
                .iter()
                .map(|t| t.0)
                .collect();
            return (product.expect("at least one set-up ran"), median(&kept));
        }
    }
}
