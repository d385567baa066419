//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` of the sample is at or below it, i.e. the value at rank
/// `ceil(q · n)` (clamped to `1..=n`) of the sorted sample. Returns 0
/// for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Times `f` repeatedly — at least `min_reps` calls and at least
/// `min_secs` seconds — and returns the median call time in
/// microseconds. Used for the outside-timed per-layer calls, each of
/// which is too short to time once.
pub fn time_call_us(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t = std::time::Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Slices a measured window is cut into. Each end-to-end latency and
/// throughput figure is computed per slice and reported as the median
/// over slices, so one host stall spoils one slice, not the run.
pub const SLICES: usize = 5;

/// Which of [`SLICES`] equal slices position `pos` of `0..total` is in.
pub fn slice_of(pos: f64, total: f64) -> usize {
    if total <= 0.0 {
        return 0;
    }
    ((pos / total * SLICES as f64) as usize).min(SLICES - 1)
}

/// One timed operation: its slice, its latency in ms, and whether it
/// succeeded with a correct output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// Slice index, `0..SLICES`.
    pub slice: usize,
    /// Latency, milliseconds.
    pub ms: f64,
    /// Succeeded with a correct output.
    pub ok: bool,
}

/// Median over non-empty slices of each slice's p50 latency, p99
/// latency and throughput (`rate` of the slice's operations).
pub fn slice_medians(ops: &[Op], rate: impl Fn(&[Op]) -> f64) -> (f64, f64, f64) {
    let (mut p50, mut p99, mut rates) = (vec![], vec![], vec![]);
    for k in 0..SLICES {
        let slice: Vec<Op> = ops.iter().copied().filter(|o| o.slice == k).collect();
        if slice.is_empty() {
            continue;
        }
        let ms: Vec<f64> = slice.iter().map(|o| o.ms).collect();
        p50.push(median(&ms));
        p99.push(percentile(&ms, 0.99));
        rates.push(rate(&slice));
    }
    (median(&p50), median(&p99), median(&rates))
}

/// Throughput of a single caller: successful operations per second of
/// the time spent in them.
pub fn busy_rate(ops: &[Op]) -> f64 {
    let busy_s: f64 = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
    let ok = ops.iter().filter(|o| o.ok).count() as f64;
    if busy_s > 0.0 {
        ok / busy_s
    } else {
        0.0
    }
}
