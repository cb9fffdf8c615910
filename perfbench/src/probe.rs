//! Machine probe run inside the traced run, so kernel rates can be read
//! against this machine's own ceilings.

use pp_tensor::gemm::{gemm, Trans};
use pp_tensor::Matrix;
use std::time::Instant;

pub struct Probe {
    /// Best packed-GEMM rate on a square problem, GF/s.
    pub peak_gflops: f64,
    pub gemm_n: usize,
    /// Best streaming-copy rate, GB/s of bytes read plus bytes written
    /// (computed from the array length, not measured by counters).
    pub stream_gbs: f64,
    pub llc_bytes: usize,
    pub stream_array_bytes: usize,
}

/// Size of the last-level cache the kernel reports, if any.
fn llc_bytes() -> Option<usize> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .rev()
        .filter_map(|i| std::fs::read_to_string(dir.join(format!("index{i}/size"))).ok())
        .find_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(n) => (n, 1 << 10),
                None => match s.strip_suffix('M') {
                    Some(n) => (n, 1 << 20),
                    None => (s, 1),
                },
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
}

/// Fallback when sysfs hides the cache size.
const LLC_FALLBACK: usize = 32 << 20;
/// Each copy array is capped so the probe stays well inside shared memory.
const STREAM_ARRAY_CAP: usize = 1 << 30;

pub fn run(threads: usize) -> Probe {
    let _pool = rayon::scoped_num_threads(threads);
    let gemm_n = 768;
    let a = Matrix::from_fn(gemm_n, gemm_n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1);
    let b = Matrix::from_fn(gemm_n, gemm_n, |i, j| ((i * 5 + j) % 13) as f64 * 0.1);
    let mut c = Matrix::zeros(gemm_n, gemm_n);
    let flops = 2.0 * (gemm_n as f64).powi(3);
    let mut peak_gflops: f64 = 0.0;
    for _ in 0..7 {
        let t0 = Instant::now();
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        peak_gflops = peak_gflops.max(flops / t0.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(&c);
    }

    // Two arrays whose combined size is at least four times the LLC.
    let llc = llc_bytes().unwrap_or(LLC_FALLBACK);
    let array_bytes = (2 * llc).min(STREAM_ARRAY_CAP);
    let len = array_bytes / 8;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut stream_gbs: f64 = 0.0;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(sr));
            }
        });
        stream_gbs = stream_gbs.max(2.0 * array_bytes as f64 / t0.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(&dst);
    }
    Probe {
        peak_gflops,
        gemm_n,
        stream_gbs,
        llc_bytes: llc,
        stream_array_bytes: array_bytes,
    }
}
