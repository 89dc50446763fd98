//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed swings by
//! 15–50 % within seconds and for minutes at a time (noisy neighbours on
//! the same cores; no steal time shows, so CPU time swings with wall
//! time). A fixed computation owned by the benchmark — std collections,
//! sorting and branchy integer code, none of the program's code — is
//! timed beside the workload, and every timing is scaled by how fast that
//! reference ran at the moment: `t × REF_NOMINAL_MS / ref_ms`. The program
//! never runs the reference, so a change to the program moves the
//! normalised figures exactly as it moves the raw ones, while a host
//! slowdown moves both the workload and the reference and mostly cancels
//! out (`NOTES.md` beside this crate gives the spreads before and after).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference's time on the development host (a 2.1 GHz x86-64 VM)
/// at its fastest, ms. Normalised timings read as if taken then.
pub const REF_NOMINAL_MS: f64 = 3.0;

/// Keys per reference pass.
const REF_KEYS: usize = 12_000;

/// Passes per sample; a sample is their fastest, so an interrupt or a
/// page fault inside one pass does not read as a slow host.
const REF_PASSES: usize = 3;

/// One pass of the reference computation.
fn reference_pass(n: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let r = next();
        keys.push(r);
        ordered.insert(r % 4096, i as u64);
        hashed.insert(r % 8192, vec![r; (r % 7) as usize]);
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for (i, r) in keys.iter().enumerate() {
        if let Some(v) = ordered.get(&(r % 4096)) {
            acc = acc.wrapping_add(v ^ i as u64);
        }
        if let Some(v) = hashed.get(&(r % 8192)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
        acc = if r & 1 == 0 {
            acc.rotate_left(3)
        } else {
            acc ^ r
        };
    }
    acc
}

/// Time the reference now on this thread, ms (fastest of [`REF_PASSES`]).
pub fn reference_ms() -> f64 {
    (0..REF_PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(reference_pass(black_box(REF_KEYS)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time the reference on `threads` threads at once, ms (their mean): the
/// speed of the cores a multi-threaded workload runs on.
pub fn reference_ms_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_ms();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(reference_ms)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Scale factor for a timing taken while the reference ran in `ref_ms`:
/// multiply a duration by it, divide a rate by it.
pub fn factor(ref_ms: f64) -> f64 {
    REF_NOMINAL_MS / ref_ms
}

/// Reference samples taken around measured intervals: the factor of an
/// interval is that of the mean of the samples before and after it.
pub struct Calib {
    threads: usize,
    last_ms: f64,
    /// Every sample, ms, for the run's metadata.
    pub samples: Vec<f64>,
}

impl Calib {
    /// Start with one sample on `threads` threads (the workload's busy
    /// threads).
    pub fn new(threads: usize) -> Calib {
        let ms = reference_ms_on(threads);
        Calib {
            threads,
            last_ms: ms,
            samples: vec![ms],
        }
    }

    /// Sample again; returns the factor of the interval since the last
    /// sample.
    pub fn sample(&mut self) -> f64 {
        let ms = reference_ms_on(self.threads);
        let f = factor((self.last_ms + ms) / 2.0);
        self.last_ms = ms;
        self.samples.push(ms);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_scales_with_size() {
        assert_eq!(reference_pass(500), reference_pass(500));
        assert_ne!(reference_pass(500), reference_pass(501));
        assert!(reference_ms() > 0.0 && reference_ms_on(2) > 0.0);
        assert_eq!(factor(REF_NOMINAL_MS), 1.0);
        assert_eq!(factor(2.0 * REF_NOMINAL_MS), 0.5);
    }
}
