//! Host-speed index: a fixed, std-only kernel timed around every run.
//!
//! The host this benchmark runs on may share its cores with other
//! tenants, which slows the simulator by up to ~1.7x for tens of seconds
//! at a time. The kernel below keeps the integer units busy with eight
//! independent xorshift chains plus L1-resident table updates, so it
//! competes for the same core resources the simulator does. On the
//! 2-vCPU VM the benchmark was defined on, log run time against log
//! kernel time had a slope of 0.97 on `core-462` and 0.98 on `mem-429`:
//! both slowed down by the same factor. The kernel never calls bosim, so
//! no change to bosim can change its time.

use std::hint::black_box;
use std::time::Instant;

const ROUNDS: u64 = 2_000_000;

/// Seconds each of `n` passes of the kernel takes now, with `threads`
/// copies running at once (as many as the measured code runs threads);
/// a pass's time is the mean over its copies. A single copy runs on the
/// calling thread, so it adds no thread stack to the peak resident set.
pub fn samples(n: usize, threads: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if threads <= 1 {
                return sample();
            }
            let times: Vec<f64> = std::thread::scope(|s| {
                let copies: Vec<_> = (0..threads).map(|_| s.spawn(sample)).collect();
                copies
                    .into_iter()
                    .map(|c| c.join().expect("the host-speed kernel does not panic"))
                    .collect()
            });
            times.iter().sum::<f64>() / threads as f64
        })
        .collect()
}

fn sample() -> f64 {
    let t = Instant::now();
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut table = [0u64; 256];
    for i in 0..ROUNDS {
        for (k, v) in chains.iter_mut().enumerate() {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let slot = (*v as usize + k) & 255;
            table[slot] = table[slot].wrapping_add(*v);
        }
        if chains[(i & 7) as usize] & 3 == 0 {
            chains[0] = chains[0].wrapping_add(table[(i & 255) as usize]);
        }
    }
    black_box((&chains, &table));
    t.elapsed().as_secs_f64()
}
