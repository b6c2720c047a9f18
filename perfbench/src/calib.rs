//! Time at a reference speed: wall times scaled by a calibration kernel
//! run between the timed operations.
//!
//! The host this benchmark was tuned on (a 2-CPU Xeon container) shares
//! its cores with other tenants. Whenever a neighbour is busy, the
//! memory-bound work of this program — set-up, passes, ingest, queries —
//! runs up to about 1.5 times slower, in spells of seconds to minutes,
//! while a compute-bound loop does not slow down at all. No statistic of
//! raw wall times survives that: a run that falls in a busy spell reads
//! slow throughout. So a fixed, memory-bound kernel (hash-map inserts
//! and probes, then a sort, about 10 MB) runs after every timed
//! operation, and a run reports each time as its wall-clock median
//! times `REFERENCE_S / median(kernel times)`: the time it would take
//! where the kernel takes [`REFERENCE_S`]. Over eighteen `paper_batch`
//! workers in a row, the interquartile range of their median one-thread
//! pass was 14% of the median; that of the pass over the kernel, 3%.
//!
//! The kernel is this file's own code and runs in a child process: it
//! links nothing of the crates under test, so a change to them cannot
//! move it, and its allocations stay out of the measured process's heap
//! and peak RSS.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// What the kernel takes on a quiet core of the host the benchmark was
/// tuned on, in seconds. The scaled times are in seconds at that speed.
pub const REFERENCE_S: f64 = 0.040;

/// Run the calibration kernel once; returns its wall time in seconds.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..200_000 {
        map.insert(next() & 0xFF_FFFF, i);
    }
    let mut hits = 0u64;
    for _ in 0..600_000 {
        hits = hits.wrapping_add(map.get(&(next() & 0xFF_FFFF)).copied().unwrap_or(1));
    }
    let mut sorted: Vec<u64> = (0..400_000).map(|_| next()).collect();
    sorted.sort_unstable();
    black_box((hits, sorted[sorted.len() / 2]));
    t.elapsed().as_secs_f64()
}

/// The kernel as a service: `iotscope-perfbench calibrate` runs it once
/// per line read from stdin and prints its time, in seconds.
pub fn serve() -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| format!("read: {e}"))?;
        writeln!(out, "{:?}", kernel())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write: {e}"))?;
    }
    Ok(())
}

/// Runs the kernel, in a child process, after each operation it wraps,
/// and keeps the kernel's times. A disabled calibrator runs no kernel
/// (the traced run reports raw per-layer times).
pub struct Calibrator {
    child: Option<Child>,
    /// Every kernel time, in seconds.
    pub kernel_s: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose kernel has run once.
    pub fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let child = Command::new(exe)
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the calibration kernel: {e}"))?;
        let mut cal = Calibrator {
            child: Some(child),
            kernel_s: Vec::new(),
        };
        cal.run_kernel();
        Ok(cal)
    }

    pub fn disabled() -> Self {
        Calibrator {
            child: None,
            kernel_s: Vec::new(),
        }
    }

    /// Run the kernel once in the child and keep its time.
    fn run_kernel(&mut self) {
        let child = self.child.as_mut().expect("an enabled calibrator");
        let (Some(stdin), Some(stdout)) = (child.stdin.as_mut(), child.stdout.as_mut()) else {
            panic!("calibration kernel without pipes");
        };
        let mut reply = Vec::new();
        let mut byte = [0u8];
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .expect("calibration kernel stopped");
        while stdout.read_exact(&mut byte).is_ok() && byte[0] != b'\n' {
            reply.push(byte[0]);
        }
        let s: f64 = std::str::from_utf8(&reply)
            .ok()
            .and_then(|r| r.parse().ok())
            .expect("calibration kernel answered a time");
        self.kernel_s.push(s);
    }

    /// Run `f`, then the kernel.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let out = f();
        if self.child.is_some() {
            self.run_kernel();
        }
        out
    }
}

impl Drop for Calibrator {
    /// Close the child's stdin, so it ends, and wait for it.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }
}
