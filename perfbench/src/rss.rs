//! Peak resident set size, as the `churn_scale` bench measures it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One `/proc/self/status` memory field (`VmHWM:`, `VmRSS:`, …) in MiB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?;
        let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

/// The process's peak RSS: the kernel's `VmHWM` where procfs has it,
/// else the maximum of `VmRSS` sampled every 25 ms on a background
/// thread (some container kernels omit `VmHWM`).
pub struct RssWatermark {
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<f64>>,
}

impl RssWatermark {
    /// Starts watching; the sampler thread runs only without `VmHWM`.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = proc_status_mb("VmHWM:").is_none().then(|| {
            let flag = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut max: f64 = 0.0;
                while !flag.load(Ordering::Relaxed) {
                    max = max.max(proc_status_mb("VmRSS:").unwrap_or(0.0));
                    std::thread::sleep(Duration::from_millis(25));
                }
                max.max(proc_status_mb("VmRSS:").unwrap_or(0.0))
            })
        });
        RssWatermark { stop, sampler }
    }

    /// Stops the sampler and returns the peak in MiB (0 without procfs).
    pub fn peak_mb(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let sampled = self
            .sampler
            .take()
            .map_or(0.0, |h| h.join().expect("the RSS sampler never panics"));
        proc_status_mb("VmHWM:").unwrap_or(sampled)
    }
}
