//! Worker descriptions for the distributed executor.

/// A worker: a (possibly remote, possibly accelerated) execution slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Worker {
    /// Worker name.
    pub name: String,
    /// Relative speed: task time = `cost_us / speed`.
    pub speed: f64,
    /// Per-byte transfer cost to/from this worker, microseconds
    /// (models the worker's network attachment; 0 for co-located data).
    pub us_per_byte: f64,
    /// Fixed message latency for any inbound transfer, microseconds.
    pub latency_us: f64,
}

impl Worker {
    /// Creates a worker.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn new(name: impl Into<String>, speed: f64, us_per_byte: f64, latency_us: f64) -> Worker {
        assert!(speed > 0.0, "worker speed must be positive");
        Worker { name: name.into(), speed, us_per_byte, latency_us }
    }

    /// A pool of `n` identical workers on a datacenter LAN.
    pub fn uniform_pool(n: usize, speed: f64) -> Vec<Worker> {
        (0..n).map(|i| Worker::new(format!("w{i}"), speed, 1.0 / (1.1 * 1e3), 25.0)).collect()
    }

    /// A heterogeneous pool: `fast` accelerated workers (speed 4.0) and
    /// `slow` baseline workers (speed 1.0).
    pub fn heterogeneous_pool(fast: usize, slow: usize) -> Vec<Worker> {
        let mut pool = Vec::new();
        for i in 0..fast {
            pool.push(Worker::new(format!("fpga{i}"), 4.0, 1.0 / (1.2 * 1e3), 4.0));
        }
        for i in 0..slow {
            pool.push(Worker::new(format!("cpu{i}"), 1.0, 1.0 / (1.1 * 1e3), 25.0));
        }
        pool
    }

    /// Time for this worker to execute a task of base cost `cost_us`.
    pub fn exec_time(&self, cost_us: f64) -> f64 {
        cost_us / self.speed
    }

    /// Time to pull `bytes` of input produced on another worker.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 * self.us_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_time_scales_inversely_with_speed() {
        let w = Worker::new("w", 2.0, 0.0, 0.0);
        assert_eq!(w.exec_time(100.0), 50.0);
    }

    #[test]
    fn pools_have_requested_sizes() {
        assert_eq!(Worker::uniform_pool(8, 1.0).len(), 8);
        let h = Worker::heterogeneous_pool(2, 6);
        assert_eq!(h.len(), 8);
        assert!(h[0].speed > h[7].speed);
    }

    #[test]
    fn transfer_has_latency_floor() {
        let w = Worker::uniform_pool(1, 1.0).remove(0);
        assert!(w.transfer_time(0) >= 25.0);
        assert!(w.transfer_time(1_000_000) > w.transfer_time(1_000));
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        Worker::new("w", 0.0, 0.0, 0.0);
    }
}
