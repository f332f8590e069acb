//! Host fingerprint and process memory, stated with every result.

use std::fs;

use mlscore_exec::{ExecPool, SimdLevel};

/// The facts a reader needs to compare two results.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads this process may run on.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// SIMD tier the kernels run at.
    pub simd: SimdLevel,
    /// Workers of the global executor pool (starts the pool).
    pub pool_workers: usize,
    /// Client threads issuing queries.
    pub clients: usize,
}

impl Host {
    /// Fingerprints this host for a run with `clients` client threads.
    ///
    /// # Errors
    ///
    /// Refuses a configuration whose pool or client threads exceed the
    /// host's hardware threads: a thread-count claim is only honest on a
    /// host that has those cores.
    pub fn check(clients: usize) -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host = Host {
            nproc,
            cpu_model: cpu_model(),
            simd: SimdLevel::detect(),
            pool_workers: ExecPool::global().max_workers(),
            clients,
        };
        if host.pool_workers > nproc || clients > nproc {
            return Err(format!(
                "refusing to run: {} pool workers and {clients} clients on {nproc} hardware threads",
                host.pool_workers
            ));
        }
        Ok(host)
    }

    /// One line for the report.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" simd={} pool_workers={} clients={}",
            self.nproc,
            self.cpu_model,
            self.simd.name(),
            self.pool_workers,
            self.clients
        )
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
