//! Per-process and per-thread accounting from `/proc`, read at the edges
//! of the timed window.
//!
//! The program already names its threads (`fact-serve-N`,
//! `fact-audit-sink`, `fact-net-reader`, `fact-net-conn`,
//! `fact-net-writer`), so a layer's busy time is the CPU of the threads
//! carrying its name. No program code changes to get it.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 for user space on every architecture it supports.
const TICKS_PER_SEC: f64 = 100.0;

/// One thread's counters.
#[derive(Debug, Clone, Default)]
pub struct ThreadStat {
    /// Thread name (`comm`, at most 15 bytes).
    pub comm: String,
    /// utime + stime, in clock ticks.
    pub cpu_ticks: u64,
    /// Voluntary context switches (blocking waits, i.e. wakeups).
    pub vol_cs: u64,
}

/// A snapshot of one process.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    /// Process-wide utime + stime in clock ticks (includes exited threads).
    pub cpu_ticks: u64,
    /// Live threads by tid.
    pub threads: BTreeMap<u32, ThreadStat>,
    /// Bytes read + written through syscalls (`/proc/<pid>/io`).
    pub io_bytes: u64,
}

fn cpu_ticks_of_stat(stat: &str) -> Option<u64> {
    // the command name is parenthesized and may contain spaces: fields
    // after the last ')' start at field 3 (state); utime/stime are 14/15
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Read one process and all its live threads.
pub fn sample(pid: u32) -> Result<ProcSample, String> {
    let base = format!("/proc/{pid}");
    let stat =
        fs::read_to_string(format!("{base}/stat")).map_err(|e| format!("{base}/stat: {e}"))?;
    let cpu_ticks = cpu_ticks_of_stat(&stat).ok_or_else(|| format!("{base}/stat: unparsable"))?;
    let mut threads = BTreeMap::new();
    let tasks = fs::read_dir(format!("{base}/task")).map_err(|e| format!("{base}/task: {e}"))?;
    for entry in tasks.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        // a thread may exit between listing and reading: skip it
        let (Ok(comm), Ok(stat), Ok(status)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("stat")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        threads.insert(
            tid,
            ThreadStat {
                comm: comm.trim_end().to_string(),
                cpu_ticks: cpu_ticks_of_stat(&stat).unwrap_or(0),
                vol_cs: status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0),
            },
        );
    }
    let io = fs::read_to_string(format!("{base}/io")).unwrap_or_default();
    let io_bytes =
        status_field(&io, "rchar:").unwrap_or(0) + status_field(&io, "wchar:").unwrap_or(0);
    Ok(ProcSample {
        cpu_ticks,
        threads,
        io_bytes,
    })
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status_field(&status, "VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

/// What a process did between two samples.
#[derive(Debug, Clone, Default)]
pub struct ProcDelta {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Syscall I/O bytes.
    pub io_bytes: u64,
    /// Per thread name: (CPU seconds, voluntary context switches). Threads
    /// born inside the window count from zero.
    pub by_name: BTreeMap<String, (f64, u64)>,
}

impl ProcDelta {
    /// Between two samples of the same process.
    pub fn between(a: &ProcSample, b: &ProcSample) -> ProcDelta {
        let mut by_name: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (tid, end) in &b.threads {
            let (cpu0, cs0) = a
                .threads
                .get(tid)
                .map_or((0, 0), |s| (s.cpu_ticks, s.vol_cs));
            let slot = by_name.entry(end.comm.clone()).or_default();
            slot.0 += end.cpu_ticks.saturating_sub(cpu0) as f64 / TICKS_PER_SEC;
            slot.1 += end.vol_cs.saturating_sub(cs0);
        }
        ProcDelta {
            cpu_s: b.cpu_ticks.saturating_sub(a.cpu_ticks) as f64 / TICKS_PER_SEC,
            io_bytes: b.io_bytes.saturating_sub(a.io_bytes),
            by_name,
        }
    }

    /// Accumulate another window's delta into this one.
    pub fn add(&mut self, o: &ProcDelta) {
        self.cpu_s += o.cpu_s;
        self.io_bytes += o.io_bytes;
        for (name, &(cpu, cs)) in &o.by_name {
            let slot = self.by_name.entry(name.clone()).or_default();
            slot.0 += cpu;
            slot.1 += cs;
        }
    }

    /// CPU seconds and voluntary switches of threads whose name starts
    /// with `prefix`.
    pub fn threads(&self, prefix: &str) -> (f64, u64) {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold((0.0, 0), |(c, s), (_, &(cpu, cs))| (c + cpu, s + cs))
    }

    /// Voluntary switches summed over every thread.
    pub fn wakeups(&self) -> u64 {
        self.by_name.values().map(|&(_, cs)| cs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_in_comm() {
        let stat = "42 (fact net) S 1 2 3 4 5 6 7 8 9 10 17 5 0 0";
        assert_eq!(cpu_ticks_of_stat(stat), Some(22));
    }

    #[test]
    fn own_process_has_named_threads() {
        // the new thread names itself once it runs: wait until it does
        let (started, wait) = std::sync::mpsc::channel();
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("sb-probe".into())
            .spawn(move || {
                started.send(()).unwrap();
                let _ = stopped.recv();
            })
            .unwrap();
        wait.recv().unwrap();
        let s = sample(std::process::id()).unwrap();
        assert!(s.threads.values().any(|t| t.comm == "sb-probe"));
        drop(stop);
        handle.join().unwrap();
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.0);
    }
}
