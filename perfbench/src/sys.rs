//! Run conditions and per-process counters read from the Linux kernel:
//! host CPU steal (`/proc/stat`), per-thread run time and run-queue wait
//! (`/proc/self/task/*/schedstat`), and process CPU time and context
//! switches (`getrusage`, which keeps the totals of exited threads).

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long, c_ulong};

/// Aggregate CPU time counters from the first line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
    /// Ticks of every state (user, nice, system, idle, iowait, irq,
    /// softirq, steal; guest time is already inside user).
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// Reads the host's aggregate CPU counters.
pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of all CPU time between two readings that was stolen.
pub fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        0.0
    } else {
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

/// One thread's scheduler counters, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub run_ns: u64,
    /// Time spent runnable but waiting on a run queue.
    pub wait_ns: u64,
}

/// Parses a `schedstat` file: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(SchedStat {
        run_ns: fields.next()??,
        wait_ns: fields.next()??,
    })
}

/// The scheduler counters of every live thread of this process, by
/// thread id.
pub fn task_schedstats() -> BTreeMap<u32, SchedStat> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(stat) = std::fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            out.insert(tid, stat);
        }
    }
    out
}

/// The calling thread's scheduler counters.
pub fn thread_schedstat() -> SchedStat {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or_default()
}

/// Counter growth between two [`task_schedstats`] readings, summed over
/// the threads alive at both, and split into the threads named in
/// `clients` and the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedDelta {
    /// Run time of the `clients` threads.
    pub client_run_ns: u64,
    /// Run-queue wait of every thread.
    pub wait_ns: u64,
}

/// Sums the growth from `before` to `after` (see [`SchedDelta`]).
pub fn sched_delta(
    before: &BTreeMap<u32, SchedStat>,
    after: &BTreeMap<u32, SchedStat>,
    clients: &[u32],
) -> SchedDelta {
    let mut delta = SchedDelta::default();
    for (tid, a) in after {
        let Some(b) = before.get(tid) else { continue };
        if clients.contains(tid) {
            delta.client_run_ns += a.run_ns.saturating_sub(b.run_ns);
        }
        delta.wait_ns += a.wait_ns.saturating_sub(b.wait_ns);
    }
    delta
}

/// The calling thread's kernel id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn thread_id() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Process resource usage: every thread's, live or exited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (a thread blocked).
    pub voluntary_switches: u64,
}

impl std::ops::Sub for Usage {
    type Output = Usage;
    fn sub(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, more: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s + more.cpu_s,
            voluntary_switches: self.voluntary_switches + more.voluntary_switches,
        }
    }
}

fn usage_from_raw(raw: &RawRusage) -> Usage {
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&raw.ru_utime) + secs(&raw.ru_stime),
        voluntary_switches: raw.ru_nvcsw.max(0) as u64,
    }
}

/// The process's resource usage so far.
pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a writable `struct rusage` with the kernel's layout
    // for this target, and `RUSAGE_SELF` names the calling process.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage_from_raw(&raw)
}

/// Lets the calling thread's timed sleeps wake within a microsecond of
/// their deadline instead of the default 50 µs timer slack, so an
/// open-loop generator sends when its requests are due.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and ignores the
    // rest; it only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_aggregate_line() {
        let text = "cpu  100 5 20 800 10 1 2 62 7 0\ncpu0 50 2 10 400 5 0 1 31 3 0\n";
        let t = parse_proc_stat(text).unwrap();
        assert_eq!(t.steal, 62);
        assert_eq!(t.total, 100 + 5 + 20 + 800 + 10 + 1 + 2 + 62);
        let later = CpuTicks {
            steal: 62 + 25,
            total: t.total + 100,
        };
        assert_eq!(steal_share(t, later), 0.25);
        assert_eq!(steal_share(t, t), 0.0);
        assert!(parse_proc_stat("cpu0 1 2 3\n").is_none());
        assert!(parse_proc_stat("cpu  1 2 3\n").is_none());
        assert!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n").is_none());
    }

    #[test]
    fn schedstat_fields_and_deltas() {
        assert_eq!(
            parse_schedstat("794938 1531118 2\n"),
            Some(SchedStat {
                run_ns: 794938,
                wait_ns: 1531118
            })
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat(""), None);
        let s = |run_ns, wait_ns| SchedStat { run_ns, wait_ns };
        let before = BTreeMap::from([(1, s(100, 10)), (2, s(200, 20)), (3, s(0, 0))]);
        // Thread 3 exited, thread 4 started: only threads alive at both
        // readings count.
        let after = BTreeMap::from([(1, s(150, 15)), (2, s(260, 50)), (4, s(9, 9))]);
        assert_eq!(
            sched_delta(&before, &after, &[2]),
            SchedDelta {
                client_run_ns: 60,
                wait_ns: 5 + 30
            }
        );
    }

    #[test]
    fn live_schedstat_and_thread_id() {
        let tid = thread_id().expect("a Linux /proc");
        let stats = task_schedstats();
        assert!(stats.contains_key(&tid));
    }

    #[test]
    fn rusage_conversion_and_growth() {
        let raw = RawRusage {
            ru_utime: Timeval {
                tv_sec: 2,
                tv_usec: 250_000,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 500_000,
            },
            ru_nvcsw: 42,
            ..RawRusage::default()
        };
        let u = usage_from_raw(&raw);
        assert_eq!(u.cpu_s, 2.75);
        assert_eq!(u.voluntary_switches, 42);
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let grown = usage() - before;
        assert!(grown.cpu_s > 0.0, "busy loop used no CPU: {x}");
    }
}
