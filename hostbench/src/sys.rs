//! Process-wide readings from `/proc/self` and the process settings
//! the benchmark fixes before it measures (Linux).

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included (exited threads too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

/// utime + stime ticks from the text of `/proc/<pid>/stat`. The command
/// name in field 2 may hold spaces, so fields are counted from its
/// closing parenthesis: utime and stime are fields 14 and 15.
pub fn parse_cpu_ticks(stat: &str) -> Result<u64, String> {
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("no command field in stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("stat field {} missing", i + 3))
    };
    Ok(field(11)? + field(12)?)
}

/// Peak resident set size of the process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 * 1024.0 / 1e6)
}

/// The `VmHWM:` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in status".to_string())
}

/// Machine-wide CPU ticks: (stolen by the hypervisor, all states), from
/// the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_steal(&stat)
}

/// Parse the aggregate `cpu` line: user nice system idle iowait irq
/// softirq steal [guest guest_nice]. Guest time is already counted in
/// user time, so the total stops at steal.
pub fn parse_steal(stat: &str) -> Result<(u64, u64), String> {
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| {
            f.parse()
                .map_err(|e| format!("/proc/stat field {f:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if ticks.len() < 8 {
        return Err("short cpu line in /proc/stat".into());
    }
    Ok((ticks[7], ticks.iter().sum()))
}

/// Share of all CPU time the hypervisor stole between two
/// [`steal_ticks`] readings (0 when no time passed).
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Fix glibc's mmap threshold at its initial 128 KiB, which also turns
/// off its dynamic adjustment. Left dynamic, the threshold rises to the
/// size of the largest mapped block freed so far, so whether later large
/// blocks are mapped (and unmapped on free) or kept in a thread's arena
/// depends on which thread freed what first. On the hybrid workload the
/// run's `VmHWM` then settled at one of two levels about a third apart. With
/// the threshold fixed, every block of 128 KiB or more is mapped and
/// returned on free, and `VmHWM` follows the program's live memory.
/// Returns whether the setting took (it needs glibc).
pub fn fix_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_MMAP_THRESHOLD` of glibc's `<malloc.h>`.
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes allocator parameters; glibc
        // takes its own arena locks while doing so.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Bytes of the kernel's CPU mask (`cpu_set_t`: 1024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
        }
        let mut mask = [0u8; CPU_SET_BYTES];
        // SAFETY: the mask buffer is `CPU_SET_BYTES` long, as passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Err("sched_getaffinity failed".into());
        }
        let cpu = (0..CPU_SET_BYTES * 8)
            .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
            .ok_or("the affinity mask names no CPU")?;
        let mut one = [0u8; CPU_SET_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: as above.
        if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
            return Err(format!("sched_setaffinity to CPU {cpu} failed"));
        }
        Ok(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        Err("pinning needs Linux".into())
    }
}

/// CPUs the calling thread may run on, from `/proc/thread-self/status`.
pub fn allowed_cpus() -> Result<String, String> {
    let status = fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("/proc/thread-self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| "no Cpus_allowed_list line in status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let stat = "4242 (pgr host) bench) R 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0";
        assert_eq!(parse_cpu_ticks(stat), Ok(267));
        assert!(parse_cpu_ticks("4242 (x) R 1").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   1234 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(1234));
        assert!(parse_vm_hwm_kib("Name:\tx\n").is_err());
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 0 50 800 5 0 5 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal(stat), Ok((40, 1000)));
        assert_eq!(steal_frac((40, 1000), (90, 1500)), 0.1);
        assert_eq!(steal_frac((40, 1000), (40, 1000)), 0.0);
        assert!(parse_steal("cpu  1 2 3\n").is_err());
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn the_mmap_threshold_can_be_fixed_under_glibc() {
        assert!(fix_mmap_threshold());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_exactly_one_cpu_to_the_thread_and_its_children() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            assert_eq!(allowed_cpus().unwrap(), cpu.to_string());
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child.unwrap(), cpu.to_string());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
