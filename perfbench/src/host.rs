//! Process and host facts read from `/proc`, and CPU pinning.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this process could run on when it started, before any
/// pinning narrowed them.
pub fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return vec![0];
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Cores this process may use.
fn nproc() -> usize {
    cpus().len().max(1)
}

/// Pins every thread of this process to one CPU: the `round`-th of
/// [`cpus`], cyclically. Two threads on one CPU hand a request over by a
/// context switch instead of waking an idle virtual CPU, whose wake-up
/// latency is the hypervisor's; and moving from CPU to CPU between rounds
/// keeps a slowdown that hits one virtual CPU out of the quiet time.
pub fn pin_round(round: usize) -> Result<(), String> {
    set_affinity(&[cpus()[round % cpus().len()]])
}

/// Lets every thread of this process run on all of [`cpus`] again.
pub fn unpin() -> Result<(), String> {
    set_affinity(cpus())
}

fn set_affinity(allowed: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in allowed {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        // A thread that ended since the directory was read is no error.
        if rc != 0 && std::path::Path::new(&format!("/proc/self/task/{tid}")).exists() {
            return Err(format!("cannot set the CPUs of thread {tid}"));
        }
    }
    Ok(())
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), or a plain count
/// field (e.g. `Threads`).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far (MiB).
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Threads this process holds right now.
fn threads() -> Option<u64> {
    status_field("Threads")
}

/// Waits, yielding the CPU, until the process is down to `n` threads again
/// (for about 0.1 s at most). A scoped thread is joined once its work is done, so
/// on a pinned process it may still be exiting, behind the joiner, when
/// the next one starts; waiting between timed calls lets it finish.
pub fn settle_threads(n: u64) {
    for _ in 0..1000 {
        if threads().is_none_or(|t| t <= n) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
}

/// Checks that the process holds no more threads than there are cores: a
/// benchmark that oversubscribes a small host measures the scheduler. A
/// thread that has just been joined can linger in `/proc` for a moment, so
/// an excess must still be there 20 ms later.
pub fn check_threads(at: &str) -> Result<(), String> {
    let over = || threads().filter(|&n| n as usize > nproc());
    if over().is_none() {
        return Ok(());
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    match over() {
        Some(n) => Err(format!(
            "{n} threads at {at}, more than the {} cores",
            nproc()
        )),
        None => Ok(()),
    }
}

/// Serialises the tests that pin the (shared) test process.
#[cfg(test)]
pub static PIN_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_the_process_and_keeps_the_core_count() {
        let _serial = PIN_TESTS.lock();
        let all = cpus().to_vec();
        assert!(!all.is_empty());
        pin_round(1).unwrap();
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        // The core count is the one the process started with.
        assert_eq!(nproc(), all.len());
        unpin().unwrap();
        assert_eq!(
            std::thread::available_parallelism().unwrap().get(),
            all.len()
        );
    }
}
