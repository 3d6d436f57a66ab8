//! Process resource readings from `/proc/self`.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100
/// on every mainstream Linux configuration).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in seconds
/// (`utime` + `stime` of `/proc/self/stat`, all threads included).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    // utime and stime are fields 14 and 15 of the full line.
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_time_advances() {
        let before = cpu_seconds();
        let mut x = 1u64;
        let start = fume_obs::clock::Stopwatch::start();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
